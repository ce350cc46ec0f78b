"""Every name a pairsim module, test or demo imports is used in that file,
every private name a pairsim module defines is read in the package, and
every public name the package exports is read by a pairsim module, a demo
or a traced perfbench boundary.  The package imports nothing at run time
but the standard library, numpy and itself, and numpy is its one declared
dependency.  Every row norm in the package goes through `numkit.row_norms`.
Every field of a config section's dataclass is read somewhere in the
package besides its own class's checks.

No linter ships with the toolchain, so this parses each file with `ast`.
`__init__.py` is left out of the import check: its imports are the
package's public names.
"""

import ast
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from pairsim.config import _SECTIONS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pairsim"
# package modules go by their file name, tests and demos by their path
FILES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
FILES.update(
    (str(p.relative_to(ROOT)), p) for d in ("tests", "demos") for p in (ROOT / d).glob("*.py")
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom a.b import c as d, e\nprint(e)\n") == [
        "line 1: os", "line 2: d",
    ]


@pytest.mark.parametrize("module", sorted(FILES))
def test_every_imported_name_is_used(module):
    assert unused_imports(FILES[module].read_text()) == []


def names_read(tree) -> set:
    """Names a parsed file loads, and attributes it names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict) -> list:
    """Module-level names with one leading underscore, defined in one of
    ``sources`` ({file name: source}) and read in none of them."""
    defined, read = {}, set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{fname} line {node.lineno}: {name}"
        read |= names_read(tree)
    return sorted(where for name, where in defined.items() if name not in read)


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": "_x = 1\n_y, z = 2, 3\n__all__ = []\ndef _f():\n    return _y\n",
        "b.py": "import a\nfrom a import _f\n_f()\nclass _C:\n    pass\na._C\n",
    }
    assert unread_private_names(sources) == ["a.py line 1: _x"]


def test_every_private_name_in_the_package_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def unread_exports(init_source: str, sources: list, traced: set) -> list:
    """Names ``init_source`` imports that none of ``sources`` reads and that
    are not in ``traced``."""
    read = set(traced)
    for source in sources:
        read |= names_read(ast.parse(source))
    return sorted(
        f"line {node.lineno}: {name}"
        for node in ast.walk(ast.parse(init_source))
        if isinstance(node, ast.ImportFrom)
        for name in (alias.asname or alias.name for alias in node.names)
        if name not in read
    )


def traced_attributes(source: str) -> set:
    """The attribute (second) entry of each row of a `BOUNDARIES` tuple."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return {row.elts[1].value for row in node.value.elts}
    raise AssertionError("no BOUNDARIES assignment")


def test_the_check_sees_an_unread_export():
    init = "from .a import f, g as h, k\nfrom .b import C, D\n"
    sources = ["from .a import f\nf()\n", "import b\nb.C\n"]
    assert unread_exports(init, sources, traced={"k"}) == ["line 1: h", "line 2: D"]
    tracing = 'BOUNDARIES = (\n    ("pkg.mod", "k", "mod.k", {}),\n)\n'
    assert traced_attributes(tracing) == {"k"}


def test_every_export_is_read_by_the_package_a_demo_or_a_traced_boundary():
    init = (PACKAGE / "__init__.py").read_text()
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources = [p.read_text() for p in (*modules, *(ROOT / "demos").glob("*.py"))]
    traced = traced_attributes((ROOT / "perfbench" / "tracing.py").read_text())
    assert unread_exports(init, sources, traced) == []


def foreign_imports(source: str) -> list:
    """Imports of ``source`` from outside the standard library, numpy and
    its own package (relative imports, or ``pairsim``)."""
    allowed = sys.stdlib_module_names | {"numpy", "pairsim"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] not in allowed]
    return found


def test_the_check_sees_a_foreign_import():
    source = "import os, scipy.sparse\nfrom numpy import ones\nfrom . import data\n"
    source += "def f():\n    from scipy.optimize import linear_sum_assignment\n"
    assert foreign_imports(source) == ["line 1: scipy.sparse", "line 5: scipy.optimize"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_the_package_imports_only_the_standard_library_and_numpy(module):
    assert foreign_imports((PACKAGE / module).read_text()) == []


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]



def _callee(node) -> str:
    """The source text of a call's function (``np.linalg.norm``), '' for a non-call."""
    return ast.unparse(node.func) if isinstance(node, ast.Call) else ""


def _on_rows(call) -> bool:
    return any(
        kw.arg == "axis" and ast.unparse(kw.value) in ("1", "-1") for kw in call.keywords
    )


def hand_row_norms(source: str) -> list:
    """Row norms ``source`` takes other than through `row_norms`: calls of
    ``np.linalg.norm(.., axis=1)``, and ``np.sqrt`` of an ``axis=1`` sum
    outside the function named ``row_norms``."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            here = inside or (isinstance(child, ast.FunctionDef) and child.name == "row_norms")
            if _callee(child).endswith("linalg.norm") and _on_rows(child):
                found.append(f"line {child.lineno}: linalg.norm")
            elif _callee(child).endswith("sqrt") and not here and any(
                _callee(arg).endswith(("add.reduce", "sum")) and _on_rows(arg)
                for arg in child.args
            ):
                found.append(f"line {child.lineno}: sqrt of a row sum")
            visit(child, here)

    visit(ast.parse(source), False)
    return found


def test_the_check_sees_a_hand_written_row_norm():
    source = (
        "def row_norms(a):\n    return np.sqrt(np.add.reduce(a * a, axis=1))\n"
        "n = np.linalg.norm(x, axis=1)\nv = np.linalg.norm(x)\n"
        "k = numpy.linalg.norm(x, axis=-1, keepdims=True)\n"
        "def f(a):\n    np.sqrt(np.add.reduce(a * a, axis=1), out=o)\n"
        "    return np.sqrt((a * a).sum(axis=1)), np.sqrt(np.sum(a * a, axis=0))\n"
    )
    assert hand_row_norms(source) == [
        "line 3: linalg.norm", "line 5: linalg.norm",
        "line 7: sqrt of a row sum", "line 8: sqrt of a row sum",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_row_norm_goes_through_row_norms(module):
    assert hand_row_norms((PACKAGE / module).read_text()) == []


def unread_fields(sources: dict, declared: dict) -> list:
    """``Class.field`` for each field of ``declared`` ({class name: field
    names}) that no attribute load in ``sources`` ({file name: source})
    reads, leaving out the loads in that class's own ``__post_init__``."""
    reads = {name: set() for name in declared}
    for source in sources.values():
        tree = ast.parse(source)
        checks = {}  # id of a node -> the class whose __post_init__ holds it
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in declared:
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                        checks.update((id(node), cls.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                for name in declared:
                    if checks.get(id(node)) != name:
                        reads[name].add(node.attr)
    return [f"{name}.{f}" for name, names in declared.items() for f in names
            if f not in reads[name]]


def test_the_check_sees_a_dead_config_field():
    sources = {
        "a.py": "class C:\n    x: int = 0\n    y: int = 0\n    z: int = 0\n"
                "    def __post_init__(self):\n        assert self.x >= 0 and self.y >= 0\n"
                "def f(c):\n    c.x = c.y\n",
        "b.py": "class D:\n    def __post_init__(self):\n        print(self.z)\n",
    }
    assert unread_fields(sources, {"C": ["x", "y", "z"]}) == ["C.x"]


def test_every_config_field_is_read_outside_its_checks():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    declared = {cls.__name__: [f.name for f in fields(cls)] for cls in _SECTIONS}
    assert unread_fields(sources, declared) == []
