"""Every name a pairsim module, test or demo imports is used in that file,
and every private name a pairsim module defines is read in the package.

No linter ships with the toolchain, so this parses each file with `ast`.
`__init__.py` is left out of the import check: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import pytest

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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
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
