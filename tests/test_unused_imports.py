"""Every name a pairsim module, test or demo imports is used in that file.

No linter ships with the toolchain, so this parses each file with `ast`.
`__init__.py` is left out: its imports are the package's public names.
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
