"""No gciva module imports an underscore name from a sibling module: a name
that another module needs belongs to the package's interface, so it is public.
The modules are read as source with ``ast``."""

import ast
from pathlib import Path

import pytest

import gciva

MODULES = sorted(Path(gciva.__file__).resolve().parent.glob("*.py"))


def private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gciva"):
            found += [f"{node.module or '.'}:{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path) == []


def test_modules_found():
    assert {"cli.py", "iva.py", "metrics.py"} <= {path.name for path in MODULES}
