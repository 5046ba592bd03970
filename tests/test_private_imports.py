"""No gciva module imports an underscore name from a sibling module: a name
that another module needs belongs to the package's interface, so it is public.
No module keeps a private helper that it never uses, or imports a name it
never reads. The modules are read as source with ``ast``."""

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


def referenced_names(node: ast.AST) -> set[str]:
    # every name read or bound under node, and every attribute taken
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unused_private_definitions(tree: ast.Module) -> list[str]:
    # module-level private functions and classes that no other statement of
    # their module references; no sibling may import them (checked below)
    unused = []
    for definition in tree.body:
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef)) and \
                definition.name.startswith("_"):
            uses = set().union(*(referenced_names(node) for node in tree.body
                                 if node is not definition))
            if definition.name not in uses:
                unused.append(definition.name)
    return unused


def unused_imports(tree: ast.Module) -> list[str]:
    # names a module imports but never reads; __init__'s re-exports are
    # read through __all__
    imported, used = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        else:
            used |= referenced_names(node)
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_definition_is_used(path):
    assert unused_private_definitions(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_checks_find_a_dead_helper_and_an_unused_import():
    tree = ast.parse("import os\nfrom .stft import StftConfig\n"
                     "def _dead():\n    return _dead()\n")
    assert unused_private_definitions(tree) == ["_dead"]
    assert unused_imports(tree) == ["os", "StftConfig"]


def test_modules_found():
    assert {"cli.py", "iva.py", "metrics.py"} <= {path.name for path in MODULES}
