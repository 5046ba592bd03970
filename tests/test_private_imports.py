"""No gciva module imports an underscore name from a sibling module: a name
that another module needs belongs to the package's interface, so it is public.
No module keeps a private helper that it never uses, or imports a name it
never reads, and no module but ``errors.py`` writes its own ``0 <= i < n``
index check: indices go through ``errors.checked_index``. The modules are
read as source with ``ast``."""

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


def index_range_checks(tree: ast.AST) -> list[int]:
    # lines of comparisons that start at the int 0 and end with <, the shape
    # of a hand-written 0 <= i < n (a float range such as 0.0 <= d <= 180.0
    # is not an index check)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant) and type(node.left.value) is int
            and node.left.value == 0 and isinstance(node.ops[-1], ast.Lt)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_definition_is_used(path):
    assert unused_private_definitions(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda path: path.name)
def test_no_hand_written_index_range_check(path):
    assert index_range_checks(ast.parse(path.read_text())) == []


def test_check_finds_index_range_checks_only():
    tree = ast.parse("if not 0 <= k < n:\n    pass\n"
                     "if not 0.0 <= d <= 180.0:\n    pass\n"
                     "ok = 0 <= k and k <= n\n"
                     "if any(not 0 <= k < n for k in ks):\n    pass\n")
    assert index_range_checks(tree) == [1, 6]


def test_checks_find_a_dead_helper_and_an_unused_import():
    tree = ast.parse("import os\nfrom .stft import StftConfig\n"
                     "def _dead():\n    return _dead()\n")
    assert unused_private_definitions(tree) == ["_dead"]
    assert unused_imports(tree) == ["os", "StftConfig"]


def test_modules_found():
    assert {"cli.py", "iva.py", "metrics.py"} <= {path.name for path in MODULES}
