"""The benchmark's traced mode wraps gciva functions by name; a change that
deletes or renames one of them breaks the benchmark, so these tests fail
first. ``TARGETS`` is read from ``perfbench/spans.py`` as source, without
importing the benchmark."""

import ast
import importlib
from pathlib import Path

import pytest

import gciva

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets() -> dict:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_targets_name_gciva_modules():
    targets = traced_targets()
    assert "iva" in targets
    assert all(module.startswith("gciva.") and names
               for module, names in targets.values())


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in traced_targets().values() for name in names
])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), \
        f"{module}.{name} is wrapped by the benchmark's traced mode but does not exist"


@pytest.mark.parametrize("name", gciva.__all__)
def test_public_name_resolves(name):
    assert hasattr(gciva, name), f"gciva.__all__ lists {name!r}, which gciva lacks"
