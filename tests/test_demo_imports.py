"""Every name a demo imports from polyreg must still exist.

The demos run nothing under pytest, so a rename or deletion in ``src/``
would break them silently; each ``from polyreg... import name`` in
``demos/*.py`` is resolved here without running the demo.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
sys.path.insert(0, str(DEMOS.parent / "src"))


def _polyreg_imports():
    found = []
    for demo in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"), filename=str(demo))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polyreg":
                found += [(demo.name, node.module, alias.name) for alias in node.names]
    return found


IMPORTS = _polyreg_imports()


def test_demos_import_from_polyreg():
    assert {demo for demo, _, _ in IMPORTS} == {demo.name for demo in DEMOS.glob("*.py")}


@pytest.mark.parametrize("demo, module_name, name", IMPORTS, ids=[f"{d}:{m}.{n}" for d, m, n in IMPORTS])
def test_demo_import_resolves(demo, module_name, name):
    module = importlib.import_module(module_name)
    assert hasattr(module, name), f"{demo}: {module_name} has no {name}"
