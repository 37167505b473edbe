"""Every demo must run, and every name it imports from polyreg must exist.

Each ``demos/*.py`` runs to exit 0 in a fresh interpreter with
``PYTHONPATH=src``.  Each ``from polyreg... import name`` in them is also
resolved without running the demo, so a rename or deletion in ``src/``
names the missing import, not just a failed run.
"""

import ast
import importlib
import os
import subprocess
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


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda demo: demo.name)
def test_demo_runs_to_exit_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(DEMOS.parent / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []  # a demo writes no file
