"""``import polyreg`` must not load ``scipy.stats``.

Importing ``scipy.stats`` costs about a second, and every ``polyreg``
subcommand pays the package's import time.  Each check runs in a fresh
interpreter, since this test process may already hold ``scipy.stats``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["polyreg", "polyreg.cli"])
def test_import_leaves_out_scipy_stats(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
