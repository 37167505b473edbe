"""``import polyreg`` must load neither ``scipy.stats`` nor ``scipy.special``.

Importing ``scipy.stats`` costs about a second, and ``scipy.special``
about 0.3 s with a second OpenBLAS; every ``polyreg`` subcommand pays the
package's import time.  Each check runs in a fresh interpreter, since this
test process may already hold both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_under(module: str, package: str) -> str:
    """The sorted names of ``package`` and its submodules that a fresh
    ``import module`` loads, as the subprocess prints them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if (m + '.').startswith('{package}.')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _special_ufuncs_has_erf() -> bool:
    try:
        from scipy.special import _special_ufuncs
    except ImportError:
        return False
    return hasattr(_special_ufuncs, "erf")


@pytest.mark.parametrize("module", ["polyreg", "polyreg.cli"])
def test_import_leaves_out_scipy_stats(module):
    assert _loaded_under(module, "scipy.stats") == "[]"


@pytest.mark.skipif(
    not _special_ufuncs_has_erf(),
    reason="this scipy has no _special_ufuncs extension with erf, so polyreg takes erf from scipy.special",
)
@pytest.mark.parametrize("module", ["polyreg", "polyreg.cli"])
def test_import_leaves_out_scipy_special(module):
    assert _loaded_under(module, "scipy.special") == "[]"
