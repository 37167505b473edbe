"""Every function the benchmark wraps or ticks must still exist in polyreg.

``perfbench/tracing.py`` rebinds each ``(module, attribute)`` of ``STAGES``
and ``LAYERS`` and raises on a missing one, and ``perfbench/bench.py``
places speed-probe ticks around ``PROBE_TICKS``; a rename in ``src/``
would stop the benchmark at its first run, so it is caught here.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(PERFBENCH.parent / "src"), str(PERFBENCH)]

import bench  # noqa: E402
import tracing  # noqa: E402

HOOKS = sorted(
    {(spec[0], spec[1]) for spec in tracing.STAGES + tracing.LAYERS} | set(bench.PROBE_TICKS)
)


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}:{a}" for m, a in HOOKS])
def test_benchmark_hook_resolves(module_name, attr):
    assert module_name.startswith("polyreg.")
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(target, part), f"{module_name} has no {attr}"
        target = getattr(target, part)
    assert callable(target)
