"""Every function the benchmark wraps or ticks must still exist in polyreg,
and run on the thread that called into polyreg.

``perfbench/tracing.py`` rebinds each ``(module, attribute)`` of ``STAGES``
and ``LAYERS`` and raises on a missing one, and ``perfbench/bench.py``
places speed-probe ticks around ``PROBE_TICKS``; a rename in ``src/``
would stop the benchmark at its first run, so it is caught here.  The
tracer keeps one span stack per process and the speed probe ticks on the
measured thread, so no hooked name may run on a worker thread.
"""

import importlib
import sys
import threading
from pathlib import Path

import numpy as np
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


def test_predict_runs_every_hooked_name_on_the_calling_thread(monkeypatch):
    from polyreg import metrics, regressor
    from polyreg.datasets import PromptInstance
    from polyreg.model import PropertyModel
    from polyreg.objective import LabelTransforms
    from polyreg.registry import N_HEADS
    from polyreg.trainer import TrainConfig, TrainedModel

    cfg = TrainConfig(seed=1, vocab_size=4096, dim=16, rank=4, hidden_dim=16, pooling_mode="attention")
    table = LabelTransforms(np.zeros(N_HEADS), np.ones(N_HEADS), np.zeros(N_HEADS), np.ones(N_HEADS))
    none = np.full(N_HEADS, np.nan)
    instances = [  # 3 chunks: with 2 workers a pool thread runs the second
        PromptInstance(f"s{i}", "sample_only", f"[Sample] film {i} at {i % 9}", none, none > 0)
        for i in range(600)
    ]
    calls = []  # (hooked name, thread) of every call

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapper

    # tracing.rebind replaces bindings for good: put back every polyreg
    # namespace and hooked method afterwards
    modules = [m for n, m in list(sys.modules.items()) if n == "polyreg" or n.startswith("polyreg.")]
    saved = [(m, dict(vars(m))) for m in modules]
    methods = [
        (getattr(importlib.import_module(m), a.split(".")[0]), a.split(".")[1]) for m, a in HOOKS if "." in a
    ]
    saved_methods = [(cls, name, getattr(cls, name)) for cls, name in methods]
    monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(regressor, "infer", recording("infer", regressor.infer))
    try:
        for module_name, attr in HOOKS:
            tracing.rebind(module_name, attr, lambda fn, name=f"{module_name}:{attr}": recording(name, fn))
        metrics.predict(TrainedModel(PropertyModel(cfg), table), instances)
    finally:
        for module, namespace in saved:
            vars(module).update(namespace)
        for cls, name, fn in saved_methods:
            setattr(cls, name, fn)
    caller = threading.get_ident()
    hooked = [(name, t) for name, t in calls if name != "infer"]
    assert [(name, t) for name, t in hooked if t != caller] == []
    assert {"polyreg.metrics:predict", "polyreg.model:make_batch", "polyreg.encoder:pool"} <= {n for n, _ in hooked}
    assert {t for name, t in calls if name == "infer"} - {caller}, "no chunk ran on a pool thread"
