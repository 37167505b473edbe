"""Spans around the public functions of each polyreg module.

The benchmark never edits the package.  It rebinds a function in every
polyreg module namespace that holds it (``from .x import f`` copies the
binding, so one module is not enough) and, for methods, on the class.
Each call then records a span: name, start, end, parent and self time
(the span minus the part of it its child spans cover).  Counts are taken
by hooks that run after the call, inside a ``trace.hooks`` span of their
own, so their cost never lands in a layer's self time.

Two levels are installed:

* ``STAGES`` -- the pipeline stages.  A few dozen calls per run, so the
  untraced run uses them to time its stages; the overhead is microseconds.
* ``LAYERS`` -- everything below, down to one encoder call per batch.
  Only the traced run installs them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

HOOK_SPAN = "trace.hooks"


class Tracer:
    """In-memory span recorder with per-name self/total time and counts."""

    def __init__(self):
        self.active = True
        self.spans: list = []  # [name, start, end, parent_index, self_s]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.last: dict[str, object] = {}  # last result of stages marked keep
        self.seen_tokens: set[str] = set()
        self.embed_rows: int | None = None  # vocab size, to spot the embedding in Adam
        self._stack: list = []  # [span_index, start, child_s, parent_index]

    def enter(self) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, perf_counter(), 0.0, parent])

    def exit(self, name: str) -> float:
        end = perf_counter()
        index, start, child_s, parent = self._stack.pop()
        duration = end - start
        own = duration - child_s
        self.spans[index] = [name, start, end, parent, own]
        self.self_s[name] += own
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def reset(self) -> None:
        """Drop recorded spans and counts, keeping the installed wrappers."""
        self.spans.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.seen_tokens.clear()

    def self_under(self, root: str) -> dict[str, float]:
        """Self time by span name, over spans whose ancestors include a
        span named ``root`` (the root span itself included)."""
        inside = [False] * len(self.spans)
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            name, _start, _end, parent, own = span
            inside[i] = name == root or (parent >= 0 and inside[parent])
            if inside[i]:
                out[name] += own
        return dict(out)


def _wrap(tracer: Tracer, name: str, fn, hook=None, keep: bool = False):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(name)
        if hook is not None:
            tracer.enter()
            hook(tracer, args, kwargs, result)
            tracer.exit(HOOK_SPAN)
        if keep:
            tracer.last[name] = result
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


# ---- count hooks -----------------------------------------------------------


def _count_observations(tracer, args, kwargs, result):
    samples, _counters = result
    tracer.counts["records.observations"] += sum(len(s.observations) for s in samples)


def _count_prompts(tracer, args, kwargs, result):
    tracer.counts["prompts.built"] += len(result)


def _count_kde_pairs(tracer, args, kwargs, result):
    train = args[0] if args else kwargs["train"]
    tracer.counts["objective.kde_pairs"] += np.size(train) * np.size(result)


def _count_tokens(tracer, args, kwargs, result):
    tokens = args[0] if args else kwargs["tokens"]
    tracer.counts["encoder.tokens_hashed"] += len(tokens)
    tracer.seen_tokens.update(tokens)


def _count_adam(tracer, args, kwargs, result):
    param, grad = args[0], args[1]
    # param, grad, m and v read; param, m and v written
    tracer.counts["trainer.adam_bytes"] += 7 * param.nbytes
    if param.ndim == 2 and param.shape[0] == tracer.embed_rows:
        tracer.counts["trainer.adam_rows_updated"] += param.shape[0]
        tracer.counts["trainer.adam_rows_nonzero"] += int(np.count_nonzero((grad != 0).any(axis=1)))


# (module, attribute, span name, count hook, keep last result)
STAGES = [
    ("polyreg.corpus", "gen_corpus", "corpus.gen_corpus", None, True),
    ("polyreg.records", "extract_corpus", "records.extract_corpus", _count_observations, True),
    ("polyreg.records", "save_extracted", "records.save_extracted", None, False),
    ("polyreg.records", "load_extracted", "records.load_extracted", None, False),
    ("polyreg.datasets", "build_dataset", "datasets.build_dataset", _count_prompts, False),
    ("polyreg.datasets", "scan_dataset_for_leaks", "datasets.scan_dataset_for_leaks", None, False),
    ("polyreg.datasets", "save_dataset", "datasets.save_dataset", None, False),
    ("polyreg.datasets", "load_dataset", "datasets.load_dataset", None, False),
    ("polyreg.harness", "prepare_variant_datasets", "harness.prepare_variant_datasets", None, False),
    ("polyreg.trainer", "train", "trainer.train", None, False),
    ("polyreg.trainer", "save_trained", "trainer.save_trained", None, False),
    ("polyreg.trainer", "load_trained", "trainer.load_trained", None, False),
    ("polyreg.metrics", "evaluate", "metrics.evaluate", None, False),
]

LAYERS = [
    ("polyreg.prompts", "mask_labels", "prompts.mask_labels", None, False),
    ("polyreg.prompts", "leakage_hits", "prompts.leakage_hits", None, False),
    ("polyreg.objective", "kde_density", "objective.kde_density", _count_kde_pairs, False),
    ("polyreg.trainer", "fit_label_stats", "trainer.fit_label_stats", None, False),
    ("polyreg.trainer", "_adam_update", "trainer.adam_update", _count_adam, False),
    ("polyreg.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", None, False),
    ("polyreg.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None, False),
    ("polyreg.model", "make_batch", "model.make_batch", None, False),
    ("polyreg.model", "PropertyModel.forward", "model.forward", None, False),
    ("polyreg.model", "PropertyModel.loss", "model.loss", None, False),
    ("polyreg.model", "PropertyModel.backward", "model.backward", None, False),
    ("polyreg.encoder", "tokenize", "encoder.tokenize", None, False),
    ("polyreg.encoder", "bucket_ids", "encoder.bucket_ids", _count_tokens, False),
    ("polyreg.encoder", "embed", "encoder.embed", None, False),
    ("polyreg.encoder", "lora_project", "encoder.lora_project", None, False),
    ("polyreg.encoder", "lora_project_backward", "encoder.lora_project_backward", None, False),
    ("polyreg.encoder", "pool", "encoder.pool", None, False),
    ("polyreg.encoder", "pool_backward", "encoder.pool_backward", None, False),
    ("polyreg.regressor", "trunk_forward", "regressor.trunk_forward", None, False),
    ("polyreg.regressor", "trunk_backward", "regressor.trunk_backward", None, False),
    ("polyreg.regressor", "heads_forward", "regressor.heads_forward", None, False),
    ("polyreg.regressor", "heads_backward", "regressor.heads_backward", None, False),
    ("polyreg.metrics", "predict", "metrics.predict", None, False),
]


def rebind(module_name: str, attr: str, make) -> int:
    """Replace a polyreg function (``attr``) or method (``Class.method``)
    with ``make(original)`` wherever a polyreg module binds it; returns the
    number of bindings replaced."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make(getattr(cls, method)))
        return 1
    modules = [m for n, m in list(sys.modules.items()) if n == "polyreg" or n.startswith("polyreg.")]
    original = getattr(module, attr)
    wrapped = make(original)
    bound = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
                bound += 1
    return bound


def install(tracer: Tracer, specs) -> int:
    """Rebind every function in ``specs``; returns the number of bindings."""
    return sum(
        rebind(module_name, attr, lambda fn, name=name, hook=hook, keep=keep: _wrap(tracer, name, fn, hook, keep))
        for module_name, attr, name, hook, keep in specs
    )


# ---- per-layer metrics -----------------------------------------------------

# metric name -> (unit, how): "total:<span>", "self:<span>" or "count:<key>";
# several sources separated by "+" are summed.
LAYER_METRICS = {
    "corpus.gen_s": ("s", "total:corpus.gen_corpus"),
    "records.extract_s": ("s", "total:records.extract_corpus"),
    "records.io_s": ("s", "total:records.save_extracted+total:records.load_extracted"),
    "records.observations": ("count", "count:records.observations"),
    "prompts.mask_s": ("s", "total:prompts.mask_labels"),
    "prompts.leak_scan_s": ("s", "total:prompts.leakage_hits"),
    "datasets.build_self_s": ("s", "self:datasets.build_dataset"),
    "datasets.scan_self_s": ("s", "self:datasets.scan_dataset_for_leaks"),
    "datasets.io_s": ("s", "total:datasets.save_dataset+total:datasets.load_dataset"),
    "harness.prepare_self_s": ("s", "self:harness.prepare_variant_datasets"),
    "objective.kde_s": ("s", "total:objective.kde_density"),
    "objective.kde_pairs": ("count_computed", "count:objective.kde_pairs"),
    "trainer.fit_label_stats_self_s": ("s", "self:trainer.fit_label_stats"),
    "trainer.adam_s": ("s", "total:trainer.adam_update"),
    "trainer.adam_bytes": ("bytes_computed", "count:trainer.adam_bytes"),
    "trainer.loop_self_s": ("s", "self:trainer.train"),
    "trainer.save_trained_self_s": ("s", "self:trainer.save_trained"),
    "trainer.load_trained_self_s": ("s", "self:trainer.load_trained"),
    "model.make_batch_self_s": ("s", "self:model.make_batch"),
    "model.forward_self_s": ("s", "self:model.forward"),
    "model.loss_s": ("s", "total:model.loss"),
    "model.backward_self_s": ("s", "self:model.backward"),
    "model.steps": ("count", "calls:model.backward"),
    "encoder.tokenize_s": ("s", "total:encoder.tokenize"),
    "encoder.hash_s": ("s", "total:encoder.bucket_ids"),
    "encoder.tokens_hashed": ("count", "count:encoder.tokens_hashed"),
    "encoder.embed_s": ("s", "total:encoder.embed"),
    "encoder.lora_fwd_s": ("s", "total:encoder.lora_project"),
    "encoder.lora_bwd_s": ("s", "total:encoder.lora_project_backward"),
    "encoder.pool_fwd_s": ("s", "total:encoder.pool"),
    "encoder.pool_bwd_s": ("s", "total:encoder.pool_backward"),
    "regressor.trunk_fwd_s": ("s", "total:regressor.trunk_forward"),
    "regressor.trunk_bwd_s": ("s", "total:regressor.trunk_backward"),
    "regressor.heads_fwd_s": ("s", "total:regressor.heads_forward"),
    "regressor.heads_bwd_s": ("s", "total:regressor.heads_backward"),
    "metrics.predict_self_s": ("s", "self:metrics.predict"),
    "metrics.evaluate_self_s": ("s", "self:metrics.evaluate"),
    "checkpoint.save_s": ("s", "total:checkpoint.save_checkpoint"),
    "checkpoint.load_s": ("s", "total:checkpoint.load_checkpoint"),
    "trace.hooks_s": ("s", "self:" + HOOK_SPAN),
    "trace.train_s": ("s", "total:trainer.train"),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans and counts."""
    sources = {
        "total": tracer.total_s,
        "self": tracer.self_s,
        "calls": tracer.calls,
        "count": tracer.counts,
    }
    out: dict[str, tuple[float, str]] = {}
    for metric, (unit, how) in LAYER_METRICS.items():
        value = 0.0
        for term in how.split("+"):
            kind, key = term.split(":", 1)
            value += float(sources[kind].get(key, 0.0))
        out[metric] = (value, unit)
    built = tracer.counts.get("prompts.built", 0.0)
    scans = tracer.calls.get("prompts.leakage_hits", 0)
    out["prompts.leak_scans_per_prompt"] = (scans / built if built else 0.0, "ratio")
    updated = tracer.counts.get("trainer.adam_rows_updated", 0.0)
    nonzero = tracer.counts.get("trainer.adam_rows_nonzero", 0.0)
    out["trainer.adam_useful_row_ratio"] = (nonzero / updated if updated else 0.0, "ratio")
    out["encoder.distinct_tokens"] = (float(len(tracer.seen_tokens)), "count")
    return out
