"""Workloads, their stage sequences and the end-to-end metrics.

Imported by ``run.py`` only after it has pinned the BLAS thread count and
put the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import polyreg
from polyreg import corpus, datasets, harness, metrics, records, registry, trainer

import checks
import speed
import tracing

VARIANT = "sample_synthesis"
OBS_PROB = 0.5
BATCH_SIZE = 96
# After the round come blocks, each of a prep repeat (pipeline workloads),
# eval_calls evaluate calls, the same two again and one setup child, until
# the run's seconds have passed; at least MIN_BLOCKS of them.
MIN_BLOCKS = 2

PREP_STAGES = (
    "records.extract_corpus",
    "records.save_extracted",
    "records.load_extracted",
    "datasets.build_dataset",
    "datasets.scan_dataset_for_leaks",
    "datasets.save_dataset",
    "datasets.load_dataset",
)

# Functions called many times inside the stages; the speed probe may run a
# reference piece before any call of them.  One that a later version of the
# package no longer has is skipped.
PROBE_TICKS = (
    ("polyreg.records", "extract_document"),
    ("polyreg.prompts", "mask_labels"),
    ("polyreg.prompts", "leakage_hits"),
    ("polyreg.model", "make_batch"),
    ("polyreg.trainer", "_adam_update"),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "prep_docs_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ckpt_bytes": "bytes",
    "macro_r2": "R2",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    vocab_size: int
    epochs: int
    pooling_mode: str
    ablation: bool
    eval_calls: int  # evaluate calls over the held-out set in each block

    def synth_config(self, seed: int):
        return corpus.SynthConfig(seed=seed, n_docs=self.n_docs, obs_prob=OBS_PROB)

    def train_config(self, seed: int):
        return trainer.TrainConfig(
            seed=seed,
            epochs=self.epochs,
            batch_size=BATCH_SIZE,
            vocab_size=self.vocab_size,
            pooling_mode=self.pooling_mode,
            variant=VARIANT,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("default_vocab", 2500, 2**16, 5, "mean", False, eval_calls=10),
        Workload("small_vocab", 2500, 4096, 20, "mean", False, eval_calls=10),
        Workload("wide_ablation", 10000, 4096, 2, "attention", True, eval_calls=3),
    )
}


class OperationFailed(Exception):
    """A pipeline call raised; the run cannot go on."""

    def __init__(self, run: "Run", message: str):
        super().__init__(message)
        self.run = run


class Run:
    """One workload run: operation counts, stage spans, outputs for checks."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        work_dir: Path,
        tracer: tracing.Tracer,
        probe: speed.SpeedProbe | None,
        src: Path,
    ):
        self.workload = workload
        self.probe = probe
        self.src = src
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.registry = registry.default_registry()
        self.attempted = 0
        self.failed = 0
        self.last_out: dict | None = None
        self.setup_s: list[float] = []

    def op(self, fn, *args, **kwargs):
        """Call one public pipeline function, counting it as an operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(self, f"{getattr(fn, '__name__', fn)}: {exc!r}") from exc

    def path(self, name: str) -> str:
        return str(self.work_dir / name)

    def scaled(self, t0: float, t1: float, walk: bool = False) -> float:
        """Seconds from ``t0`` to ``t1``, in reference seconds when the
        speed probe runs (untraced runs) and wall seconds otherwise."""
        return self.probe.scaled(t0, t1, walk) if self.probe is not None else t1 - t0

    def stage_time(self, names, since: int = 0, walk: bool = False) -> float:
        """Seconds in the spans named ``names``, from span ``since`` on."""
        return sum(
            self.scaled(start, end, walk)
            for name, start, end, _parent, _own in self.tracer.spans[since:]
            if name in names
        )

    # ---- stage sequences ----------------------------------------------

    def prepare(self, text: str):
        """Extraction, split, prompt building, leakage scans and dataset IO."""
        reg = self.registry
        samples, counters = self.op(records.extract_corpus, text, reg)
        self.op(records.save_extracted, samples, self.path("observations.jsonl"))
        loaded = self.op(records.load_extracted, self.path("observations.jsonl"))
        train_part, test_part = self.op(harness.split_samples, loaded, self.seed)
        built = {}
        for part, part_samples in (("train", train_part), ("test", test_part)):
            built[part] = self.op(datasets.build_dataset, part_samples, VARIANT, reg)
        for part in built:
            hits = self.op(datasets.scan_dataset_for_leaks, built[part], reg)
            if hits:
                raise OperationFailed(self, f"leakage guard: {hits} surviving targets in {part}")
        read = {}
        for part in built:
            self.op(datasets.save_dataset, built[part], self.path(f"{part}.tsv"))
        for part in built:
            read[part] = self.op(datasets.load_dataset, self.path(f"{part}.tsv"))
        return {
            "samples": samples,
            "counters": counters,
            "loaded_samples": loaded,
            "built": built,
            "read": read,
        }

    def pipeline_round(self) -> dict:
        wl, reg = self.workload, self.registry
        synth = self.op(corpus.gen_corpus, wl.synth_config(self.seed), reg)
        out = self.prepare(synth.text)
        train_set, test_set = out["read"]["train"], out["read"]["test"]
        trained = self.op(trainer.train, wl.train_config(self.seed), train_set, reg)
        ckpt = self.path("model.ckpt")
        self.op(trainer.save_trained, trained, ckpt)
        reloaded = self.op(trainer.load_trained, ckpt)
        report = self.op(metrics.evaluate, reloaded, test_set, reg)
        out.update(
            corpus=synth,
            trained={VARIANT: trained},
            reloaded=reloaded,
            ckpt_bytes=os.path.getsize(ckpt),
            test_sets={VARIANT: test_set},
            reports={VARIANT: report},
            train_samples=len(train_set) * wl.epochs,
        )
        return out

    def ablation_round(self) -> dict:
        wl, reg = self.workload, self.registry
        variant_sets = self.op(harness.prepare_variant_datasets, wl.synth_config(self.seed), self.seed, reg)
        base = wl.train_config(self.seed)
        trained, reports, test_sets, n_train = {}, {}, {}, 0
        for variant, (train_set, test_set) in variant_sets.items():
            trained[variant] = self.op(trainer.train, replace(base, variant=variant), train_set, reg)
            reports[variant] = self.op(metrics.evaluate, trained[variant], test_set, reg)
            test_sets[variant] = test_set
            n_train += len(train_set) * wl.epochs
        ckpt = self.path("model.ckpt")
        self.op(trainer.save_trained, trained[VARIANT], ckpt)
        reloaded = self.op(trainer.load_trained, ckpt)
        samples, counters = self.tracer.last["records.extract_corpus"]
        return {
            "corpus": self.tracer.last["corpus.gen_corpus"],
            "samples": samples,
            "counters": counters,
            "variant_sets": variant_sets,
            "trained": trained,
            "reloaded": reloaded,
            "ckpt_bytes": os.path.getsize(ckpt),
            "test_sets": test_sets,
            "reports": reports,
            "train_samples": n_train,
        }


def measure_setup(src: Path) -> float:
    """Seconds for a fresh interpreter to import polyreg and build the
    default registry, in reference seconds: the interpreter times the
    pure-Python reference work before and after, and the import is scaled
    by their mean.  This process has already imported the package, so the
    bytecode cache is warm."""
    code = speed.CHILD_SOURCE + (
        "import sys, time\n"
        "def piece():\n"
        "    t = time.perf_counter()\n"
        "    reference_loop()\n"
        "    return time.perf_counter() - t\n"
        "before = sorted(piece() for _ in range(5))[2]\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "t0 = time.perf_counter()\n"
        "import polyreg\n"
        "polyreg.default_registry()\n"
        "took = time.perf_counter() - t0\n"
        "after = sorted(piece() for _ in range(5))[2]\n"
        "print(repr(took), repr(before), repr(after))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    took, before, after = map(float, done.stdout.split())
    return took * 2.0 * speed.REFERENCE_LOOP_S / (before + after)


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"  # a checkout without .git, or no git at all
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_mmap_threshold": os.environ.get("PERFBENCH_MMAP_THRESHOLD", "glibc default (dynamic)"),
        "polyreg": polyreg.__version__,
        "commit": commit,
    }


def run_checks(run: Run, out: dict) -> dict[str, list[str]]:
    """Every correctness check on the last round's outputs."""
    wl, reg = run.workload, run.registry
    truths = out["corpus"].truths
    unit = lambda head: reg.spec(head).canonical_unit  # noqa: E731
    results = {
        "extraction": checks.check_extraction(truths, out["samples"], out["counters"], wl.n_docs),
    }
    if wl.ablation:
        instances = [inst for pair in out["variant_sets"].values() for part in pair for inst in part]
    else:
        instances = out["built"]["train"] + out["built"]["test"]
        results["extracted_io"] = checks.check_samples_equal(out["samples"], out["loaded_samples"])
        results["dataset_io"] = checks.check_instances_equal(
            out["built"]["train"] + out["built"]["test"], out["read"]["train"] + out["read"]["test"]
        )
    results["no_leak"] = checks.check_no_leak(instances, truths, unit)
    results["training"] = [
        f"{variant}: {msg}" for variant, model in out["trained"].items()
        for msg in checks.check_training(model, wl.epochs)
    ]
    r2_failures, r2_by_variant = [], {}
    for variant, test_set in out["test_sets"].items():
        model = out["reloaded"] if variant == VARIANT and not wl.ablation else out["trained"][variant]
        preds = metrics.predict(model, test_set)
        r2_failures += [f"{variant}: {m}" for m in checks.check_r2(out["reports"][variant], preds, test_set, reg.is_log_space)]
        r2_by_variant[variant] = checks.recompute_r2(preds, test_set, reg.is_log_space)
    results["r2"] = r2_failures
    test_set = out["test_sets"][VARIANT]
    results["checkpoint_roundtrip"] = checks.check_same_predictions(
        metrics.predict(out["trained"][VARIANT], test_set), metrics.predict(out["reloaded"], test_set)
    )
    if wl.ablation:
        test_ids = {v: [i.sample_id for i in s] for v, s in out["test_sets"].items()}
        results["ablation"] = checks.check_ablation(test_ids, r2_by_variant, corpus.MECHANICAL_HEADS)
    return results


def measure(run: Run, workload: Workload, seconds: float, trace: bool) -> dict:
    """One round of the workload, then (untraced) blocks of the short
    measurements until ``seconds`` have passed since the start, at least
    MIN_BLOCKS of them.  The round's outputs are left in ``run.last_out``;
    returns the samples of each metric."""
    tracer, probe = run.tracer, run.probe
    started = time.perf_counter()
    gc.collect()
    if probe is not None:
        probe.tick(force=True)
    t0 = time.perf_counter()
    out = run.ablation_round() if workload.ablation else run.pipeline_round()
    t1 = time.perf_counter()
    if probe is not None:
        probe.tick(force=True)
    run.last_out = out
    if trace:
        layers = tracing.layer_metrics(tracer)
        layers["trace.pipeline_s"] = (t1 - t0, "s")
        return {"layers": layers, "train_breakdown": tracer.self_under("trainer.train")}
    samples = {
        "pipeline_s": run.scaled(t0, t1),
        "pipeline_wall_s": t1 - t0 - probe.pieces_s(t0, t1),  # to set against the traced round
        "train_rate": out["train_samples"] / run.stage_time(("trainer.train",)),
        "prep_s": [run.stage_time(PREP_STAGES, walk=True)],
        "eval_rate": [],
    }
    eval_model = out["reloaded"] if not workload.ablation else out["trained"][VARIANT]
    eval_set = out["test_sets"][VARIANT]

    def eval_block():
        gc.collect()
        since = len(tracer.spans)
        for _ in range(workload.eval_calls):
            run.op(metrics.evaluate, eval_model, eval_set, run.registry)
        eval_s = run.stage_time(("metrics.evaluate",), since)
        samples["eval_rate"].append(len(eval_set) * workload.eval_calls / eval_s)

    # The short measurements alternate, so that each kind samples the same,
    # longer stretch of time.
    def prep_repeat():
        if not workload.ablation:
            gc.collect()
            since = len(tracer.spans)
            run.prepare(out["corpus"].text)
            samples["prep_s"].append(run.stage_time(PREP_STAGES, since, walk=True))

    blocks = 0
    while blocks < MIN_BLOCKS or time.perf_counter() - started < seconds:
        prep_repeat()
        eval_block()
        prep_repeat()
        eval_block()
        run.setup_s.append(run.op(measure_setup, run.src))
        blocks += 1
    return samples


def install_probe(probe: speed.SpeedProbe) -> None:
    """A reference piece around every stage call (outside its span) and
    between the many calls inside the stages."""
    for module_name, attr, *_ in tracing.STAGES:
        tracing.rebind(module_name, attr, lambda fn: speed.bracketed(probe, fn))
    for module_name, attr in PROBE_TICKS:
        if hasattr(sys.modules[module_name], attr):
            tracing.rebind(module_name, attr, lambda fn: speed.ticked(probe, fn))


def execute(workload: Workload, seed: int, seconds: float, trace: bool, root: Path, work_dir: Path):
    """Run one workload; returns the result, report lines, the full record
    and the tracer."""
    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.STAGES)
    probe = None
    if trace:
        tracing.install(tracer, tracing.LAYERS)
        tracer.embed_rows = workload.vocab_size
    else:
        probe = speed.SpeedProbe()
        install_probe(probe)
    run = Run(workload, seed, work_dir, tracer, probe, root / "src")
    lines = []
    phases = {}  # wall seconds of each part of this run, for budgeting
    t = time.perf_counter()
    samples = measure(run, workload, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out, setup = run.last_out, run.setup_s
    phases["measure"] = time.perf_counter() - t

    t = time.perf_counter()
    tracer.active = False
    check_results = run_checks(run, out)
    phases["checks"] = time.perf_counter() - t
    correct = not any(check_results.values())
    for name, failures in check_results.items():
        lines.append(f"check {name}: {'FAIL' if failures else 'pass'}")
        lines.extend(f"  {msg}" for msg in failures)

    if trace:
        values = samples.pop("layers")
        breakdown = samples["train_breakdown"]
        span = tracer.total_s["trainer.train"]
        lines.append(f"self time under trainer.train ({span:.4f} s traced):")
        for name, own in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:36s} {own:9.4f} s  {100 * own / span:5.1f}%")
        lines.append(f"  {'sum':36s} {sum(breakdown.values()):9.4f} s")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "pipeline_s": samples["pipeline_s"],
            "prep_docs_per_s": statistics.median(workload.n_docs / t for t in samples["prep_s"]),
            "train_samples_per_s": samples["train_rate"],
            "eval_samples_per_s": statistics.median(samples["eval_rate"]),
            "peak_rss_mb": peak_rss_mb,
            "ckpt_bytes": float(out["ckpt_bytes"]),
            "macro_r2": out["reports"][VARIANT].macro_primary_r2,
        }
        values = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        pieces = probe.durations
        lines.append(
            f"blocks {len(setup)}; prep samples {len(samples['prep_s'])}; eval samples {len(samples['eval_rate'])}; "
            f"reference pieces {len(pieces)}, median {statistics.median(pieces) * 1e3:.3f} ms "
            f"(reference host {(speed.REFERENCE_LOOP_S + speed.REFERENCE_WALK_S) * 1e3:.3f} ms)"
        )
        samples["setup_s"] = setup
        samples["reference_pieces_s"] = pieces
    for name, (value, unit) in values.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(root),
        "checks": check_results,
        "phases_s": phases,
        "samples": samples,
        "result": result,
    }
    return result, lines, record, tracer


def write_outputs(out_dir: Path, record: dict, tracer: tracing.Tracer) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if record["trace"]:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for name, start, end, parent, own in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "self": own}) + "\n")


def main_workload(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    workload = WORKLOADS[workload_name]
    work_dir = root / ".perfbench_work" / f"{workload_name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, lines, record, tracer = execute(workload, seed, seconds, trace, root, work_dir)
    except OperationFailed as exc:
        traceback.print_exc()
        run = exc.run
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    write_outputs(root / ".perfbench_out", record, tracer)
    env = record["environment"]
    print(f"workload {workload_name} seed {seed} trace {int(trace)}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(f"operations attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
