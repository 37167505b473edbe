"""Each correctness check passes on real pipeline output and rejects a
corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from polyreg import corpus, datasets, harness, metrics, records, registry, trainer  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

REG = registry.default_registry()
N_DOCS = 80
EPOCHS = 2


@pytest.fixture(scope="module")
def run():
    synth = corpus.gen_corpus(corpus.SynthConfig(seed=0, n_docs=N_DOCS, obs_prob=0.5), REG)
    samples, counters = records.extract_corpus(synth.text, REG)
    train_part, test_part = harness.split_samples(samples, 0)
    train_set = datasets.build_dataset(train_part, "sample_synthesis", REG)
    test_set = datasets.build_dataset(test_part, "sample_synthesis", REG)
    cfg = trainer.TrainConfig(seed=0, epochs=EPOCHS, batch_size=32, vocab_size=512)
    trained = trainer.train(cfg, train_set, REG)
    report = metrics.evaluate(trained, test_set, REG)
    preds = metrics.predict(trained, test_set)
    return dict(
        synth=synth, samples=samples, counters=counters, train_set=train_set,
        test_set=test_set, trained=trained, report=report, preds=preds,
    )


def _unit(head):
    return REG.spec(head).canonical_unit


# ---- extraction -----------------------------------------------------------


def _extraction(run, samples=None, counters=None):
    return checks.check_extraction(
        run["synth"].truths, samples or run["samples"], counters or run["counters"], N_DOCS
    )


def test_extraction_passes(run):
    assert _extraction(run) == []


def test_extraction_rejects_dropped_observation(run):
    samples = copy.deepcopy(run["samples"])
    victim = next(s for s in samples if s.observations)
    victim.observations.pop()
    assert _extraction(run, samples=samples)


def test_extraction_rejects_extra_observation(run):
    samples = copy.deepcopy(run["samples"])
    victim = next(s for s in samples if s.observations)
    victim.observations.append(victim.observations[0])
    assert _extraction(run, samples=samples)


def test_extraction_rejects_unconverted_gpa(run):
    samples = copy.deepcopy(run["samples"])
    for sample in samples:
        for i, obs in enumerate(sample.observations):
            if obs.quantity.unit == "GPa":
                sample.observations[i] = dataclasses.replace(obs, canonical_value=obs.quantity.value)
                assert _extraction(run, samples=samples)
                return
    pytest.fail("corpus has no GPa value")


def test_extraction_rejects_value_off_by_rounding(run):
    samples = copy.deepcopy(run["samples"])
    obs = samples[0].observations[0]
    samples[0].observations[0] = dataclasses.replace(obs, canonical_value=obs.canonical_value * 1.0002)
    assert _extraction(run, samples=samples)


def test_extraction_rejects_nonzero_counter(run):
    counters = dataclasses.replace(run["counters"], parse_failures=1)
    assert _extraction(run, counters=counters)


# ---- leakage --------------------------------------------------------------


def _with_text(instances, index, suffix):
    out = list(instances)
    inst = out[index]
    out[index] = datasets.PromptInstance(
        inst.sample_id, inst.variant, inst.text + suffix, inst.labels, inst.label_mask
    )
    return out


def test_no_leak_passes(run):
    assert checks.check_no_leak(run["train_set"], run["synth"].truths, _unit) == []


def test_no_leak_rejects_unmasked_target(run):
    inst = run["train_set"][3]
    truth = next(t for t in run["synth"].truths if t.sample_id == inst.sample_id)
    leaked = _with_text(run["train_set"], 3, f" value {truth.value:.5g}")
    assert checks.check_no_leak(leaked, run["synth"].truths, _unit)


def test_no_leak_rejects_target_in_other_unit(run):
    truth = next(t for t in run["synth"].truths if _unit(t.head_id) == "MPa")
    index = next(i for i, inst in enumerate(run["train_set"]) if inst.sample_id == truth.sample_id)
    leaked = _with_text(run["train_set"], index, f" {truth.value / 1000.0:.5g} GPa")
    assert checks.check_no_leak(leaked, run["synth"].truths, _unit)


# ---- training -------------------------------------------------------------


def test_training_passes(run):
    assert checks.check_training(run["trained"], EPOCHS) == []


def test_training_rejects_short_trace(run):
    trained = dataclasses.replace(run["trained"], loss_trace=run["trained"].loss_trace[:-1])
    assert checks.check_training(trained, EPOCHS)


def test_training_rejects_nonfinite_loss(run):
    trained = dataclasses.replace(run["trained"], loss_trace=[float("nan")] * EPOCHS)
    assert checks.check_training(trained, EPOCHS)


def test_training_rejects_nonfinite_tensor(run):
    trained = copy.deepcopy(run["trained"])
    trained.model.params["head_b"][0] = np.inf
    assert checks.check_training(trained, EPOCHS)


# ---- R² -------------------------------------------------------------------


def test_r2_passes(run):
    assert checks.check_r2(run["report"], run["preds"], run["test_set"], REG.is_log_space) == []


def test_r2_rejects_permuted_predictions(run):
    permuted = run["preds"][::-1].copy()
    assert checks.check_r2(run["report"], permuted, run["test_set"], REG.is_log_space)


def test_r2_rejects_report_off_by_1e_6(run):
    report = copy.deepcopy(run["report"])
    report.heads[0].r2_log = report.heads[0].primary_r2 + 1e-6
    report.heads[0].r2_linear = report.heads[0].r2_log
    assert checks.check_r2(report, run["preds"], run["test_set"], REG.is_log_space)


# ---- checkpoint round trip --------------------------------------------------


def _flip_tensor_byte(path, tensor: str) -> None:
    """Flip one byte of a tensor's data and rewrite the trailing CRC, so
    only the independent prediction check can notice."""
    blob = bytearray(Path(path).read_bytes()[:-4])
    name = tensor.encode()
    at = blob.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
    (dtype_len,) = struct.unpack_from("<H", blob, at)
    at += 2 + dtype_len
    ndim = blob[at]
    at += 1 + 8 * ndim + 8
    blob[at + 6] ^= 0x10  # a high mantissa byte of the first element
    Path(path).write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))


def test_roundtrip_passes(run, tmp_path):
    path = tmp_path / "model.ckpt"
    trainer.save_trained(run["trained"], path)
    reloaded = metrics.predict(trainer.load_trained(path), run["test_set"])
    assert checks.check_same_predictions(run["preds"], reloaded) == []


def test_roundtrip_rejects_flipped_byte(run, tmp_path):
    path = tmp_path / "model.ckpt"
    trainer.save_trained(run["trained"], path)
    _flip_tensor_byte(path, "proj_w")
    reloaded = metrics.predict(trainer.load_trained(path), run["test_set"])
    assert checks.check_same_predictions(run["preds"], reloaded)


# ---- file round trips ---------------------------------------------------------


def test_dataset_io_passes_and_rejects_changed_label(run, tmp_path):
    path = tmp_path / "train.tsv"
    datasets.save_dataset(run["train_set"], path)
    read = datasets.load_dataset(path)
    assert checks.check_instances_equal(run["train_set"], read) == []
    head = int(np.flatnonzero(read[0].label_mask)[0])
    read[0].labels[head] = np.nextafter(read[0].labels[head], np.inf)
    assert checks.check_instances_equal(run["train_set"], read)


def test_extracted_io_passes_and_rejects_changed_text(run, tmp_path):
    path = tmp_path / "observations.jsonl"
    records.save_extracted(run["samples"], path)
    read = records.load_extracted(path)
    assert checks.check_samples_equal(run["samples"], read) == []
    read[1].synthesis_text += " "
    assert checks.check_samples_equal(run["samples"], read)


# ---- ablation ---------------------------------------------------------------


def _ablation(ids_only=None, only_5=0.5, only_6=0.6):
    ids = {"sample_synthesis": ["a", "b"], "sample_only": ids_only or ["a", "b"]}
    r2 = {"sample_synthesis": {5: 0.9, 6: 0.8}, "sample_only": {5: only_5, 6: only_6}}
    return checks.check_ablation(ids, r2, (5, 6))


def test_ablation_passes():
    assert _ablation() == []
    assert _ablation(only_5=0.95) == []  # one head may lose if the mean gain holds


def test_ablation_rejects_different_splits():
    assert _ablation(ids_only=["a", "c"])


def test_ablation_rejects_no_gain():
    assert _ablation(only_5=0.9, only_6=0.8)


def test_ablation_rejects_unscored_head():
    ids = {"sample_synthesis": ["a"], "sample_only": ["a"]}
    assert checks.check_ablation(ids, {"sample_synthesis": {5: 0.9}, "sample_only": {}}, (5,))


# ---- tracing ---------------------------------------------------------------


def test_self_times_partition_the_root_span():
    tracer = tracing.Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracing._wrap(tracer, "leaf", leaf)

    def root():
        return [traced_leaf(20000) for _ in range(5)]

    tracing._wrap(tracer, "root", root)()
    parts = tracer.self_under("root")
    assert tracer.calls["leaf"] == 5
    assert sum(parts.values()) == pytest.approx(tracer.total_s["root"], rel=1e-9)
    assert parts["leaf"] == pytest.approx(tracer.total_s["leaf"], rel=1e-9)


# ---- speed probe -----------------------------------------------------------


def _probe(pieces):
    """A probe whose reference pieces ran at the given (start, duration),
    each half loop and half walk."""
    probe = speed.SpeedProbe()
    for start, duration in pieces:
        probe.starts.append(start)
        probe.durations.append(duration)
        probe.loop_s.append(duration / 2)
        probe.walk_s.append(duration / 2)
    return probe


def test_scaled_is_wall_time_at_reference_speed():
    piece = 2 * speed.REFERENCE_LOOP_S
    probe = _probe([(0.0, piece), (1.0 + piece, piece), (3.0 + 2 * piece, piece)])
    # Work from the end of the first piece to the start of the last, with
    # the middle piece taken out: 3 s of work.
    assert probe.scaled(piece, 3.0 + 2 * piece) == pytest.approx(3.0, rel=1e-12)


def test_scaled_cancels_a_slow_host():
    ref = speed.REFERENCE_LOOP_S
    fast = _probe([(0.0, ref), (1.0 + ref, ref)])
    # The same work on a host half as fast: pieces and work both take twice as long.
    slow = _probe([(0.0, 2 * ref), (2.0 + 2 * ref, 2 * ref)])
    for walk in (False, True):
        assert slow.scaled(2 * ref, 2.0 + 2 * ref, walk) == pytest.approx(fast.scaled(ref, 1.0 + ref, walk), rel=1e-12)


def test_scaled_refuses_an_unbracketed_region():
    probe = _probe([(0.0, 0.001), (1.0, 0.001)])
    with pytest.raises(ValueError):
        probe.scaled(0.5, 2.0)
    with pytest.raises(ValueError):
        probe.scaled(-1.0, 0.5)


def test_bracketed_call_is_scaled():
    probe = speed.SpeedProbe()
    spans = []

    def work():
        spans.append(speed.perf_counter())
        speed.reference_loop()
        spans.append(speed.perf_counter())

    speed.bracketed(probe, work)()
    assert len(probe.starts) == 2
    assert probe.scaled(*spans) > 0
    assert probe.scaled(*spans, walk=True) > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_vocab", "--seed", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
