"""Correctness checks on the pipeline's outputs, computed apart from it.

Each check takes plain outputs (truth rows, extracted samples, prompt
instances, prediction arrays, reports) and returns a list of failure
messages; an empty list is a pass.  None of them calls the program's own
validators (``leakage_hits``, ``r_squared``, the checkpoint CRC), so a
fault in one of those cannot hide itself.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Half a unit in the 5th significant digit, relative: the corpus writes
# every value with ``{:.5g}``.
CORPUS_REL_ROUNDING = 5e-5
# The program masks a number within 0.5% of a target.  This check flags a
# slightly narrower window, so that the corpus rounding of the extracted
# value (at most CORPUS_REL_ROUNDING) can never put a flagged number outside
# the program's window.
LEAK_REL_TOL = 0.005 - 2 * CORPUS_REL_ROUNDING
R2_ABS_TOL = 1e-9

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

# Scale from a canonical-unit value to each other unit a value of that
# head could be written in (stress: Pa, kPa, GPa; impact: J/m²).
_OTHER_UNIT_SCALES = {
    "MPa": (1e6, 1e3, 1e-3),
    "kJ/m²": (1e3,),
}

MAX_REPORTED = 5


def _limit(failures: list[str]) -> list[str]:
    if len(failures) > MAX_REPORTED:
        return failures[:MAX_REPORTED] + [f"... and {len(failures) - MAX_REPORTED} more"]
    return failures


def check_extraction(truths, samples, counters, n_docs: int) -> list[str]:
    """Every truth row is recovered as exactly one observation of its
    sample and head, within the corpus rounding, and nothing else is."""
    failures = []
    if len(samples) != n_docs:
        failures.append(f"{len(samples)} samples extracted from {n_docs} documents")
    for field in ("unmapped", "parse_failures", "incompatible_units"):
        value = getattr(counters, field)
        if value:
            failures.append(f"extraction counter {field} = {value}")
    found: dict[tuple[str, int], list] = {}
    for sample in samples:
        for obs in sample.observations:
            found.setdefault((sample.sample_id, obs.head_id), []).append(obs)
    expected = set()
    for row in truths:
        key = (row.sample_id, row.head_id)
        expected.add(key)
        matches = found.get(key, [])
        if len(matches) != 1:
            failures.append(f"sample {row.sample_id} head {row.head_id}: {len(matches)} observations")
            continue
        got = matches[0].canonical_value
        if got is None or not abs(got - row.value) <= CORPUS_REL_ROUNDING * abs(row.value):
            failures.append(
                f"sample {row.sample_id} head {row.head_id}: value {got!r}, truth {row.value!r}"
            )
    for key in sorted(set(found) - expected):
        failures.append(f"sample {key[0]} head {key[1]}: observation with no truth row")
    return _limit(failures)


def check_no_leak(instances, truths, canonical_unit) -> list[str]:
    """No numeric token of a prompt lies within the masking window of a
    truth value of its sample, in the head's canonical unit or any other
    unit of its dimension.  ``canonical_unit`` maps head id to unit."""
    targets: dict[str, list[float]] = {}
    for row in truths:
        reps = targets.setdefault(row.sample_id, [])
        reps.append(row.value)
        reps.extend(row.value * s for s in _OTHER_UNIT_SCALES.get(canonical_unit(row.head_id), ()))
    failures = []
    for inst in instances:
        reps = targets.get(inst.sample_id, [])
        for m in _NUMBER.finditer(inst.text):
            number = float(m.group(0))
            for rep in reps:
                if abs(number - rep) <= LEAK_REL_TOL * abs(rep):
                    failures.append(f"sample {inst.sample_id} ({inst.variant}): {m.group(0)} leaks {rep:.6g}")
                    break
    return _limit(failures)


def check_training(trained, epochs: int) -> list[str]:
    """One finite loss per epoch and finite trained tensors."""
    failures = []
    trace = list(trained.loss_trace)
    if len(trace) != epochs:
        failures.append(f"loss trace has {len(trace)} entries for {epochs} epochs")
    if not all(math.isfinite(x) for x in trace):
        failures.append(f"non-finite loss in trace {trace}")
    for name, tensor in trained.model.params.items():
        if not np.all(np.isfinite(tensor)):
            failures.append(f"tensor {name} has non-finite entries")
    return failures


def _r2(y: np.ndarray, p: np.ndarray) -> float:
    sse = float(((y - p) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    return 1.0 - sse / sst


def recompute_r2(preds, instances, log_space) -> dict[int, float]:
    """Primary R² per head (log10 space for log heads) from predictions."""
    labels = np.stack([inst.labels for inst in instances])
    masks = np.stack([inst.label_mask for inst in instances])
    out = {}
    for head in range(labels.shape[1]):
        keep = masks[:, head] & np.isfinite(preds[:, head])
        y, p = labels[keep, head], preds[keep, head]
        if log_space(head):
            pos = (y > 0) & (p > 0)
            y, p = np.log10(y[pos]), np.log10(p[pos])
        if y.size >= 2 and np.ptp(y) > 0:
            out[head] = _r2(y, p)
    return out


def check_r2(report, preds, instances, log_space) -> list[str]:
    """The report's per-head and macro R² match a recomputation from
    ``predict`` output and the held-out labels."""
    mine = recompute_r2(preds, instances, log_space)
    theirs = {h.head_id: h.primary_r2 for h in report.heads if h.primary_r2 is not None}
    failures = []
    if set(mine) != set(theirs):
        failures.append(f"heads scored {sorted(theirs)}, expected {sorted(mine)}")
    for head in sorted(set(mine) & set(theirs)):
        if not abs(mine[head] - theirs[head]) <= R2_ABS_TOL:
            failures.append(f"head {head}: report R² {theirs[head]!r}, recomputed {mine[head]!r}")
    if mine:
        macro = float(np.mean([mine[h] for h in sorted(mine)]))
        if report.macro_primary_r2 is None or not abs(macro - report.macro_primary_r2) <= R2_ABS_TOL:
            failures.append(f"macro R² {report.macro_primary_r2!r}, recomputed {macro!r}")
    return failures


def check_same_predictions(in_memory: np.ndarray, reloaded: np.ndarray) -> list[str]:
    """Bitwise equality of two prediction arrays (NaN slots included)."""
    if in_memory.shape != reloaded.shape:
        return [f"prediction shapes differ: {in_memory.shape} vs {reloaded.shape}"]
    if in_memory.tobytes() != reloaded.tobytes():
        differ = int((in_memory.view(np.uint64) != reloaded.view(np.uint64)).sum())
        return [f"reloaded model differs in {differ} of {in_memory.size} predictions"]
    return []


def check_instances_equal(written, read) -> list[str]:
    """A dataset read back from disk equals the one written, bitwise."""
    if len(written) != len(read):
        return [f"{len(written)} instances written, {len(read)} read"]
    failures = []
    for a, b in zip(written, read):
        if (a.sample_id, a.variant, a.text) != (b.sample_id, b.variant, b.text):
            failures.append(f"sample {a.sample_id}: text or ids differ after reload")
        elif a.labels.tobytes() != b.labels.tobytes() or not np.array_equal(a.label_mask, b.label_mask):
            failures.append(f"sample {a.sample_id}: labels differ after reload")
    return _limit(failures)


def check_samples_equal(written, read) -> list[str]:
    """Extracted samples read back from disk equal the ones written."""
    if len(written) != len(read):
        return [f"{len(written)} samples written, {len(read)} read"]
    failures = []
    for a, b in zip(written, read):
        if a != b:
            failures.append(f"sample {a.sample_id}: differs after reload")
    return _limit(failures)


ABLATION_MIN_GAIN = 0.05


def check_ablation(test_ids: dict, r2: dict, heads) -> list[str]:
    """Both variants share one held-out split, and over the given heads the
    ``sample_synthesis`` R² exceeds the ``sample_only`` R² by at least
    ABLATION_MIN_GAIN on average.

    ``test_ids`` maps variant to its held-out sample ids, ``r2`` maps
    variant to {head: primary R²}.  The gain is averaged because a single
    head of a 2-epoch model can go either way on some seeds.
    """
    failures = []
    if test_ids["sample_synthesis"] != test_ids["sample_only"]:
        failures.append("variants were evaluated on different held-out splits")
    missing = [h for h in heads if h not in r2["sample_synthesis"] or h not in r2["sample_only"]]
    if missing:
        return failures + [f"heads {missing} not scored in both variants"]
    gain = float(np.mean([r2["sample_synthesis"][h] - r2["sample_only"][h] for h in heads]))
    if not gain >= ABLATION_MIN_GAIN:
        failures.append(f"mean R² gain from synthesis text {gain:.4f} < {ABLATION_MIN_GAIN}")
    return failures
