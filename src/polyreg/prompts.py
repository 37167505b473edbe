"""Prompt assembly and target-label masking.

Prompts are built from a ``[Sample]`` block and (in the full variant) a
``[Synthesis]`` block.  Every numeric mention of an observed target value
is scrubbed to the literal token ``[MASKED]``, matched across all
registered units of the head's dimension with a ±0.5% relative tolerance.

Masking and the leakage scan work on a block of prompts at a time:
``target_values`` lays out every target representation of the block in
arrays, and each number of the block is tested against its own prompt's
representations with one numpy ``abs(x - v) <= tol``, the IEEE operations
a per-pair loop would run, so every decision is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .records import _NUM_RE
from .registry import PropertyRegistry, default_registry

VARIANTS = ("sample_synthesis", "sample_only")

MASK_TOKEN = "[MASKED]"

MASK_REL_TOL = 0.005


class EmptySample(Exception):
    """Sample description is blank."""


def build_prompt(sample_desc: str, synthesis_desc: str, variant: str) -> str:
    """Assemble the prompt text for one sample."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not sample_desc or not sample_desc.strip():
        raise EmptySample("sample description must be non-empty")
    if variant == "sample_only":
        return f"[Sample]\n{sample_desc}"
    return f"[Sample]\n{sample_desc}\n[Synthesis]\n{synthesis_desc}"


@dataclass(frozen=True)
class BlockTargets:
    """Every value a block's targets could take in a registered unit.

    Prompt ``i`` owns ``values[bounds[i]:bounds[i + 1]]``, each matched
    within the tolerance at the same index of ``tols``.
    """

    values: np.ndarray
    tols: np.ndarray
    bounds: np.ndarray  # (n_prompts + 1,) offsets into values


def target_values(
    heads: list[int], values: list[float], counts: list[int], registry: PropertyRegistry | None = None
) -> BlockTargets:
    """The representations a block of prompts is masked and scanned against.

    ``heads`` and ``values`` are the block's ``(head_id, canonical_value)``
    targets, prompt after prompt, and ``counts`` says how many belong to
    each prompt.  A target becomes ``(value - offset) / factor`` in each
    unit of its head's dimension, with tolerance
    ``MASK_REL_TOL * max(|value|, 1e-12)``.
    """
    registry = registry or default_registry()
    heads = np.asarray(heads, dtype=np.intp)
    unknown = heads[(heads < 0) | (heads >= len(registry.unit_count))]
    if len(unknown):  # numpy would read a negative id as one counted from the end
        raise KeyError(f"unknown head_id {unknown[0]}")
    per_target = registry.unit_count[heads]
    unit = _ranges(registry.unit_first[heads], per_target)
    with np.errstate(over="ignore"):
        reps = (
            np.repeat(np.asarray(values, dtype=np.float64), per_target) - registry.unit_offsets[unit]
        ) / registry.unit_factors[unit]
    bounds = np.concatenate(([0], np.cumsum(per_target)))[np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))]
    return BlockTargets(reps, MASK_REL_TOL * np.maximum(np.abs(reps), 1e-12), bounds)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """range(start, start + length) for each pair, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def _hit_flags(texts: list[str], targets: BlockTargets) -> tuple[list[list[str]], dict[int, list[bool]]]:
    """Each prompt's numbers, and for each prompt holding a target number
    whether each of its numbers is one: within tolerance of one of its own
    prompt's representations."""
    n_reps = np.diff(targets.bounds)
    found = [_NUM_RE.findall(text) if n else [] for text, n in zip(texts, n_reps.tolist())]
    per_prompt = np.fromiter(map(len, found), np.intp, len(found))
    numbers = np.fromiter(map(float, chain.from_iterable(found)), np.float64, int(per_prompt.sum()))
    owner = np.repeat(np.arange(len(found)), per_prompt)
    # pair each number with every representation of its prompt; only
    # prompts with a representation were scanned, so each number has one
    pairs = n_reps[owner]
    rep = _ranges(targets.bounds[owner], pairs)
    gap = np.repeat(numbers, pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        gap -= targets.values[rep]  # in place, as is the abs: fewer pair-sized arrays live at once
        close = np.abs(gap, out=gap) <= targets.tols[rep]
    first_pair = np.cumsum(pairs) - pairs
    hit = np.logical_or.reduceat(close, first_pair) if len(numbers) else close
    starts = (np.cumsum(per_prompt) - per_prompt).tolist()
    return found, {
        i: hit[starts[i] : starts[i] + len(found[i])].tolist() for i in np.unique(owner[hit]).tolist()
    }


def mask_labels(texts: list[str], targets: BlockTargets) -> list[str]:
    """Replace numeric mentions of target values (from ``target_values``) with [MASKED].

    Non-target numerics (process temperatures, times, ratios) survive
    unless they coincide with a target value within the tolerance in some
    registered unit of that head's dimension.  Only the prompts that hold
    such a mention are rewritten.
    """
    _, flagged = _hit_flags(texts, targets)
    masked = list(texts)
    for i, flags in flagged.items():
        scrub = iter(flags).__next__
        masked[i] = _NUM_RE.sub(lambda m: MASK_TOKEN if scrub() else m.group(0), texts[i])
    return masked


def leakage_hits(texts: list[str], targets: BlockTargets) -> list[list[str]]:
    """Numeric tokens of each prompt that still equal one of its target values."""
    found, flagged = _hit_flags(texts, targets)
    hits: list[list[str]] = [[] for _ in texts]
    for i, flags in flagged.items():
        hits[i] = list(compress(found[i], flags))
    return hits
