"""Prompt dataset construction and file IO.

A dataset row is one sample: the masked prompt text, a sparse 22-slot
label vector in canonical units and its observation mask.  Files are TSV
with newlines in the prompt escaped and ``NA`` as the missing marker.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import add

import numpy as np

from .lines import read_lines
from .records import ExtractedSample, finite_label
from .prompts import VARIANTS, build_prompt, leakage_hits, mask_labels, target_values
from .registry import N_HEADS, PropertyRegistry


# Prompts masked and scanned per target_values call: enough to spread
# numpy's per-call cost, few enough that a block's number-target pair
# arrays (about 20,000 pairs) stay small on top of all that prep holds.
PROMPT_BLOCK = 256


class LeakageDetected(Exception):
    """A built prompt still contains an observed target value."""


@dataclass
class PromptInstance:
    sample_id: str
    variant: str
    text: str
    labels: np.ndarray  # (22,) canonical units, NaN where unobserved
    label_mask: np.ndarray  # (22,) bool

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.label_mask = np.asarray(self.label_mask, dtype=bool)
        if self.labels.shape != (N_HEADS,) or self.label_mask.shape != (N_HEADS,):
            raise ValueError(
                f"sample {self.sample_id!r}: labels {self.labels.shape} and label_mask"
                f" {self.label_mask.shape} must both have shape ({N_HEADS},)"
            )


def build_dataset(
    samples: list[ExtractedSample],
    variant: str | tuple[str, ...],
    registry: PropertyRegistry | None = None,
) -> list[PromptInstance] | dict[str, list[PromptInstance]]:
    """Turn extracted samples into masked prompt instances.

    Multiple observations of one head average to a single label; limit
    observations (no canonical value) never become labels.  The samples
    go PROMPT_BLOCK at a time: one set of target representations per
    block feeds both the mask and the leakage guard, which re-scans every
    built prompt and refuses to emit leaks.  The earliest failing sample
    raises, whether its prompt leaks or has no sample text.

    ``variant`` may be a tuple of VARIANTS names, which gives
    ``{variant: instances}`` from one pass: each sample text and each
    synthesis text is masked and scanned once, and every variant's prompt
    is built from them.  That is exact: build_prompt's headers and joining
    newline hold no character a number match can start with or cross, so
    masking a text and then building the prompt is masking the prompt.
    Each instance owns its label arrays.
    """
    variants = (variant,) if isinstance(variant, str) else tuple(variant)
    if not variants or len(set(variants)) < len(variants) or not set(variants) <= set(VARIANTS):
        raise ValueError(f"unknown or repeated variant in {variant!r}; expected names from {VARIANTS}")
    first, *others = variants
    with_synthesis = "sample_synthesis" in variants
    built: dict[str, list[PromptInstance]] = {v: [] for v in variants}
    for start in range(0, len(samples), PROMPT_BLOCK):
        block = samples[start : start + PROMPT_BLOCK]
        rows, heads, values, counts = [], [], [], []
        for sample in block:
            labels = np.full(N_HEADS, np.nan)
            mask = np.zeros(N_HEADS, dtype=bool)
            per_head: dict[int, list[float]] = {}
            before = len(heads)
            for obs in sample.observations:
                if obs.canonical_value is not None:
                    heads.append(obs.head_id)
                    values.append(obs.canonical_value)
                    per_head.setdefault(obs.head_id, []).append(obs.canonical_value)
            for head_id, head_values in per_head.items():
                # np.mean of one value is that value, at many times the cost
                if len(head_values) == 1:
                    label = head_values[0]
                else:
                    with np.errstate(over="ignore"):  # refused just below, naming the head
                        label = np.mean(head_values)
                if not math.isfinite(label):  # two finite values can sum past the float range
                    raise ValueError(
                        f"sample {sample.sample_id!r}: head {head_id} label {float(label)!r} is not finite"
                    )
                labels[head_id] = label
                mask[head_id] = True
            rows.append((labels, mask))
            counts.append(len(heads) - before)
        targets = target_values(heads, values, counts, registry)
        sample_texts = mask_labels([sample.sample_text for sample in block], targets)
        leaks = leakage_hits(sample_texts, targets)
        synthesis_texts = [sample.synthesis_text for sample in block]
        if with_synthesis:
            synthesis_texts = mask_labels(synthesis_texts, targets)
            leaks = map(add, leaks, leakage_hits(synthesis_texts, targets))
        for sample, sample_text, synthesis_text, hits, (labels, mask) in zip(
            block, sample_texts, synthesis_texts, leaks, rows
        ):
            text = build_prompt(sample_text, synthesis_text, first)  # an EmptySample outranks its leak
            if hits:
                raise LeakageDetected(f"sample {sample.sample_id}: surviving targets {hits}")
            built[first].append(PromptInstance(sample.sample_id, first, text, labels, mask))
            for v in others:
                text = build_prompt(sample_text, synthesis_text, v)
                built[v].append(PromptInstance(sample.sample_id, v, text, labels.copy(), mask.copy()))
    return built[variant] if isinstance(variant, str) else built


def scan_dataset_for_leaks(
    instances: list[PromptInstance], registry: PropertyRegistry | None = None
) -> int:
    """Exhaustive leakage scan over a built dataset; returns the hit count.

    The targets come from each instance's stored labels only."""
    total = 0
    for start in range(0, len(instances), PROMPT_BLOCK):
        block = instances[start : start + PROMPT_BLOCK]
        masks = np.array([inst.label_mask for inst in block])
        prompt, heads = np.nonzero(masks)
        values = np.array([inst.labels for inst in block])[prompt, heads]
        targets = target_values(heads, values, masks.sum(axis=1), registry)
        total += sum(map(len, leakage_hits([inst.text for inst in block], targets)))
    return total


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


_UNESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\([ntr\\])")


def _unescape(text: str) -> str:
    """Invert _escape; any other escape or a trailing lone backslash stays as is."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES[m.group(1)], text)


def save_dataset(instances: list[PromptInstance], path) -> None:
    """Write instances as TSV; ids and variants must be free of tabs and
    newlines, which the format does not escape outside the prompt text, and
    a present label must be finite, as load_dataset requires."""
    for inst in instances:
        for name, value in (("sample_id", inst.sample_id), ("variant", inst.variant)):
            if "\t" in value or "\n" in value or "\r" in value:
                raise ValueError(f"{path}: {name} {value!r} contains a tab or a newline")
    for start in range(0, len(instances), PROMPT_BLOCK):
        block = instances[start : start + PROMPT_BLOCK]
        labels = np.array([inst.labels for inst in block])
        bad = np.array([inst.label_mask for inst in block]) & ~np.isfinite(labels)
        if bad.any():
            row, head = np.argwhere(bad)[0]
            raise ValueError(
                f"{path}: sample {block[row].sample_id!r}: label_{head} {float(labels[row, head])!r} is not finite"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        heads = "\t".join(f"label_{i}" for i in range(N_HEADS))
        fh.write(f"sample_id\tvariant\ttext\t{heads}\n")
        for inst in instances:
            slots = "\t".join(
                f"{value:.17g}" if present else "NA"
                for value, present in zip(inst.labels.tolist(), inst.label_mask.tolist())
            )
            fh.write(f"{inst.sample_id}\t{inst.variant}\t{_escape(inst.text)}\t{slots}\n")


def load_dataset(path) -> list[PromptInstance]:
    """Read save_dataset's file.  A malformed row, or one whose sample_id
    an earlier row holds, raises a ValueError naming its line."""
    return read_lines(path, _instance, header="sample_id\tvariant\ttext", columns=3 + N_HEADS, key="sample_id")


def _instance(parts: list[str]) -> tuple[str, PromptInstance]:
    sid, variant, text, *slots = parts
    if variant not in VARIANTS:
        raise ValueError(f"variant {variant!r} is not one of {', '.join(VARIANTS)}")
    mask = [slot != "NA" for slot in slots]
    labels = [finite_label(float(slot)) if present else np.nan for slot, present in zip(slots, mask)]
    return sid, PromptInstance(sid, variant, _unescape(text), labels, mask)
