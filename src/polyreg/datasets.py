"""Prompt dataset construction and file IO.

A dataset row is one sample: the masked prompt text, a sparse 22-slot
label vector in canonical units and its observation mask.  Files are TSV
with newlines in the prompt escaped and ``NA`` as the missing marker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .records import ExtractedSample, finite_label
from .prompts import EmptySample, build_prompt, leakage_hits, mask_labels, target_values
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
    variant: str,
    registry: PropertyRegistry | None = None,
) -> list[PromptInstance]:
    """Turn extracted samples into masked prompt instances.

    Multiple observations of one head average to a single label; limit
    observations (no canonical value) never become labels.  The samples
    go PROMPT_BLOCK at a time: one set of target representations per
    block feeds both the mask and the leakage guard, which re-scans every
    built prompt and refuses to emit leaks.  The earliest failing sample
    raises, whether its prompt leaks or has no sample text.
    """
    instances = []
    for start in range(0, len(samples), PROMPT_BLOCK):
        block = samples[start : start + PROMPT_BLOCK]
        texts, rows, heads, values, counts = [], [], [], [], []
        empty = None
        for sample in block:
            try:
                texts.append(build_prompt(sample.sample_text, sample.synthesis_text, variant))
            except EmptySample as exc:
                empty = exc  # raised once the samples before it pass the guard
                break
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
                labels[head_id] = head_values[0] if len(head_values) == 1 else np.mean(head_values)
                mask[head_id] = True
            rows.append((labels, mask))
            counts.append(len(heads) - before)
        targets = target_values(heads, values, counts, registry)
        texts = mask_labels(texts, targets)
        for sample, hits in zip(block, leakage_hits(texts, targets)):
            if hits:
                raise LeakageDetected(f"sample {sample.sample_id}: surviving targets {hits}")
        if empty is not None:
            raise empty
        instances.extend(
            PromptInstance(sample.sample_id, variant, text, labels, mask)
            for sample, text, (labels, mask) in zip(block, texts, rows)
        )
    return instances


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
    newlines, which the format does not escape outside the prompt text."""
    for inst in instances:
        for name, value in (("sample_id", inst.sample_id), ("variant", inst.variant)):
            if "\t" in value or "\n" in value or "\r" in value:
                raise ValueError(f"{path}: {name} {value!r} contains a tab or a newline")
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
    instances = []
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("sample_id\tvariant\ttext"):
            raise ValueError(f"{path}: not a prompt dataset file")
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 + N_HEADS:
                raise ValueError(f"{path}:{lineno}: expected {3 + N_HEADS} columns, got {len(parts)}")
            sid, variant, text = parts[0], parts[1], _unescape(parts[2])
            if sid in first_line:
                raise ValueError(f"{path}:{lineno}: sample_id {sid!r} repeats line {first_line[sid]}")
            first_line[sid] = lineno
            slots = parts[3:]
            mask = [slot != "NA" for slot in slots]
            try:
                labels = [finite_label(float(slot)) if present else np.nan for slot, present in zip(slots, mask)]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            instances.append(PromptInstance(sid, variant, text, labels, mask))
    return instances
