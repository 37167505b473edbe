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
from .prompts import build_prompt, leakage_hits, mask_labels, target_values
from .registry import N_HEADS, PropertyRegistry


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
    observations (no canonical value) never become labels.  One target
    value list per sample feeds both the mask and the leakage guard, which
    re-scans every built prompt and refuses to emit leaks.
    """
    instances = []
    for sample in samples:
        labels = np.full(N_HEADS, np.nan)
        mask = np.zeros(N_HEADS, dtype=bool)
        targets = [
            (obs.head_id, obs.canonical_value)
            for obs in sample.observations
            if obs.canonical_value is not None
        ]
        per_head: dict[int, list[float]] = {}
        for head_id, value in targets:
            per_head.setdefault(head_id, []).append(value)
        for head_id, head_values in per_head.items():
            # np.mean of one value is that value, at many times the cost
            labels[head_id] = head_values[0] if len(head_values) == 1 else np.mean(head_values)
            mask[head_id] = True
        text = build_prompt(sample.sample_text, sample.synthesis_text, variant)
        values = target_values(targets, registry)
        text = mask_labels(text, values)
        hits = leakage_hits(text, values)
        if hits:
            raise LeakageDetected(f"sample {sample.sample_id}: surviving targets {hits}")
        instances.append(PromptInstance(sample.sample_id, variant, text, labels, mask))
    return instances


def scan_dataset_for_leaks(
    instances: list[PromptInstance], registry: PropertyRegistry | None = None
) -> int:
    """Exhaustive leakage scan over a built dataset; returns the hit count."""
    total = 0
    for inst in instances:
        labels = inst.labels.tolist()
        targets = [(h, labels[h]) for h, present in enumerate(inst.label_mask.tolist()) if present]
        total += len(leakage_hits(inst.text, target_values(targets, registry)))
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
    instances = []
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
            slots = parts[3:]
            mask = [slot != "NA" for slot in slots]
            try:
                labels = [finite_label(float(slot)) if present else np.nan for slot, present in zip(slots, mask)]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            instances.append(PromptInstance(sid, variant, text, labels, mask))
    return instances
