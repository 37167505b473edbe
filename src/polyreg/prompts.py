"""Prompt assembly and target-label masking.

Prompts are built from a ``[Sample]`` block and (in the full variant) a
``[Synthesis]`` block.  Every numeric mention of an observed target value
is scrubbed to the literal token ``[MASKED]``, matched across all
registered units of the head's dimension with a ±0.5% relative tolerance.
"""

from __future__ import annotations

import re

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


def target_values(
    targets: list[tuple[int, float]], registry: PropertyRegistry | None = None
) -> list[tuple[float, float]]:
    """Each value a target could take in a registered unit, with its match tolerance.

    ``targets`` are ``(head_id, canonical_value)`` pairs; the returned
    ``(value, tolerance)`` list is what ``mask_labels`` and
    ``leakage_hits`` match numbers against.
    """
    registry = registry or default_registry()
    values: list[tuple[float, float]] = []
    for head_id, canonical_value in targets:
        for unit in registry.units(head_id):
            value = unit.from_canonical(canonical_value)
            values.append((value, MASK_REL_TOL * max(abs(value), 1e-12)))
    return values


def _is_target_number(number: float, targets: list[tuple[float, float]]) -> bool:
    for value, tol in targets:
        if abs(number - value) <= tol:
            return True
    return False


def mask_labels(text: str, targets: list[tuple[float, float]]) -> str:
    """Replace numeric mentions of target values (from ``target_values``) with [MASKED].

    Non-target numerics (process temperatures, times, ratios) survive
    unless they coincide with a target value within the tolerance in some
    registered unit of that head's dimension.
    """
    if not targets:
        return text

    def scrub(m: re.Match) -> str:
        return MASK_TOKEN if _is_target_number(float(m.group(0)), targets) else m.group(0)

    return _NUM_RE.sub(scrub, text)


def leakage_hits(text: str, targets: list[tuple[float, float]]) -> list[str]:
    """Numeric tokens in text that still equal a target value (from ``target_values``)."""
    return [num for num in _NUM_RE.findall(text) if _is_target_number(float(num), targets)]
