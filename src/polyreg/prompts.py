"""Prompt assembly and target-label masking.

Prompts are built from a ``[Sample]`` block and (in the full variant) a
``[Synthesis]`` block.  Every numeric mention of an observed target value
is scrubbed to the literal token ``[MASKED]``, matched across all
registered units of the head's dimension with a ±0.5% relative tolerance.
"""

from __future__ import annotations

import re

from .records import _NUM_RE, PropertyObservation
from .registry import PropertyRegistry, default_registry
from .units import normalize_unit, units_for_dimension

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


def _target_representations(
    observations: list[PropertyObservation], registry: PropertyRegistry
) -> list[tuple[float, float]]:
    """Each value a target could take in a registered unit, with its match tolerance."""
    reps: list[tuple[float, float]] = []
    for obs in observations:
        if obs.canonical_value is None:
            continue
        head_unit = normalize_unit(registry.spec(obs.head_id).canonical_unit)
        for unit in units_for_dimension(head_unit.dimension):
            rep = unit.from_canonical(obs.canonical_value)
            reps.append((rep, MASK_REL_TOL * max(abs(rep), 1e-12)))
    return reps


def _is_target_number(value: float, reps: list[tuple[float, float]]) -> bool:
    for rep, tol in reps:
        if abs(value - rep) <= tol:
            return True
    return False


def mask_labels(
    text: str,
    observations: list[PropertyObservation],
    registry: PropertyRegistry | None = None,
) -> str:
    """Replace numeric mentions of observed target values with [MASKED].

    Non-target numerics (process temperatures, times, ratios) survive
    unless they coincide with a target value within the tolerance in some
    registered unit of that head's dimension.
    """
    registry = registry or default_registry()
    reps = _target_representations(observations, registry)
    if not reps:
        return text

    def scrub(m: re.Match) -> str:
        return MASK_TOKEN if _is_target_number(float(m.group(0)), reps) else m.group(0)

    return _NUM_RE.sub(scrub, text)


def leakage_hits(
    text: str,
    observations: list[PropertyObservation],
    registry: PropertyRegistry | None = None,
) -> list[str]:
    """Numeric tokens in text that still equal an observed target value."""
    registry = registry or default_registry()
    reps = _target_representations(observations, registry)
    return [num for num in _NUM_RE.findall(text) if _is_target_number(float(num), reps)]
