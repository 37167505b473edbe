"""Registry of the 22 regression heads.

Each head has a canonical name, a property group, a canonical unit, a
log-space flag and a set of lowercase aliases.  The table ships as a
TSV data file so aliases can be edited without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .units import unit_def, units_for_dimension

GROUPS = ("thermal", "mechanical", "electrical_transport", "physicochemical")

N_HEADS = 22


@dataclass(frozen=True)
class PropertySpec:
    head_id: int
    name: str
    group: str
    canonical_unit: str
    log_space: bool
    aliases: frozenset[str] = field(default_factory=frozenset)


def _fold(text: str) -> str:
    """Case-fold and collapse internal whitespace."""
    return " ".join(text.lower().split())


class PropertyRegistry:
    """Immutable lookup table over the 22 property heads."""

    def __init__(self, specs: list[PropertySpec]):
        if len(specs) != N_HEADS:
            raise ValueError(f"expected {N_HEADS} property specs, got {len(specs)}")
        ids = sorted(s.head_id for s in specs)
        if ids != list(range(N_HEADS)):
            raise ValueError("head_ids must be a permutation of 0..21")
        self._specs = tuple(sorted(specs, key=lambda s: s.head_id))
        self._by_alias: dict[str, PropertySpec] = {}
        for spec in self._specs:
            for alias in spec.aliases:
                key = _fold(alias)
                if key in self._by_alias:
                    raise ValueError(f"alias {key!r} maps to more than one head")
                self._by_alias[key] = spec
        # every head's registered units (those of its dimension, in table
        # order) end to end: head h owns entries unit_first[h] up to
        # unit_first[h] + unit_count[h]
        units = [units_for_dimension(unit_def(s.canonical_unit).dimension) for s in self._specs]
        self.unit_count = np.array([len(u) for u in units])
        self.unit_first = np.cumsum(self.unit_count) - self.unit_count
        self.unit_offsets = np.array([u.offset for head in units for u in head])
        self.unit_factors = np.array([u.factor for head in units for u in head])
        for table in (self.unit_count, self.unit_first, self.unit_offsets, self.unit_factors):
            table.flags.writeable = False

    def __iter__(self):
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def spec(self, head_id: int) -> PropertySpec:
        if not 0 <= head_id < N_HEADS:
            raise KeyError(f"unknown head_id {head_id}")
        return self._specs[head_id]

    def lookup(self, alias: str) -> PropertySpec | None:
        """Resolve an alias to its spec after case/whitespace folding.

        Returns None for unmapped aliases (a value, not an error).
        """
        key = _fold(alias) if alias else ""
        if not key:
            raise ValueError("alias must be non-empty text")
        return self._by_alias.get(key)

    def is_log_space(self, head_id: int) -> bool:
        return self.spec(head_id).log_space


def _parse_registry_tsv(text: str) -> list[PropertySpec]:
    specs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head_id, name, group, unit, log_flag, aliases = line.split("\t")
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}")
        specs.append(
            PropertySpec(
                head_id=int(head_id),
                name=name,
                group=group,
                canonical_unit=unit,
                log_space=bool(int(log_flag)),
                aliases=frozenset(a.strip() for a in aliases.split("|") if a.strip()),
            )
        )
    return specs


def load_registry() -> PropertyRegistry:
    """Load the registry from the bundled TSV table."""
    text = resources.files("polyreg.data").joinpath("properties.tsv").read_text("utf-8")
    return PropertyRegistry(_parse_registry_tsv(text))


_DEFAULT: PropertyRegistry | None = None


def default_registry() -> PropertyRegistry:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_registry()
    return _DEFAULT
