"""Registry of the 22 regression heads.

Each head has a canonical name, a property group, a canonical unit (its
dimension's base unit), a log-space flag and a set of lowercase aliases.
The table ships as a TSV data file so aliases can be edited without code
changes; ``lines.read_lines`` reads it, naming the line of a refused row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from importlib import resources
from itertools import accumulate

from .lines import read_lines
from .units import normalize_unit, units_for_dimension

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
        units = [units_for_dimension(normalize_unit(s.canonical_unit).dimension) for s in self._specs]
        self.unit_count = tuple(len(u) for u in units)
        self.unit_first = tuple(accumulate(self.unit_count[:-1], initial=0))
        self.unit_offsets = tuple(u.offset for head in units for u in head)
        self.unit_factors = tuple(u.factor for head in units for u in head)
        # extraction resolves the same few clause left sides over and over;
        # a single string argument is its own cache key
        self.match_alias = lru_cache(maxsize=1024)(self._match_alias)

    def __reduce__(self):
        # rebuild from the specs: the cache above holds a bound method
        return PropertyRegistry, (list(self._specs),)

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

    def _match_alias(self, phrase: str) -> PropertySpec | None:
        """Resolve the left-hand side of a measurement clause to a head.

        Tries the whole phrase first, then progressively shorter word
        suffixes ("measured tensile strength" -> "tensile strength").
        Cached per registry as ``match_alias``.
        """
        words = phrase.split()
        for start in range(len(words)):
            spec = self.lookup(" ".join(words[start:]))
            if spec is not None:
                return spec
        return None

    def is_log_space(self, head_id: int) -> bool:
        return self.spec(head_id).log_space


def _spec(parts: list[str]) -> tuple[int, PropertySpec]:
    head_id, name, group, unit, log_flag, aliases = parts
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if log_flag not in ("0", "1"):
        raise ValueError(f"log_space must be 0 or 1, got {log_flag!r}")
    # masking restates each label in every unit of its dimension from the base unit
    base = normalize_unit(unit)
    if base is None or base.factor != 1.0 or base.offset != 0.0:
        raise ValueError(f"canonical unit {unit!r} is not a known dimension's base unit")
    alias_set = frozenset(a.strip() for a in aliases.split("|") if a.strip())
    spec = PropertySpec(int(head_id), name, group, unit, log_flag == "1", alias_set)
    return spec.head_id, spec


def load_registry() -> PropertyRegistry:
    """Load the registry from the bundled TSV table; a malformed row raises
    ``ValueError("path:line: message")``."""
    path = resources.files("polyreg.data").joinpath("properties.tsv")
    return PropertyRegistry(read_lines(path, _spec, header="# head_id", columns=6, key="head_id"))


@cache
def default_registry() -> PropertyRegistry:
    return load_registry()
