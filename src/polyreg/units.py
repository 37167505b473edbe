"""Unit normalization and conversion to canonical head units.

Every registered unit is an (dimension, factor, offset) triple so that
canonical = value * factor + offset, in its dimension's base unit (factor 1,
offset 0).  Temperature conversions are affine; the rest are multiplicative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class IncompatibleUnit(Exception):
    """Unit dimension does not match the head's canonical dimension."""


@dataclass(frozen=True)
class UnitDef:
    symbol: str
    dimension: str
    factor: float
    offset: float = 0.0

    def to_canonical(self, value: float) -> float:
        return value * self.factor + self.offset


_UNITS = [
    # temperature (canonical °C)
    UnitDef("°C", "temperature", 1.0),
    UnitDef("K", "temperature", 1.0, -273.15),
    UnitDef("°F", "temperature", 5.0 / 9.0, -160.0 / 9.0),
    # stress / modulus (canonical MPa)
    UnitDef("Pa", "stress", 1e-6),
    UnitDef("kPa", "stress", 1e-3),
    UnitDef("MPa", "stress", 1.0),
    UnitDef("GPa", "stress", 1e3),
    # fraction (canonical %)
    UnitDef("%", "percent", 1.0),
    # impact strength (canonical kJ/m²)
    UnitDef("kJ/m²", "impact", 1.0),
    UnitDef("J/m²", "impact", 1e-3),
    # density (canonical g/cm³)
    UnitDef("g/cm³", "density", 1.0),
    UnitDef("g/mL", "density", 1.0),
    UnitDef("kg/m³", "density", 1e-3),
    # molecular weight (canonical g/mol)
    UnitDef("g/mol", "molweight", 1.0),
    UnitDef("kg/mol", "molweight", 1e3),
    UnitDef("Da", "molweight", 1.0),
    UnitDef("kDa", "molweight", 1e3),
    # viscosity (canonical Pa·s)
    UnitDef("Pa·s", "viscosity", 1.0),
    UnitDef("mPa·s", "viscosity", 1e-3),
    UnitDef("cP", "viscosity", 1e-3),
    UnitDef("P", "viscosity", 0.1),
    # electrical conductivity (canonical S/cm)
    UnitDef("S/cm", "conductivity", 1.0),
    UnitDef("mS/cm", "conductivity", 1e-3),
    UnitDef("S/m", "conductivity", 1e-2),
    # thermal conductivity (canonical W/(m·K))
    UnitDef("W/(m·K)", "thermal_conductivity", 1.0),
    # dimensionless heads (dielectric constant, dispersity)
    UnitDef("-", "dimensionless", 1.0),
]

# Alternate spellings folded onto canonical symbols.
_SPELLINGS = {
    "c": "°C",
    "celsius": "°C",
    "deg c": "°C",
    "degc": "°C",
    "f": "°F",
    "g/cm3": "g/cm³",
    "g/cc": "g/cm³",
    "g/ml": "g/mL",
    "kg/m3": "kg/m³",
    "pa s": "Pa·s",
    "pas": "Pa·s",
    "mpa s": "mPa·s",
    "w/m.k": "W/(m·K)",
    "w/mk": "W/(m·K)",
    "w/m k": "W/(m·K)",
    "": "-",
    "dimensionless": "-",
}


def _fold(text: str) -> str:
    """Collapse whitespace, lower-case, and spell ``·`` as ``.`` and ``²`` as ``2``."""
    return " ".join(text.split()).lower().replace("·", ".").replace("²", "2")


_BY_SYMBOL: dict[str, UnitDef] = {u.symbol: u for u in _UNITS}
_BY_DIMENSION: dict[str, list[UnitDef]] = {}
_BY_KEY: dict[str, UnitDef] = {}
for _u in _UNITS:
    _BY_DIMENSION.setdefault(_u.dimension, []).append(_u)
    _BY_KEY[_fold(_u.symbol)] = _u
for _alt, _sym in _SPELLINGS.items():
    _BY_KEY[_fold(_alt)] = _BY_SYMBOL[_sym]


# extraction resolves the same few spellings once per observation
@lru_cache(maxsize=1024)
def normalize_unit(text: str | None) -> UnitDef | None:
    """Resolve a unit spelling to its UnitDef, or None if unknown."""
    return _BY_KEY.get(_fold(text or ""))


def units_for_dimension(dimension: str) -> list[UnitDef]:
    return list(_BY_DIMENSION.get(dimension, []))

