from polyreg.units import _SPELLINGS, _UNITS, normalize_unit

# every registered symbol and alternate spelling, with the symbol it resolves to
RESOLVES_TO = {
    "°C": "°C", "K": "K", "°F": "°F",
    "Pa": "Pa", "kPa": "kPa", "MPa": "MPa", "GPa": "GPa",
    "%": "%",
    "kJ/m²": "kJ/m²", "J/m²": "J/m²",
    "g/cm³": "g/cm³", "g/mL": "g/mL", "kg/m³": "kg/m³",
    "g/mol": "g/mol", "kg/mol": "kg/mol", "Da": "Da", "kDa": "kDa",
    "Pa·s": "Pa·s", "mPa·s": "mPa·s", "cP": "cP", "P": "P",
    "S/cm": "S/cm", "mS/cm": "mS/cm", "S/m": "S/m",
    "W/(m·K)": "W/(m·K)",
    "-": "-",
    "c": "°C", "celsius": "°C", "deg c": "°C", "degc": "°C", "f": "°F",
    "g/cm3": "g/cm³", "g/cc": "g/cm³", "g/ml": "g/mL", "kg/m3": "kg/m³",
    "pa s": "Pa·s", "pas": "Pa·s", "mpa s": "mPa·s",
    "w/m.k": "W/(m·K)", "w/mk": "W/(m·K)", "w/m k": "W/(m·K)",
    "": "-", "dimensionless": "-",
}


def _variants(text):
    """Case, whitespace and ``·``/``²`` spellings the lookup folds together."""
    yield from (text, text.upper(), text.lower(), f"  {text}\t", text.replace(" ", " \n  "))
    yield from (text.replace("·", "."), text.replace(".", "·"), text.replace("²", "2"), text.replace("2", "²"))


def test_table_covers_every_symbol_and_spelling():
    assert set(RESOLVES_TO) == {u.symbol for u in _UNITS} | set(_SPELLINGS)


def test_every_spelling_variant_resolves_to_its_unit():
    for text, symbol in RESOLVES_TO.items():
        for variant in _variants(text):
            unit = normalize_unit(variant)
            assert unit is not None and unit.symbol == symbol, (variant, unit)


def test_unknown_and_missing_units():
    assert normalize_unit(None).symbol == "-"
    for text in ("mm", "kg", "pa-s", "w/m·k·s"):
        assert normalize_unit(text) is None
