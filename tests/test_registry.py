import copy
import pickle
import re
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyreg import registry as registry_mod
from polyreg.registry import GROUPS, N_HEADS, _fold, default_registry, load_registry
from polyreg.units import normalize_unit, units_for_dimension

REG = default_registry()

EXPECTED_LOG_HEADS = {
    "tensile_strength",
    "youngs_modulus",
    "flexural_strength",
    "compressive_strength",
    "yield_strength",
    "flexural_modulus",
    "electrical_conductivity",
    "dielectric_constant",
    "thermal_conductivity",
    "Mn",
    "Mw",
    "viscosity",
}


def test_registry_has_22_heads_with_permutation_ids():
    assert len(REG) == N_HEADS
    assert sorted(s.head_id for s in REG) == list(range(N_HEADS))


def test_group_counts():
    counts = {g: 0 for g in GROUPS}
    for spec in REG:
        counts[spec.group] += 1
    assert counts == {
        "thermal": 5,
        "mechanical": 8,
        "electrical_transport": 3,
        "physicochemical": 6,
    }


def test_alias_sets_pairwise_disjoint():
    seen = {}
    for spec in REG:
        for alias in spec.aliases:
            assert alias not in seen, f"alias {alias!r} shared by {seen.get(alias)} and {spec.name}"
            seen[alias] = spec.name


def test_lookup_examples():
    assert REG.lookup("glass transition temperature").name == "Tg"
    assert REG.lookup("tensile strength").name == "tensile_strength"
    assert REG.lookup("shoe size") is None


def test_lookup_folds_case_and_whitespace():
    assert REG.lookup("  Glass   Transition  TEMPERATURE ").name == "Tg"


# whitespace to str.split and to re's \s alike, and case-mapped letters
# whose lower case is longer than they are
_FOLD_SPECIALS = ["\u00a0", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000", "\t", "\n", " ", "İ", "ẞ"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(max_size=4) | st.sampled_from(_FOLD_SPECIALS), max_size=10).map("".join))
@example("\u00a0Tg\u2028 \x1c\x1d\x1e\x1fMELT\x85")
def test_fold_equals_the_regex_fold(text):
    assert _fold(text) == re.sub(r"\s+", " ", text.strip().lower())


def test_match_alias_walks_word_suffixes():
    reg = load_registry()
    assert reg.match_alias("Measured tensile strength").name == "tensile_strength"
    assert reg.match_alias("measured  Glass transition temperature").name == "Tg"
    assert reg.match_alias("shoe size") is None
    assert reg.match_alias("   ") is None


def test_a_copied_registry_resolves_through_its_own_cache():
    for copied in (pickle.loads(pickle.dumps(REG)), copy.deepcopy(REG)):
        assert copied is not REG and [s.name for s in copied] == [s.name for s in REG]
        assert copied.match_alias("measured Tg").name == "Tg"
        assert copied.match_alias.__wrapped__.__self__ is copied


@pytest.mark.parametrize("copier", [lambda r: r, lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy])
def test_the_unit_tables_hold_each_heads_units_in_table_order(copier):
    reg = copier(REG)
    assert all(type(t) is tuple for t in (reg.unit_count, reg.unit_first, reg.unit_offsets, reg.unit_factors))
    for spec in reg:
        units = units_for_dimension(normalize_unit(spec.canonical_unit).dimension)
        first, count = reg.unit_first[spec.head_id], reg.unit_count[spec.head_id]
        assert count == len(units)
        assert reg.unit_offsets[first : first + count] == tuple(u.offset for u in units)
        assert reg.unit_factors[first : first + count] == tuple(u.factor for u in units)
    assert reg.unit_first[-1] + reg.unit_count[-1] == len(reg.unit_offsets) == len(reg.unit_factors)


def test_lookup_empty_alias_rejected():
    with pytest.raises(ValueError):
        REG.lookup("   ")


def test_canonical_name_round_trip():
    for spec in REG:
        assert REG.lookup(spec.name) is spec


def test_log_space_partition():
    log_names = {s.name for s in REG if s.log_space}
    assert log_names == EXPECTED_LOG_HEADS
    assert len(log_names) == 12
    assert sum(not s.log_space for s in REG) == 10


def test_is_log_space_examples():
    assert REG.is_log_space(REG.lookup("youngs_modulus").head_id)
    assert not REG.is_log_space(REG.lookup("Tg").head_id)
    assert not REG.is_log_space(REG.lookup("density").head_id)


def test_is_log_space_unknown_head():
    with pytest.raises(KeyError):
        REG.is_log_space(99)


def _table_copy(tmp_path, monkeypatch, edit=None):
    """Point load_registry at a copy of the bundled table, ``edit``ed as a
    list of its lines; returns the copy's path."""
    lines = (resources.files("polyreg.data") / "properties.tsv").read_text("utf-8").splitlines()
    if edit is not None:
        edit(lines)
    path = tmp_path / "properties.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(registry_mod.resources, "files", lambda package: tmp_path)
    return path


def _set_column(lineno, column, value):
    def edit(lines):
        parts = lines[lineno - 1].split("\t")
        parts[column] = value
        lines[lineno - 1] = "\t".join(parts)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_column(2, 2, "optical"), "2: unknown group 'optical'"),
        (_set_column(3, 4, "2"), "3: log_space must be 0 or 1, got '2'"),
        (_set_column(3, 4, "true"), "3: log_space must be 0 or 1, got 'true'"),
        (lambda lines: lines.__setitem__(6, lines[6].rsplit("\t", 1)[0]), "7: expected 6 columns, got 5"),
        (_set_column(2, 0, "zero"), "2: invalid literal for int() with base 10: 'zero'"),
        (_set_column(4, 0, "3"), "5: head_id 3 repeats line 4"),
        # masking restates labels from the base unit, so no other canonical unit loads
        (_set_column(2, 3, "K"), "2: canonical unit 'K' is not a known dimension's base unit"),
        (_set_column(2, 3, "GPa"), "2: canonical unit 'GPa' is not a known dimension's base unit"),
        (_set_column(2, 3, "mm"), "2: canonical unit 'mm' is not a known dimension's base unit"),
    ],
    ids=[
        "unknown_group",
        "log_flag_two",
        "log_flag_word",
        "five_columns",
        "head_id_not_int",
        "head_id_repeated",
        "offset_unit",
        "scaled_unit",
        "unknown_unit",
    ],
)
def test_a_malformed_table_row_names_the_file_and_line(tmp_path, monkeypatch, edit, message):
    path = _table_copy(tmp_path, monkeypatch, edit)
    with pytest.raises(ValueError) as err:
        load_registry()
    assert str(err.value) == f"{path}:{message}"


def test_an_unmodified_table_copy_loads_equal_to_the_default(tmp_path, monkeypatch):
    _table_copy(tmp_path, monkeypatch)
    copied = load_registry()
    assert copied is not default_registry()
    assert list(copied) == list(default_registry())


def test_default_registry_is_loaded_once():
    assert default_registry() is default_registry()
