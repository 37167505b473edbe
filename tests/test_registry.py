import copy
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyreg.registry import GROUPS, N_HEADS, _fold, default_registry, load_registry

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
