import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreg.records import (
    ExtractedSample,
    MalformedDocument,
    ParseFailure,
    PropertyObservation,
    Quantity,
    extract_document,
    ExtractionCounters,
    load_extracted,
    parse_quantity,
    save_extracted,
    to_canonical,
)
from polyreg.registry import default_registry
from polyreg.units import IncompatibleUnit, units_for_dimension, normalize_unit

REG = default_registry()


# ---- parse_quantity -------------------------------------------------------


def test_parse_point_with_unit():
    q = parse_quantity("105 °C")
    assert q.kind == "point" and q.value == 105.0 and q.unit == "°C"


def test_parse_range_en_dash():
    q = parse_quantity("150–160 MPa")
    assert q.kind == "range" and (q.lo, q.hi) == (150.0, 160.0) and q.unit == "MPa"


def test_parse_range_hyphen_and_to():
    assert parse_quantity("150-160 MPa").kind == "range"
    q = parse_quantity("1.2 to 3.4 GPa")
    assert (q.lo, q.hi) == (1.2, 3.4)


def test_parse_limit():
    q = parse_quantity(">200 MPa")
    assert q.kind == "limit" and q.direction == "greater" and q.bound == 200.0
    q = parse_quantity("≤ 0.5 %")
    assert q.direction == "less" and q.bound == 0.5


def test_parse_tolerance_keeps_value_drops_tolerance():
    q = parse_quantity("105 ± 3 °C")
    assert q.kind == "point" and q.value == 105.0 and q.unit == "°C"


def test_parse_scientific_notation():
    q = parse_quantity("1.3e-4 S/cm")
    assert q.value == pytest.approx(1.3e-4) and q.unit == "S/cm"


def test_parse_bare_number_has_no_unit():
    assert parse_quantity("2.1").unit is None


def test_parse_failures():
    for bad in ("", "no numbers here", "105 200 MPa", "160-150 MPa"):
        with pytest.raises(ParseFailure):
            parse_quantity(bad)


def test_parse_rejects_non_finite_numbers():
    # float("1e999") is inf; it must fail here, not later in training
    for bad in ("1e999 MPa", "-1e999", "> 1e999 K", "1 - 1e999 MPa", "1e999 ± 2 GPa"):
        with pytest.raises(ParseFailure):
            parse_quantity(bad)


def test_non_finite_value_counted_as_parse_failure():
    doc = "== SAMPLE s1 ==\nSample: resin.\ntensile strength = 1e999 MPa\n"
    counters = ExtractionCounters()
    samples = extract_document(doc, counters=counters)
    assert samples[0].observations == []
    assert counters.parse_failures == 1


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_parse_quantity_never_panics(text):
    try:
        q = parse_quantity(text)
    except ParseFailure:
        return
    assert q.kind in ("point", "range", "limit")
    numbers = [x for x in (q.value, q.lo, q.hi, q.bound) if x is not None]
    assert all(math.isfinite(x) for x in numbers)


# ---- to_canonical ---------------------------------------------------------


def test_point_gpa_to_mpa():
    q = parse_quantity("2.4 GPa")
    assert to_canonical(q, REG.by_name("youngs_modulus")) == pytest.approx(2400.0)


def test_range_midpoint_rule():
    q = parse_quantity("150–160 °C")
    assert to_canonical(q, REG.by_name("Tm")) == pytest.approx(155.0)


def test_limit_is_rejected_value():
    q = parse_quantity(">200 MPa")
    assert to_canonical(q, REG.by_name("tensile_strength")) is None


def test_kelvin_affine_offset():
    q = parse_quantity("378.15 K")
    assert to_canonical(q, REG.by_name("Tg")) == pytest.approx(105.0)


def test_incompatible_unit_raises():
    q = parse_quantity("100 °C")
    with pytest.raises(IncompatibleUnit):
        to_canonical(q, REG.by_name("youngs_modulus"))


def test_missing_unit_on_dimensional_head_raises():
    q = parse_quantity("105")
    with pytest.raises(IncompatibleUnit):
        to_canonical(q, REG.by_name("Tg"))


def test_dimensionless_head_accepts_bare_number():
    q = parse_quantity("2.3")
    assert to_canonical(q, REG.by_name("dispersity")) == pytest.approx(2.3)


def test_unit_consistency_across_registered_units():
    # converting x in u must agree with converting the u'-expressed value in u'
    rng = np.random.default_rng(5)
    for spec in REG:
        dim = normalize_unit(spec.canonical_unit).dimension
        units = units_for_dimension(dim)
        for _ in range(5):
            canonical = rng.uniform(0.5, 500.0)
            values = []
            for unit in units:
                from polyreg.records import Quantity

                q = Quantity(kind="point", value=unit.from_canonical(canonical), unit=unit.symbol)
                values.append(to_canonical(q, spec))
            for v in values:
                assert math.isclose(v, canonical, rel_tol=1e-12)


# ---- extract_document -----------------------------------------------------


def test_single_sample_single_record():
    doc = "== SAMPLE s1 ==\nSample: PLA film.\nTg = 105 °C.\n"
    samples = extract_document(doc)
    assert len(samples) == 1
    obs = samples[0].observations
    assert len(obs) == 1
    assert obs[0].head_id == REG.by_name("Tg").head_id
    assert obs[0].canonical_value == pytest.approx(105.0)


def test_two_samples_get_distinct_ids():
    doc = (
        "== SAMPLE a ==\nSample: one.\nTg = 100 °C\n"
        "== SAMPLE b ==\nSample: two.\nTm = 170 °C\n"
    )
    samples = extract_document(doc)
    assert [s.sample_id for s in samples] == ["a", "b"]
    assert all(len(s.observations) == 1 for s in samples)
    assert samples[0].observations[0].sample_id == "a"
    assert samples[1].observations[0].sample_id == "b"


def test_unmapped_property_dropped_and_counted():
    doc = "== SAMPLE s1 ==\nSample: resin.\nhardness = 80 Shore D\n"
    counters = ExtractionCounters()
    samples = extract_document(doc, counters=counters)
    assert samples[0].observations == []
    assert counters.unmapped == 1


def test_sample_and_synthesis_blocks_collected():
    doc = (
        "== SAMPLE s1 ==\n"
        "Sample: epoxy blend.\n"
        "Synthesis: cured 2 h at 80 °C.\n"
        "tensile strength = 55 MPa\n"
    )
    s = extract_document(doc)[0]
    assert s.sample_text == "epoxy blend."
    assert s.synthesis_text == "cured 2 h at 80 °C."
    assert len(s.observations) == 1


def test_malformed_delimiter_raises():
    with pytest.raises(MalformedDocument):
        extract_document("== SAMPLE ==\nTg = 100 °C\n")
    with pytest.raises(MalformedDocument):
        extract_document("Sample: no markers at all.\n")
    with pytest.raises(MalformedDocument):
        extract_document("== SAMPLE a ==\nx\n== SAMPLE a ==\ny\n")


def test_limit_observation_has_no_canonical_value():
    doc = "== SAMPLE s1 ==\ntensile strength = >200 MPa\n"
    obs = extract_document(doc)[0].observations
    assert len(obs) == 1
    assert obs[0].quantity.kind == "limit"
    assert obs[0].canonical_value is None


# ---- extracted-sample file IO ---------------------------------------------


def test_extracted_file_bytes_and_round_trip(tmp_path):
    # one quantity of each kind; the line is the format's, byte for byte
    obs = [
        PropertyObservation("s1", 0, Quantity(kind="point", value=105.0, unit="°C"), 105.0, (4, 10)),
        PropertyObservation("s1", 5, Quantity(kind="range", lo=40.0, hi=50.0, unit="MPa"), 45.0, (12, 24)),
        PropertyObservation("s1", 6, Quantity(kind="limit", bound=2.5, direction="greater", unit="GPa"), None),
    ]
    samples = [ExtractedSample("s1", "PS film", "cast at 80 °C", obs)]
    path = tmp_path / "obs.jsonl"
    save_extracted(samples, path)
    assert path.read_text(encoding="utf-8") == (
        '{"observations": [{"bound": null, "canonical_value": 105.0, "direction": null, '
        '"head_id": 0, "hi": null, "kind": "point", "lo": null, "span": [4, 10], '
        '"unit": "\\u00b0C", "value": 105.0}, {"bound": null, "canonical_value": 45.0, '
        '"direction": null, "head_id": 5, "hi": 50.0, "kind": "range", "lo": 40.0, '
        '"span": [12, 24], "unit": "MPa", "value": null}, {"bound": 2.5, '
        '"canonical_value": null, "direction": "greater", "head_id": 6, "hi": null, '
        '"kind": "limit", "lo": null, "span": [0, 0], "unit": "GPa", "value": null}], '
        '"sample_id": "s1", "sample_text": "PS film", "synthesis_text": "cast at 80 \\u00b0C"}\n'
    )
    assert load_extracted(path) == samples


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"sample_id": "s2", "sample_text": "PS", "synthesis_text": ""', "Expecting ',' delimiter"),
        (
            '{"observations": [{"head_id": 0, "value": 1.0, "canonical_value": 1.0, "span": [0, 3]}], '
            '"sample_id": "s2", "sample_text": "PS", "synthesis_text": ""}',
            "missing field 'kind'",
        ),
        ('{"observations": [], "sample_id": "s2", "sample_text": "PS"}', "missing field 'synthesis_text'"),
        ('["s2"]', "list indices must be integers"),
    ],
    ids=["bad_json", "observation_missing_fields", "sample_missing_field", "not_an_object"],
)
def test_load_extracted_names_file_and_line_of_a_malformed_record(tmp_path, line, message):
    path = tmp_path / "obs.jsonl"
    save_extracted([ExtractedSample("s1", "PS film", "cast at 80 °C")], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        load_extracted(path)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_text = st.text(max_size=12)
_quantities = st.one_of(
    st.builds(Quantity, kind=st.just("point"), value=_finite, unit=st.none() | _text),
    st.tuples(_finite, _finite).filter(lambda p: p[0] < p[1]).map(
        lambda p: Quantity(kind="range", lo=p[0], hi=p[1], unit="MPa")
    ),
    st.builds(
        Quantity, kind=st.just("limit"), bound=_finite, direction=st.sampled_from(["greater", "less"]), unit=_text
    ),
)


@st.composite
def _samples(draw):
    sid = draw(_text)
    observations = draw(
        st.lists(
            st.builds(
                PropertyObservation,
                sample_id=st.just(sid),
                head_id=st.integers(0, 21),
                quantity=_quantities,
                canonical_value=st.none() | _finite,
                source_span=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            ),
            max_size=4,
        )
    )
    return ExtractedSample(sid, draw(st.text()), draw(st.text()), observations)


@settings(max_examples=100, deadline=None)
@given(st.lists(_samples(), max_size=4))
def test_extracted_file_round_trip_over_every_quantity_kind(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("extracted") / "obs.jsonl"
    save_extracted(samples, path)
    assert load_extracted(path) == samples
