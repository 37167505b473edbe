import copy
import dataclasses
import inspect
import itertools
import json
import math
import pickle
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyreg import records
from polyreg.records import (
    ExtractedSample,
    MalformedDocument,
    ParseFailure,
    PropertyObservation,
    Quantity,
    extract_corpus,
    extract_document,
    ExtractionCounters,
    load_extracted,
    parse_quantity,
    save_extracted,
    split_corpus,
    to_canonical,
)
from polyreg.registry import default_registry, load_registry
from polyreg.units import IncompatibleUnit, units_for_dimension, normalize_unit

REG = default_registry()


# ---- the number scanner ---------------------------------------------------

# ASCII and other decimal digits (Arabic-Indic, Devanagari, fullwidth),
# superscripts (not decimal digits), signs, the decimal point, exponent
# letters, whitespace and a letter
_SCANNER_ALPHABET = "0123456789" + "٠٣٩०७９" + "¹²³⁴" + "+-.eE" + " \t\n" + "x"
# and the span patterns' limit and separator symbols
_SPAN_ALPHABET = _SCANNER_ALPHABET + "<>≥≤±–/to"
_ORIGINAL_NUM = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_ORIGINAL_NUM_RE = re.compile(_ORIGINAL_NUM)
_ORIGINAL_SPAN_RES = {
    "_LIMIT_RE": re.compile(rf"^\s*(>=|<=|>|<|≥|≤)\s*({_ORIGINAL_NUM})\s*(.*)$"),
    "_RANGE_RE": re.compile(rf"^\s*({_ORIGINAL_NUM})\s*(?:–|—|‐|-|\bto\b)\s*({_ORIGINAL_NUM})\s*(.*)$"),
    "_TOL_RE": re.compile(rf"^\s*({_ORIGINAL_NUM})\s*(?:±|\+/-|\+-)\s*({_ORIGINAL_NUM})\s*(.*)$"),
    "_POINT_RE": re.compile(rf"^\s*({_ORIGINAL_NUM})\s*(.*)$"),
}


def _match(pattern, text):
    m = pattern.match(text)
    return None if m is None else (m.span(), m.groups())


def _assert_scans_like_the_original_pattern(text):
    assert [m.span() for m in records._NUM_RE.finditer(text)] == [m.span() for m in _ORIGINAL_NUM_RE.finditer(text)]
    bracket = lambda m: f"<{m.group(0)}>"  # noqa: E731
    assert records._NUM_RE.sub(bracket, text) == _ORIGINAL_NUM_RE.sub(bracket, text)
    for name, original in _ORIGINAL_SPAN_RES.items():
        assert _match(getattr(records, name), text) == _match(original, text), name


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=_SPAN_ALPHABET, max_size=40))
@example("+-5 -+5 ++5 5-5 5+5")
@example("1.e5 .5 5. 5.5.5 5e 5e+ 5e+5 -5E-5e5")
@example("٣.٣e٣ ９-９ ²5 5²")
@example(" >= -5e3 K")
@example("-1.5e3 to +2E1 MPa")
@example("5 +/- -1 °C")
@example("+5 ± 1")
def test_number_scanner_matches_the_original_pattern(text):
    _assert_scans_like_the_original_pattern(text)


def test_number_scanner_matches_the_original_pattern_on_seeded_strings():
    rng = np.random.default_rng(0)
    alphabet = np.array(list(_SPAN_ALPHABET))
    for size in rng.integers(0, 40, size=20_000):
        _assert_scans_like_the_original_pattern("".join(rng.choice(alphabet, size=size)))


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


@pytest.mark.parametrize("rhs", ["1e306 GPa", "1e300 - 1.7e308 GPa"], ids=["point", "range"])
def test_value_that_overflows_in_the_canonical_unit_is_a_parse_failure(rhs):
    # finite as written, inf in MPa: the label would poison its prompt's masking
    spec = REG.lookup("youngs modulus")
    with pytest.raises(ParseFailure, match="not finite in MPa: inf"):
        to_canonical(parse_quantity(rhs), spec)
    doc = f"== SAMPLE s1 ==\nSample: resin, 30 % talc.\nyoungs modulus = {rhs}; Tg = 105 °C\n"
    counters = ExtractionCounters()
    samples = extract_document(doc, counters=counters)
    assert [o.head_id for o in samples[0].observations] == [REG.lookup("Tg").head_id]
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


def _unguarded_parse(text):
    """parse_quantity as it was before its literal guards: every pattern
    is tried in order, limit, tolerance, range, point."""
    if not isinstance(text, str) or not text.strip():
        raise ParseFailure("empty span")
    m = records._LIMIT_RE.match(text)
    if m:
        op, num, tail = m.groups()
        direction = "greater" if op in (">", ">=", "≥") else "less"
        return Quantity(
            kind="limit", bound=records._number(num, text), direction=direction, unit=records._unit_tail(tail)
        )
    m = records._TOL_RE.match(text)
    if m:
        num, _tol, tail = m.groups()
        return Quantity(kind="point", value=records._number(num, text), unit=records._unit_tail(tail))
    m = records._RANGE_RE.match(text)
    if m:
        lo, hi, tail = m.groups()
        return Quantity(
            kind="range", lo=records._number(lo, text), hi=records._number(hi, text), unit=records._unit_tail(tail)
        )
    m = records._POINT_RE.match(text)
    if m:
        num, tail = m.groups()
        return Quantity(kind="point", value=records._number(num, text), unit=records._unit_tail(tail))
    raise ParseFailure(f"no number found in {text!r}")


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseFailure as exc:
        return ("ParseFailure", str(exc))


_SPAN_NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e999", "-2.5e-3", "0.0", "+7"]),
)
_SPAN_GAPS = st.sampled_from(["", " ", "  ", "\t"])
_SPAN_LIMITS = ["<", ">", "<=", ">=", "≥", "≤"]
_SPAN_SEPARATORS = ["±", "+/-", "+-", "-", "–", "—", "‐", "to"]
_SPAN_UNITS = ["MPa", "°C", "%", "g/cm³", "kJ/m²", "to", "top"]
_SPANS = st.one_of(
    # shaped like a quantity: [limit] number [separator number] [unit]
    st.tuples(
        st.sampled_from(["", *_SPAN_LIMITS]), _SPAN_GAPS, _SPAN_NUMBERS, _SPAN_GAPS,
        st.sampled_from(["", "/", "x", *_SPAN_SEPARATORS]), _SPAN_GAPS, st.just("") | _SPAN_NUMBERS,
        _SPAN_GAPS, st.sampled_from(["", ".", *_SPAN_UNITS]),
    ).map("".join),
    # the same pieces in any order
    st.lists(
        _SPAN_NUMBERS | _SPAN_GAPS | st.sampled_from([*_SPAN_LIMITS, *_SPAN_SEPARATORS, *_SPAN_UNITS, "\n", "e", "+", "."]),
        max_size=7,
    ).map("".join),
)


@settings(max_examples=1000, deadline=None)
@given(_SPANS)
@example("5 +/- 1 MPa")
@example("5 +- 1")
@example("5±1 °C")
@example("5 to 6 MPa")
@example("5 – 6")
@example("5—6")
@example("5‐6")
@example("5-6")
@example("≥ 5")
@example("≤5 %")
@example(">=5")
@example("<= 5")
@example("> 5")
@example("<5")
def test_guarded_parse_quantity_agrees_with_the_unguarded_chain(span):
    assert _outcome(parse_quantity, span) == _outcome(_unguarded_parse, span)


def test_records_stay_frozen_and_hashable():
    q = Quantity(kind="range", lo=1.0, hi=2.0, unit="MPa")
    obs = PropertyObservation("s1", 3, q, 1.5, (0, 9))
    for record, name in ((q, "unit"), (obs, "canonical_value")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        assert not hasattr(record, "__dict__")
        assert hash(record) == hash(copy.deepcopy(record))
        assert pickle.loads(pickle.dumps(record)) == record
    assert dataclasses.replace(obs, head_id=4).head_id == 4


# ---- to_canonical ---------------------------------------------------------


def test_point_gpa_to_mpa():
    q = parse_quantity("2.4 GPa")
    assert to_canonical(q, REG.lookup("youngs_modulus")) == pytest.approx(2400.0)


def test_range_midpoint_rule():
    q = parse_quantity("150–160 °C")
    assert to_canonical(q, REG.lookup("Tm")) == pytest.approx(155.0)


def test_limit_is_rejected_value():
    q = parse_quantity(">200 MPa")
    assert to_canonical(q, REG.lookup("tensile_strength")) is None


def test_kelvin_affine_offset():
    q = parse_quantity("378.15 K")
    assert to_canonical(q, REG.lookup("Tg")) == pytest.approx(105.0)


def test_incompatible_unit_raises():
    q = parse_quantity("100 °C")
    with pytest.raises(IncompatibleUnit):
        to_canonical(q, REG.lookup("youngs_modulus"))


def test_missing_unit_on_dimensional_head_raises():
    q = parse_quantity("105")
    with pytest.raises(IncompatibleUnit):
        to_canonical(q, REG.lookup("Tg"))


def test_dimensionless_head_accepts_bare_number():
    q = parse_quantity("2.3")
    assert to_canonical(q, REG.lookup("dispersity")) == pytest.approx(2.3)


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

                q = Quantity(kind="point", value=(canonical - unit.offset) / unit.factor, unit=unit.symbol)
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
    assert obs[0].head_id == REG.lookup("Tg").head_id
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


def _uncached_match_alias(registry):
    """The left-side walk with no cache: the whole phrase, then ever
    shorter word suffixes."""

    def walk(phrase):
        words = phrase.split()
        for start in range(len(words)):
            spec = registry.lookup(" ".join(words[start:]))
            if spec is not None:
                return spec
        return None

    return walk


def test_cached_left_side_resolution_matches_the_uncached_walk(monkeypatch):
    doc = (
        "== SAMPLE s1 ==\nSample: film.\n"
        + "Measured tensile strength = 50 MPa; shoe size = 42; Tg = 105 °C\n" * 3
        + "== SAMPLE s2 ==\nSample: film.\n"
        + "shoe size = 43; measured   Tensile Strength = 52 MPa; tensile strength = 51 MPa\n"
    )
    cached = load_registry()
    counters = ExtractionCounters()
    got = extract_document(doc, cached, counters)
    reference = load_registry()
    monkeypatch.setattr(reference, "match_alias", _uncached_match_alias(reference))
    want_counters = ExtractionCounters()
    assert got == extract_document(doc, reference, want_counters)
    assert counters == want_counters and counters.unmapped == 4  # each unmapped clause counts
    assert [len(s.observations) for s in got] == [6, 2]
    info = cached.match_alias.cache_info()
    assert info.maxsize is not None and info.hits == 6 and info.currsize == 6


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


def test_split_corpus_yields_each_document_once():
    text = "preamble\n  == DOC 00000 ==\nA\n== DOC 00001 ==\n\n== DOC 00002 ==\nB\nC\n== DOC 00003 ==\n \n"
    docs = split_corpus(text)
    assert isinstance(docs, types.GeneratorType)
    # the text before the first header is a document, an empty one is
    # not, and a blank one is kept unless it is the last
    assert list(docs) == ["preamble\n", "A\n", "\n", "B\nC\n"]
    assert list(split_corpus("")) == []


def test_extract_corpus_rejects_a_sample_id_repeated_in_a_later_document():
    doc = "== SAMPLE {} ==\nSample: PS.\nTg = 100 °C\n"
    text = "== DOC 0 ==\n" + doc.format("s1") + "== DOC 1 ==\n" + doc.format("s2") + doc.format("s1")
    with pytest.raises(MalformedDocument, match="'s1'"):
        extract_corpus(text)
    samples, _ = extract_corpus("== DOC 0 ==\n" + doc.format("s1") + "== DOC 1 ==\n" + doc.format("s2"))
    assert [s.sample_id for s in samples] == ["s1", "s2"]


@pytest.mark.parametrize(
    "text, line, first",
    [
        ("== SAMPLE a ==\nx\n== SAMPLE a ==\ny\n", 3, 1),
        ("== DOC 0 ==\n== SAMPLE a ==\nTg = 100 °C\n== DOC 1 ==\n\n== SAMPLE a ==\n", 6, 2),
    ],
    ids=["within_a_document", "across_documents"],
)
@pytest.mark.parametrize("extract", [extract_document, extract_corpus])
def test_a_repeated_sample_id_names_both_lines(extract, text, line, first):
    with pytest.raises(MalformedDocument, match=f"^sample id 'a' repeats line {first}$") as caught:
        extract(text)
    assert caught.value.line == line


def test_blank_text_holds_no_samples():
    assert extract_document("") == extract_document(" \n\n") == []
    assert extract_corpus("\n== DOC 0 ==\n \n") == ([], ExtractionCounters())


# str.splitlines also ends a line at each of these; extraction, like
# read_lines and grep -n, ends one at \n only
_NOT_LINE_ENDS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"]


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in _NOT_LINE_ENDS])
def test_only_a_newline_ends_a_line(char):
    text = f"== DOC 0 ==\n== SAMPLE s1 ==\nSample: PS film{char}annealed twice.\nTg = 100 °C{char}\n== SAMPLE s2 =="
    [sample, _], _ = extract_corpus(text + "\n")
    assert sample.sample_text == f"PS film{char}annealed twice."
    [obs] = sample.observations
    doc = next(split_corpus(text))
    assert doc[slice(*obs.source_span)] == f"Tg = 100 °C{char}"
    with pytest.raises(MalformedDocument) as caught:
        extract_corpus(text + " x\n")
    assert caught.value.line == 5


# measurement clauses, each with the text its span must slice, and
# clauses that carry no observation
_MEASURED = ["Tg = 105 °C", " tensile strength = 50 MPa", "  Tm = 160 - 170 °C ", "uts = >20 MPa"]
_NOISE = ["", " no value here", "hardness = 80", "Tg = hot"]
_FILLER = st.text(alphabet="ab \u2028\x0c\r", max_size=6)


@st.composite
def _corpora(draw):
    """A corpus text with, for each document, the sample ids it holds and
    each sample's measurement clauses in order.  Documents follow an
    optional header-less one (the preamble), under headers that may be
    indented, with blank documents between; each sample repeats its
    ``Sample:`` and ``Synthesis:`` lines among its clause lines."""
    parts, docs, n_ids = [], [], itertools.count()
    has_preamble = draw(st.booleans())
    for i in range(draw(st.integers(1, 4))):
        if i or not has_preamble:
            if draw(st.booleans()):
                parts.append(f"== DOC b{i} ==\n" + draw(st.sampled_from(["", "\n", "  \n\n"])))
            parts.append(draw(st.sampled_from(["", "  "])) + f"== DOC {i} ==" + draw(st.sampled_from(["", " "])) + "\n")
        doc = {}
        for _ in range(draw(st.integers(1, 3))):
            sid = f"s{next(n_ids)}"
            parts.append(draw(st.sampled_from(["", " "])) + f"== SAMPLE {sid} ==\n")
            doc[sid] = []
            for kind in draw(st.lists(st.sampled_from(["sample", "synthesis", "clauses", "blank"]), max_size=6)):
                if kind == "sample":
                    parts.append(f" Sample: {draw(_FILLER)}\n")
                elif kind == "synthesis":
                    parts.append(f"Synthesis: {draw(_FILLER)}\n")
                elif kind == "blank":
                    parts.append("\n")
                else:
                    clauses = draw(st.lists(st.sampled_from(_MEASURED + _NOISE), min_size=1, max_size=4))
                    doc[sid] += [c for c in clauses if c in _MEASURED]
                    parts.append(";".join(clauses + draw(st.lists(_FILLER, max_size=1))) + "\n")
        docs.append(doc)
    return "".join(parts), docs


@settings(max_examples=300, deadline=None)
@given(_corpora())
def test_each_source_span_slices_its_clause_from_its_document(corpus):
    text, docs = corpus
    samples, _ = extract_corpus(text, REG)
    texts = [doc for doc in split_corpus(text) if doc.strip()]
    assert len(texts) == len(docs)
    by_id = {s.sample_id: s for s in samples}
    assert list(by_id) == [sid for doc in docs for sid in doc]
    for doc_text, doc in zip(texts, docs):
        for sid, clauses in doc.items():
            assert [doc_text[slice(*o.source_span)] for o in by_id[sid].observations] == clauses


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


def _observation_line(**changes):
    """A saved record of one well-formed point observation, with ``changes``
    applied to the observation's fields."""
    obs = {
        "bound": None, "canonical_value": 2000.0, "direction": None, "head_id": 6, "hi": None,
        "kind": "point", "lo": None, "span": [0, 9], "unit": "GPa", "value": 2.0,
    }
    obs.update(changes)
    return _record_line(observations=[obs])


def _record_line(**changes):
    """A saved record of sample s2 with no observation, with ``changes``
    applied to its fields."""
    row = {"observations": [], "sample_id": "s2", "sample_text": "PS", "synthesis_text": ""}
    row.update(changes)
    return json.dumps(row)


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
        ('["s2"]', "expected a JSON object, got list"),
        ("5", "expected a JSON object, got int"),
        # only an empty line is skipped: a line of whitespace is a line like any other
        (" \t ", "Expecting value: line 1 column 4 (char 3)"),
        (
            '{"observations": [{"bound": null, "canonical_value": Infinity, "direction": null, '
            '"head_id": 6, "hi": null, "kind": "point", "lo": null, "span": [0, 9], '
            '"unit": "GPa", "value": 2.0}], "sample_id": "s2", "sample_text": "PS", "synthesis_text": ""}',
            "canonical_value inf is not a finite number or null",
        ),
        (
            '{"observations": [{"bound": null, "canonical_value": 1e999, "direction": null, '
            '"head_id": 6, "hi": null, "kind": "point", "lo": null, "span": [0, 9], '
            '"unit": "GPa", "value": 2.0}], "sample_id": "s2", "sample_text": "PS", "synthesis_text": ""}',
            "canonical_value inf is not a finite number or null",
        ),
        (_observation_line(head_id=-1), "head_id -1 is not an int in 0..21"),
        (_observation_line(head_id=22), "head_id 22 is not an int in 0..21"),
        (_observation_line(head_id=99), "head_id 99 is not an int in 0..21"),
        (_observation_line(head_id=3.5), "head_id 3.5 is not an int in 0..21"),
        (_observation_line(head_id=1.0), "head_id 1.0 is not an int in 0..21"),
        (_observation_line(head_id=True), "head_id True is not an int in 0..21"),
        (_observation_line(head_id="3"), "head_id '3' is not an int in 0..21"),
        (_observation_line(kind="banana"), "quantity kind 'banana' is not one of point, range, limit"),
        (_observation_line(kind=None), "quantity kind None is not one of point, range, limit"),
        (_observation_line(span="ab"), "span 'ab' is not two ints"),
        (_observation_line(span=[0, 9, 12]), "span [0, 9, 12] is not two ints"),
        (_observation_line(span=[0.0, 9]), "span [0.0, 9] is not two ints"),
        (_observation_line(span=[True, 9]), "span [True, 9] is not two ints"),
        (_record_line(sample_id=7), "sample_id 7 is not a string"),
        (_record_line(sample_text=5), "sample_text 5 is not a string"),
        (_record_line(synthesis_text=None), "synthesis_text None is not a string"),
        # a concatenated file could put one sample on both sides of the split
        (_record_line(sample_id="s1"), "sample_id 's1' repeats line 1"),
        (_record_line(observations={}), "observations {} is not a list of objects"),
        (_record_line(observations=""), "observations '' is not a list of objects"),
        (_record_line(observations=[{"a": 1}, "x"]), "observations [{'a': 1}, 'x'] is not a list of objects"),
        (_observation_line(value="2.0"), "value '2.0' is not a finite number or null"),
        (_observation_line(value=True), "value True is not a finite number or null"),
        (_observation_line(value=float("nan")), "value nan is not a finite number or null"),
        (_observation_line(kind="limit", value=None, bound=float("inf")), "bound inf is not a finite number or null"),
        (_observation_line(kind="range", value=None, lo="1", hi=3.0), "lo '1' is not a finite number or null"),
        (_observation_line(kind="range", value=None, lo=1.0, hi=[3.0]), "hi [3.0] is not a finite number or null"),
        (_observation_line(kind="range", value=None, lo=None, hi=3.0), "range lo None and hi 3.0 must both be numbers"),
        (_observation_line(kind="range", value=None, lo=1.0), "range lo 1.0 and hi None must both be numbers"),
        (_observation_line(unit=5), "unit 5 is not a string or null"),
        (_observation_line(direction=False), "direction False is not a string or null"),
        (_observation_line(canonical_value="2000.0"), "canonical_value '2000.0' is not a finite number or null"),
        (_observation_line(canonical_value=True), "canonical_value True is not a finite number or null"),
        # an int too large for a float, which math.isfinite raises OverflowError on
        (_observation_line(canonical_value=10**400), f"canonical_value {10**400!r} is not a finite number or null"),
        (_observation_line(value=-(10**400)), f"value {-(10**400)!r} is not a finite number or null"),
        (_observation_line(kind="range", value=None, lo=3.0, hi=1.0), "range requires lo < hi, got 3.0..1.0"),
        # json.loads raises RecursionError, not ValueError, on deep nesting
        ("[" * 100_000, "JSON nested too deeply"),
    ],
    ids=[
        "bad_json",
        "observation_missing_fields",
        "sample_missing_field",
        "not_an_object",
        "number_line",
        "whitespace_only_line",
        "infinite_label",
        "overflowing_label",
        "negative_head_id",
        "head_id_past_the_last_head",
        "head_id_99",
        "fractional_head_id",
        "float_head_id",
        "bool_head_id",
        "string_head_id",
        "unknown_kind",
        "null_kind",
        "string_span",
        "three_int_span",
        "float_in_span",
        "bool_in_span",
        "int_sample_id",
        "int_sample_text",
        "null_synthesis_text",
        "repeated_sample_id",
        "object_observations",
        "string_observations",
        "non_object_observation",
        "string_value",
        "bool_value",
        "nan_value",
        "infinite_bound",
        "string_lo",
        "list_hi",
        "range_without_lo",
        "range_without_hi",
        "int_unit",
        "bool_direction",
        "string_canonical_value",
        "bool_canonical_value",
        "huge_int_canonical_value",
        "huge_negative_int_value",
        "range_lo_past_hi",
        "deeply_nested_array",
    ],
)
def test_load_extracted_names_file_and_line_of_a_malformed_record(tmp_path, line, message):
    path = tmp_path / "obs.jsonl"
    save_extracted([ExtractedSample("s1", "PS film", "cast at 80 °C")], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        load_extracted(path)


# ---- the line writer against the JSON encoder -----------------------------

_ENCODER = json.JSONEncoder(sort_keys=True)


def _encoder_lines(samples):
    """The file as json.JSONEncoder(sort_keys=True) writes each sample's
    dict layout, one line per sample: the writer's byte oracle."""
    return "".join(
        _ENCODER.encode(
            {
                "sample_id": s.sample_id,
                "sample_text": s.sample_text,
                "synthesis_text": s.synthesis_text,
                "observations": [
                    dict(
                        dataclasses.asdict(o.quantity),
                        head_id=o.head_id,
                        canonical_value=o.canonical_value,
                        span=list(o.source_span),
                    )
                    for o in s.observations
                ],
            }
        )
        + "\n"
        for s in samples
    )


def _assert_writes_the_encoders_bytes(samples, path):
    save_extracted(samples, path)
    assert path.read_bytes() == _encoder_lines(samples).encode("utf-8")
    assert load_extracted(path) == samples


def test_writer_matches_the_encoder_on_an_extracted_corpus(tmp_path):
    from polyreg.corpus import SynthConfig, gen_corpus

    samples, _ = extract_corpus(gen_corpus(SynthConfig(seed=0, n_docs=2500, obs_prob=0.5), REG).text, REG)
    assert sum(len(s.observations) for s in samples) > 5000
    _assert_writes_the_encoders_bytes(samples, tmp_path / "obs.jsonl")


_AWKWARD = 'a°b² "q" \\ back\x00\x01\x1f\x7f\t\n\r\u2028 é 😀'


def test_writer_matches_the_encoder_on_crafted_records(tmp_path):
    observations = [
        PropertyObservation(_AWKWARD, 0, Quantity(kind="point", value=105.0, unit="°C"), 105.0, (4, 10)),
        PropertyObservation(_AWKWARD, 1, Quantity(kind="point", value=5, unit=None), 5, (0, 0)),
        PropertyObservation(_AWKWARD, 2, Quantity(kind="point", value=5.0, unit="m²"), 5.0),
        PropertyObservation(_AWKWARD, 3, Quantity(kind="point", value=-0.0, unit=_AWKWARD), -0.0),
        PropertyObservation(_AWKWARD, 4, Quantity(kind="point", value=5e-324), 5e-324),
        PropertyObservation(_AWKWARD, 5, Quantity(kind="range", lo=-1e300, hi=1e300, unit="MPa"), 0.0, (1, 2)),
        PropertyObservation(_AWKWARD, 21, Quantity(kind="range", lo=1, hi=2), 1.5, (7, 3)),
        PropertyObservation(_AWKWARD, 6, Quantity(kind="limit", bound=2.5, direction="greater", unit="GPa"), None),
        PropertyObservation(_AWKWARD, 7, Quantity(kind="limit", bound=-3, direction=None), None, (10**6, 0)),
        PropertyObservation(_AWKWARD, 8, Quantity("point", 1.0, 0.5, 2.0, 3.0, "less", "K"), 1.0),
    ]
    samples = [
        ExtractedSample(_AWKWARD, _AWKWARD, _AWKWARD, observations),
        ExtractedSample("empty"),
        ExtractedSample('"', "\\", "\x00", [dataclasses.replace(observations[0], sample_id='"')]),
    ]
    _assert_writes_the_encoders_bytes(samples, tmp_path / "obs.jsonl")
    _assert_writes_the_encoders_bytes([], tmp_path / "none.jsonl")
    assert (tmp_path / "none.jsonl").read_bytes() == b""


_numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**20), 10**20)
_text = st.text(max_size=12)
_quantities = st.one_of(
    st.builds(
        Quantity,
        kind=st.just("point"),
        value=_numbers,
        lo=st.none() | _numbers,
        bound=st.none() | _numbers,
        direction=st.none() | _text,
        unit=st.none() | _text,
    ),
    st.tuples(_numbers, _numbers, st.none() | _text).filter(lambda p: p[0] < p[1]).map(
        lambda p: Quantity(kind="range", lo=p[0], hi=p[1], unit=p[2])
    ),
    st.builds(Quantity, kind=st.just("limit"), bound=_numbers, direction=st.none() | _text, unit=_text),
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
                canonical_value=st.none() | _numbers,
                source_span=st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)),
            ),
            max_size=4,
        )
    )
    return ExtractedSample(sid, draw(st.text()), draw(st.text()), observations)


@settings(max_examples=200, deadline=None)
@given(st.lists(_samples(), max_size=4, unique_by=lambda s: s.sample_id))
def test_extracted_file_round_trip_over_every_quantity_kind(tmp_path_factory, samples):
    # ints beside floats, and fields a parsed quantity of the kind leaves None
    _assert_writes_the_encoders_bytes(samples, tmp_path_factory.mktemp("extracted") / "obs.jsonl")


# ---- what the writer refuses ----------------------------------------------


def _point(value=2.0, **changes):
    obs = PropertyObservation("s2", 6, Quantity(kind="point", value=value, unit="GPa"), 2000.0, (0, 9))
    return dataclasses.replace(obs, **changes)


@pytest.mark.parametrize(
    "sample, message",
    [
        (ExtractedSample("s2", observations=[_point(float("nan"))]), "value nan is not a finite number or null"),
        (ExtractedSample("s2", observations=[_point(float("inf"))]), "value inf is not a finite number or null"),
        (
            ExtractedSample("s2", observations=[_point(quantity=Quantity(kind="range", lo=-math.inf, hi=1.0))]),
            "lo -inf is not a finite number or null",
        ),
        (
            ExtractedSample("s2", observations=[_point(quantity=Quantity(kind="range", lo=1.0, hi=math.inf))]),
            "hi inf is not a finite number or null",
        ),
        (
            ExtractedSample("s2", observations=[_point(quantity=Quantity(kind="limit", bound=-math.inf))]),
            "bound -inf is not a finite number or null",
        ),
        (
            ExtractedSample("s2", observations=[_point(), _point(canonical_value=math.nan)]),
            "canonical_value nan is not a finite number or null",
        ),
        (ExtractedSample("s2", observations=[_point(True)]), "value True is not a finite number or null"),
        (ExtractedSample("s2", observations=[_point(10**400)]), f"value {10**400!r} is not a finite number or null"),
        (
            ExtractedSample("s2", observations=[_point(np.float64(2.0))]),
            f"value {np.float64(2.0)!r} is not a finite number or null",
        ),
        (ExtractedSample("s2", observations=[_point(head_id=22)]), "head_id 22 is not an int in 0..21"),
        (ExtractedSample("s2", observations=[_point(source_span=(0, 9, 1))]), "span (0, 9, 1) is not two ints"),
        (
            ExtractedSample("s2", observations=[_point(quantity=Quantity(kind="cube", unit=5))]),
            "quantity kind 'cube' is not one of point, range, limit",
        ),
        (
            ExtractedSample("s2", observations=[_point(quantity=Quantity(kind="point", value=1.0, unit=b"K"))]),
            "unit b'K' is not a string or null",
        ),
        (ExtractedSample(7), "sample_id 7 is not a string"),
        (ExtractedSample("s2", sample_text=None), "sample_text None is not a string"),
        (ExtractedSample("s2", synthesis_text=b"x"), "synthesis_text b'x' is not a string"),
        # the file holds no observation's sample_id: the reader would give it the sample's
        (ExtractedSample("s2", observations=[_point(sample_id="s1")]), "observation sample_id 's1' differs"),
    ],
    ids=[
        "nan_value",
        "infinite_value",
        "infinite_lo",
        "infinite_hi",
        "infinite_bound",
        "nan_canonical_value",
        "bool_value",
        "huge_int_value",
        "numpy_value",
        "head_id_past_the_last_head",
        "three_int_span",
        "unknown_kind",
        "bytes_unit",
        "int_sample_id",
        "null_sample_text",
        "bytes_synthesis_text",
        "other_samples_observation",
    ],
)
def test_save_extracted_refuses_what_load_extracted_would_before_writing(tmp_path, sample, message):
    path = tmp_path / "obs.jsonl"
    path.write_text("kept\n")
    samples = [ExtractedSample("s1", "PS film", "cast at 80 °C", [_point(sample_id="s1")]), sample]
    with pytest.raises(ValueError, match=re.escape(f"{path}: sample {sample.sample_id!r}: {message}")):
        save_extracted(samples, path)
    assert path.read_text() == "kept\n"


def test_save_extracted_refuses_a_repeated_sample_id_before_writing(tmp_path):
    path = tmp_path / "obs.jsonl"
    path.write_text("kept\n")
    samples = [ExtractedSample("s1", "PS film"), ExtractedSample("s2", "PE film"), ExtractedSample("s1", "PP film")]
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: sample_id 's1' repeats line 1$"):
        save_extracted(samples, path)
    assert path.read_text() == "kept\n"
    # load_extracted gives the same message for the lines the writer would have written
    save_extracted(samples[:2], path)
    save_extracted(samples[2:], tmp_path / "last.jsonl")
    path.write_text(path.read_text() + (tmp_path / "last.jsonl").read_text())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: sample_id 's1' repeats line 1$"):
        load_extracted(path)


# ---- the records' __init__ ------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class _ReferenceQuantity:
    kind: str
    value: float | None = None
    lo: float | None = None
    hi: float | None = None
    bound: float | None = None
    direction: str | None = None
    unit: str | None = None

    def __post_init__(self):
        if self.kind == "range" and not self.lo < self.hi:
            raise ParseFailure(f"range requires lo < hi, got {self.lo}..{self.hi}")


@dataclasses.dataclass(frozen=True, slots=True)
class _ReferenceObservation:
    sample_id: str
    head_id: int
    quantity: object
    canonical_value: float | None
    source_span: tuple[int, int] = (0, 0)


_QUANTITY_CALLS = [
    (("point",), {}),
    (("point", 1.5), {"unit": "MPa"}),
    ((), {"kind": "limit", "bound": 3, "direction": "less"}),
    (("range", None, 1.0, 2.0, None, None, "K"), {}),
    (("range",), {"lo": -0.0, "hi": 5e-324}),
    (("point", 1.5, None, None, None, None, "MPa"), {}),
]


def _pairs(reference, record, calls):
    return [(reference(*args, **kwargs), record(*args, **kwargs)) for args, kwargs in calls]


def _assert_like_the_reference(pairs):
    for ref, rec in pairs:
        assert dataclasses.astuple(rec) == dataclasses.astuple(ref)
        assert hash(rec) == hash(ref)
        assert repr(rec).partition("(")[2] == repr(ref).partition("(")[2]
    for (ref_a, rec_a), (ref_b, rec_b) in itertools.product(pairs, repeat=2):
        assert (rec_a == rec_b) == (ref_a == ref_b)


def test_record_init_sets_what_the_generated_init_sets():
    quantities = _pairs(_ReferenceQuantity, Quantity, _QUANTITY_CALLS)
    _assert_like_the_reference(quantities)
    assert [q.unit for _, q in quantities] == [None, "MPa", None, "K", None, "MPa"]
    q = quantities[1][1]
    observation_calls = [
        (("s1", 3, q, 1.5), {}),
        (("s1", 3, q, 1.5, (2, 9)), {}),
        ((), {"sample_id": "s1", "head_id": 3, "quantity": q, "canonical_value": 1.5, "source_span": (0, 0)}),
        (("s2",), {"head_id": 0, "quantity": q, "canonical_value": None}),
    ]
    observations = _pairs(_ReferenceObservation, PropertyObservation, observation_calls)
    assert all(rec.quantity is q for _, rec in observations)
    _assert_like_the_reference(observations)
    for record, reference in ((Quantity, _ReferenceQuantity), (PropertyObservation, _ReferenceObservation)):
        params = inspect.signature(record).parameters
        ref_params = inspect.signature(reference).parameters
        assert [(p.name, p.kind, p.default) for p in params.values()] == [
            (p.name, p.kind, p.default) for p in ref_params.values()
        ]


def test_record_init_range_check_and_replace():
    q = Quantity(kind="range", lo=1.0, hi=2.0)
    assert dataclasses.replace(q, hi=3.0) == Quantity("range", None, 1.0, 3.0)
    assert dataclasses.replace(q, kind="point", lo=5.0) == Quantity("point", None, 5.0, 2.0)
    for call in (
        lambda: Quantity("range", lo=2.0, hi=2.0),
        lambda: Quantity(kind="range", lo=3.0, hi=2.0),
        lambda: dataclasses.replace(q, lo=2.0),
        lambda: dataclasses.replace(Quantity(kind="point", lo=2.0, hi=1.0), kind="range"),
    ):
        with pytest.raises(ParseFailure, match="range requires lo < hi"):
            call()
    with pytest.raises(TypeError):
        Quantity(kind="range")  # None < None
    obs = PropertyObservation("s1", 3, q, 1.5)
    assert dataclasses.replace(obs, source_span=(1, 2)) == PropertyObservation("s1", 3, q, 1.5, (1, 2))
    assert dataclasses.replace(obs, quantity=dataclasses.replace(q, unit="K")).quantity.unit == "K"


@pytest.mark.parametrize(
    "call",
    [
        lambda: Quantity(),
        lambda: Quantity("point", 1.0, None, None, None, None, "K", "extra"),
        lambda: Quantity(kind="point", colour="red"),
        lambda: Quantity("point", kind="point"),
        lambda: PropertyObservation("s1", 3, None),
        lambda: PropertyObservation("s1", 3, None, 1.0, (0, 0), "extra"),
        lambda: PropertyObservation("s1", 3, None, 1.0, span=(0, 0)),
        lambda: dataclasses.replace(PropertyObservation("s1", 3, None, 1.0), span=(0, 0)),
    ],
    ids=[
        "quantity_without_kind",
        "quantity_extra_positional",
        "quantity_unknown_keyword",
        "quantity_kind_twice",
        "observation_without_canonical_value",
        "observation_extra_positional",
        "observation_unknown_keyword",
        "replace_with_unknown_field",
    ],
)
def test_record_init_rejects_missing_or_extra_arguments(call):
    with pytest.raises(TypeError):
        call()
