import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreg.datasets import (
    LeakageDetected,
    PromptInstance,
    _escape,
    _unescape,
    build_dataset,
    load_dataset,
    save_dataset,
    scan_dataset_for_leaks,
)
from polyreg.prompts import (
    MASK_REL_TOL,
    MASK_TOKEN,
    EmptySample,
    _is_target_number,
    build_prompt,
    leakage_hits,
    mask_labels,
    target_values,
)
from polyreg.records import extract_document
from polyreg.registry import N_HEADS, default_registry
from polyreg.units import normalize_unit, units_for_dimension

REG = default_registry()


def _values(head_name, canonical_value):
    """The target-value list of one observed head."""
    return target_values([(REG.lookup(head_name).head_id, canonical_value)], REG)


# ---- build_prompt ---------------------------------------------------------


def test_build_prompt_variants():
    full = build_prompt("PLA film.", "cured 2 h.", "sample_synthesis")
    assert full == "[Sample]\nPLA film.\n[Synthesis]\ncured 2 h."
    only = build_prompt("PLA film.", "cured 2 h.", "sample_only")
    assert only == "[Sample]\nPLA film."
    assert "[Synthesis]" not in only


def test_build_prompt_empty_synthesis_allowed():
    text = build_prompt("PLA film.", "", "sample_synthesis")
    assert text.endswith("[Synthesis]\n")


def test_build_prompt_empty_sample_raises():
    with pytest.raises(EmptySample):
        build_prompt("   ", "anything", "sample_only")


def test_build_prompt_unknown_variant():
    with pytest.raises(ValueError):
        build_prompt("x", "y", "both")


# ---- mask_labels ----------------------------------------------------------


def test_mask_exact_target_value():
    text = "Tg was measured at 105 °C after annealing at 90 °C."
    masked = mask_labels(text, _values("Tg", 105.0))
    assert "[MASKED] °C" in masked
    assert "90" in masked
    assert "105" not in masked


def test_mask_cross_unit_kelvin():
    # 105 °C is 378.15 K; a Kelvin mention within 0.5% must be scrubbed
    text = "the transition near 378 K was sharp"
    masked = mask_labels(text, _values("Tg", 105.0))
    assert MASK_TOKEN in masked and "378" not in masked


def test_mask_cross_unit_gpa():
    text = "stiffness around 2.4 GPa was retained"
    masked = mask_labels(text, _values("youngs_modulus", 2400.0))
    assert MASK_TOKEN in masked


def test_mask_no_observations_is_identity():
    text = "annealed at 120 °C for 2 h"
    assert mask_labels(text, []) == text


def test_mask_tolerance_boundary():
    values = _values("tensile_strength", 100.0)
    assert MASK_TOKEN in mask_labels("measured 100.4 MPa", values)
    assert MASK_TOKEN not in mask_labels("measured 101 MPa", values)


def test_unmasked_text_is_subsequence_of_original():
    text = "blend of 70:30 ratio, Tg 105 °C, cured at 105 min intervals"
    masked = mask_labels(text, _values("Tg", 105.0))
    pieces = masked.split(MASK_TOKEN)
    pos = 0
    for piece in pieces:
        idx = text.find(piece, pos)
        assert idx >= 0
        pos = idx + len(piece)


@settings(max_examples=100, deadline=None)
@given(
    value=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    extra=st.integers(min_value=0, max_value=999),
)
def test_masked_text_never_leaks(value, extra):
    values = _values("tensile_strength", value)
    text = f"strength {value:.6g} MPa with filler {extra} phr"
    masked = mask_labels(text, values)
    assert leakage_hits(masked, values) == []


@settings(max_examples=300, deadline=None)
@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    targets=st.lists(
        st.tuples(st.integers(0, N_HEADS - 1), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
        max_size=4,
    ),
)
def test_target_match_equals_per_pair_tolerance_reference(value, targets):
    # the reference applies the tolerance formula to each (number,
    # representation) pair; computing it once per representation must not
    # move a decision
    reps = [
        unit.from_canonical(v)
        for h, v in targets
        for unit in units_for_dimension(normalize_unit(REG.spec(h).canonical_unit).dimension)
    ]
    near = [value] + [rep * (1 + k * MASK_REL_TOL) for rep in reps for k in (-1, 1)]
    for v in near:
        expected = any(abs(v - rep) <= MASK_REL_TOL * max(abs(rep), 1e-12) for rep in reps)
        assert _is_target_number(v, target_values(targets, REG)) == expected


def test_target_values_are_bitwise_the_per_target_unit_resolution():
    # each head's unit list is resolved once per registry, not per target
    targets = [(spec.head_id, v) for spec in REG for v in (-40.0, -0.0, 1e-9, 3.7, 250.0, 1.5e6)]
    reference = []
    for h, v in targets:
        for unit in units_for_dimension(normalize_unit(REG.spec(h).canonical_unit).dimension):
            value = unit.from_canonical(v)
            reference.append((value, MASK_REL_TOL * max(abs(value), 1e-12)))
    assert np.array(target_values(targets, REG)).tobytes() == np.array(reference).tobytes()


# ---- dataset construction -------------------------------------------------


def _doc():
    return (
        "== SAMPLE s1 ==\n"
        "Sample: blend A, 70:30.\n"
        "Synthesis: cured 2 h at 150 °C.\n"
        "Tg = 105 °C; tensile strength = 55 MPa\n"
        "== SAMPLE s2 ==\n"
        "Sample: blend B.\n"
        "Tm = 170 °C\n"
    )


@pytest.mark.parametrize("labels, mask", [([1.0], [True]), (np.zeros(N_HEADS), np.zeros(3, bool))])
def test_prompt_instance_rejects_misshapen_labels(labels, mask):
    with pytest.raises(ValueError, match=r"sample 'a'.*\(22,\)"):
        PromptInstance("a", "v", "t", labels, mask)


def test_prompt_instance_shape_check_holds_under_python_optimize():
    code = (
        "from polyreg.datasets import PromptInstance\n"
        "try:\n"
        "    PromptInstance('a', 'v', 't', [1.0], [True])\n"
        "except ValueError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.startswith("rejected: sample 'a'")


def test_build_dataset_labels_and_masks():
    samples = extract_document(_doc())
    instances = build_dataset(samples, "sample_synthesis")
    assert len(instances) == 2
    inst = instances[0]
    tg = REG.lookup("Tg").head_id
    ts = REG.lookup("tensile_strength").head_id
    assert inst.label_mask.sum() == 2
    assert inst.labels[tg] == pytest.approx(105.0)
    assert inst.labels[ts] == pytest.approx(55.0)
    assert np.isnan(inst.labels[REG.lookup("Tm").head_id])
    assert "[Synthesis]" in inst.text and "150" in inst.text


def test_build_dataset_averages_repeated_head():
    doc = "== SAMPLE s1 ==\nSample: rep.\nTg = 100 °C; Tg = 110 °C\n"
    inst = build_dataset(extract_document(doc), "sample_only")[0]
    assert inst.labels[REG.lookup("Tg").head_id] == pytest.approx(105.0)


def test_build_dataset_leakage_guard(monkeypatch):
    doc = "== SAMPLE s1 ==\nSample: annealed at 105 xx.\nTg = 105 °C\n"
    samples = extract_document(doc)
    # "105 xx" has no unit but still equals the target, so it is scrubbed
    instances = build_dataset(samples, "sample_only")
    assert scan_dataset_for_leaks(instances) == 0
    instances[0].text = instances[0].text.replace(MASK_TOKEN, "105")
    assert scan_dataset_for_leaks(instances) > 0
    # if masking were broken the guard must refuse to emit the instance
    import polyreg.datasets as datasets_mod

    monkeypatch.setattr(datasets_mod, "mask_labels", lambda text, *a, **k: text)
    with pytest.raises(LeakageDetected):
        build_dataset(samples, "sample_only")


def test_an_overflowing_label_leaves_the_prompts_numbers_unmasked():
    # 1e306 GPa is inf MPa: as a label its masking tolerance was inf too
    doc = (
        "== SAMPLE s1 ==\n"
        "Sample: PP, 30 % talc.\n"
        "Synthesis: annealed 2 h at 180 °C, then 80 °C.\n"
        "youngs modulus = 1e306 GPa; Tg = 105 °C\n"
    )
    inst = build_dataset(extract_document(doc), "sample_synthesis")[0]
    assert inst.label_mask.sum() == 1 and np.isfinite(inst.labels[inst.label_mask]).all()
    for kept in ("30 % talc", "2 h", "180 °C", "80 °C"):
        assert kept in inst.text


def test_dataset_round_trip(tmp_path):
    samples = extract_document(_doc())
    instances = build_dataset(samples, "sample_synthesis")
    path = tmp_path / "ds.tsv"
    save_dataset(instances, path)
    loaded = load_dataset(path)
    assert len(loaded) == len(instances)
    for a, b in zip(instances, loaded):
        assert a.sample_id == b.sample_id
        assert a.variant == b.variant
        assert a.text == b.text
        assert np.array_equal(a.label_mask, b.label_mask)
        assert np.array_equal(a.labels[a.label_mask], b.labels[b.label_mask])


def test_dataset_round_trip_keeps_carriage_returns(tmp_path):
    inst = build_dataset(extract_document(_doc()), "sample_only")[0]
    inst.text = "line one\r\nline\ttwo\\r"
    path = tmp_path / "ds.tsv"
    save_dataset([inst], path)
    assert load_dataset(path)[0].text == inst.text


@pytest.mark.parametrize("field", ["sample_id", "variant"])
@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
def test_save_dataset_rejects_tab_or_newline_in_ids(tmp_path, field, bad):
    inst = build_dataset(extract_document(_doc()), "sample_only")[0]
    setattr(inst, field, bad)
    path = tmp_path / "ds.tsv"
    with pytest.raises(ValueError, match=field):
        save_dataset([inst], path)
    assert not path.exists()


def test_save_dataset_formats_labels_as_numpy_scalars_do(tmp_path):
    labels = np.full(N_HEADS, np.nan)
    labels[:6] = [0.1, -0.0, 5e-324, 1e-300, 1.7e308, 105.0]
    inst = PromptInstance("s1", "sample_only", "text", labels, ~np.isnan(labels))
    path = tmp_path / "ds.tsv"
    save_dataset([inst], path)
    slots = "\t".join(f"{inst.labels[i]:.17g}" if inst.label_mask[i] else "NA" for i in range(N_HEADS))
    assert path.read_bytes().split(b"\n")[1] == f"s1\tsample_only\ttext\t{slots}".encode()
    assert slots.startswith("0.10000000000000001\t-0\t4.9406564584124654e-324\t1e-300\t1.6999999999999999e+308\t105\tNA")


def test_load_dataset_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.tsv"
    path.write_text("record_id\tsample_id\n")
    with pytest.raises(ValueError):
        load_dataset(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda line: line.replace("\tNA", "\tabc", 1), "could not convert string to float: 'abc'"),
        (lambda line: line.rsplit("\t", 1)[0], "expected 25 columns, got 24"),
        (lambda line: "s9", "expected 25 columns, got 1"),
        (lambda line: line.replace("\tNA", "\tinf", 1), "label inf is not finite"),
        (lambda line: line.replace("\tNA", "\t-Infinity", 1), "label -inf is not finite"),
        (lambda line: line.replace("\tNA", "\tnan", 1), "label nan is not finite"),
    ],
    ids=["non_numeric_label", "missing_slot", "one_column", "infinite_label", "negative_infinite_label", "nan_label"],
)
def test_load_dataset_names_file_and_line_of_a_malformed_row(tmp_path, corrupt, message):
    path = tmp_path / "ds.tsv"
    save_dataset(build_dataset(extract_document(_doc()), "sample_synthesis"), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[2] = corrupt(lines[2])
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(message)):
        load_dataset(path)


# ---- escaping and dataset round trips (property tests) --------------------


def _reference_unescape(text):
    """Straight-line decoder: a backslash and the next character form one
    escape; an unknown escape and a trailing lone backslash stay as they are."""
    out, i = [], 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n", "t": "\t", "r": "\r", "\\": "\\"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_unescape_inverts_escape(text):
    assert _unescape(_escape(text)) == text


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="\\ntrqx\n\t\r é", max_size=40))
def test_unescape_matches_reference_decoder(text):
    assert _unescape(text) == _reference_unescape(text)
    assert _unescape(text + "\\") == _reference_unescape(text + "\\")


_ids = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), max_size=12)
_labels = st.lists(
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)), min_size=N_HEADS, max_size=N_HEADS
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_ids, _ids, st.text(), _labels), max_size=4))
def test_dataset_file_round_trip(tmp_path_factory, rows):
    instances = [
        PromptInstance(sid, variant, text, [np.nan if v is None else v for v in slots], [v is not None for v in slots])
        for sid, variant, text, slots in rows
    ]
    path = tmp_path_factory.mktemp("ds") / "ds.tsv"
    save_dataset(instances, path)
    loaded = load_dataset(path)
    assert [(i.sample_id, i.variant, i.text) for i in loaded] == [(i.sample_id, i.variant, i.text) for i in instances]
    for a, b in zip(instances, loaded):
        assert a.labels.tobytes() == b.labels.tobytes()
        assert np.array_equal(a.label_mask, b.label_mask)


def test_scan_counts_target_restated_in_another_unit_after_round_trip(tmp_path):
    # the scan reads only a loaded dataset's labels: no records objects
    doc = "== SAMPLE s1 ==\nSample: film.\nTg = 105 °C; Young's modulus = 2400 MPa\n"
    path = tmp_path / "ds.tsv"
    save_dataset(build_dataset(extract_document(doc), "sample_only"), path)
    instances = load_dataset(path)
    assert scan_dataset_for_leaks(instances) == 0
    instances[0].text += " softening near 378.15 K"
    assert scan_dataset_for_leaks(instances) == 1
    instances[0].text += " and a stiffness of 2.4 GPa"
    assert scan_dataset_for_leaks(instances) == 2
