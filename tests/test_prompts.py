import dataclasses
import itertools
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
    PROMPT_BLOCK,
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
    VARIANTS,
    EmptySample,
    build_prompt,
    leakage_hits,
    mask_labels,
    target_values,
)
from polyreg.records import (
    _NUM_RE,
    ExtractedSample,
    PropertyObservation,
    Quantity,
    extract_document,
    load_extracted,
    save_extracted,
)
from polyreg.registry import N_HEADS, default_registry
from polyreg.units import normalize_unit, units_for_dimension

REG = default_registry()


def _values(head_name, canonical_value):
    """The target representations of one prompt with one observed head."""
    return target_values([REG.lookup(head_name).head_id], [canonical_value], [1], REG)


def _mask(text, targets):
    return mask_labels([text], targets)[0]


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
    masked = _mask(text, _values("Tg", 105.0))
    assert "[MASKED] °C" in masked
    assert "90" in masked
    assert "105" not in masked


def test_mask_cross_unit_kelvin():
    # 105 °C is 378.15 K; a Kelvin mention within 0.5% must be scrubbed
    text = "the transition near 378 K was sharp"
    masked = _mask(text, _values("Tg", 105.0))
    assert MASK_TOKEN in masked and "378" not in masked


def test_mask_cross_unit_gpa():
    text = "stiffness around 2.4 GPa was retained"
    masked = _mask(text, _values("youngs_modulus", 2400.0))
    assert MASK_TOKEN in masked


def test_mask_no_observations_is_identity():
    text = "annealed at 120 °C for 2 h"
    assert mask_labels([text], target_values([], [], [0], REG)) == [text]


def test_mask_tolerance_boundary():
    values = _values("tensile_strength", 100.0)
    assert MASK_TOKEN in _mask("measured 100.4 MPa", values)
    assert MASK_TOKEN not in _mask("measured 101 MPa", values)


def test_unmasked_text_is_subsequence_of_original():
    text = "blend of 70:30 ratio, Tg 105 °C, cured at 105 min intervals"
    masked = _mask(text, _values("Tg", 105.0))
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
    masked = _mask(text, values)
    assert leakage_hits([masked], values) == [[]]


# ---- the block matcher against the per-pair loop --------------------------


def _reference_values(targets):
    """Each (head_id, canonical_value) in each unit of its head's dimension,
    with its tolerance, one pair at a time."""
    reps = []
    for h, v in targets:
        for unit in units_for_dimension(normalize_unit(REG.spec(h).canonical_unit).dimension):
            value = (v - unit.offset) / unit.factor
            reps.append((value, MASK_REL_TOL * max(abs(value), 1e-12)))
    return reps


def _reference_is_target(number, reps):
    for value, tol in reps:
        if abs(number - value) <= tol:
            return True
    return False


def _reference_mask(text, reps):
    return _NUM_RE.sub(lambda m: MASK_TOKEN if _reference_is_target(float(m.group(0)), reps) else m.group(0), text)


def _reference_hits(text, reps):
    return [num for num in _NUM_RE.findall(text) if _reference_is_target(float(num), reps)]


def _block_targets(prompt_targets):
    """target_values of a block whose prompt i has the targets prompt_targets[i]."""
    flat = [t for targets in prompt_targets for t in targets]
    return target_values([h for h, _ in flat], [v for _, v in flat], [len(t) for t in prompt_targets], REG)


# ±0, the 1e-12 tolerance floor and its neighbours, and labels whose
# representation in a smaller unit (Pa, J/m², mS/cm) overflows to inf
_EDGE_VALUES = [0.0, -0.0, 1e-12, -1e-12, 1e-14, 2e-12, 1e-300, 5e-324, 1e300, -1e306, 1.7e308]
_values_or_edges = st.one_of(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), st.sampled_from(_EDGE_VALUES))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_target_match_equals_per_pair_tolerance_reference(data):
    prompt_targets = data.draw(
        st.lists(st.lists(st.tuples(st.integers(0, N_HEADS - 1), _values_or_edges), max_size=3), min_size=1, max_size=5)
    )
    texts = []
    for targets in prompt_targets:
        candidates = list(_EDGE_VALUES)
        for value, tol in _reference_values(targets):
            # the representation itself, both tolerance edges and the
            # floats just outside them
            for v in (value, value - tol, value + tol):
                candidates += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
        numbers = data.draw(st.lists(st.sampled_from(candidates) | _values_or_edges, max_size=6))
        words = [repr(float(v)) for v in numbers if np.isfinite(v)]
        words += data.draw(st.lists(st.sampled_from(["1e999", "-1e999", "7", "-0"]), max_size=2))
        texts.append(" x ".join(data.draw(st.permutations(words))))
    targets = _block_targets(prompt_targets)
    reps = [_reference_values(t) for t in prompt_targets]
    assert leakage_hits(texts, targets) == [_reference_hits(text, r) for text, r in zip(texts, reps)]
    assert mask_labels(texts, targets) == [_reference_mask(text, r) for text, r in zip(texts, reps)]


def test_target_values_are_bitwise_the_per_target_unit_resolution():
    # a block of three prompts, the second with no target
    targets = [(spec.head_id, v) for spec in REG for v in (-40.0, -0.0, 1e-9, 3.7, 250.0, 1.5e6)]
    block = _block_targets([targets[:7], [], targets[7:]])
    reference = _reference_values(targets)
    assert np.stack([block.values, block.tols], axis=1).tobytes() == np.array(reference).tobytes()
    first = len(_reference_values(targets[:7]))
    assert block.bounds.tolist() == [0, first, first, len(reference)]


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


@pytest.mark.parametrize("head_id", [-1, -N_HEADS, N_HEADS])
def test_target_values_rejects_an_unknown_head_id(head_id):
    # a negative id must not index the unit table from its end
    with pytest.raises(KeyError, match=f"unknown head_id {head_id}"):
        target_values([0, head_id], [1.0, 1.0], [1, 1], REG)
    sample = ExtractedSample("s1", "Tg 105", "", [PropertyObservation("s1", head_id, Quantity("point", value=1.0), 1.0)])
    with pytest.raises((KeyError, IndexError)):
        build_dataset([sample], "sample_only")


def _reference_build(samples, variant, mask=True):
    """build_dataset one prompt at a time, with the per-pair loop: every
    observation and every label is a target."""
    instances = []
    for sample in samples:
        labels = np.full(N_HEADS, np.nan)
        label_mask = np.zeros(N_HEADS, dtype=bool)
        targets = [(o.head_id, o.canonical_value) for o in sample.observations if o.canonical_value is not None]
        for h in {h for h, _ in targets}:
            labels[h] = np.mean([v for g, v in targets if g == h])
            label_mask[h] = True
        try:
            text = build_prompt(sample.sample_text, sample.synthesis_text, variant)
        except EmptySample as err:
            raise EmptySample(f"sample {sample.sample_id}: {err}") from None
        reps = _reference_values(targets + [(h, labels[h]) for h in np.flatnonzero(label_mask)])
        if mask:
            text = _reference_mask(text, reps)
        hits = _reference_hits(text, reps)
        if hits:
            raise LeakageDetected(f"sample {sample.sample_id}: surviving targets {hits}")
        instances.append(PromptInstance(sample.sample_id, variant, text, labels, label_mask))
    return instances


_TG = REG.lookup("Tg").head_id
_TS = REG.lookup("tensile_strength").head_id
_EDGES = (0, PROMPT_BLOCK - 1, PROMPT_BLOCK, 2 * PROMPT_BLOCK - 1, 2 * PROMPT_BLOCK)


def _edge_samples(restated=_EDGES, empty=()):
    """2 x PROMPT_BLOCK + 1 samples; those in ``restated`` repeat their Tg
    in the prompt, in °C or in K, and those in ``empty`` have no sample text."""
    samples = []
    for i in range(2 * PROMPT_BLOCK + 1):
        tg, ts = 100.0 + i % 50, 600.0 + i % 20
        observations = [
            PropertyObservation(f"s{i}", _TG, Quantity("point", value=tg, unit="°C"), tg),
            PropertyObservation(f"s{i}", _TS, Quantity("limit", bound=ts, direction="greater", unit="MPa"), None),
        ]
        if i % 3 == 0:  # a repeated head averages
            observations.append(PropertyObservation(f"s{i}", _TS, Quantity("point", value=ts, unit="MPa"), ts))
            observations.append(PropertyObservation(f"s{i}", _TS, Quantity("point", value=ts + 1, unit="MPa"), ts + 1))
        text = f"film annealed at {40 + i % 7} °C, strength above 20 MPa"
        if i in restated:
            text += f", softening near {tg:g} °C" if i % 2 else f", softening near {tg + 273.15:.2f} K"
        samples.append(ExtractedSample(f"s{i}", "" if i in empty else text, f"cured {i % 5 + 1} h", observations))
    return samples


@pytest.mark.parametrize("variant", ["sample_synthesis", "sample_only"])
def test_build_and_scan_over_block_edges_give_the_per_prompt_outputs(variant):
    samples = _edge_samples()
    built = build_dataset(samples, variant)
    reference = _reference_build(samples, variant)
    assert [(i.sample_id, i.variant, i.text) for i in built] == [(i.sample_id, i.variant, i.text) for i in reference]
    for a, b in zip(built, reference):
        assert a.labels.tobytes() == b.labels.tobytes() and np.array_equal(a.label_mask, b.label_mask)
    assert [i for i, inst in enumerate(built) if MASK_TOKEN in inst.text] == list(_EDGES)
    assert scan_dataset_for_leaks(built) == 0
    # undo the mask at each block edge: every restated Tg counts once
    for i in _EDGES:
        built[i].text = reference[i].text = samples[i].sample_text
    expected = sum(
        len(_reference_hits(inst.text, _reference_values([(h, inst.labels[h]) for h in np.flatnonzero(inst.label_mask)])))
        for inst in reference
    )
    assert scan_dataset_for_leaks(built) == expected == len(_EDGES)


@pytest.mark.parametrize(
    "restated, empty, error",
    [
        (_EDGES, (), LeakageDetected),
        ((PROMPT_BLOCK,), (2 * PROMPT_BLOCK - 1,), LeakageDetected),
        ((PROMPT_BLOCK + 1,), (PROMPT_BLOCK,), EmptySample),
        ((PROMPT_BLOCK - 1,), (PROMPT_BLOCK,), LeakageDetected),
        ((2 * PROMPT_BLOCK,), (), LeakageDetected),
        ((2 * PROMPT_BLOCK - 1,), (2 * PROMPT_BLOCK,), LeakageDetected),
        ((), (PROMPT_BLOCK - 1, 2 * PROMPT_BLOCK), EmptySample),
    ],
    ids=[
        "leak_at_every_edge",
        "empty_later_in_the_leaking_block",
        "empty_before_a_leak_in_its_block",
        "leak_ends_a_block_empty_starts_the_next",
        "leak_in_the_one_prompt_block",
        "leak_ends_a_block_empty_is_the_last",
        "empty_only",
    ],
)
def test_build_raises_the_per_prompt_references_earliest_error(monkeypatch, restated, empty, error):
    import polyreg.datasets as datasets_mod

    # with masking broken, each restated Tg leaks
    monkeypatch.setattr(datasets_mod, "mask_labels", lambda texts, targets: texts)
    samples = _edge_samples(restated, empty)
    with pytest.raises(error) as expected:
        _reference_build(samples, "sample_only", mask=False)
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        build_dataset(samples, "sample_only")


def _point(sid, head_id, value, unit):
    return PropertyObservation(sid, head_id, Quantity("point", value=value, unit=unit), value)


def _pair_samples():
    """Samples that stress building both variants from one pass."""
    return [
        # the sample text holds the synthesis header itself
        ExtractedSample("header", "film 105 °C\n[Synthesis]\n105 °C", "cured 105 °C", [_point("header", _TG, 105.0, "°C")]),
        ExtractedSample("no_synthesis", "film at 120 °C", "", [_point("no_synthesis", _TG, 120.0, "°C")]),
        # a head observed twice: its label, the mean, is a target as each value is
        ExtractedSample(
            "twice",
            "Tg 100 or 120, mean 110 °C",
            "annealed 120 °C",
            [_point("twice", _TG, 100.0, "°C"), _point("twice", _TG, 120.0, "°C")],
        ),
        ExtractedSample(
            "limit",
            "strength above 50 MPa",
            "drawn at 50 MPa",
            [PropertyObservation("limit", _TS, Quantity("limit", bound=50.0, direction="greater", unit="MPa"), None)],
        ),
        # targets written in another unit: 55 MPa as GPa, 105 °C as K
        ExtractedSample(
            "unit", "strength 0.055 GPa", "annealed 378.15 K", [_point("unit", _TG, 105.0, "°C"), _point("unit", _TS, 55.0, "MPa")]
        ),
        ExtractedSample("signed", "film quenched", "-20 °C quench, then +5 °C", [_point("signed", _TG, -20.0, "°C")]),
    ]


def _same_instances(got, want):
    assert [(i.sample_id, i.variant, i.text) for i in got] == [(i.sample_id, i.variant, i.text) for i in want]
    for a, b in zip(got, want):
        assert a.labels.tobytes() == b.labels.tobytes() and a.label_mask.tobytes() == b.label_mask.tobytes()


def test_pair_build_gives_each_variants_build_bitwise(tmp_path):
    path = tmp_path / "observations.jsonl"
    save_extracted(_edge_samples() + _pair_samples(), path)
    samples = load_extracted(path)  # a header inside a sample text is reachable from a file
    pair = build_dataset(samples, VARIANTS)
    assert list(pair) == list(VARIANTS)
    for variant in VARIANTS:
        _same_instances(pair[variant], build_dataset(samples, variant))
        _same_instances(pair[variant], _reference_build(samples, variant))
    texts = {inst.sample_id: inst.text for inst in pair["sample_synthesis"][-6:]}
    assert texts == {
        "header": "[Sample]\nfilm [MASKED] °C\n[Synthesis]\n[MASKED] °C\n[Synthesis]\ncured [MASKED] °C",
        "no_synthesis": "[Sample]\nfilm at [MASKED] °C\n[Synthesis]\n",
        "twice": "[Sample]\nTg [MASKED] or [MASKED], mean [MASKED] °C\n[Synthesis]\nannealed [MASKED] °C",
        "limit": "[Sample]\nstrength above 50 MPa\n[Synthesis]\ndrawn at 50 MPa",
        "unit": "[Sample]\nstrength [MASKED] GPa\n[Synthesis]\nannealed [MASKED] K",
        "signed": "[Sample]\nfilm quenched\n[Synthesis]\n[MASKED] °C quench, then +5 °C",
    }
    assert pair["sample_only"][-6].text == "[Sample]\nfilm [MASKED] °C\n[Synthesis]\n[MASKED] °C"


def test_pair_build_variants_own_their_label_arrays():
    pair = build_dataset(_pair_samples(), VARIANTS)
    arrays = [a for variant in VARIANTS for inst in pair[variant] for a in (inst.labels, inst.label_mask)]
    assert len(arrays) == 24
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))


@pytest.mark.parametrize("variants", [(), ("sample_only", "sample_only"), ("sample_only", "both")])
def test_build_dataset_rejects_an_empty_repeated_or_unknown_variant_tuple(variants):
    with pytest.raises(ValueError, match="unknown or repeated variant"):
        build_dataset(_pair_samples(), variants)


def test_pair_build_raises_on_a_leak_in_the_synthesis_part_alone(monkeypatch):
    import polyreg.datasets as datasets_mod

    monkeypatch.setattr(datasets_mod, "mask_labels", lambda texts, targets: texts)
    sample = ExtractedSample("s1", "film", "annealed at 105 °C", [_point("s1", _TG, 105.0, "°C")])
    assert build_dataset([sample], "sample_only")[0].text == "[Sample]\nfilm"
    for variants in ("sample_synthesis", VARIANTS):
        with pytest.raises(LeakageDetected, match=r"^sample s1: surviving targets \['105'\]$"):
            build_dataset([sample], variants)


# a head reported one to three times, each value and the mean restated in
# either text, next to numbers that are no target
_reported_values = st.lists(st.floats(-500, 5000, allow_nan=False), min_size=1, max_size=3)
_unrelated = st.one_of(st.integers(-300, 3000).map(str), st.floats(-1e4, 1e4, allow_nan=False).map("{:g}".format))


@st.composite
def _reporting_samples(draw):
    samples = []
    for i in range(draw(st.integers(1, 4))):
        observations, mentions = [], draw(st.lists(_unrelated, max_size=4))
        for head, unit in draw(st.lists(st.sampled_from([(_TG, "°C"), (_TS, "MPa")]), unique=True, max_size=2)):
            values = draw(_reported_values)
            observations += [_point(f"s{i}", head, v, unit) for v in values]
            mean = float(np.mean(values))
            mentions += [f"{v:g} {unit}" for v in values] + [f"mean {mean:g} {unit}", repr(mean)]
        mentions = draw(st.permutations(mentions))
        cut = draw(st.integers(0, len(mentions)))
        samples.append(ExtractedSample(f"s{i}", " ".join(["film", *mentions[:cut]]), ", ".join(mentions[cut:]), observations))
    return samples


@settings(max_examples=200, deadline=None)
@given(_reporting_samples())
def test_scan_finds_nothing_in_what_build_dataset_returns(samples):
    # every label, a reported head's mean, is masked as its values are
    for variant in ("sample_synthesis", "sample_only"):
        assert scan_dataset_for_leaks(build_dataset(samples, variant)) == 0
    for built in build_dataset(samples, VARIANTS).values():
        assert scan_dataset_for_leaks(built) == 0


@pytest.mark.parametrize("in_synthesis", [False, True], ids=["sample_part", "synthesis_part"])
@pytest.mark.parametrize(
    "restated, empty, error",
    [
        ((PROMPT_BLOCK,), (2 * PROMPT_BLOCK - 1,), LeakageDetected),
        ((PROMPT_BLOCK + 1,), (PROMPT_BLOCK,), EmptySample),
        ((PROMPT_BLOCK - 1,), (PROMPT_BLOCK,), LeakageDetected),
        ((2 * PROMPT_BLOCK - 1,), (2 * PROMPT_BLOCK,), LeakageDetected),
    ],
    ids=["leak_then_empty", "empty_then_leak", "leak_ends_a_block_empty_starts_the_next", "empty_is_the_last"],
)
def test_pair_build_raises_the_earliest_error_of_either_variant(monkeypatch, restated, empty, error, in_synthesis):
    import polyreg.datasets as datasets_mod

    monkeypatch.setattr(datasets_mod, "mask_labels", lambda texts, targets: texts)
    samples = _edge_samples(restated, empty)
    if in_synthesis:  # move each restated Tg into the synthesis text
        for i in restated:
            samples[i] = dataclasses.replace(samples[i], sample_text="film", synthesis_text=samples[i].sample_text)
    with pytest.raises(error) as expected:
        _reference_build(samples, "sample_synthesis", mask=False)
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        build_dataset(samples, VARIANTS)


def test_an_empty_sample_raises_before_its_own_synthesis_leak(monkeypatch):
    import polyreg.datasets as datasets_mod

    monkeypatch.setattr(datasets_mod, "mask_labels", lambda texts, targets: texts)
    samples = [
        ExtractedSample("s0", "film", "cured 2 h", [_point("s0", _TG, 105.0, "°C")]),
        ExtractedSample("s1", "  ", "annealed at 105 °C", [_point("s1", _TG, 105.0, "°C")]),
    ]
    for variants in VARIANTS + (VARIANTS,):
        with pytest.raises(EmptySample):
            build_dataset(samples, variants)


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


def test_save_dataset_refuses_a_repeated_sample_id_or_an_unknown_variant(tmp_path):
    a, b = build_dataset(extract_document(_doc()), "sample_only")
    path = tmp_path / "ds.tsv"
    b.sample_id = "s1"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: sample_id 's1' repeats line 2$"):
        save_dataset([a, b], path)
    assert not path.exists()
    b.sample_id, b.variant = "s2", "bogus"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: variant 'bogus' is not one of sample_synthesis, sample_only$"):
        save_dataset([a, b], path)
    assert not path.exists()


def test_build_dataset_rejects_a_mean_that_overflows():
    # each observation is finite; their mean is not
    big = Quantity(kind="point", value=1.7e308, unit="MPa")
    sample = ExtractedSample(
        "s1", "PS film", "", [PropertyObservation("s1", 5, big, 1.7e308), PropertyObservation("s1", 5, big, 1.7e308)]
    )
    with pytest.raises(ValueError, match=re.escape("sample 's1': head 5 label inf is not finite")):
        build_dataset([sample], "sample_only")
    # one such value on its own is a label, and saves as it did
    instances = build_dataset([dataclasses.replace(sample, observations=sample.observations[:1])], "sample_only")
    assert instances[0].labels[5] == 1.7e308


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_save_dataset_rejects_a_present_non_finite_label(tmp_path, bad):
    labels = np.full(N_HEADS, np.nan)
    labels[[2, 7]] = [1.0, 3.0]
    # the bad label sits in the second block of PROMPT_BLOCK instances
    instances = [
        PromptInstance(f"s{i}", "sample_only", "text", labels.copy(), ~np.isnan(labels))
        for i in range(PROMPT_BLOCK + 3)
    ]
    instances[-2].labels[7] = bad
    path = tmp_path / "ds.tsv"
    message = f"{path}: sample 's{PROMPT_BLOCK + 1}': label_7 {float(bad)!r} is not finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_dataset(instances, path)
    assert not path.exists()
    # an unobserved slot may hold anything
    instances[-2].label_mask[7] = False
    save_dataset(instances, path)
    assert len(load_dataset(path)) == PROMPT_BLOCK + 3


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
        (lambda line: "\t\t", "expected 25 columns, got 3"),
        (lambda line: line.replace("\tNA", "\tinf", 1), "label inf is not finite"),
        (lambda line: line.replace("\tNA", "\t-Infinity", 1), "label -inf is not finite"),
        (lambda line: line.replace("\tNA", "\tnan", 1), "label nan is not finite"),
        (lambda line: "s1" + line[2:], "sample_id 's1' repeats line 2"),
        (
            lambda line: line.replace("\tsample_synthesis\t", "\tbanana\t", 1),
            "variant 'banana' is not one of sample_synthesis, sample_only",
        ),
    ],
    ids=[
        "non_numeric_label",
        "missing_slot",
        "one_column",
        "tabs_only",
        "infinite_label",
        "negative_infinite_label",
        "nan_label",
        "repeated_sample_id",
        "unknown_variant",
    ],
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
@given(st.lists(st.tuples(_ids, st.sampled_from(VARIANTS), st.text(), _labels), max_size=4, unique_by=lambda row: row[0]))
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
