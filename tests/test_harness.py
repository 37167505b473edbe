import re

import numpy as np
import pytest

from polyreg.corpus import MECHANICAL_HEADS, SynthConfig, gen_corpus, write_corpus
from polyreg.datasets import LeakageDetected, build_dataset, scan_dataset_for_leaks
from polyreg.harness import (
    prepare_variant_datasets,
    run_ablation,
    run_uncertainty_report,
    split_samples,
)
from polyreg.records import extract_corpus, split_corpus
from polyreg.registry import default_registry
from polyreg.trainer import TrainConfig, train

REG = default_registry()


def _fast_train_cfg(**kw):
    base = dict(seed=0, epochs=2, batch_size=64, vocab_size=1024, dim=24, rank=4, hidden_dim=24, n_blocks=1)
    base.update(kw)
    return TrainConfig(**base)


# ---- corpus generation ----------------------------------------------------


def test_gen_corpus_is_byte_deterministic(tmp_path):
    cfg = SynthConfig(seed=3, n_docs=50)
    a = gen_corpus(cfg)
    b = gen_corpus(cfg)
    assert a.text == b.text
    assert [(t.sample_id, t.head_id, t.value) for t in a.truths] == [
        (t.sample_id, t.head_id, t.value) for t in b.truths
    ]
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_corpus(a, p1)
    write_corpus(b, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_corpus_names_the_head_of_a_label_that_overflows():
    with pytest.raises(ValueError, match=r"head 7 \(elongation_at_break\): a generated label is not finite"):
        with np.errstate(over="ignore"):
            gen_corpus(SynthConfig(seed=0, n_docs=50, tail_skew=400.0))


def test_gen_corpus_seed_changes_content():
    a = gen_corpus(SynthConfig(seed=0, n_docs=30))
    b = gen_corpus(SynthConfig(seed=1, n_docs=30))
    assert a.text != b.text


def test_corpus_documents_extract_cleanly():
    cfg = SynthConfig(seed=5, n_docs=80)
    corpus = gen_corpus(cfg)
    samples, counters = extract_corpus(corpus.text)
    assert len(samples) == 80
    assert counters.unmapped == 0
    assert counters.parse_failures == 0
    assert counters.incompatible_units == 0
    # extracted values match the generator truths to formatting precision
    truth = {(t.sample_id, t.head_id): t.value for t in corpus.truths}
    n_checked = 0
    for s in samples:
        for obs in s.observations:
            ref = truth[(s.sample_id, obs.head_id)]
            assert obs.canonical_value == pytest.approx(ref, rel=2e-4)
            n_checked += 1
    assert n_checked == len(truth)


def test_every_sample_has_at_least_one_observation():
    corpus = gen_corpus(SynthConfig(seed=7, n_docs=120, obs_prob=0.01))
    samples, _ = extract_corpus(corpus.text)
    assert all(len(s.observations) >= 1 for s in samples)


def test_linear_head_labels_are_right_skewed():
    # the exponential tail transform makes linear-head labels long-tailed
    tg = REG.lookup("Tg").head_id
    corpus = gen_corpus(SynthConfig(seed=0, n_docs=2000, heads=(tg,), obs_prob=1.0))
    vals = np.array([t.value for t in corpus.truths])
    z = (vals - vals.mean()) / vals.std()
    skew = float((z**3).mean())
    assert skew > 0.5


def test_zero_gamma_zero_noise_values_depend_only_on_composition():
    cfg = SynthConfig(seed=2, n_docs=600, heads=MECHANICAL_HEADS[:2], eta=0.0, gamma=0.0, obs_prob=1.0)
    corpus = gen_corpus(cfg)
    per_sample = {}
    for t in corpus.truths:
        per_sample.setdefault(t.sample_id, {})[t.head_id] = t.value
    comp_re = re.compile(r"Sample: (blend of .*? filler\.)")
    by_comp = {}
    for doc in split_corpus(corpus.text):
        sid = doc.split("==")[1].split()[1]
        comp = comp_re.search(doc).group(1)
        by_comp.setdefault(comp, []).append(per_sample[sid])
    n_groups_with_repeats = 0
    for comp, rows in by_comp.items():
        if len(rows) < 2:
            continue
        n_groups_with_repeats += 1
        for other in rows[1:]:
            for head_id, value in rows[0].items():
                assert other[head_id] == pytest.approx(value, rel=1e-12)
    assert n_groups_with_repeats > 0


def test_eta_dict_controls_per_head_noise():
    cfg = SynthConfig(seed=0, eta={5: 0.1, 6: 0.9})
    assert cfg.eta_for(5) == 0.1
    assert cfg.eta_for(6) == 0.9
    assert cfg.eta_for(7) == 0.08  # default for unlisted heads


# ---- splits and leakage ---------------------------------------------------


def test_split_samples_partition_and_determinism():
    samples = list(range(100))
    tr1, te1 = split_samples(samples, seed=4)
    tr2, te2 = split_samples(samples, seed=4)
    assert (tr1, te1) == (tr2, te2)
    assert sorted(tr1 + te1) == samples
    assert len(te1) == 20
    tr3, te3 = split_samples(samples, seed=5)
    assert te3 != te1


def test_prepare_variant_datasets_shares_split_and_is_leak_free():
    synth = SynthConfig(seed=1, n_docs=60)
    datasets = prepare_variant_datasets(synth, split_seed=0)
    ids = {}
    for variant, (tr, te) in datasets.items():
        assert all(inst.variant == variant for inst in tr + te)
        assert scan_dataset_for_leaks(tr) == 0
        assert scan_dataset_for_leaks(te) == 0
        ids[variant] = (sorted(i.sample_id for i in tr), sorted(i.sample_id for i in te))
    assert ids["sample_only"] == ids["sample_synthesis"]
    only = datasets["sample_only"][0][0]
    assert "[Synthesis]" not in only.text


@pytest.mark.parametrize("failing_scan, named", [(0, "sample_synthesis train set"), (3, "sample_only test set")])
def test_prepare_variant_datasets_raises_the_guards_exception_naming_variant_and_part(
    monkeypatch, failing_scan, named
):
    import polyreg.harness as harness_mod

    scans = []

    def scan(built, registry=None):
        scans.append(len(built))
        return 2 if len(scans) == failing_scan + 1 else scan_dataset_for_leaks(built, registry)

    monkeypatch.setattr(harness_mod, "scan_dataset_for_leaks", scan)
    with pytest.raises(LeakageDetected, match=f"^{named}: 2 surviving target values$"):
        prepare_variant_datasets(SynthConfig(seed=1, n_docs=60), split_seed=0)
    assert len(scans) == failing_scan + 1


def test_generated_prompts_mask_measured_values():
    synth = SynthConfig(seed=9, n_docs=40)
    corpus = gen_corpus(synth)
    samples, _ = extract_corpus(corpus.text)
    instances = build_dataset(samples, "sample_synthesis")
    assert scan_dataset_for_leaks(instances) == 0


# ---- ablation and uncertainty reports -------------------------------------


def test_run_ablation_structure():
    synth = SynthConfig(seed=0, n_docs=150, obs_prob=0.6)
    report = run_ablation(_fast_train_cfg(), synth)
    assert len(report.rows) >= 1
    assert len(report.split_hash) == 64
    for row in report.rows:
        assert row.head_id in MECHANICAL_HEADS
        assert row.delta == pytest.approx(row.r2_sample_only - row.r2_with_synthesis)
    table = report.to_table()
    assert table.startswith("head_id\t")
    assert "# mean_delta" in table and "# split_hash" in table


def test_run_uncertainty_report_structure():
    synth = SynthConfig(seed=0, n_docs=200, obs_prob=0.8)
    datasets = prepare_variant_datasets(synth, split_seed=0)
    tr, te = datasets["sample_synthesis"]
    trained = train(_fast_train_cfg(epochs=3), tr)
    report = run_uncertainty_report(trained, te)
    assert len(report.head_ids) >= 5
    assert np.all(report.sigma > 0)
    assert np.all(report.rmse_normalized >= 0)
    assert report.calibration_ratio > 0
    table = report.to_table()
    assert "# spearman" in table and "# calibration_ratio" in table


def test_run_uncertainty_report_needs_enough_heads():
    synth = SynthConfig(seed=0, n_docs=60, heads=(5, 6), obs_prob=0.8)
    datasets = prepare_variant_datasets(synth, split_seed=0)
    tr, te = datasets["sample_synthesis"]
    trained = train(_fast_train_cfg(), tr)
    with pytest.raises(ValueError):
        run_uncertainty_report(trained, te)
