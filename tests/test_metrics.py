import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from polyreg.metrics import (
    ZeroVariance,
    average_ranks,
    calibration_ratio,
    mae,
    pearson,
    r_squared,
    rank_correlations,
    rmse,
    score_prediction_file,
    strict_numeric_parse,
)
from polyreg.registry import default_registry

REG = default_registry()


# ---- R squared ------------------------------------------------------------


def test_r_squared_perfect_fit():
    r2, excl = r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r2 == 1.0 and excl == 0


def test_r_squared_mean_predictor_is_zero():
    # predicting the target mean everywhere gives exactly 0
    r2, _ = r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert r2 == pytest.approx(0.0, abs=1e-12)


def test_r_squared_constant_off_mean_is_negative():
    r2, _ = r_squared([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert r2 < 0


def test_r_squared_worked_example():
    # SSE = 0.5, SST = 2 -> 0.75
    r2, _ = r_squared([1.0, 2.0, 3.0], [1.5, 2.0, 3.5])
    assert r2 == pytest.approx(1.0 - 0.5 / 2.0)


def test_r_squared_log_space_excludes_nonpositive_pairs():
    y = [10.0, 100.0, 1000.0, -1.0]
    p = [10.0, 100.0, 1000.0, 50.0]
    r2, excl = r_squared(y, p, "log10")
    assert r2 == 1.0 and excl == 1
    r2b, exclb = r_squared([10.0, 100.0, 1000.0], [10.0, 100.0, -5.0], "log10")
    assert exclb == 1


def test_r_squared_affine_target_invariance():
    # R2 in linear space is invariant to affine maps applied to both arrays
    rng = np.random.default_rng(0)
    y = rng.normal(size=30)
    p = y + rng.normal(scale=0.3, size=30)
    base, _ = r_squared(y, p)
    shifted, _ = r_squared(3.0 * y + 7.0, 3.0 * p + 7.0)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_r_squared_errors():
    with pytest.raises(ZeroVariance):
        r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroVariance):
        r_squared([1.0], [1.0])
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0], [1.0, 2.0], space="sqrt")


# ---- error metrics --------------------------------------------------------


def test_mae_rmse_examples():
    assert mae([0.0, 0.0], [1.0, -3.0]) == pytest.approx(2.0)
    # errors (2, 2): rmse = 2; errors (0, 4): rmse = 2 sqrt 2
    assert rmse([0.0, 0.0], [2.0, 2.0]) == pytest.approx(2.0)
    assert rmse([0.0, 0.0], [0.0, 4.0]) == pytest.approx(2.0 * math.sqrt(2.0))
    assert rmse([1.0], [1.0]) == 0.0


# ---- correlations ---------------------------------------------------------


def test_pearson_examples():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)
    with pytest.raises(ZeroVariance):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_known_value():
    # ranks x (1..5), y (1,2,3,5,4): sum d^2 = 2 -> rho = 1 - 12/120 = 0.9
    x = [10.0, 20.0, 30.0, 40.0, 50.0]
    y = [1.0, 2.0, 3.0, 5.0, 4.0]
    _, spearman = rank_correlations(x, y)
    assert spearman == pytest.approx(1.0 - 6.0 * 2.0 / (5 * 24))


def test_spearman_monotone_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    _, base = rank_correlations(x, y)
    _, warped = rank_correlations(np.exp(x), y**3)
    assert warped == pytest.approx(base, abs=1e-12)


def test_rank_correlations_validation():
    with pytest.raises(ValueError):
        rank_correlations([1.0, 2.0], [3.0, 4.0])


# ---- average ranks against scipy.stats.rankdata ---------------------------

# Small pools make ties common; signed zeros tie, and the infinities sort last
# and first.
_RANK_ELEMENTS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e300, -5e-324]),
    st.floats(allow_nan=False),
)
_RANK_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
    elements=_RANK_ELEMENTS,
)


def _assert_ranks_match_scipy(a):
    got, want = average_ranks(a), rankdata(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=500, deadline=None)
@given(_RANK_ARRAYS)
def test_average_ranks_match_scipy(a):
    _assert_ranks_match_scipy(a)


@settings(max_examples=200, deadline=None)
@given(_RANK_ARRAYS.filter(lambda a: a.size > 0), st.data())
def test_average_ranks_any_nan_gives_all_nan(a, data):
    a.flat[data.draw(st.integers(0, a.size - 1))] = np.nan
    _assert_ranks_match_scipy(a)
    assert np.isnan(average_ranks(a)).all()


@pytest.mark.parametrize(
    "a",
    [[], np.empty((0, 3)), [[3.0, 1.0], [2.0, 2.0]], [0.0, -0.0, np.inf, -np.inf], [7.0]],
    ids=["empty", "empty-2d", "2d-ties", "signed-zero-inf", "single"],
)
def test_average_ranks_edges_match_scipy(a):
    _assert_ranks_match_scipy(a)


def test_rank_correlations_nan_propagates():
    pearson_r, spearman = rank_correlations([1.0, np.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert math.isnan(pearson_r) and math.isnan(spearman)


def test_calibration_ratio_examples():
    assert calibration_ratio([1.0, 2.0], [1.0, 1.0]) == pytest.approx(1.5)
    assert calibration_ratio([0.5], [1.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        calibration_ratio([1.0], [0.0])


# ---- strict numeric parsing -----------------------------------------------


def test_strict_parse_accepts_plain_number():
    assert strict_numeric_parse("105") == pytest.approx(105.0)
    assert strict_numeric_parse("105.") == pytest.approx(105.0)
    assert strict_numeric_parse("  -3.2e1 ") == pytest.approx(-32.0)


def test_strict_parse_converts_units():
    tg = REG.lookup("Tg")
    assert strict_numeric_parse("105 °C", tg) == pytest.approx(105.0)
    assert strict_numeric_parse("378.15 K", tg) == pytest.approx(105.0)
    ym = REG.lookup("youngs_modulus")
    assert strict_numeric_parse("2.4 GPa", ym) == pytest.approx(2400.0)
    # bare number reads in the canonical unit
    assert strict_numeric_parse("2400", ym) == pytest.approx(2400.0)


def test_strict_parse_rejections():
    tg = REG.lookup("Tg")
    assert strict_numeric_parse("around 100 to 110", tg) is None
    assert strict_numeric_parse("100-110 °C", tg) is None
    assert strict_numeric_parse(">100 °C", tg) is None
    assert strict_numeric_parse("no measurement", tg) is None
    assert strict_numeric_parse("100 °C or 110 °C", tg) is None
    assert strict_numeric_parse("", tg) is None
    assert strict_numeric_parse("105 MPa", tg) is None  # wrong dimension
    assert strict_numeric_parse(None, tg) is None
    assert strict_numeric_parse("1e308 GPa", REG.lookup("tensile_strength")) is None  # inf MPa


# ---- prediction-file scoring ----------------------------------------------


def _instances(labels=None):
    """Samples s0, s1, ...: ``labels`` maps a head name to one label a
    sample, None for no label; four Tg labels by default."""
    from polyreg.datasets import PromptInstance
    from polyreg.registry import N_HEADS

    labels = labels or {"Tg": [60.0, 100.0, 140.0, 180.0]}
    out = []
    for i in range(len(next(iter(labels.values())))):
        values = np.full(N_HEADS, np.nan)
        for name, column in labels.items():
            if column[i] is not None:
                values[REG.lookup(name).head_id] = column[i]
        out.append(PromptInstance(f"s{i}", "sample_only", "[Sample]\nx", values, ~np.isnan(values)))
    return out


def test_score_prediction_file(tmp_path):
    path = tmp_path / "preds.tsv"
    rows = [
        "sample_id\thead\tresponse",
        "s0\tglass transition temperature\t61 °C",
        "s1\tTg\t99",
        "s2\tTg\taround 140 or so",  # rejected by strict parsing
        "s3\tTg\t181 °C",
    ]
    path.write_text("\n".join(rows) + "\n")
    report, retention = score_prediction_file(path, _instances())
    assert retention == pytest.approx(3 / 4)
    assert len(report.heads) == 1
    head = report.heads[0]
    assert head.n == 3
    assert head.primary_metric == "linear"
    assert head.r2_linear > 0.99


def test_an_answer_that_overflows_the_heads_unit_is_rejected(tmp_path):
    # 1e308 GPa is inf MPa: the line counts against retention and is not scored
    instances = _instances({"tensile_strength": [20.0, 40.0, 60.0, 80.0]})
    rows = ["sample_id\thead\tresponse", "s0\ttensile_strength\t21 MPa", "s1\tuts\t0.039 GPa", "s2\tuts\t62"]
    three, four = tmp_path / "three.tsv", tmp_path / "four.tsv"
    three.write_text("\n".join(rows) + "\n")
    four.write_text("\n".join(rows + ["s3\ttensile_strength\t1e308 GPa"]) + "\n")
    report, retention = score_prediction_file(four, instances)
    assert retention == 0.75
    assert [(h.name, h.n) for h in report.heads] == [("tensile_strength", 3)]
    assert report.to_json() == score_prediction_file(three, instances)[0].to_json()


def test_the_order_of_a_response_files_lines_does_not_change_its_report(tmp_path):
    # each head's pairs are summed in instance order, whatever the line order
    rng = np.random.default_rng(0)
    labels = {
        "Tg": list(rng.uniform(-50.0, 250.0, 12)),
        "Tm": [None, None] + list(rng.uniform(100.0, 300.0, 10)),
        "tensile_strength": list(rng.uniform(5.0, 90.0, 12)),
    }
    lines = [
        f"s{i}\t{name}\t{float(y * rng.uniform(0.7, 1.3))!r}"
        for name, column in labels.items()
        for i, y in enumerate(column)
        if y is not None
    ]
    instances = _instances(labels)

    def scored(order):
        path = tmp_path / "responses.tsv"
        path.write_text("sample_id\thead\tresponse\n" + "".join(lines[j] + "\n" for j in order))
        return score_prediction_file(path, instances)

    first, retention = scored(range(len(lines)))
    assert retention == 1.0 and [h.n for h in first.heads] == [12, 10, 12]
    for order in [range(len(lines) - 1, -1, -1)] + [rng.permutation(len(lines)) for _ in range(6)]:
        report, kept = scored(order)
        assert kept == retention
        assert report.to_json() == first.to_json()
        assert [asdict(h) for h in report.heads] == [asdict(h) for h in first.heads]


def test_a_header_only_file_against_no_samples_scores_no_head(tmp_path):
    path = tmp_path / "responses.tsv"
    path.write_text("sample_id\thead\tresponse\n")
    report, retention = score_prediction_file(path, [])
    assert (report.heads, report.macro_primary_r2, retention) == ([], None, 0.0)


def test_score_prediction_file_requires_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("s0\tTg\t105\n")
    with pytest.raises(ValueError):
        score_prediction_file(path, _instances())


@pytest.mark.parametrize("bad", ["s0\t\t105", "s0\tTg"])
def test_score_prediction_file_names_a_malformed_line(tmp_path, bad):
    # an empty head column or a missing response column: the file and line
    path = tmp_path / "preds.tsv"
    path.write_text("sample_id\thead\tresponse\ns1\tTg\t99\n" + bad + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: ") as err:
        score_prediction_file(path, _instances())
    assert repr(bad) in str(err.value)


def test_retention_counts_every_parsed_response(tmp_path):
    # the Tm answers parse but no sample has a Tm label: retained, not scored
    path = tmp_path / "preds.tsv"
    rows = ["sample_id\thead\tresponse"]
    rows += [f"s{i}\tTg\t{60 + 40 * i + 1} °C" for i in range(4)]
    rows += [f"s{i}\tTm\t{150 + i} °C" for i in range(4)]
    path.write_text("\n".join(rows) + "\n")
    report, retention = score_prediction_file(path, _instances())
    assert retention == 1.0
    assert [(h.name, h.n) for h in report.heads] == [("Tg", 4)]


@pytest.mark.parametrize(
    "bad, message",
    [
        ("s2\tboiling point\t99", "unknown head 'boiling point'"),
        ("s9\tTg\t99", "sample 's9' is not in the dataset"),
        ("s1\tglass transition temperature\t500", r"sample_id and head \('s1', 'Tg'\) repeats line 2"),
    ],
)
def test_score_prediction_file_rejects_a_line_the_dataset_cannot_match(tmp_path, bad, message):
    path = tmp_path / "preds.tsv"
    path.write_text("sample_id\thead\tresponse\ns1\tTg\t99\n" + bad + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: {message}"):
        score_prediction_file(path, _instances())


def test_prediction_file_scores_equal_evaluate(tmp_path):
    # the model's own predictions, written as text that reads back to the
    # same floats, score exactly as evaluate scores them
    from polyreg.corpus import SynthConfig
    from polyreg.harness import prepare_variant_datasets
    from polyreg.metrics import evaluate, predict
    from polyreg.trainer import TrainConfig, train

    train_set, test_set = prepare_variant_datasets(
        SynthConfig(seed=0, n_docs=120, obs_prob=0.5), 0
    )["sample_synthesis"]
    cfg = TrainConfig(seed=0, epochs=2, batch_size=16, vocab_size=512, dim=16, rank=4, hidden_dim=16)
    trained = train(cfg, train_set)
    preds = predict(trained, test_set)
    rows = ["sample_id\thead\tresponse"]
    for inst, p in zip(test_set, preds):
        for t in np.flatnonzero(inst.label_mask & np.isfinite(p)):
            rows.append(f"{inst.sample_id}\t{REG.spec(t).name}\t{float(p[t])!r}")
    path = tmp_path / "preds.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    scored, retention = score_prediction_file(path, test_set)
    report = evaluate(trained, test_set)
    assert retention == 1.0
    assert len(report.heads) >= 5
    fields = ("head_id", "n", "r2_linear", "r2_log", "mae", "rmse", "log_excluded")
    assert [[getattr(h, f) for f in fields] for h in scored.heads] == [
        [getattr(h, f) for f in fields] for h in report.heads
    ]
    assert (scored.macro_r2_linear, scored.macro_r2_log, scored.macro_primary_r2) == (
        report.macro_r2_linear, report.macro_r2_log, report.macro_primary_r2
    )


def test_evaluate_normalizes_a_linear_head_below_zero_as_it_is(monkeypatch):
    # a Tg head from -125 to -5 °C with negative predictions: only log-space
    # heads clip predictions before normalizing
    from polyreg import metrics
    from polyreg.datasets import PromptInstance
    from polyreg.model import PropertyModel
    from polyreg.objective import LabelTransforms
    from polyreg.registry import N_HEADS
    from polyreg.trainer import TrainConfig, TrainedModel

    tg = REG.lookup("Tg").head_id
    assert not REG.spec(tg).log_space
    y = np.array([-125.0, -95.0, -60.0, -30.0, -5.0])
    p = np.array([-110.0, -100.0, -40.0, -35.0, 2.0])
    valid = np.zeros(N_HEADS)
    valid[tg] = 1.0
    mu, sigma = np.full(N_HEADS, np.nan), np.full(N_HEADS, np.nan)
    mu[tg], sigma[tg] = -60.0, 45.0
    table = LabelTransforms(mu, sigma, np.zeros(N_HEADS), valid)
    cfg = TrainConfig(seed=0, dim=16, rank=4, hidden_dim=16, variant="sample_only")
    trained = TrainedModel(PropertyModel(cfg), table)
    preds = np.full((y.size, N_HEADS), np.nan)
    preds[:, tg] = p
    labels = np.zeros((y.size, N_HEADS))
    labels[:, tg] = y
    instances = [
        PromptInstance(f"s{i}", "sample_only", "x", labels[i], labels[i] != 0) for i in range(y.size)
    ]
    monkeypatch.setattr(metrics, "predict", lambda trained, instances: preds)
    (head,) = metrics.evaluate(trained, instances).heads
    assert head.rmse_normalized == pytest.approx(rmse((y + 60.0) / 45.0, (p + 60.0) / 45.0), rel=1e-12)
    assert head.rmse_normalized == pytest.approx(rmse(y, p) / 45.0, rel=1e-12)


# ---- predict --------------------------------------------------------------


def _predict_reference(trained, instances):
    """Predictions of 256-row chunks, each encoded one text at a time."""
    from polyreg.encoder import bucket_ids, tokenize
    from polyreg.model import make_batch
    from polyreg.registry import N_HEADS

    model, tr = trained.model, trained.transforms
    parts = []
    for start in range(0, len(instances), 256):
        chunk = instances[start : start + 256]
        ids = [bucket_ids(tokenize(i.text), model.cfg.vocab_size) for i in chunk]
        parts.append(model.forward(make_batch(ids))[0])
    norm = np.concatenate(parts)
    return np.stack([tr.denormalize(t, norm[:, t]) for t in range(N_HEADS)], axis=1)


def _chunked_predict_case(pooling_mode="mean"):
    """A small random model and 600 prompts whose lengths spread more
    than 3×: 3 chunks of 256, 256 and 88, where the first chunk pads to
    longer prompts than the others and one prompt holds no token at all."""
    from polyreg.datasets import PromptInstance
    from polyreg.encoder import tokenize
    from polyreg.model import PropertyModel
    from polyreg.objective import LabelTransforms
    from polyreg.registry import N_HEADS
    from polyreg.trainer import TrainConfig, TrainedModel

    rng = np.random.default_rng(7)
    cfg = TrainConfig(seed=3, vocab_size=4096, dim=16, rank=4, hidden_dim=16, pooling_mode=pooling_mode)
    model = PropertyModel(cfg)
    model.params["lora_b"] = rng.normal(0.0, 0.3, size=model.params["lora_b"].shape)
    model.params["attn_q"] = rng.normal(0.0, 1.0, size=cfg.dim)
    transforms = LabelTransforms(
        mu=rng.normal(size=N_HEADS),
        sigma=rng.uniform(0.5, 2.0, size=N_HEADS),
        log_space=(np.arange(N_HEADS) % 3 == 0).astype(float),
        valid=np.ones(N_HEADS),
    )
    words = ["[Sample]", "[Synthesis]", "[MASKED]", "PLA", "film", "Tg", "°C", "cured", "at", "2.5e3", "150"]
    lengths = np.r_[rng.integers(9, 61, size=256), rng.integers(3, 21, size=344)]
    texts = [
        "".join(w + ("\n" if rng.random() < 0.2 else " ") for w in rng.choice(words, size=n))
        for n in lengths
    ]
    texts[100] = ", ;"
    n_tokens = [len(tokenize(t)) for t in texts]
    assert max(n_tokens) >= 3 * min(n for n in n_tokens if n) and n_tokens[100] == 0
    none = np.full(N_HEADS, np.nan)
    instances = [
        PromptInstance(f"s{i}", "sample_synthesis", t, none, np.zeros(N_HEADS, dtype=bool))
        for i, t in enumerate(texts)
    ]
    return TrainedModel(model, transforms), instances, n_tokens


@pytest.mark.parametrize("pooling_mode", ["mean", "attention"])
def test_predict_matches_per_chunk_reference_across_the_chunk_boundary(monkeypatch, pooling_mode):
    # the chunks' trunk and heads run on 1, 2 and 3 threads, switching often
    from polyreg import metrics
    from polyreg.metrics import PREDICT_CHUNK, predict
    from polyreg.registry import N_HEADS

    trained, instances, n_tokens = _chunked_predict_case(pooling_mode)
    assert max(n_tokens[:256]) > max(n_tokens[256:]) and PREDICT_CHUNK == 256
    want = _predict_reference(trained, instances)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(metrics, "_usable_cpus", lambda cpus=cpus: cpus)
            got = predict(trained, instances)
            assert got.shape == (600, N_HEADS) and np.isfinite(got).all()
            assert got.tobytes() == want.tobytes(), f"{cpus} workers"
    finally:
        sys.setswitchinterval(interval)


def test_predict_workers_follow_the_affinity_mask_up_to_one_a_chunk(monkeypatch):
    import threading

    from polyreg import metrics, regressor

    caller, infer = threading.get_ident(), regressor.infer
    threads, caller_ran = [], threading.Event()

    def recorded_infer(projected, params, cfg):
        # a pool thread stays busy until the calling thread runs its chunk, so
        # the pool cannot hand a second chunk to a thread that finished one
        if threading.get_ident() == caller:
            caller_ran.set()
        else:
            caller_ran.wait(timeout=10)
        threads.append(threading.get_ident())
        return infer(projected, params, cfg)

    monkeypatch.setattr(regressor, "infer", recorded_infer)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    trained, instances, _ = _chunked_predict_case()  # 3 chunks
    got, used = [], []
    for mask in ({0}, {0, 1}, set(range(64))):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask, raising=False)
        threads.clear()
        caller_ran.clear()
        got.append(metrics.predict(trained, instances).tobytes())
        assert len(threads) == 3
        used.append(len(set(threads)))
        if len(mask) == 1:  # pinned to one CPU of 64: every chunk on the calling thread
            assert set(threads) == {caller}
    # 64 CPUs for 3 chunks use 3 threads
    assert used == [1, 2, 3]
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("failing", ["pool", "pool_then_caller", "caller_then_pool"])
def test_predict_raises_the_earliest_failed_chunks_error(monkeypatch, failing):
    # with 2 workers the calling thread runs chunks 0 and 2 (88 rows), a
    # pool thread chunk 1, dealt before chunk 0 runs
    import threading

    from polyreg import metrics, regressor

    caller = threading.get_ident()

    def infer(projected, params, cfg):
        where = "caller" if threading.get_ident() == caller else "pool"
        fails = {
            "pool": where == "pool",
            "pool_then_caller": where == "pool" or len(projected) == 88,
            "caller_then_pool": True,
        }[failing]
        if fails:
            raise ValueError(f"{where} chunk of {len(projected)} rows")
        return np.zeros((len(projected), 22))

    monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(regressor, "infer", infer)
    trained, instances, _ = _chunked_predict_case()
    want = "caller chunk of 256" if failing == "caller_then_pool" else "pool chunk of 256"
    with pytest.raises(ValueError, match=want):
        metrics.predict(trained, instances)


def test_predict_raises_a_pool_chunks_error_over_a_later_projection_error(monkeypatch):
    # chunk 1 fails in ``infer`` on the pool thread, then the calling thread
    # fails projecting chunk 2 (88 rows): chunk 1 comes first
    import threading

    from polyreg import metrics, regressor
    from polyreg.model import PropertyModel

    caller = threading.get_ident()
    pool_project = PropertyModel.pool_project

    def infer(projected, params, cfg):
        if threading.get_ident() != caller:
            raise ValueError(f"pool chunk of {len(projected)} rows")
        return np.zeros((len(projected), 22))

    def failing_pool_project(self, batch):
        out = pool_project(self, batch)
        if len(out[3]) == 88:
            raise ValueError("projecting chunk 2")
        return out

    monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(regressor, "infer", infer)
    monkeypatch.setattr(PropertyModel, "pool_project", failing_pool_project)
    trained, instances, _ = _chunked_predict_case()
    with pytest.raises(ValueError, match="pool chunk of 256"):
        metrics.predict(trained, instances)


def test_predict_raises_the_earlier_of_two_failed_pool_chunks(monkeypatch):
    # with 3 workers the pool runs chunks 0 and 1, the calling thread chunk 2
    from polyreg import metrics, regressor
    from polyreg.model import PropertyModel

    chunk_of, pool_project = {}, PropertyModel.pool_project

    def numbered_pool_project(self, batch):
        out = pool_project(self, batch)
        chunk_of[id(out[3])] = len(chunk_of)
        return out

    def infer(projected, params, cfg):
        chunk = chunk_of[id(projected)]
        if chunk < 2:
            raise ValueError(f"chunk {chunk} failed")
        return np.zeros((len(projected), 22))

    monkeypatch.setattr(metrics, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(regressor, "infer", infer)
    monkeypatch.setattr(PropertyModel, "pool_project", numbered_pool_project)
    trained, instances, _ = _chunked_predict_case()
    with pytest.raises(ValueError, match="chunk 0 failed"):
        metrics.predict(trained, instances)


_THREADS_AROUND_PREDICT = """
import threading
import numpy as np
from polyreg import metrics
from polyreg.datasets import PromptInstance
from polyreg.metrics import predict
from polyreg.model import PropertyModel
from polyreg.objective import LabelTransforms
from polyreg.registry import N_HEADS
from polyreg.trainer import TrainConfig, TrainedModel

cfg = TrainConfig(seed=3, vocab_size=4096, dim=16, rank=4, hidden_dim=16)
table = LabelTransforms(np.zeros(N_HEADS), np.ones(N_HEADS), np.zeros(N_HEADS), np.ones(N_HEADS))
trained = TrainedModel(PropertyModel(cfg), table)
none = np.full(N_HEADS, np.nan)
# 8 chunks over two workers: the pool thread runs chunks 0, 2, 4 and 6
instances = [
    PromptInstance(f"s{i}", "sample_only", f"[Sample] PLA film {i} cured at {i % 7}", none, none > 0)
    for i in range(2000)
]
metrics._usable_cpus = lambda: 1
alone = predict(trained, instances)
metrics._usable_cpus = lambda: 2
before = threading.active_count()
shared = predict(trained, instances)
print(before, threading.active_count(), alone.tobytes() == shared.tobytes())
"""


def test_predict_leaves_no_worker_thread():
    # in a fresh interpreter: a pool kept across calls would otherwise hide
    # behind threads an earlier test had already started
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_AROUND_PREDICT],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    before, after, same = done.stdout.split()
    assert (after, same) == (before, "True")
