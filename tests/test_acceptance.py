"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  The slower checks train real models on synthetic corpora; the full
module finishes in a few minutes on a desktop CPU.
"""

import math

import numpy as np
import pytest

from polyreg.corpus import MECHANICAL_HEADS, SynthConfig, gen_corpus
from polyreg.datasets import build_dataset, scan_dataset_for_leaks
from polyreg.encoder import init_encoder_params, lora_project
from polyreg.harness import prepare_variant_datasets, run_ablation, run_uncertainty_report
from polyreg.metrics import ZeroVariance, evaluate, r_squared, rank_correlations
from polyreg.model import Batch, PropertyModel, make_batch
from polyreg.objective import (
    EPS_PERCENTILE,
    fit_density_model,
    kde_density,
    silverman_bandwidth,
    total_loss_grad_rho,
)
from polyreg.audit import audit, load_bundled_fixture
from polyreg.records import extract_corpus
from polyreg.registry import N_HEADS, default_registry
from polyreg.trainer import TrainConfig, train, save_trained

REG = default_registry()


def _parameter_counts(model: PropertyModel) -> tuple[int, int]:
    """Trainable and total parameters, counting the whole logical
    vocab_size x dim embedding table."""

    def size(name):
        return model.cfg.vocab_size * model.cfg.dim if name == "embed" else model.params[name].size

    return sum(map(size, model.trainable_names())), sum(map(size, model.params))


def _verdict(tag: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---- shared expensive runs ------------------------------------------------

HARNESS_TRAIN = dict(epochs=20, batch_size=96, vocab_size=4096)
HARNESS_SYNTH = dict(n_docs=2500, obs_prob=0.5)

ETA_SPAN = {h: e for h, e in zip(MECHANICAL_HEADS, np.linspace(0.05, 0.5, len(MECHANICAL_HEADS)))}


@pytest.fixture(scope="module")
def ablation_runs():
    out = {}
    for gamma in (0.5, 0.0):
        reports = []
        for seed in (0, 1, 2):
            cfg = TrainConfig(seed=seed, **HARNESS_TRAIN)
            synth = SynthConfig(seed=seed, gamma=gamma, **HARNESS_SYNTH)
            reports.append(run_ablation(cfg, synth))
        out[gamma] = reports
    return out


@pytest.fixture(scope="module")
def uncertainty_runs():
    reports = []
    for seed in (0, 1, 2):
        synth = SynthConfig(seed=seed + 100, gamma=0.3, eta=dict(ETA_SPAN), **HARNESS_SYNTH)
        datasets = prepare_variant_datasets(synth, split_seed=seed)
        train_set, test_set = datasets["sample_synthesis"]
        trained = train(TrainConfig(seed=seed, **HARNESS_TRAIN), train_set)
        reports.append(run_uncertainty_report(trained, test_set))
    return reports


# ---- 1: analytic gradients match finite differences -----------------------


def test_acceptance_full_model_gradient_check():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(
            vocab_size=256, dim=12, rank=3, hidden_dim=14, n_blocks=2,
            pooling_mode="attention" if seed % 2 else "mean", seed=seed,
        )
        model = PropertyModel(cfg)
        model.params["lora_b"] = rng.normal(0.0, 0.05, size=model.params["lora_b"].shape)
        model.params["attn_q"] = rng.normal(0.0, 0.1, size=model.params["attn_q"].shape)
        model.params["rho"] = rng.normal(0.0, 0.3, size=N_HEADS)
        B, T = 4, 7
        ids = rng.integers(0, cfg.vocab_size, size=(B, T))
        token_mask = rng.random((B, T)) < 0.8
        token_mask[:, 0] = True
        label_mask = rng.random((B, N_HEADS)) < 0.3
        label_mask[0, :3] = True
        targets = np.where(label_mask, rng.normal(size=(B, N_HEADS)), 0.0)
        weights = np.where(label_mask, rng.uniform(0.3, 2.0, size=(B, N_HEADS)), 0.0)
        batch = Batch(ids, token_mask)
        labels = (targets, label_mask, weights)

        # every row stored, so the batch's bucket ids are positions in the
        # table and the probes reach the whole table
        model.materialize(np.arange(cfg.vocab_size))
        preds, cache = model.forward(batch)
        grads = model.backward(cache, model.loss(preds, *labels)[1])
        # the embedding gradient comes row-sparse; probe it as a dense table
        dembed = np.zeros_like(model.params["embed"])
        dembed[grads["embed"].rows] = grads["embed"].values
        grads["embed"] = dembed
        names = model.trainable_names()
        eps = 1e-5
        for _ in range(200):
            name = names[rng.integers(len(names))]
            idx = tuple(rng.integers(s) for s in model.params[name].shape)
            orig = model.params[name][idx]
            model.params[name][idx] = orig + eps
            up = model.loss(model.forward(batch)[0], *labels)[0]
            model.params[name][idx] = orig - eps
            down = model.loss(model.forward(batch)[0], *labels)[0]
            model.params[name][idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = grads[name][idx]
            rel = abs(analytic - numeric) / max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, rel)
    _verdict("analytic-vs-numeric gradients", worst <= 1e-4, f"worst rel err {worst:.2e}")


# ---- 2: learned task variances converge to the task losses ----------------


def test_acceptance_uncertainty_stationarity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        L = rng.uniform(0.01, 10.0, size=rng.integers(2, 23))
        rho = np.zeros_like(L)
        for _ in range(4000):  # gradient descent on rho alone
            rho = rho - 0.2 * total_loss_grad_rho(L, rho)
        worst = max(worst, float(np.max(np.abs(np.exp(rho) - L))))
    _verdict("sigma^2 converges to task loss", worst <= 1e-6, f"worst |sigma^2 - L| {worst:.2e}")


# ---- 3: density weighting contract ----------------------------------------


def test_acceptance_density_weighting():
    rng = np.random.default_rng(1)
    ok = True
    details = []
    for trial in range(10):
        y = rng.normal(size=rng.integers(50, 400))
        mean_dev = abs(fit_density_model(y).mean() - 1.0)
        ok &= mean_dev <= 1e-9
        n = y.size
        h = silverman_bandwidth(y)
        dens = kde_density(y, h, y)
        clamp_frac = float((dens < np.percentile(dens, EPS_PERCENTILE)).mean())
        ok &= clamp_frac <= 0.05 + 1.0 / n
        query = rng.normal(size=100)
        fast = kde_density(y, h, query)
        brute = np.array(
            [
                sum(
                    math.exp(-0.5 * ((q - yj) / h) ** 2)
                    for yj in y
                )
                / (n * h * math.sqrt(2 * math.pi))
                for q in query
            ]
        )
        kde_err = float(np.max(np.abs(fast - brute)))
        ok &= kde_err <= 1e-12
        details.append(kde_err)
    _verdict(
        "inverse-density weights and KDE oracle",
        ok,
        f"max kde err {max(details):.2e}",
    )


# ---- 4: extraction audit fixture ------------------------------------------


def test_acceptance_audit_fixture():
    extracted, gold = load_bundled_fixture()
    report = audit(extracted, gold)
    expected = {
        "sample_assoc_precision": 120 / 120,
        "property_precision": 109 / 120,
        "value_precision": 113 / 120,
        "unit_precision": 113 / 120,
        "strict_precision": 101 / 120,
    }
    got = dict(report.as_rows())
    ok = report.n == 120 and all(
        abs(got[k] - v) < 1e-12 for k, v in expected.items()
    )
    _verdict(
        "audit fixture precisions",
        ok,
        f"strict {got['strict_precision']:.6f} over {report.n} records",
    )


# ---- 5: synthesis ablation on matched corpora -----------------------------


def test_acceptance_ablation_informative_synthesis(ablation_runs):
    deltas = [row.delta for rep in ablation_runs[0.5] for row in rep.rows]
    mean_delta = float(np.mean(deltas))
    ok = all(d <= 0 for d in deltas) and mean_delta <= -0.03
    _verdict(
        "dropping informative synthesis hurts",
        ok,
        f"mean delta {mean_delta:.4f}, max delta {max(deltas):.4f}",
    )


def test_acceptance_ablation_uninformative_synthesis(ablation_runs):
    deltas = [row.delta for rep in ablation_runs[0.0] for row in rep.rows]
    mean_delta = float(np.mean(deltas))
    ok = abs(mean_delta) <= 0.02
    _verdict(
        "uninformative synthesis changes nothing",
        ok,
        f"mean delta {mean_delta:.4f}",
    )


# ---- 6: learned sigma tracks injected noise and held-out error ------------


def test_acceptance_uncertainty_tracks_noise(uncertainty_runs):
    sp_eta = []
    sp_rmse = []
    for report in uncertainty_runs:
        eta_vec = [ETA_SPAN[h] for h in report.head_ids]
        _, s = rank_correlations(eta_vec, report.sigma)
        sp_eta.append(s)
        sp_rmse.append(report.spearman)
    ok = all(s > 0.5 for s in sp_eta) and all(s is not None and s > 0.3 for s in sp_rmse)
    _verdict(
        "sigma ranks injected noise and error",
        ok,
        f"spearman(sigma,eta) {['%.2f' % s for s in sp_eta]}, "
        f"spearman(sigma,rmse) {['%.2f' % s for s in sp_rmse]}",
    )


# ---- 7: held-out error exceeds the train-fit sigma ------------------------


def test_acceptance_calibration_ratio(uncertainty_runs):
    ratios = [r.calibration_ratio for r in uncertainty_runs]
    mean_ratio = float(np.mean(ratios))
    _verdict(
        "held-out RMSE / sigma above one",
        mean_ratio > 1.0,
        f"mean ratio {mean_ratio:.3f}",
    )


# ---- 8: no target value survives masking ----------------------------------


def test_acceptance_zero_leakage():
    total = 0
    n_instances = 0
    for seed in range(3):
        corpus = gen_corpus(SynthConfig(seed=seed, n_docs=300, obs_prob=0.6))
        samples, _ = extract_corpus(corpus.text)
        for variant in ("sample_synthesis", "sample_only"):
            instances = build_dataset(samples, variant)
            total += scan_dataset_for_leaks(instances)
            n_instances += len(instances)
    _verdict(
        "masked prompts leak nothing",
        total == 0,
        f"{total} hits over {n_instances} prompts",
    )


# ---- 9: low-rank adapter contract -----------------------------------------


def test_acceptance_low_rank_adapter():
    rng = np.random.default_rng(2)
    cfg = TrainConfig(vocab_size=128, dim=32, rank=4, alpha=8.0)
    params = init_encoder_params(cfg, rng)
    H = rng.normal(size=(5, 9, 32))
    zero_b_exact = np.array_equal(lora_project(H, params, cfg), H @ params["w0"].T)

    params["lora_b"] = rng.normal(size=params["lora_b"].shape)
    scale = cfg.alpha / cfg.rank
    dense = params["w0"] + scale * params["lora_b"] @ params["lora_a"]
    dense_err = float(np.max(np.abs(lora_project(H, params, cfg) - H @ dense.T)))

    model = PropertyModel(TrainConfig(freeze_embeddings=True))
    trainable, total = _parameter_counts(model)
    fraction = trainable / total
    ok = zero_b_exact and dense_err <= 1e-12 and fraction < 0.02
    _verdict(
        "adapter identity, dense oracle, parameter budget",
        ok,
        f"dense err {dense_err:.2e}, trainable fraction {fraction:.4f}",
    )


# ---- 10: repeated runs are byte-identical ---------------------------------


def test_acceptance_run_level_determinism(tmp_path):
    synth = SynthConfig(seed=0, n_docs=150, obs_prob=0.6)
    cfg = TrainConfig(seed=0, epochs=3, batch_size=64, vocab_size=1024, dim=24, rank=4, hidden_dim=24, n_blocks=1)
    artifacts = []
    for run in range(2):
        corpus = gen_corpus(synth)
        samples, _ = extract_corpus(corpus.text)
        instances = build_dataset(samples, "sample_synthesis")
        trained = train(cfg, instances)
        ckpt = tmp_path / f"run{run}.ckpt"
        save_trained(trained, ckpt)
        report = evaluate(trained, instances)
        artifacts.append((corpus.text, ckpt.read_bytes(), report.to_table(), report.to_json()))
    ok = artifacts[0] == artifacts[1]
    _verdict("repeated runs byte-identical", ok)


# ---- 11: determination coefficient edge behavior --------------------------


def test_acceptance_r_squared_baselines():
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    for _ in range(20):
        y = rng.normal(size=rng.integers(3, 50))
        if y.std() == 0:
            continue
        r2_mean, _ = r_squared(y, np.full(y.size, y.mean()))
        worst = max(worst, abs(r2_mean))
        ok &= abs(r2_mean) <= 1e-12
        off = y.mean() + rng.uniform(0.5, 3.0) * max(y.std(), 0.1)
        r2_off, _ = r_squared(y, np.full(y.size, off))
        ok &= r2_off < 0
    _verdict(
        "mean predictor scores exactly zero",
        ok,
        f"max |R2(mean)| {worst:.1e}",
    )
