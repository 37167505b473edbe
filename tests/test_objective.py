import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreg import objective
from polyreg.datasets import PromptInstance
from polyreg.objective import (
    EPS_PERCENTILE,
    LabelTransforms,
    density_weights,
    fit_density_model,
    kde_density,
    sigma_from_rho,
    silverman_bandwidth,
    task_losses,
    total_loss,
    total_loss_grad_preds,
    total_loss_grad_rho,
)
from polyreg.registry import N_HEADS, default_registry
from polyreg.trainer import fit_label_stats

SRC = Path(__file__).resolve().parents[1] / "src"


# ---- label transforms -----------------------------------------------------


def _fit(labels, log_space: bool) -> LabelTransforms:
    """A table with only head 3 fitted, on ``labels``."""
    t = LabelTransforms()
    t.fit(3, np.asarray(labels, dtype=np.float64), log_space)
    return t


def test_fit_transform_linear_example():
    # labels {0, 2}: mu = 1, sigma = 1 (population std)
    t = _fit([0.0, 2.0], log_space=False)
    assert (t.mu[3], t.sigma[3]) == (1.0, 1.0)
    assert np.allclose(t.normalize(3, [0.0, 2.0]), [-1.0, 1.0])
    assert np.allclose(t.denormalize(3, [-1.0, 1.0]), [0.0, 2.0])
    # only head 3 is fitted
    others = np.arange(N_HEADS) != 3
    assert t.valid.tolist() == [float(not o) for o in others]
    assert np.isnan(t.mu[others]).all() and np.isnan(t.sigma[others]).all()


def test_fit_transform_log_example():
    # labels {10, 1000} in log10 are {1, 3}: mu = 2, sigma = 1
    t = _fit([10.0, 1000.0], log_space=True)
    assert (t.mu[3], t.sigma[3]) == (2.0, 1.0)
    assert np.allclose(t.normalize(3, [10.0, 1000.0]), [-1.0, 1.0])
    assert np.allclose(t.denormalize(3, [0.0]), [100.0])


def test_fit_transform_drops_nonpositive_for_log_heads():
    # cleaning happens once, where the labels are gathered
    head = default_registry().lookup("tensile_strength").head_id
    instances = []
    for i, value in enumerate([10.0, 1000.0, -5.0, 0.0]):
        labels = np.full(N_HEADS, np.nan)
        labels[head] = value
        instances.append(PromptInstance(f"s{i}", "sample_only", "x", labels, ~np.isnan(labels)))
    t = fit_label_stats(instances)[0]
    assert (t.mu[head], t.sigma[head]) == (2.0, 1.0)


def test_fit_transform_degenerate_cases():
    # fewer than 2 labels or zero variance: the mean in the head's space
    # and a unit sigma
    for labels, log_space, mu in (
        ([5.0], False, 5.0),
        ([5.0, 5.0, 5.0], False, 5.0),
        ([1000.0], True, 3.0),
        ([100.0, 100.0], True, 2.0),
    ):
        t = _fit(labels, log_space)
        assert (t.mu[3], t.sigma[3], t.log_space[3], t.valid[3]) == (mu, 1.0, float(log_space), 1.0)


def test_denormalized_log_head_predictions_are_positive():
    t = _fit([10.0, 1000.0], log_space=True)
    z = np.linspace(-50, 50, 101)
    assert np.all(t.denormalize(3, z) > 0)


def test_transform_round_trip_property():
    rng = np.random.default_rng(0)
    y = rng.lognormal(2.0, 1.0, size=50)
    for log_space in (False, True):
        t = _fit(y, log_space=log_space)
        assert np.allclose(t.denormalize(3, t.normalize(3, y)), y, rtol=1e-10)


# ---- KDE and weights ------------------------------------------------------


def test_silverman_bandwidth_formula():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    std = y.std(ddof=1)
    iqr = np.percentile(y, 75) - np.percentile(y, 25)
    expected = 0.9 * min(std, iqr / 1.34) * 5 ** (-0.2)
    assert silverman_bandwidth(y) == pytest.approx(expected)


def test_silverman_bandwidth_floor():
    assert silverman_bandwidth(np.array([1.0, 1.0, 1.0])) == 1e-3


def test_kde_single_point_peak():
    # density at the lone training point is 1/(h sqrt(2 pi))
    h = 0.5
    dens = kde_density(np.array([3.0]), h, [3.0])
    assert dens[0] == pytest.approx(1.0 / (h * math.sqrt(2.0 * math.pi)))


def test_kde_symmetry():
    train = np.array([-2.0, 2.0])
    d = kde_density(train, 1.0, [-1.0, 1.0])
    assert d[0] == pytest.approx(d[1])


def test_kde_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    train = rng.normal(size=40)
    h = silverman_bandwidth(train)
    query = rng.normal(size=15)
    fast = kde_density(train, h, query)
    for i, q in enumerate(query):
        acc = 0.0
        for yj in train:
            u = (q - yj) / h
            acc += math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        assert fast[i] == pytest.approx(acc / (train.size * h), rel=0, abs=1e-12)


def _one_shot_kde(train, h, query):
    u = (query[:, None] - train[None, :]) / h
    phi = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    return phi.sum(axis=1) / (train.size * h)


def test_kde_chunked_rows_equal_one_shot_formula_bitwise():
    # 1000 labels give chunks of 131 query rows; 1000 queries leave a
    # partial last chunk
    rng = np.random.default_rng(2)
    train = rng.normal(size=1000)
    query = rng.normal(size=1000)
    h = silverman_bandwidth(train)
    one_shot = _one_shot_kde(train, h, query)
    assert query.size % (objective._KDE_CHUNK_ELEMENTS // train.size) != 0
    assert np.array_equal(kde_density(train, h, query), one_shot)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "n_train, n_query",
    [
        (1000, 1000),  # a partial last chunk
        (objective._KDE_CHUNK_ELEMENTS + 5, 7),  # one query row per chunk
        (1000, 5),  # fewer query rows than one chunk
        (300, 2000),  # query and train of different lengths
    ],
    ids=["partial_last_chunk", "one_row_per_chunk", "under_one_chunk", "unequal_lengths"],
)
def test_kde_is_bitwise_the_one_shot_formula_at_any_worker_count(workers, n_train, n_query):
    # kde_density holds its chunk buffer per call, so callers on several
    # threads at once each get the one-shot bytes
    rng = np.random.default_rng([n_train, n_query, workers])
    train = rng.normal(size=n_train)
    query = rng.normal(size=n_query)
    h = silverman_bandwidth(train)
    start = threading.Barrier(workers)

    def density(_):
        start.wait()
        return kde_density(train, h, query)

    with ThreadPoolExecutor(workers) as pool:
        results = list(pool.map(density, range(workers)))
    expected = _one_shot_kde(train, h, query)
    assert all(np.array_equal(result, expected) for result in results)


@pytest.mark.parametrize("h", [1.0, 1e-300, 1e300])
def test_kde_is_bitwise_the_one_shot_formula_at_extreme_distances(h):
    # distances whose square underflows, overflows or turns subnormal
    far = np.array([0.0, 5e-324, 1e-160, 1.5e-154, 2.0**-511, 1e-20, 1.0, 38.6, 1.3e154, 1.4e154, 1e300])
    train = np.concatenate([far, -far])
    query = np.concatenate([train, train + 1e-300, train * 0.999])
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(kde_density(train, h, query), _one_shot_kde(train, h, query))


def test_fit_label_stats_leaves_no_worker_thread(monkeypatch):
    # 600 labels a head make 3 chunks of 218 query rows, enough to share
    # over the CPUs of any multi-CPU host if the exact KDE kept a pool
    def refuse(thread):
        raise AssertionError(f"{thread.name} started")

    rng = np.random.default_rng(5)
    instances = [
        PromptInstance(f"s{i}", "sample_only", "x", rng.uniform(1.0, 100.0, N_HEADS), np.ones(N_HEADS, bool))
        for i in range(600)
    ]
    monkeypatch.setattr(threading.Thread, "start", refuse)
    weights = fit_label_stats(instances)[3]
    assert (weights > 0).all()


def test_kde_validation():
    with pytest.raises(ValueError):
        kde_density(np.array([]), 1.0, [0.0])
    with pytest.raises(ValueError):
        kde_density(np.array([1.0]), 0.0, [0.0])


def test_density_weights_worked_example():
    # densities (1, 0.25) with eps 0.1: raw (1, 4), normalized (0.4, 1.6)
    w = density_weights([1.0, 0.25], eps=0.1)
    assert np.allclose(w, [0.4, 1.6])


def test_density_weights_clamping():
    # density below eps is clamped: (1, 0.01) with eps 0.1 -> raw (1, 10)
    w = density_weights([1.0, 0.01], eps=0.1)
    assert np.allclose(w, [2.0 / 11.0, 20.0 / 11.0])


def test_density_weights_mean_is_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.uniform(1e-4, 2.0, size=rng.integers(2, 200))
        w = density_weights(p, eps=1e-3)
        assert abs(w.mean() - 1.0) <= 1e-9


def test_fit_density_model_clamp_fraction():
    rng = np.random.default_rng(3)
    y = rng.normal(size=400)
    w = fit_density_model(y)
    dens = kde_density(y, silverman_bandwidth(y), y)
    eps = np.percentile(dens, EPS_PERCENTILE)
    assert np.array_equal(w, density_weights(dens, eps))
    assert (dens < eps).sum() / y.size <= 0.05 + 1.0 / y.size
    assert abs(w.mean() - 1.0) <= 1e-9


def test_rare_labels_get_larger_weights():
    # a heavy cluster plus a distant outlier: the outlier weight dominates
    y = np.concatenate([np.zeros(50) + np.linspace(-0.1, 0.1, 50), [8.0]])
    w = fit_density_model(y)
    # the eps clamp can tie the outlier with the sparsest cluster edges,
    # so compare against the bulk rather than the extreme edge
    assert w[-1] >= w[:-1].max()
    assert w[-1] > np.median(w[:-1])


# ---- binned KDE above BINNED_KDE_ABOVE labels -------------------------------

# Binning and interpolating on a grid of h/64 err by about (1/64)² of the
# density.  Measured over the 12 cases below: at most 8.8e-5 on densities
# (60%-tied, 30,000 labels) and 6.2e-5 on weights (60%-tied, 2,049).
BINNED_DENSITY_RTOL = 2e-4
BINNED_WEIGHT_RTOL = 1e-4
# fit_density_model's weights on 5,000 seeded normal labels (the binned path)
# and on 1,000 (the exact path, as the heads of a 2,000-instance split)
BINNED_WEIGHTS_SHA256 = "d837164f26805e790686086c34ff0a934e6bd57b47d33427386f4f7523692a80"
EXACT_WEIGHTS_SHA256 = "fc20f1b924bf46d06479d8bcdde8c5d5e356a5f21576f3686dbc119f28413a5d"


LABEL_KINDS = ("normal", "lognormal", "student_t2", "tied_60pct")


def _labels(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([n, LABEL_KINDS.index(kind)])
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "lognormal":
        return rng.lognormal(size=n)
    if kind == "student_t2":
        return rng.standard_t(2, size=n)
    # 60% of the labels share 20 values
    y = rng.normal(size=n)
    tied = int(0.6 * n)
    y[:tied] = rng.choice(rng.normal(size=20), tied)
    return y


def _exact_weights(dens: np.ndarray) -> np.ndarray:
    return density_weights(dens, float(np.percentile(dens, EPS_PERCENTILE)))


@pytest.mark.parametrize("n", [2049, 5000, 30000])
@pytest.mark.parametrize("kind", LABEL_KINDS)
def test_binned_kde_is_within_its_bound_of_the_exact_sum(kind, n):
    y = _labels(kind, n)
    h = silverman_bandwidth(y)
    exact = kde_density(y, h, y)
    binned = objective.label_density(y, h)
    assert np.max(np.abs(binned / exact - 1.0)) <= BINNED_DENSITY_RTOL
    w = fit_density_model(y)
    assert np.max(np.abs(w / _exact_weights(exact) - 1.0)) <= BINNED_WEIGHT_RTOL
    assert abs(w.mean() - 1.0) <= 1e-9


def test_binned_kde_falls_back_to_the_exact_sum_past_the_grid_cap():
    # one label 10^4 away from 3,000 normal ones needs about 3.6M grid points
    y = np.append(np.random.default_rng(6).normal(size=3000), 1e4)
    h = silverman_bandwidth(y)
    assert (y.max() - y.min()) / (h / objective._BINS_PER_H) > objective._MAX_GRID
    assert np.array_equal(fit_density_model(y), _exact_weights(kde_density(y, h, y)))


def test_binned_kde_starts_above_the_threshold(monkeypatch):
    n = objective.BINNED_KDE_ABOVE
    y = _labels("normal", n)
    assert np.array_equal(fit_density_model(y), _exact_weights(kde_density(y, silverman_bandwidth(y), y)))

    def refuse(*args):
        raise AssertionError("kde_density called")

    monkeypatch.setattr(objective, "kde_density", refuse)
    assert fit_density_model(_labels("normal", n + 1)).size == n + 1


def test_binned_kde_at_paper_scale_never_sums_pairs(monkeypatch):
    # about the labels one head holds at the paper's 276,400 samples
    def refuse(*args):
        raise AssertionError("kde_density called")

    monkeypatch.setattr(objective, "kde_density", refuse)
    w = fit_density_model(_labels("lognormal", 100_000))
    assert np.isfinite(w).all() and (w > 0).all()
    assert abs(w.mean() - 1.0) <= 1e-9


_BINNED_DIGEST = """
import hashlib
import numpy as np
from polyreg.objective import fit_density_model

for n in (5000, 1000):
    y = np.random.default_rng(19).normal(size=n)
    print(hashlib.sha256(fit_density_model(y).tobytes()).hexdigest())
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_binned_kde_weights_keep_their_digest(threads):
    # as tests/test_golden.py: a stored digest, under one and two BLAS threads
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", _BINNED_DIGEST], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == [BINNED_WEIGHTS_SHA256, EXACT_WEIGHTS_SHA256]


def test_weight_spread_shrinks_as_eps_grows():
    rng = np.random.default_rng(4)
    y = rng.normal(size=200)
    dens = kde_density(y, silverman_bandwidth(y), y)
    eps = np.percentile(dens, EPS_PERCENTILE)
    spread_small = density_weights(dens, eps).std()
    spread_big = density_weights(dens, eps * 10.0).std()
    assert spread_big <= spread_small + 1e-12


# ---- task and total loss --------------------------------------------------


def test_task_loss_worked_example():
    # head 0: unit weights, errors (0.2, 0.6); head 1: one labelled sample,
    # error 1 with weight 0.4 (the unlabelled entry is ignored)
    preds = np.array([[1.2, 1.0, 9.0], [2.6, 5.0, 9.0]])
    targets = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    mask = np.array([[True, True, False], [True, False, False]])
    weights = np.array([[1.0, 0.4, 0.0], [1.0, 0.0, 0.0]])
    L, werr, counts, present = task_losses(preds, targets, mask, weights)
    assert L[0] == pytest.approx((0.2**2 + 0.6**2) / 2.0)
    assert L[1] == pytest.approx(0.4)
    assert counts.tolist() == [2, 1, 0]
    assert present.tolist() == [True, True, False]
    # the weighted errors weights * err, 0 where unlabelled
    assert np.allclose(werr, [[0.2, 0.4, 0.0], [0.6, 0.0, 0.0]])


def test_task_loss_requires_samples():
    # a head with no labelled sample is absent: loss 0, no error, count 0
    preds = np.ones((3, 2))
    mask = np.array([[True, False]] * 3)
    L, werr, counts, present = task_losses(preds, np.zeros((3, 2)), mask, mask * 1.0)
    assert L.tolist() == [1.0, 0.0]
    assert counts.tolist() == [3, 0] and present.tolist() == [True, False]
    assert np.all(werr[:, 1] == 0)


def test_total_loss_grad_preds_matches_finite_differences():
    rng = np.random.default_rng(5)
    preds = rng.normal(size=(4, 3))
    targets = rng.normal(size=(4, 3))
    mask = rng.random((4, 3)) < 0.6
    mask[:, 2] = False
    mask[0, :2] = True
    weights = np.where(mask, rng.uniform(0.3, 2.0, size=(4, 3)), 0.0)
    rho = np.array([0.3, -0.4, 0.7])

    def total(p):
        L, _, _, present = task_losses(p, targets, mask, weights)
        return total_loss(L[present], rho[present])

    _, werr, counts, _ = task_losses(preds, targets, mask, weights)
    g = total_loss_grad_preds(werr, counts, rho)
    assert np.all(g[~mask] == 0)
    eps = 1e-6
    for idx in np.ndindex(preds.shape):
        p = preds.copy()
        p[idx] += eps
        up = total(p)
        p[idx] -= 2 * eps
        down = total(p)
        assert g[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-6, abs=1e-9)


def test_total_loss_worked_example():
    # one head, L = 2, rho = ln 2: L e^{-rho}/2 + rho/2 = 1/2 + ln(2)/2
    assert total_loss([2.0], [math.log(2.0)]) == pytest.approx(0.5 + math.log(2.0) / 2.0)
    # rho = 0 reduces to sum(L)/2
    assert total_loss([1.0, 3.0], [0.0, 0.0]) == pytest.approx(2.0)


def test_rho_gradient_and_stationarity():
    L = np.array([0.5, 2.0, 7.0])
    rho_star = np.log(L)
    assert np.allclose(total_loss_grad_rho(L, rho_star), 0.0, atol=1e-12)
    # finite-difference check of the gradient at a generic point
    rho = np.array([0.3, -0.2, 1.0])
    g = total_loss_grad_rho(L, rho)
    eps = 1e-7
    for t in range(3):
        r = rho.copy()
        r[t] += eps
        up = total_loss(L, r)
        r[t] -= 2 * eps
        down = total_loss(L, r)
        assert g[t] == pytest.approx((up - down) / (2 * eps), rel=1e-6)


def test_fit_uncertainty_recovers_sigma_squared_equals_loss():
    L = np.array([0.25, 1.0, 4.0, 0.01])
    rho = np.zeros_like(L)
    for _ in range(4000):  # gradient descent on rho alone
        rho = rho - 0.2 * total_loss_grad_rho(L, rho)
    assert np.allclose(np.exp(rho), L, rtol=1e-6)
    assert np.allclose(sigma_from_rho(rho), np.sqrt(L), rtol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8)
)
def test_optimal_rho_beats_zero_rho(losses):
    L = np.array(losses)
    assert total_loss(L, np.log(L)) <= total_loss(L, np.zeros_like(L)) + 1e-12
