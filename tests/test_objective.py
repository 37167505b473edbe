import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreg.objective import (
    DegenerateHead,
    DensityModel,
    density_weights,
    fit_density_model,
    fit_transform,
    fit_uncertainty,
    kde_density,
    sigma_from_rho,
    silverman_bandwidth,
    task_losses,
    total_loss,
    total_loss_grad_preds,
    total_loss_grad_rho,
)


# ---- label transforms -----------------------------------------------------


def test_fit_transform_linear_example():
    # labels {0, 2}: mu = 1, sigma = 1 (population std)
    t = fit_transform([0.0, 2.0], log_space=False)
    assert (t.mu, t.sigma) == (1.0, 1.0)
    assert np.allclose(t.normalize([0.0, 2.0]), [-1.0, 1.0])
    assert np.allclose(t.denormalize([-1.0, 1.0]), [0.0, 2.0])


def test_fit_transform_log_example():
    # labels {10, 1000} in log10 are {1, 3}: mu = 2, sigma = 1
    t = fit_transform([10.0, 1000.0], log_space=True)
    assert (t.mu, t.sigma) == (2.0, 1.0)
    assert np.allclose(t.normalize([10.0, 1000.0]), [-1.0, 1.0])
    assert np.allclose(t.denormalize([0.0]), [100.0])


def test_fit_transform_drops_nonpositive_for_log_heads():
    t = fit_transform([10.0, 1000.0, -5.0, 0.0], log_space=True)
    assert t.dropped_nonpositive == 2
    assert (t.mu, t.sigma) == (2.0, 1.0)


def test_fit_transform_degenerate_cases():
    with pytest.raises(DegenerateHead):
        fit_transform([5.0], log_space=False)
    with pytest.raises(DegenerateHead):
        fit_transform([5.0, 5.0, 5.0], log_space=False)
    with pytest.raises(DegenerateHead):
        fit_transform([-1.0, -2.0, 3.0], log_space=True)


def test_denormalized_log_head_predictions_are_positive():
    t = fit_transform([10.0, 1000.0], log_space=True)
    z = np.linspace(-50, 50, 101)
    assert np.all(t.denormalize(z) > 0)


def test_transform_round_trip_property():
    rng = np.random.default_rng(0)
    y = rng.lognormal(2.0, 1.0, size=50)
    for log_space in (False, True):
        t = fit_transform(y, log_space=log_space)
        assert np.allclose(t.denormalize(t.normalize(y)), y, rtol=1e-10)


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


def test_kde_chunked_rows_equal_one_shot_formula_bitwise():
    # 1000 labels give chunks of 131 query rows; 1000 queries leave a
    # partial last chunk
    rng = np.random.default_rng(2)
    train = rng.normal(size=1000)
    query = rng.normal(size=1000)
    h = silverman_bandwidth(train)
    u = (query[:, None] - train[None, :]) / h
    phi = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    one_shot = phi.sum(axis=1) / (train.size * h)
    assert query.size % ((1 << 17) // train.size) != 0
    assert np.array_equal(kde_density(train, h, query), one_shot)


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
    dm = fit_density_model(y)
    n = y.size
    clamped = (dm.density(y) < dm.epsilon).sum()
    assert clamped / n <= 0.05 + 1.0 / n
    assert abs(dm.weights.mean() - 1.0) <= 1e-9


def test_rare_labels_get_larger_weights():
    # a heavy cluster plus a distant outlier: the outlier weight dominates
    y = np.concatenate([np.zeros(50) + np.linspace(-0.1, 0.1, 50), [8.0]])
    dm = fit_density_model(y)
    # the eps clamp can tie the outlier with the sparsest cluster edges,
    # so compare against the bulk rather than the extreme edge
    assert dm.weights[-1] >= dm.weights[:-1].max()
    assert dm.weights[-1] > np.median(dm.weights[:-1])


def test_weight_spread_shrinks_as_eps_grows():
    rng = np.random.default_rng(4)
    y = rng.normal(size=200)
    dm = fit_density_model(y)
    dens = dm.density(y)
    spread_small = density_weights(dens, dm.epsilon).std()
    spread_big = density_weights(dens, dm.epsilon * 10.0).std()
    assert spread_big <= spread_small + 1e-12


# ---- task and total loss --------------------------------------------------


def test_task_loss_worked_example():
    # head 0: unit weights, errors (0.2, 0.6); head 1: one labelled sample,
    # error 1 with weight 0.4 (the unlabelled entry is ignored)
    preds = np.array([[1.2, 1.0, 9.0], [2.6, 5.0, 9.0]])
    targets = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    mask = np.array([[True, True, False], [True, False, False]])
    weights = np.array([[1.0, 0.4, 0.0], [1.0, 0.0, 0.0]])
    L, err, counts, present = task_losses(preds, targets, mask, weights)
    assert L[0] == pytest.approx((0.2**2 + 0.6**2) / 2.0)
    assert L[1] == pytest.approx(0.4)
    assert counts.tolist() == [2, 1, 0]
    assert present.tolist() == [True, True, False]
    assert np.allclose(err, [[0.2, 1.0, 0.0], [0.6, 0.0, 0.0]])


def test_task_loss_requires_samples():
    # a head with no labelled sample is absent: loss 0, no error, count 0
    preds = np.ones((3, 2))
    mask = np.array([[True, False]] * 3)
    L, err, counts, present = task_losses(preds, np.zeros((3, 2)), mask, mask * 1.0)
    assert L.tolist() == [1.0, 0.0]
    assert counts.tolist() == [3, 0] and present.tolist() == [True, False]
    assert np.all(err[:, 1] == 0)


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

    _, err, counts, _ = task_losses(preds, targets, mask, weights)
    g = total_loss_grad_preds(err, weights, counts, rho)
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
    rho = fit_uncertainty(L)
    assert np.allclose(np.exp(rho), L, rtol=1e-6)
    assert np.allclose(sigma_from_rho(rho), np.sqrt(L), rtol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8)
)
def test_optimal_rho_beats_zero_rho(losses):
    L = np.array(losses)
    assert total_loss(L, np.log(L)) <= total_loss(L, np.zeros_like(L)) + 1e-12
