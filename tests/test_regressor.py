import numpy as np
import pytest

from polyreg.config import TrainConfig
from polyreg.regressor import (
    BOTTLENECK_DIM,
    LN_EPS,
    gelu,
    gelu_cdf,
    gelu_grad,
    heads_backward,
    heads_forward,
    init_trunk_params,
    layer_norm,
    layer_norm_backward,
    trunk_backward,
    trunk_forward,
)
from polyreg.registry import N_HEADS


def _setup(seed=0, B=5, cfg=None):
    cfg = cfg or TrainConfig(dim=10, hidden_dim=12, n_blocks=2)
    rng = np.random.default_rng(seed)
    params = init_trunk_params(cfg, rng)
    pooled = rng.normal(size=(B, cfg.dim))
    return cfg, params, pooled


# ---- activations ----------------------------------------------------------


def _gelu(x):
    return gelu(x, gelu_cdf(x))


def test_gelu_known_values():
    assert _gelu(np.array([0.0]))[0] == 0.0
    # gelu(x) - gelu(-x) == x (Phi(x) + Phi(-x)) == x for the exact form
    x = np.linspace(-3, 3, 41)
    assert np.allclose(_gelu(x) - _gelu(-x), x, atol=1e-12)
    assert _gelu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-9)


def test_gelu_grad_matches_finite_difference():
    x = np.linspace(-4, 4, 33)
    eps = 1e-6
    numeric = (_gelu(x + eps) - _gelu(x - eps)) / (2 * eps)
    assert np.allclose(gelu_grad(x, gelu_cdf(x)), numeric, atol=1e-8)


# ---- layer norm -----------------------------------------------------------


@pytest.mark.parametrize("shape", [(96, 128), (7, 33), (1, 12), (4, 1)])
def test_layer_norm_equals_np_var_form_bitwise(shape):
    rng = np.random.default_rng(8)
    x = rng.normal(3.0, 2.0, size=shape)
    x[0] = 5.25  # a constant row: zero variance
    g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    y, (xhat, inv) = layer_norm(x, g, b)
    mu = x.mean(axis=-1, keepdims=True)
    ref_inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
    ref_xhat = (x - mu) * ref_inv
    assert np.array_equal(inv, ref_inv)
    assert np.array_equal(xhat, ref_xhat)
    assert np.array_equal(y, ref_xhat * g + b)
    assert np.all(xhat[0] == 0.0)


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 3.0, size=(7, 32))
    y, _ = layer_norm(x, np.ones(32), np.zeros(32))
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-3)


def test_layer_norm_constant_input_is_finite():
    x = np.full((3, 16), 5.0)
    y, _ = layer_norm(x, np.ones(16), np.zeros(16))
    assert np.all(np.isfinite(y))
    assert np.allclose(y, 0.0, atol=1e-12)


def test_layer_norm_backward_finite_difference():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 8))
    g = rng.normal(size=8)
    b = rng.normal(size=8)
    G = rng.normal(size=(4, 8))

    def f(xv, gv, bv):
        y, _ = layer_norm(xv, gv, bv)
        return float((y * G).sum())

    _, cache = layer_norm(x, g, b)
    dx, dg, db = layer_norm_backward(G, cache, g)
    eps = 1e-6
    for idx in [(0, 0), (2, 5), (3, 7)]:
        xp = x.copy()
        xp[idx] += eps
        up = f(xp, g, b)
        xp[idx] -= 2 * eps
        down = f(xp, g, b)
        assert dx[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-5, abs=1e-8)
    for j in range(8):
        gp = g.copy()
        gp[j] += eps
        up = f(x, gp, b)
        gp[j] -= 2 * eps
        down = f(x, gp, b)
        assert dg[j] == pytest.approx((up - down) / (2 * eps), rel=1e-5, abs=1e-8)
        bp = b.copy()
        bp[j] += eps
        assert db[j] == pytest.approx(
            (f(x, g, bp) - f(x, g, b)) / eps, rel=1e-4, abs=1e-6
        )


# ---- trunk ----------------------------------------------------------------


def test_zeroed_block_weights_make_blocks_identity():
    cfg, params, pooled = _setup()
    for i in range(cfg.n_blocks):
        params[f"block{i}_lin_w"] = np.zeros_like(params[f"block{i}_lin_w"])
        params[f"block{i}_lin_b"] = np.zeros_like(params[f"block{i}_lin_b"])
    z, cache = trunk_forward(pooled, params, cfg)
    x0 = cache["x0"]
    assert np.array_equal(cache[f"x{cfg.n_blocks}"], x0)
    assert np.allclose(z, x0 @ params["bottleneck_w"].T + params["bottleneck_b"], atol=1e-15)


def test_trunk_dual_implementation_oracle():
    # independent straight-line recomputation of the forward pass
    cfg, params, pooled = _setup(seed=3)
    z, _ = trunk_forward(pooled, params, cfg)
    x = pooled @ params["proj_w"].T + params["proj_b"]
    for i in range(cfg.n_blocks):
        g, b = params[f"block{i}_ln_g"], params[f"block{i}_ln_b"]
        mu = x.mean(axis=-1, keepdims=True)
        sd = np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
        h = ((x - mu) / sd) * g + b
        from scipy.special import erf

        act = 0.5 * h * (1.0 + erf(h / np.sqrt(2.0)))
        x = x + act @ params[f"block{i}_lin_w"].T + params[f"block{i}_lin_b"]
    ref = x @ params["bottleneck_w"].T + params["bottleneck_b"]
    assert np.allclose(z, ref, rtol=0, atol=1e-12)


def test_trunk_rejects_non_finite_input():
    cfg, params, pooled = _setup()
    pooled[0, 0] = np.nan
    with pytest.raises(ValueError):
        trunk_forward(pooled, params, cfg)


def test_bottleneck_and_head_shapes():
    cfg, params, pooled = _setup(B=4)
    z, _ = trunk_forward(pooled, params, cfg)
    assert z.shape == (4, BOTTLENECK_DIM)
    preds = heads_forward(z, params)
    assert preds.shape == (4, N_HEADS)


def test_heads_are_independent_given_shared_trunk():
    # changing head t's weights moves only column t of the predictions
    cfg, params, pooled = _setup(seed=4)
    z, _ = trunk_forward(pooled, params, cfg)
    base = heads_forward(z, params)
    t = 7
    params2 = {k: v.copy() for k, v in params.items()}
    params2["head_w"][t] += 1.0
    params2["head_b"][t] -= 0.5
    moved = heads_forward(z, params2)
    diff = np.abs(moved - base)
    assert np.all(diff[:, t] > 0)
    other = np.delete(diff, t, axis=1)
    assert np.all(other == 0)


def test_head_gradient_isolation():
    # gradient w.r.t. head t's weights is zero when dpred[:, t] is zero
    cfg, params, pooled = _setup(seed=5)
    z, _ = trunk_forward(pooled, params, cfg)
    dpred = np.zeros((pooled.shape[0], N_HEADS))
    dpred[:, 3] = 1.0
    _, grads = heads_backward(dpred, z, params)
    assert np.all(grads["head_w"][3] != 0)
    mask = np.ones(N_HEADS, dtype=bool)
    mask[3] = False
    assert np.all(grads["head_w"][mask] == 0)
    assert np.all(grads["head_b"][mask] == 0)


def test_trunk_backward_finite_difference():
    cfg = TrainConfig(dim=6, rank=2, hidden_dim=8, n_blocks=2)
    rng = np.random.default_rng(6)
    params = init_trunk_params(cfg, rng)
    pooled = rng.normal(size=(3, 6))
    G = rng.normal(size=(3, BOTTLENECK_DIM))

    def f(p, x):
        z, _ = trunk_forward(x, p, cfg)
        return float((z * G).sum())

    _, cache = trunk_forward(pooled, params, cfg)
    dpooled, grads = trunk_backward(G, cache, params, cfg)
    eps = 1e-6
    check = [
        ("proj_w", (0, 0)),
        ("proj_w", (7, 5)),
        ("block0_lin_w", (2, 3)),
        ("block1_ln_g", (4,)),
        ("block1_ln_b", (0,)),
        ("bottleneck_w", (10, 7)),
        ("proj_b", (1,)),
        ("block0_lin_b", (6,)),
        ("bottleneck_b", (40,)),
    ]
    for name, idx in check:
        p = {k: v.copy() for k, v in params.items()}
        p[name][idx] += eps
        up = f(p, pooled)
        p[name][idx] -= 2 * eps
        down = f(p, pooled)
        assert grads[name][idx] == pytest.approx(
            (up - down) / (2 * eps), rel=1e-4, abs=1e-7
        ), name
    for idx in [(0, 0), (2, 5)]:
        xp = pooled.copy()
        xp[idx] += eps
        up = f(params, xp)
        xp[idx] -= 2 * eps
        down = f(params, xp)
        assert dpooled[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-4, abs=1e-7)


def _trunk_backward_reference(dz, cache, params, cfg):
    """``trunk_backward`` recomputing each block's GELU derivative from its
    layer-norm output alone, erf term included."""
    grads = {}
    grads["bottleneck_w"] = dz.T @ cache[f"x{cfg.n_blocks}"]
    grads["bottleneck_b"] = dz.sum(axis=0)
    dx = dz @ params["bottleneck_w"]
    for i in reversed(range(cfg.n_blocks)):
        ln_out, ln_cache, act = cache[f"block{i}"][:3]
        grads[f"block{i}_lin_w"] = dx.T @ act
        grads[f"block{i}_lin_b"] = dx.sum(axis=0)
        dln = (dx @ params[f"block{i}_lin_w"]) * gelu_grad(ln_out, gelu_cdf(ln_out))
        dx_branch, grads[f"block{i}_ln_g"], grads[f"block{i}_ln_b"] = layer_norm_backward(
            dln, ln_cache, params[f"block{i}_ln_g"]
        )
        dx = dx + dx_branch
    grads["proj_w"] = dx.T @ cache["pooled"]
    grads["proj_b"] = dx.sum(axis=0)
    return dx @ params["proj_w"], grads


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_trunk_backward_with_cached_cdf_equals_recomputed_reference_bitwise(n_blocks):
    cfg = TrainConfig(dim=16, hidden_dim=32, n_blocks=n_blocks)
    cfg, params, pooled = _setup(seed=9, B=11, cfg=cfg)
    dz = np.random.default_rng(10).normal(size=(11, BOTTLENECK_DIM))
    _, cache = trunk_forward(pooled, params, cfg)
    dpooled, grads = trunk_backward(dz, cache, params, cfg)
    ref_dpooled, ref_grads = _trunk_backward_reference(dz, cache, params, cfg)
    assert np.array_equal(dpooled, ref_dpooled)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_trunk_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_blocks=0)
