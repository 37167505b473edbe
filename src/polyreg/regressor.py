"""Shared residual MLP trunk with a 128-dim bottleneck and 22 linear heads.

Blocks are pre-norm: x + Lin(GELU(LayerNorm(x))).  GELU uses the exact
Gaussian-CDF form; the tanh approximation would break the dual
implementation oracle at tight tolerances.  The forward pass keeps each
block's erf term ``1 + erf(x/√2)`` in its cache, and the backward pass builds
the GELU derivative from it, so a training step calls erf once per block.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .config import TrainConfig
from .registry import N_HEADS

BOTTLENECK_DIM = 128
LN_EPS = 1e-5

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu_cdf(x: np.ndarray) -> np.ndarray:
    """``1 + erf(x/√2)``, twice the Gaussian CDF: the term ``gelu`` and
    ``gelu_grad`` share."""
    return 1.0 + erf(x * _INV_SQRT2)


def gelu(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Exact GELU of ``x`` given ``cdf = gelu_cdf(x)``."""
    return 0.5 * x * cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Derivative of ``gelu`` at ``x`` given ``cdf = gelu_cdf(x)``."""
    phi = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return 0.5 * cdf + x * phi


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    # the sum and divide np.var does on the same centred values, bit for bit
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def layer_norm_backward(dy: np.ndarray, cache, gain: np.ndarray):
    xhat, inv = cache
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


def init_trunk_params(cfg: TrainConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    d, h = cfg.dim, cfg.hidden_dim
    params = {
        "proj_w": rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d)),
        "proj_b": np.zeros(h),
    }
    for i in range(cfg.n_blocks):
        params[f"block{i}_ln_g"] = np.ones(h)
        params[f"block{i}_ln_b"] = np.zeros(h)
        params[f"block{i}_lin_w"] = rng.normal(0.0, 0.5 / np.sqrt(h), size=(h, h))
        params[f"block{i}_lin_b"] = np.zeros(h)
    params["bottleneck_w"] = rng.normal(0.0, 1.0 / np.sqrt(h), size=(BOTTLENECK_DIM, h))
    params["bottleneck_b"] = np.zeros(BOTTLENECK_DIM)
    params["head_w"] = rng.normal(0.0, 1.0 / np.sqrt(BOTTLENECK_DIM), size=(N_HEADS, BOTTLENECK_DIM))
    params["head_b"] = np.zeros(N_HEADS)
    return params


def trunk_forward(pooled: np.ndarray, params: dict, cfg: TrainConfig):
    """Input projection, residual blocks, bottleneck.  Returns (z, cache)."""
    if not np.all(np.isfinite(pooled)):
        raise ValueError("non-finite trunk input")
    cache = {"pooled": pooled}
    x = pooled @ params["proj_w"].T + params["proj_b"]
    cache["x0"] = x
    for i in range(cfg.n_blocks):
        ln_out, ln_cache = layer_norm(x, params[f"block{i}_ln_g"], params[f"block{i}_ln_b"])
        cdf = gelu_cdf(ln_out)
        act = gelu(ln_out, cdf)
        x = x + act @ params[f"block{i}_lin_w"].T + params[f"block{i}_lin_b"]
        cache[f"block{i}"] = (ln_out, ln_cache, act, cdf)
        cache[f"x{i+1}"] = x
    z = x @ params["bottleneck_w"].T + params["bottleneck_b"]
    cache["z"] = z
    return z, cache


def heads_forward(z: np.ndarray, params: dict) -> np.ndarray:
    """22 independent linear heads in normalized target space."""
    return z @ params["head_w"].T + params["head_b"]


def heads_backward(dpred: np.ndarray, z: np.ndarray, params: dict):
    """Gradients of the heads from the (B, 22) ``dpred``; returns (dz, grads)."""
    grads = {"head_w": dpred.T @ z, "head_b": dpred.sum(axis=0)}
    dz = dpred @ params["head_w"]
    return dz, grads


def trunk_backward(dz: np.ndarray, cache: dict, params: dict, cfg: TrainConfig):
    """Gradients of the trunk; returns (dpooled, grads dict)."""
    grads: dict[str, np.ndarray] = {}
    x_last = cache[f"x{cfg.n_blocks}"]
    grads["bottleneck_w"] = dz.T @ x_last
    grads["bottleneck_b"] = dz.sum(axis=0)
    dx = dz @ params["bottleneck_w"]
    for i in reversed(range(cfg.n_blocks)):
        ln_out, ln_cache, act, cdf = cache[f"block{i}"]
        grads[f"block{i}_lin_w"] = dx.T @ act
        grads[f"block{i}_lin_b"] = dx.sum(axis=0)
        dact = dx @ params[f"block{i}_lin_w"]
        dln = dact * gelu_grad(ln_out, cdf)
        dx_branch, dg, db = layer_norm_backward(dln, ln_cache, params[f"block{i}_ln_g"])
        grads[f"block{i}_ln_g"] = dg
        grads[f"block{i}_ln_b"] = db
        dx = dx + dx_branch
    grads["proj_w"] = dx.T @ cache["pooled"]
    grads["proj_b"] = dx.sum(axis=0)
    dpooled = dx @ params["proj_w"]
    return dpooled, grads
