"""Text encoder: hashed-token embeddings, mean/attention pooling, and a
frozen base projection with a trainable low-rank adapter.

This is a compact stand-in exercising the pooling and adapter interfaces;
there are no transformer layers or subword vocabularies.  The token hash
is a fixed FNV-1a 64-bit so bucket assignment is stable across platforms.

The embedding table is logical: row r's initial value is a pure function
of (seed, r) (``init_rows``), so a model stores only the rows it has
materialized and derives any other row on demand (``model.PropertyModel``).

The projection is linear, so it commutes with pooling: the encoder pools
the raw embedding rows and projects the pooled (B, d) vectors.  Attention
scores of the projected rows, q . (W_eff h), are those of the raw rows
under the projected query W_eff^T q.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import TrainConfig

HASH_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB
# half-width of the uniform row init: std 0.1
_INIT_HALF_WIDTH = 0.1 * np.sqrt(3.0)

_TOKEN_RE = re.compile(
    r"(\[(?:Sample|Synthesis|MASKED)\])"
    r"|(\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"|([^\W\d_]+)"
)


@lru_cache(maxsize=1 << 15)  # token vocabularies repeat heavily
def fnv1a64(text: str) -> int:
    """Stable 64-bit FNV-1a hash over UTF-8 bytes, memoized per token."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def tokenize(text: str) -> list[str]:
    """Lowercased word/number tokens; [MASKED] and block headers stay atomic."""
    tokens = []
    for atomic, number, word in _TOKEN_RE.findall(text):
        if atomic:
            tokens.append(atomic)
        elif number:
            tokens.append(number)
        else:
            tokens.append(word.lower())
    return tokens


def bucket_ids(tokens: list[str], vocab_size: int) -> np.ndarray:
    return np.array([fnv1a64(t) % vocab_size for t in tokens], dtype=np.int64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 (Steele et al., OOPSLA 2014) of each uint64 counter in ``x``."""
    z = x + np.uint64(_SPLITMIX_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SPLITMIX_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SPLITMIX_MUL2)
    return z ^ (z >> np.uint64(31))


def init_rows(seed: int, rows: np.ndarray, dim: int) -> np.ndarray:
    """Initial values (len(rows), dim) of the embedding rows ``rows``.

    Entry (r, j) is uniform with std 0.1, drawn from the counter
    splitmix64(splitmix64(seed) + r * dim + j) (uint64 wraparound): the top
    53 bits give u in [0, 1) exactly and the value is (2u - 1) * 0.1 * sqrt(3).
    Only integer ops, exact conversions and IEEE + * sqrt are used, so the
    bytes do not depend on the platform's libm or on numpy's normal sampler.
    """
    base = splitmix64(np.array([seed & _MASK64], dtype=np.uint64))[0]
    counters = (
        base
        + np.asarray(rows, dtype=np.int64).astype(np.uint64)[:, None] * np.uint64(dim)
        + np.arange(dim, dtype=np.uint64)
    )
    u = (splitmix64(counters) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (2.0 * u - 1.0) * _INIT_HALF_WIDTH


def init_encoder_params(cfg: TrainConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Initialize the dense encoder tensors (the embedding rows come from
    ``init_rows``).  lora_b starts at zero so the adapter delta is exactly
    zero at initialization; w0 is frozen."""
    d, r = cfg.dim, cfg.rank
    return {
        "w0": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)),
        "lora_a": rng.normal(0.0, 0.02, size=(r, d)),
        "lora_b": np.zeros((d, r)),
        "attn_q": np.zeros(d),
    }


class RowGrad(NamedTuple):
    """Gradient of a table that is zero outside a few rows."""

    rows: np.ndarray  # (k,) sorted unique row ids
    values: np.ndarray  # (k, dim) summed gradient of each row


def embed(ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Look up embedding rows.  An empty id list yields one all-zero row; an
    empty table, which only padding can index, yields all-zero rows."""
    if ids.size == 0:
        return np.zeros((1, table.shape[1]))
    if table.shape[0] == 0:
        return np.zeros((ids.size, table.shape[1]))
    return table[ids]


def lora_project(X: np.ndarray, params: dict, cfg: TrainConfig) -> np.ndarray:
    """x -> W0 x + (alpha/r) B (A x), applied row-wise."""
    scale = cfg.alpha / cfg.rank
    return X @ params["w0"].T + scale * (X @ params["lora_a"].T) @ params["lora_b"].T


def lora_transpose(dY: np.ndarray, params: dict, cfg: TrainConfig) -> np.ndarray:
    """y -> W_eff^T y with W_eff = W0 + (alpha/r) B A, applied row-wise."""
    scale = cfg.alpha / cfg.rank
    return dY @ params["w0"] + scale * (dY @ params["lora_b"]) @ params["lora_a"]


def lora_project_backward(
    dY: np.ndarray, X: np.ndarray, params: dict, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dX, dA, dB) of the low-rank projection; w0 is frozen."""
    scale = cfg.alpha / cfg.rank
    A, B = params["lora_a"], params["lora_b"]
    d = X.shape[-1]
    X_flat = X.reshape(-1, d)
    dY_flat = dY.reshape(-1, d)
    dB = scale * dY_flat.T @ (X_flat @ A.T)
    dA = scale * (dY_flat @ B).T @ X_flat
    return lora_transpose(dY, params, cfg), dA, dB


def pool(
    H: np.ndarray, mask: np.ndarray, params: dict, cfg: TrainConfig
) -> tuple[np.ndarray, dict]:
    """Pool (B, T, d) embedding rows into (B, d) vectors over unmasked positions.

    Mean mode averages unmasked rows.  Attention mode softmaxes, over
    unmasked rows, the scores the projected rows would get,
    q . (W_eff h_t) = (W_eff^T q) . h_t.  Rows with no unmasked positions
    pool to zero.
    """
    mask = mask.astype(bool)
    counts = mask.sum(axis=-1)  # (B,)
    safe = np.maximum(counts, 1)
    cache = {"mask": mask}
    if cfg.pooling_mode == "mean":
        weights = mask / safe[:, None]
    else:
        query = lora_transpose(params["attn_q"], params, cfg)
        scores = H @ query  # (B, T)
        scores = np.where(mask, scores, -np.inf)
        shifted = scores - np.where(counts > 0, scores.max(axis=-1, initial=-np.inf), 0.0)[:, None]
        expv = np.where(mask, np.exp(shifted), 0.0)
        denom = expv.sum(axis=-1)
        weights = expv / np.where(denom > 0, denom, 1.0)[:, None]
        cache["query"] = query
    pooled = np.einsum("bt,btd->bd", weights, H)
    pooled = np.where((counts > 0)[:, None], pooled, 0.0)
    cache["weights"] = weights
    return pooled, cache


def pool_backward(
    dpooled: np.ndarray, H: np.ndarray, ids: np.ndarray, cache: dict, cfg: TrainConfig
) -> tuple[RowGrad, np.ndarray]:
    """Gradients of the pooling step: the embedding table's, as a ``RowGrad``
    over the unmasked entries of the (B, T) ``ids``, and the projected
    query's (zero in mean mode).

    Position (b, t) gets w_bt dpooled_b, plus ds_bt W_eff^T q from the
    attention scores.  Summed per table row r that is C @ dpooled with
    C[r, b] = sum_t w_bt [id_bt = r], so no (B, T, d) gradient is formed.
    """
    weights, mask = cache["weights"], cache["mask"]
    n = weights.shape[0]
    rows, inverse = np.unique(ids[mask], return_inverse=True)
    batch_row = np.nonzero(mask)[0]
    C = np.bincount(inverse * n + batch_row, weights=weights[mask], minlength=rows.size * n)
    values = C.reshape(rows.size, n) @ dpooled
    dquery = np.zeros(H.shape[-1])
    if cfg.pooling_mode == "attention":
        dw = np.einsum("bd,btd->bt", dpooled, H)  # dL/dweights
        inner = (dw * weights).sum(axis=-1, keepdims=True)
        ds = weights * (dw - inner)  # softmax backward, zero at masked slots
        dquery = np.einsum("bt,btd->d", ds, H)
        score_rows = np.bincount(inverse, weights=ds[mask], minlength=rows.size)
        values += score_rows[:, None] * cache["query"]
    return RowGrad(rows, values), dquery
