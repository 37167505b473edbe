"""Text encoder: hashed-token embeddings, mean/attention pooling, and a
frozen base projection with a trainable low-rank adapter.

This is a compact stand-in exercising the pooling and adapter interfaces;
there are no transformer layers or subword vocabularies.  The token hash
is a fixed FNV-1a 64-bit so bucket assignment is stable across platforms.

The embedding table is logical: row r's initial value is a pure function
of (seed, r) (``init_rows``), so a model stores only the rows it has
materialized and derives any other row on demand (``model.PropertyModel``).

A batch reads each of its k distinct rows E (k, d) once.  C (k, B) sums
the pooling weights of each row in each prompt, so the pooled vectors are
C^T E with no per-token (B, T, d) tensor.  The projection is linear, so
it commutes with pooling: the encoder pools the raw embedding rows and
projects the pooled (B, d) vectors.  Attention scores of the projected
rows, q . (W_eff h), are those of the raw rows under the projected query
W_eff^T q.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .config import TrainConfig

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB
# half-width of the uniform row init: std 0.1
_INIT_HALF_WIDTH = 0.1 * np.sqrt(3.0)

# the unsigned number branch is kept apart from records._NUM_RE on purpose: it
# fixes the token hashes, so a change to the extraction grammar moves no checkpoint byte
_TOKEN_RE = re.compile(
    r"(\[(?:Sample|Synthesis|MASKED)\])"
    r"|(\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"|([^\W\d_]+)"
)


def fnv1a64(text: str) -> int:
    """Stable 64-bit FNV-1a hash over UTF-8 bytes."""
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
    """Look up embedding rows."""
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
    E: np.ndarray, inverse: np.ndarray, mask: np.ndarray, params: dict, cfg: TrainConfig
) -> tuple[np.ndarray, dict]:
    """Pool a batch's tokens into (B, d) vectors over its unmasked positions.

    ``E`` (k, d) holds the batch's distinct embedding rows and ``inverse``
    the row of each unmasked position of the (B, T) ``mask``, in row-major
    order.  Mean mode averages unmasked rows.  Attention mode softmaxes,
    over unmasked rows, the scores the projected rows would get,
    q . (W_eff h_t) = (W_eff^T q) . h_t.  Rows with no unmasked positions
    pool to zero.
    """
    n = mask.shape[0]
    counts = mask.sum(axis=-1)  # (B,)
    cache = {"mask": mask, "inverse": inverse, "E": E}
    if cfg.pooling_mode == "mean":
        weights = mask / np.maximum(counts, 1)[:, None]
    else:
        query = lora_transpose(params["attn_q"], params, cfg)
        scores = np.full(mask.shape, -np.inf)
        scores[mask] = (E @ query)[inverse]
        shifted = scores - np.where(counts > 0, scores.max(axis=-1, initial=-np.inf), 0.0)[:, None]
        expv = np.where(mask, np.exp(shifted), 0.0)
        denom = expv.sum(axis=-1)
        weights = expv / np.where(denom > 0, denom, 1.0)[:, None]
        cache["query"] = query
    batch_row = np.nonzero(mask)[0]
    C = np.bincount(inverse * n + batch_row, weights=weights[mask], minlength=E.shape[0] * n)
    C = C.reshape(E.shape[0], n)  # C[r, b]: the weight of row r in pooled row b
    cache["weights"], cache["C"] = weights, C
    return C.T @ E, cache


def pool_backward(
    dpooled: np.ndarray, rows: np.ndarray, cache: dict, cfg: TrainConfig
) -> tuple[RowGrad, np.ndarray]:
    """Gradients of the pooling step: the embedding table's, as a ``RowGrad``
    over ``rows``, the table positions of the batch's distinct rows, and
    the projected query's (zero in mean mode).

    Position (b, t) gets w_bt dpooled_b, plus ds_bt W_eff^T q from the
    attention scores.  Summed per distinct row that is C @ dpooled, so no
    (B, T, d) gradient is formed.
    """
    E, C, inverse = cache["E"], cache["C"], cache["inverse"]
    values = C @ dpooled
    dquery = np.zeros(E.shape[-1])
    if cfg.pooling_mode == "attention":
        weights, mask = cache["weights"], cache["mask"]
        dw = np.zeros(mask.shape)  # dL/dweights
        dw[mask] = (dpooled @ E.T)[np.nonzero(mask)[0], inverse]
        inner = (dw * weights).sum(axis=-1, keepdims=True)
        ds = weights * (dw - inner)  # softmax backward, zero at masked slots
        score_rows = np.bincount(inverse, weights=ds[mask], minlength=E.shape[0])
        dquery = score_rows @ E
        values += score_rows[:, None] * cache["query"]
    return RowGrad(rows, values), dquery
