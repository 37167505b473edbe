"""Full network: hashed-embedding encoder -> pooling -> LoRA projection of
the pooled vector -> residual trunk -> 22 heads, with the KDE-weighted
homoscedastic objective and exact analytic gradients for every trainable
tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import objective as obj
from . import regressor as reg
from .config import TrainConfig
from .registry import N_HEADS


@dataclass
class Batch:
    """The padded bucket ids of one mini-batch's prompts."""

    ids: np.ndarray  # (B, T) int64 bucket ids, 0 at padding
    token_mask: np.ndarray  # (B, T) bool


class _PieceIds(dict):
    """The bucket-id bytes of each whitespace piece, computed on first use."""

    def __init__(self, vocab_size: int):
        super().__init__()
        self.vocab_size = vocab_size

    def __missing__(self, piece: str) -> bytes:
        ids = self[piece] = enc.bucket_ids(enc.tokenize(piece), self.vocab_size).tobytes()
        return ids


def encode(texts: list[str], vocab_size: int) -> list[np.ndarray]:
    """Bucket ids of each text's tokens, ``bucket_ids(tokenize(t))`` for each t.

    No token holds a whitespace character, so a text's tokens are those of
    its whitespace pieces in order.  Prompts repeat few pieces: a table
    kept for the call tokenizes and hashes each distinct piece once and
    holds its ids as int64 bytes.  Each text's bytes are joined onto one
    buffer, and the returned arrays are disjoint, writable views of it.
    """
    piece_ids = _PieceIds(vocab_size).__getitem__
    buf = bytearray()
    ends = []
    for text in texts:
        buf += b"".join(map(piece_ids, text.split()))
        ends.append(len(buf) // 8)
    flat = np.frombuffer(buf, dtype=np.int64)
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def make_batch(id_lists: list[np.ndarray]) -> Batch:
    """Pad encoded prompts (see ``encode``) into one mini-batch."""
    if not id_lists:
        raise ValueError("make_batch needs at least one prompt")
    lengths = np.fromiter(map(len, id_lists), dtype=np.int64, count=len(id_lists))
    mask = np.arange(max(1, lengths.max())) < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    # a boolean mask fills in row-major order, the order of the concatenation
    ids[mask] = np.concatenate(id_lists)
    return Batch(ids, mask)


class PropertyModel:
    """Parameter container with deterministic forward/backward passes."""

    def __init__(
        self,
        cfg: TrainConfig,
        params: dict[str, np.ndarray] | None = None,
        embed_rows: np.ndarray | None = None,
    ):
        """A seeded random initialization with no materialized embedding
        rows, or the given tensors as they are: ``params["embed"]`` holds the
        values of the sorted bucket ids ``embed_rows``.  ``cfg.seed`` also
        derives every row not materialized (``encoder.init_rows``)."""
        self.cfg = cfg
        if params is None:
            rng = np.random.default_rng(cfg.seed)
            params = {"embed": np.zeros((0, cfg.dim))}
            params.update(enc.init_encoder_params(cfg, rng))
            params.update(reg.init_trunk_params(cfg, rng))
            params["rho"] = np.zeros(N_HEADS)
            embed_rows = np.zeros(0, dtype=np.int64)
        else:
            _check_embed_rows(embed_rows, params["embed"], cfg)
        self.params: dict[str, np.ndarray] = params
        self.embed_rows: np.ndarray = embed_rows

    def materialize(self, ids: np.ndarray) -> None:
        """Store the rows of the bucket ids ``ids`` that are not stored yet,
        at their initial values."""
        rows = np.union1d(self.embed_rows, ids)
        self.embed_rows, self.params["embed"] = rows, self.lookup(rows)[1]

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the 1-d bucket ids ``ids`` in the stored embedding
        rows (-1 where a row is not stored) and their values (len(ids), dim):
        stored rows as they are, the others derived (``encoder.init_rows``)
        and not stored."""
        stored = self.embed_rows
        rows = np.searchsorted(stored, ids)
        found = rows < stored.size
        found[found] = stored[rows[found]] == ids[found]
        if found.all():
            return rows, enc.embed(rows, self.params["embed"])
        values = np.empty((ids.size, self.cfg.dim))
        values[found] = enc.embed(rows[found], self.params["embed"])
        values[~found] = enc.init_rows(self.cfg.seed, ids[~found], self.cfg.dim)
        rows[~found] = -1
        return rows, values

    FROZEN_ALWAYS = ("w0",)

    def trainable_names(self) -> list[str]:
        names = []
        for name in self.params:
            if name in self.FROZEN_ALWAYS:
                continue
            if name == "embed" and self.cfg.freeze_embeddings:
                continue
            if name in ("lora_a", "lora_b", "attn_q") and self.cfg.freeze_encoder:
                continue
            if (
                self.cfg.freeze_trunk
                and name not in ("embed", "lora_a", "lora_b", "attn_q", "head_w", "head_b", "rho")
            ):
                continue
            names.append(name)
        return names

    # ---- forward -----------------------------------------------------

    def pool_project(self, batch: Batch):
        """The trunk's input for ``batch``: returns (rows, pooled, pool
        cache, projected), the table positions of the batch's distinct
        rows (``lookup``), their pooled vectors, what ``pool_backward``
        reads and the pooled vectors' LoRA projection."""
        ids, inverse = np.unique(batch.ids[batch.token_mask], return_inverse=True)
        rows, E = self.lookup(ids)
        # the projection is linear: projecting the pooled rows equals pooling
        # the projected rows, up to rounding
        pooled, pool_cache = enc.pool(E, inverse, batch.token_mask, self.params, self.cfg)
        return rows, pooled, pool_cache, enc.lora_project(pooled, self.params, self.cfg)

    def forward(self, batch: Batch):
        """Predictions in normalized space plus the cache for backward."""
        rows, pooled, pool_cache, projected = self.pool_project(batch)
        z, trunk_cache = reg.trunk_forward(projected, self.params, self.cfg)
        preds = reg.heads_forward(z, self.params)
        cache = {
            "rows": rows,
            "pooled": pooled,
            "pool": pool_cache,
            "trunk": trunk_cache,
            "z": z,
        }
        return preds, cache

    def loss(self, preds: np.ndarray, targets, label_mask, weights):
        """The uncertainty-weighted total and the per-head terms
        (``objective.task_losses``) that ``backward`` takes, for the
        batch's (B, 22) label slices of ``trainer.fit_label_stats``.

        Heads absent from the batch contribute neither the scaled loss nor
        the log-sigma term.
        """
        terms = obj.task_losses(preds, targets, label_mask, weights)
        task_losses, _, _, present = terms
        rho = self.params["rho"]
        return obj.total_loss(task_losses[present], rho[present]), terms

    def backward(self, cache: dict, terms):
        """Exact gradients of the total objective for every tensor, from the
        forward ``cache`` and the ``loss`` terms; the embedding's is a
        ``RowGrad`` over the batch's rows, which must all be stored."""
        cfg = self.cfg
        if np.any(cache["rows"] < 0):  # Adam would take a -1 for the last stored row
            raise ValueError("the batch reads embedding rows the model does not store")
        task_losses, werr, counts, present = terms
        rho = self.params["rho"]
        dpred = obj.total_loss_grad_preds(werr, counts, rho)
        grads: dict[str, np.ndarray] = {}
        grads["rho"] = np.where(present, obj.total_loss_grad_rho(task_losses, rho), 0.0)

        dz, head_grads = reg.heads_backward(dpred, cache["z"], self.params)
        grads.update(head_grads)
        dprojected, trunk_grads = reg.trunk_backward(dz, cache["trunk"], self.params, cfg)
        grads.update(trunk_grads)
        dpooled, dA, dB = enc.lora_project_backward(dprojected, cache["pooled"], self.params, cfg)
        grads["embed"], dquery = enc.pool_backward(dpooled, cache["rows"], cache["pool"], cfg)
        q = self.params["attn_q"]
        if cfg.pooling_mode == "attention":
            # the scores use W_eff^T q: its gradient dquery reaches q as
            # W_eff dquery, and A and B as one more projected row
            _, dA_q, dB_q = enc.lora_project_backward(q, dquery, self.params, cfg)
            dA, dB = dA + dA_q, dB + dB_q
            grads["attn_q"] = enc.lora_project(dquery, self.params, cfg)
        else:
            grads["attn_q"] = np.zeros_like(q)
        grads["lora_a"] = dA
        grads["lora_b"] = dB
        return grads


def _check_embed_rows(rows, values: np.ndarray, cfg: TrainConfig) -> None:
    """``rows`` must be sorted unique int64 bucket ids, one per row of ``values``."""
    if not isinstance(rows, np.ndarray) or rows.ndim != 1 or rows.dtype != np.int64:
        raise ValueError("embed_rows must be a 1-d int64 array")
    if values.shape != (rows.size, cfg.dim):
        raise ValueError(
            f"embedding values {values.shape} do not match {rows.size} rows of dim={cfg.dim}"
        )
    if np.any(rows[1:] <= rows[:-1]):
        raise ValueError("embed_rows are not sorted and unique")
    if rows.size and not (rows[0] >= 0 and rows[-1] < cfg.vocab_size):
        raise ValueError(f"embed_rows outside [0, vocab_size={cfg.vocab_size})")
