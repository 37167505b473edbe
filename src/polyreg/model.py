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
    """Tokenized prompts plus normalized labels for one mini-batch."""

    ids: np.ndarray  # (B, T) int64 positions in the stored embedding rows, 0 at padding
    token_mask: np.ndarray  # (B, T) bool
    targets: np.ndarray  # (B, 22) normalized labels, 0 where missing
    label_mask: np.ndarray  # (B, 22) bool
    weights: np.ndarray  # (B, 22) KDE weights, 0 where missing


def encode(texts: list[str], vocab_size: int) -> list[np.ndarray]:
    """Bucket ids of each text's tokens."""
    return [enc.bucket_ids(enc.tokenize(t), vocab_size) for t in texts]


def make_batch(
    id_lists: list[np.ndarray],
    targets: np.ndarray,
    label_mask: np.ndarray,
    weights: np.ndarray,
) -> Batch:
    """Pad encoded prompts (see ``encode``) into one mini-batch.  ``forward``
    takes their ids as positions in the stored embedding rows (see
    ``PropertyModel.index``)."""
    if not id_lists:
        raise ValueError("make_batch needs at least one prompt")
    lengths = np.fromiter(map(len, id_lists), dtype=np.int64, count=len(id_lists))
    mask = np.arange(max(1, lengths.max())) < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    # a boolean mask fills in row-major order, the order of the concatenation
    ids[mask] = np.concatenate(id_lists)
    targets = np.where(label_mask, targets, 0.0)
    weights = np.where(label_mask, weights, 0.0)
    return Batch(ids, mask, targets.astype(np.float64), label_mask.astype(bool), weights)


class PropertyModel:
    """Parameter container with deterministic forward/backward passes."""

    def __init__(
        self,
        cfg: TrainConfig,
        seed: int = 0,
        params: dict[str, np.ndarray] | None = None,
        embed_rows: np.ndarray | None = None,
    ):
        """A seeded random initialization with no materialized embedding
        rows, or the given tensors as they are: ``params["embed"]`` holds the
        values of the sorted bucket ids ``embed_rows``.  ``seed`` also
        derives every row not materialized (``encoder.init_rows``)."""
        self.cfg = cfg
        self.seed = seed
        if params is None:
            rng = np.random.default_rng(seed)
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
        new = np.setdiff1d(ids, self.embed_rows)
        if new.size == 0:
            return
        rows = np.union1d(self.embed_rows, new)
        values = np.empty((rows.size, self.cfg.dim))
        values[np.searchsorted(rows, self.embed_rows)] = self.params["embed"]
        values[np.searchsorted(rows, new)] = enc.init_rows(self.seed, new, self.cfg.dim)
        self.embed_rows, self.params["embed"] = rows, values

    def index(self, ids: np.ndarray) -> tuple["PropertyModel", np.ndarray]:
        """Positions of the bucket ids ``ids`` in the stored embedding rows,
        the ids a ``Batch`` holds, with the model to run them on: this one
        if it stores every row they use, else a copy sharing its tensors
        that also stores the missing rows at their initial values.  This
        model stores nothing new."""
        rows = self.embed_rows
        # searching each distinct id once is about twice as fast
        uniq, inverse = np.unique(ids, return_inverse=True)
        inverse = inverse.reshape(np.shape(ids))
        pos = np.searchsorted(rows, uniq)
        if rows.size and np.array_equal(rows[np.minimum(pos, rows.size - 1)], uniq):
            return self, pos[inverse]
        model = PropertyModel(self.cfg, self.seed, params=dict(self.params), embed_rows=rows)
        model.materialize(uniq)
        return model, np.searchsorted(model.embed_rows, uniq)[inverse]

    def embedding(self, ids: np.ndarray) -> np.ndarray:
        """Embedding rows (ids.shape + (dim,)) of the bucket ids ``ids``;
        rows not stored are derived and not stored."""
        model, pos = self.index(ids)
        return model.params["embed"][pos]

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

    def parameter_counts(self) -> tuple[int, int]:
        """Trainable and total parameters, counting the whole logical
        vocab_size x dim embedding table."""

        def size(name):
            return self.cfg.vocab_size * self.cfg.dim if name == "embed" else self.params[name].size

        trainable = sum(size(n) for n in self.trainable_names())
        total = sum(size(n) for n in self.params)
        return trainable, total

    # ---- forward -----------------------------------------------------

    def forward(self, batch: Batch):
        """Predictions in normalized space plus the cache for backward."""
        cfg = self.cfg
        H = enc.embed(batch.ids.reshape(-1), self.params["embed"]).reshape(
            batch.ids.shape + (cfg.dim,)
        )
        # the projection is linear: projecting the pooled rows equals pooling
        # the projected rows, up to rounding
        pooled, pool_cache = enc.pool(H, batch.token_mask, self.params, cfg)
        projected = enc.lora_project(pooled, self.params, cfg)
        z, trunk_cache = reg.trunk_forward(projected, self.params, cfg)
        preds = reg.heads_forward(z, self.params)
        cache = {
            "H": H,
            "pooled": pooled,
            "pool": pool_cache,
            "trunk": trunk_cache,
            "z": z,
        }
        return preds, cache

    def loss(self, batch: Batch, preds: np.ndarray):
        """The uncertainty-weighted total and the per-head terms
        (``objective.task_losses``) that ``backward`` takes.

        Heads absent from the batch contribute neither the scaled loss nor
        the log-sigma term.
        """
        terms = obj.task_losses(preds, batch.targets, batch.label_mask, batch.weights)
        task_losses, _, _, present = terms
        rho = self.params["rho"]
        return obj.total_loss(task_losses[present], rho[present]), terms

    def backward(self, batch: Batch, cache: dict, terms):
        """Exact gradients of the total objective for every tensor, from the
        forward ``cache`` and the ``loss`` terms; the embedding's is a
        ``RowGrad`` over the batch's unmasked tokens."""
        cfg = self.cfg
        task_losses, err, counts, present = terms
        rho = self.params["rho"]
        dpred = obj.total_loss_grad_preds(err, batch.weights, counts, rho)
        grads: dict[str, np.ndarray] = {}
        grads["rho"] = np.where(present, obj.total_loss_grad_rho(task_losses, rho), 0.0)

        dz, head_grads = reg.heads_backward(dpred, cache["z"], self.params)
        grads.update(head_grads)
        dprojected, trunk_grads = reg.trunk_backward(dz, cache["trunk"], self.params, cfg)
        grads.update(trunk_grads)
        dpooled, dA, dB = enc.lora_project_backward(dprojected, cache["pooled"], self.params, cfg)
        grads["embed"], dquery = enc.pool_backward(dpooled, cache["H"], batch.ids, cache["pool"], cfg)
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
