"""The model pools raw embedding rows and projects the pooled vectors.

By linearity that equals projecting every token and then pooling, with
attention scores taken on the projected tokens.  These tests hold the
forward predictions and every gradient to that token-wise order, written
out here with a dense ``np.add.at`` scatter of the embedding gradient.
"""

import numpy as np
import pytest

from polyreg import regressor as reg
from polyreg.config import TrainConfig
from polyreg.model import Batch, PropertyModel, make_batch
from polyreg.registry import N_HEADS

RTOL = 1e-10


def _embedding(model: PropertyModel, ids) -> np.ndarray:
    """Embedding rows (ids.shape + (dim,)) of the bucket ids ``ids``."""
    _, values = model.lookup(np.ravel(ids))
    return values.reshape(np.shape(ids) + (model.cfg.dim,))


def _token_wise_reference(model: PropertyModel, batch: Batch, labels):
    """Predictions and gradients with the projection applied to each token
    before pooling, for the batch's ``labels`` (targets, label mask,
    weights)."""
    p, cfg = model.params, model.cfg
    scale = cfg.alpha / cfg.rank
    A, B, w0, q = p["lora_a"], p["lora_b"], p["w0"], p["attn_q"]
    mask = batch.token_mask
    H = _embedding(model, batch.ids)  # (B, T, d), read by bucket id
    H2 = H @ w0.T + scale * (H @ A.T) @ B.T
    counts = mask.sum(axis=1)
    if cfg.pooling_mode == "mean":
        weights = mask / np.maximum(counts, 1)[:, None]
    else:
        scores = np.where(mask, H2 @ q, -np.inf)
        top = np.where(counts > 0, scores.max(axis=1), 0.0)
        expv = np.where(mask, np.exp(scores - top[:, None]), 0.0)
        weights = expv / np.maximum(expv.sum(axis=1), 1e-300)[:, None]
    pooled = np.einsum("bt,btd->bd", weights, H2)
    z, trunk_cache = reg.trunk_forward(pooled, p, cfg)
    preds = reg.heads_forward(z, p)

    targets, label_mask, label_weights = labels
    counts_h = label_mask.sum(axis=0)
    present = counts_h > 0
    err = np.where(label_mask, preds - targets, 0.0)
    task = np.where(present, (label_weights * err * err).sum(axis=0) / np.maximum(counts_h, 1), 0.0)
    dpred = label_weights * err * np.where(present, np.exp(-p["rho"]) / np.maximum(counts_h, 1), 0.0)
    grads = {"rho": np.where(present, -task * np.exp(-p["rho"]) / 2.0 + 0.5, 0.0)}
    dz, head_grads = reg.heads_backward(dpred, z, p)
    grads.update(head_grads)
    dpooled, trunk_grads = reg.trunk_backward(dz, trunk_cache, p, cfg)
    grads.update(trunk_grads)

    dH2 = weights[:, :, None] * dpooled[:, None, :]
    grads["attn_q"] = np.zeros_like(q)
    if cfg.pooling_mode == "attention":
        dw = np.einsum("bd,btd->bt", dpooled, H2)
        ds = weights * (dw - (dw * weights).sum(axis=1, keepdims=True))
        grads["attn_q"] = np.einsum("bt,btd->d", ds, H2)
        dH2 = dH2 + ds[:, :, None] * q
    d = H.shape[-1]
    Hf, dH2f = H.reshape(-1, d), dH2.reshape(-1, d)
    grads["lora_b"] = scale * dH2f.T @ (Hf @ A.T)
    grads["lora_a"] = scale * (dH2f @ B).T @ Hf
    dH = (dH2f @ w0 + scale * (dH2f @ B) @ A).reshape(H.shape)
    dembed = np.zeros((cfg.vocab_size, d))
    np.add.at(dembed, batch.ids[mask], dH[mask])
    grads["embed"] = dembed
    return preds, grads


def _case(pooling_mode: str, n_rows: int, seed: int):
    """A model, a batch and its labels (targets, label mask, weights)."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(
        vocab_size=24, dim=10, rank=3, alpha=5.0, hidden_dim=12, n_blocks=2,
        pooling_mode=pooling_mode, seed=seed,
    )
    model = PropertyModel(cfg)
    model.params["lora_b"] = rng.normal(0.0, 0.2, size=model.params["lora_b"].shape)
    model.params["attn_q"] = rng.normal(0.0, 0.5, size=cfg.dim)
    model.params["rho"] = rng.normal(0.0, 0.3, size=N_HEADS)
    # every row stored, so a bucket id is its own position in the table
    model.materialize(np.arange(cfg.vocab_size))
    T = 9
    # a 24-row table: ids repeat within and across rows
    ids = rng.integers(0, cfg.vocab_size, size=(n_rows, T))
    token_mask = rng.random((n_rows, T)) < 0.7
    token_mask[:, 0] = True
    if n_rows > 1:
        token_mask[1] = False  # a row whose tokens are all masked
    label_mask = rng.random((n_rows, N_HEADS)) < 0.4
    label_mask[:, 0] = True
    targets = np.where(label_mask, rng.normal(size=(n_rows, N_HEADS)), 0.0)
    weights = np.where(label_mask, rng.uniform(0.3, 2.0, size=(n_rows, N_HEADS)), 0.0)
    return model, Batch(ids, token_mask), (targets, label_mask, weights)


def _assert_close(got, ref, name):
    """Within RTOL of the reference tensor's largest entry."""
    err = float(np.max(np.abs(got - ref), initial=0.0))
    assert err <= RTOL * float(np.max(np.abs(ref), initial=0.0)), (name, err)


@pytest.mark.parametrize("pooling_mode", ["mean", "attention"])
@pytest.mark.parametrize("n_rows", [1, 6])
def test_pooled_projection_matches_token_wise_order(pooling_mode, n_rows):
    for seed in range(3):
        model, batch, labels = _case(pooling_mode, n_rows, seed)
        preds, cache = model.forward(batch)
        grads = model.backward(cache, model.loss(preds, *labels)[1])
        ref_preds, ref_grads = _token_wise_reference(model, batch, labels)
        _assert_close(preds, ref_preds, "preds")
        rows = grads["embed"].rows
        assert np.array_equal(rows, np.unique(batch.ids[batch.token_mask]))
        dembed = np.zeros((model.cfg.vocab_size, model.cfg.dim))
        dembed[rows] = grads["embed"].values
        grads["embed"] = dembed
        assert set(grads) >= set(model.trainable_names())
        for name in model.trainable_names():
            _assert_close(grads[name], ref_grads[name], name)
        if pooling_mode == "mean":
            assert np.all(grads["attn_q"] == 0)


def test_all_masked_row_pools_and_predicts_from_zero():
    model, batch, labels = _case("attention", 4, seed=5)
    preds, cache = model.forward(batch)
    assert np.all(cache["pooled"][1] == 0)
    empty = Batch(batch.ids[1:2], batch.token_mask[1:2])
    alone, alone_cache = model.forward(empty)
    assert np.allclose(alone[0], preds[1], rtol=1e-12, atol=1e-12)
    grads = model.backward(alone_cache, model.loss(alone, *(a[1:2] for a in labels))[1])
    assert grads["embed"].rows.size == 0 and grads["embed"].values.shape == (0, model.cfg.dim)
    assert np.all(grads["lora_a"] == 0) and np.all(grads["attn_q"] == 0)


def _arrays(node):
    """Every array in a nested cache of dicts, lists and tuples."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _arrays(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _arrays(value)


@pytest.mark.parametrize("pooling_mode", ["mean", "attention"])
def test_forward_cache_holds_no_per_token_rows(pooling_mode):
    model, _, _ = _case(pooling_mode, 1, seed=2)
    rng = np.random.default_rng(2)
    id_lists = [rng.integers(0, model.cfg.vocab_size, size=n) for n in (60, 3, 0, 45)]
    batch = make_batch(id_lists)
    _, cache = model.forward(batch)
    sizes = [a.size for a in _arrays(cache)]
    # the trunk's (B, 128) bottleneck is the largest array, well below B*T*d
    assert sizes and max(sizes) < batch.ids.size * model.cfg.dim


def _partly_stored(pooling_mode: str):
    """A model that stores every third row, each moved off its init, and a
    batch that also reads rows it does not store, with its labels."""
    model, batch, labels = _case(pooling_mode, 6, seed=3)
    stored = np.arange(0, model.cfg.vocab_size, 3)
    params = dict(model.params, embed=model.params["embed"][stored] + 0.5)
    partial = PropertyModel(model.cfg, params=params, embed_rows=stored)
    assert not np.isin(batch.ids[batch.token_mask], stored).all()
    return partial, batch, labels


@pytest.mark.parametrize("pooling_mode", ["mean", "attention"])
def test_forward_derives_unseen_rows_as_a_materialized_copy_would(pooling_mode):
    partial, batch, _ = _partly_stored(pooling_mode)
    stored, values = partial.embed_rows.copy(), partial.params["embed"].copy()
    copy = PropertyModel(partial.cfg, dict(partial.params), partial.embed_rows)
    copy.materialize(batch.ids[batch.token_mask])
    preds, _ = partial.forward(batch)
    assert np.array_equal(preds, copy.forward(batch)[0])
    assert np.array_equal(partial.embed_rows, stored)
    assert np.array_equal(partial.params["embed"], values)


def test_backward_rejects_a_batch_with_a_row_not_stored():
    partial, batch, labels = _partly_stored("attention")
    preds, cache = partial.forward(batch)
    with pytest.raises(ValueError, match="does not store"):
        partial.backward(cache, partial.loss(preds, *labels)[1])


def _padded_loop_reference(id_lists):
    """Ids and token mask padded one prompt at a time."""
    T = max(1, max(len(ids) for ids in id_lists))
    ids = np.zeros((len(id_lists), T), dtype=np.int64)
    mask = np.zeros((len(id_lists), T), dtype=bool)
    for i, row in enumerate(id_lists):
        ids[i, : len(row)] = row
        mask[i, : len(row)] = True
    return ids, mask


@pytest.mark.parametrize(
    "lengths", [[3, 0, 7, 1, 7, 0], [5], [0], [0, 0, 0], [1, 40, 2]]
)
def test_make_batch_pads_like_the_per_prompt_loop(lengths):
    rng = np.random.default_rng(len(lengths))
    id_lists = [rng.integers(0, 4096, size=n) for n in lengths]
    batch = make_batch(id_lists)
    ref_ids, ref_mask = _padded_loop_reference(id_lists)
    assert batch.ids.dtype == np.int64 and batch.token_mask.dtype == bool
    assert np.array_equal(batch.ids, ref_ids)
    assert np.array_equal(batch.token_mask, ref_mask)


def test_make_batch_rejects_an_empty_batch():
    with pytest.raises(ValueError):
        make_batch([])
