import math

import numpy as np
import pytest

from polyreg.config import TrainConfig
from polyreg.encoder import (
    bucket_ids,
    embed,
    fnv1a64,
    init_encoder_params,
    init_rows,
    lora_project,
    lora_project_backward,
    pool,
    pool_backward,
    tokenize,
)
from polyreg.model import PropertyModel


# ---- tokenizer and hashing ------------------------------------------------


def test_tokenize_examples():
    tokens = tokenize("[Sample]\nPLA Film, Tg [MASKED] °C at 2.5e3 Pa")
    assert tokens[:4] == ["[Sample]", "pla", "film", "tg"]
    assert "[MASKED]" in tokens
    assert "2.5e3" in tokens


def test_tokenize_lowercases_words_keeps_numbers():
    assert tokenize("Cured 150 Minutes") == ["cured", "150", "minutes"]


def test_fnv1a64_known_vectors():
    # published FNV-1a reference values
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_fnv1a64_memo_equals_byte_loop():
    tokens = ["", "a", "polyalphene", "[MASKED]", "2.5e3", "°c", "μm", "naïve", "高分子", "🙂"]
    fnv1a64.cache_clear()
    for token in tokens * 2:  # the second pass is served from the memo
        assert fnv1a64(token) == fnv1a64.__wrapped__(token), token
    info = fnv1a64.cache_info()
    assert (info.hits, info.misses) == (len(tokens), len(tokens))
    assert info.maxsize is not None  # bounded


def test_bucket_ids_stable_and_in_range():
    ids = bucket_ids(["alpha", "beta", "alpha"], 1024)
    assert ids[0] == ids[2]
    assert np.all((0 <= ids) & (ids < 1024))
    assert np.array_equal(ids, bucket_ids(["alpha", "beta", "alpha"], 1024))


def test_hash_collision_rate_matches_birthday_bound():
    # k distinct tokens into V buckets: P(any collision) ~ 1 - exp(-k(k-1)/2V)
    V = 2**16
    k = 10_000
    tokens = [f"tok{i}" for i in range(k)]
    collided = len(set(bucket_ids(tokens, V).tolist())) < k
    expected = 1.0 - math.exp(-k * (k - 1) / (2 * V))
    assert abs(float(collided) - expected) <= 0.2


def test_hash_collision_rate_fine_grained():
    # 200 trials of 300 random tokens: collision prob ~ 0.495.  Random
    # strings rather than sequential suffixes; FNV spreads structured
    # suffixes more evenly than a uniform hash would.
    V = 2**16
    k = 300
    hits = 0
    trials = 200
    rng = np.random.default_rng(42)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789"))
    for _ in range(trials):
        chars = rng.choice(letters, size=(k, 12))
        tokens = ["".join(row) for row in chars]
        if len(set(bucket_ids(tokens, V).tolist())) < len(set(tokens)):
            hits += 1
    expected = 1.0 - math.exp(-k * (k - 1) / (2 * V))
    assert abs(hits / trials - expected) <= 0.15


# ---- embedding lookup -----------------------------------------------------


def test_embed_rows_and_empty():
    table = np.arange(12.0).reshape(4, 3)
    out = embed(np.array([2, 0]), table)
    assert np.array_equal(out, table[[2, 0]])
    padding_only = embed(np.array([0, 0]), table[:0])
    assert padding_only.shape == (2, 3) and np.all(padding_only == 0)


# ---- seeded row init ------------------------------------------------------

_M64 = (1 << 64) - 1


def _splitmix64_ref(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _init_ref(seed: int, r: int, j: int, dim: int) -> float:
    x = _splitmix64_ref((_splitmix64_ref(seed) + r * dim + j) & _M64)
    u = (x >> 11) * 2.0**-53
    return (2.0 * u - 1.0) * (0.1 * math.sqrt(3.0))


def test_splitmix64_reference_known_answers():
    # the first outputs of a SplitMix64 generator started at state 0
    assert _splitmix64_ref(0) == 0xE220A8397B1DCDAF
    assert _splitmix64_ref(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
@pytest.mark.parametrize("dim", [16, 64])
def test_init_rows_match_pure_python_splitmix64(seed, dim):
    rows = np.array([0, 1, 4095, 65535, 2**24 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3])
    got = init_rows(seed, rows, dim)
    assert got.shape == (rows.size, dim) and got.dtype == np.float64
    for i, r in enumerate(rows.tolist()):
        for j in (0, 1, dim // 2, dim - 1):
            assert got[i, j] == _init_ref(seed, r, j, dim), (r, j)


def test_init_rows_uniform_with_std_point_one():
    values = init_rows(0, np.arange(4096), 64)
    half = 0.1 * math.sqrt(3.0)
    assert values.min() >= -half and values.max() < half
    assert abs(values.std() - 0.1) < 1e-3 and abs(values.mean()) < 1e-3
    # a row depends only on (seed, r): not on which other rows are asked for
    assert np.array_equal(init_rows(0, np.array([77, 3]), 64), values[[77, 3]])
    assert not np.array_equal(init_rows(1, np.array([3]), 64), values[[3]])


def test_model_materializes_rows_at_init_and_derives_the_rest():
    model = PropertyModel(TrainConfig(vocab_size=1000, dim=8, rank=2), seed=4)
    assert model.embed_rows.size == 0 and model.params["embed"].shape == (0, 8)
    model.materialize(np.array([[9, 3], [9, 500]]))
    assert model.embed_rows.tolist() == [3, 9, 500]
    assert np.array_equal(model.params["embed"], init_rows(4, model.embed_rows, 8))
    model.params["embed"][1] = 1.0  # a trained row keeps its value
    model.materialize(np.array([1, 9, 999]))
    assert model.embed_rows.tolist() == [1, 3, 9, 500, 999]
    assert np.all(model.params["embed"][2] == 1.0)
    # stored rows only: the model itself, ids as positions
    same, positions = model.index(np.array([[9, 1], [999, 1]]))
    assert same is model and positions.tolist() == [[2, 0], [4, 0]]
    # a row not stored: a copy derives it, the model stores nothing
    view, pos = model.index(np.array([9, 42, 1]))
    assert view is not model and view.params["lora_a"] is model.params["lora_a"]
    assert np.all(view.params["embed"][pos[0]] == 1.0)
    assert np.array_equal(view.params["embed"][pos[1]], init_rows(4, np.array([42]), 8)[0])
    assert np.array_equal(view.params["embed"][pos[2]], model.params["embed"][0])
    looked_up = model.embedding(np.array([[9, 42], [1, 0]]))
    assert looked_up.shape == (2, 2, 8)
    assert np.array_equal(looked_up[0], view.params["embed"][pos[:2]])
    assert model.embed_rows.tolist() == [1, 3, 9, 500, 999]
    assert model.params["embed"].shape == (5, 8)


def test_encoder_init_deterministic():
    cfg = TrainConfig(vocab_size=256, dim=16, rank=4)
    a = init_encoder_params(cfg, np.random.default_rng(7))
    b = init_encoder_params(cfg, np.random.default_rng(7))
    for name in a:
        assert np.array_equal(a[name], b[name])


# ---- low-rank adapter -----------------------------------------------------


def test_lora_zero_b_is_exactly_frozen_projection():
    cfg = TrainConfig(vocab_size=64, dim=16, rank=4)
    params = init_encoder_params(cfg, np.random.default_rng(0))
    H = np.random.default_rng(1).normal(size=(3, 5, 16))
    out = lora_project(H, params, cfg)
    assert np.array_equal(out, H @ params["w0"].T)


def test_lora_matches_dense_rowwise_oracle():
    cfg = TrainConfig(vocab_size=64, dim=12, rank=3, alpha=6.0)
    rng = np.random.default_rng(2)
    params = init_encoder_params(cfg, rng)
    params["lora_b"] = rng.normal(size=params["lora_b"].shape)
    H = rng.normal(size=(4, 7, 12))
    out = lora_project(H, params, cfg)
    scale = cfg.alpha / cfg.rank
    dense = params["w0"] + scale * params["lora_b"] @ params["lora_a"]
    for b in range(4):
        for t in range(7):
            ref = dense @ H[b, t]
            assert np.allclose(out[b, t], ref, rtol=0, atol=1e-12)


def test_lora_subspace_projection_identity():
    # W0 = 0, A = first r rows of I, B = A^T, alpha = r: output keeps the
    # first r coordinates and zeroes the rest
    d, r = 8, 3
    cfg = TrainConfig(vocab_size=16, dim=d, rank=r, alpha=float(r))
    params = init_encoder_params(cfg, np.random.default_rng(0))
    params["w0"] = np.zeros((d, d))
    params["lora_a"] = np.eye(d)[:r]
    params["lora_b"] = np.eye(d)[:r].T
    x = np.arange(1.0, d + 1.0)[None, :]
    out = lora_project(x, params, cfg)
    expected = np.concatenate([x[0, :r], np.zeros(d - r)])
    assert np.allclose(out[0], expected, atol=1e-15)


def test_lora_backward_finite_difference():
    cfg = TrainConfig(vocab_size=32, dim=6, rank=2, alpha=4.0)
    rng = np.random.default_rng(3)
    params = init_encoder_params(cfg, rng)
    params["lora_b"] = rng.normal(size=params["lora_b"].shape)
    H = rng.normal(size=(2, 4, 6))
    G = rng.normal(size=(2, 4, 6))  # upstream gradient

    def f(p):
        return float((lora_project(H, p, cfg) * G).sum())

    dH, dA, dB = lora_project_backward(G, H, params, cfg)
    eps = 1e-6
    for name, grad in (("lora_a", dA), ("lora_b", dB)):
        numeric = np.zeros_like(params[name])
        for idx in np.ndindex(params[name].shape):
            p = {k: v.copy() for k, v in params.items()}
            p[name][idx] += eps
            up = f(p)
            p[name][idx] -= 2 * eps
            down = f(p)
            numeric[idx] = (up - down) / (2 * eps)
        assert np.allclose(grad, numeric, rtol=1e-5, atol=1e-7)
    # dH via a few random coordinates
    for idx in [(0, 1, 2), (1, 3, 5), (0, 0, 0)]:
        Hp = H.copy()
        Hp[idx] += eps
        up = float((lora_project(Hp, params, cfg) * G).sum())
        Hp[idx] -= 2 * eps
        down = float((lora_project(Hp, params, cfg) * G).sum())
        assert dH[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-5, abs=1e-7)


# ---- pooling --------------------------------------------------------------


def _params(cfg, seed=0):
    return init_encoder_params(cfg, np.random.default_rng(seed))


def test_mean_pool_fixed_point():
    cfg = TrainConfig(vocab_size=16, dim=4, rank=2, pooling_mode="mean")
    row = np.array([1.0, -2.0, 3.0, 0.5])
    H = np.tile(row, (1, 5, 1))
    mask = np.ones((1, 5), dtype=bool)
    pooled, _ = pool(H, mask, _params(cfg), cfg)
    assert np.allclose(pooled[0], row, atol=1e-15)


def test_attention_with_zero_query_equals_mean():
    rng = np.random.default_rng(4)
    H = rng.normal(size=(2, 6, 8))
    mask = np.ones((2, 6), dtype=bool)
    mask[1, 4:] = False
    cfg_a = TrainConfig(vocab_size=16, dim=8, rank=2, pooling_mode="attention")
    cfg_m = TrainConfig(vocab_size=16, dim=8, rank=2, pooling_mode="mean")
    params = _params(cfg_a)
    assert np.all(params["attn_q"] == 0)
    pa, _ = pool(H, mask, params, cfg_a)
    pm, _ = pool(H, mask, params, cfg_m)
    assert np.allclose(pa, pm, atol=1e-12)


def test_attention_softmax_known_weights():
    # scores (0, ln 3) -> weights (0.25, 0.75)
    cfg = TrainConfig(vocab_size=16, dim=2, rank=1, pooling_mode="attention")
    params = _params(cfg)
    params["w0"] = np.eye(2)  # with lora_b = 0 the projected query is q itself
    params["attn_q"] = np.array([1.0, 0.0])
    H = np.array([[[0.0, 5.0], [math.log(3.0), -1.0]]])
    mask = np.ones((1, 2), dtype=bool)
    pooled, cache = pool(H, mask, params, cfg)
    assert np.allclose(cache["weights"][0], [0.25, 0.75], atol=1e-12)
    assert np.allclose(pooled[0], 0.25 * H[0, 0] + 0.75 * H[0, 1], atol=1e-12)


def test_attention_pool_stays_in_convex_hull():
    rng = np.random.default_rng(5)
    cfg = TrainConfig(vocab_size=16, dim=6, rank=2, pooling_mode="attention")
    params = _params(cfg)
    params["attn_q"] = rng.normal(size=6)
    H = rng.normal(size=(3, 9, 6))
    mask = rng.random((3, 9)) < 0.7
    mask[:, 0] = True
    pooled, _ = pool(H, mask, params, cfg)
    for b in range(3):
        rows = H[b][mask[b]]
        assert np.all(pooled[b] <= rows.max(axis=0) + 1e-12)
        assert np.all(pooled[b] >= rows.min(axis=0) - 1e-12)


def test_pool_padding_invariance():
    rng = np.random.default_rng(6)
    for mode in ("mean", "attention"):
        cfg = TrainConfig(vocab_size=16, dim=5, rank=2, pooling_mode=mode)
        params = _params(cfg)
        params["attn_q"] = rng.normal(size=5)
        H = rng.normal(size=(1, 4, 5))
        mask = np.ones((1, 4), dtype=bool)
        pooled, _ = pool(H, mask, params, cfg)
        H_pad = np.concatenate([H, rng.normal(size=(1, 3, 5)) * 100], axis=1)
        mask_pad = np.concatenate([mask, np.zeros((1, 3), dtype=bool)], axis=1)
        pooled_pad, _ = pool(H_pad, mask_pad, params, cfg)
        assert np.allclose(pooled, pooled_pad, rtol=0, atol=1e-12)


def test_pool_all_masked_gives_zero_vector():
    for mode in ("mean", "attention"):
        cfg = TrainConfig(vocab_size=16, dim=3, rank=1, pooling_mode=mode)
        H = np.random.default_rng(7).normal(size=(2, 4, 3))
        mask = np.zeros((2, 4), dtype=bool)
        mask[0] = True
        pooled, _ = pool(H, mask, _params(cfg), cfg)
        assert np.all(pooled[1] == 0)
        assert np.all(np.isfinite(pooled))


def test_pool_backward_finite_difference():
    rng = np.random.default_rng(8)
    for mode in ("mean", "attention"):
        cfg = TrainConfig(vocab_size=16, dim=4, rank=2, pooling_mode=mode)
        params = _params(cfg)
        params["lora_b"] = rng.normal(size=params["lora_b"].shape)
        params["attn_q"] = rng.normal(size=4)
        mask = np.ones((2, 5), dtype=bool)
        mask[1, 3:] = False
        ids = np.array([[3, 7, 3, 1, 9], [7, 2, 2, 15, 15]])  # repeats; 15 only masked
        table = rng.normal(size=(cfg.vocab_size, 4))
        G = rng.normal(size=(2, 4))

        def f(tab, query):
            # the scores use the projected query; hand pool one with W_eff = I
            p = dict(params, w0=np.eye(4), lora_b=np.zeros_like(params["lora_b"]), attn_q=query)
            out, _ = pool(tab[ids], mask, p, cfg)
            return float((out * G).sum())

        _, cache = pool(table[ids], mask, params, cfg)
        query = cache.get("query", params["attn_q"])
        grad, dquery = pool_backward(G, table[ids], ids, cache, cfg)
        assert np.array_equal(grad.rows, [1, 2, 3, 7, 9])
        eps = 1e-6
        for k, row in enumerate(grad.rows):
            for j in range(4):
                tab = table.copy()
                tab[row, j] += eps
                up = f(tab, query)
                tab[row, j] -= 2 * eps
                down = f(tab, query)
                assert grad.values[k, j] == pytest.approx((up - down) / (2 * eps), rel=1e-5, abs=1e-8)
        numeric_q = np.zeros(4)
        for j in range(4):
            q = query.copy()
            q[j] += eps
            up = f(table, q)
            q[j] -= 2 * eps
            down = f(table, q)
            numeric_q[j] = (up - down) / (2 * eps)
        assert np.allclose(dquery, numeric_q, rtol=1e-5, atol=1e-8)


# ---- parameter budget -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dim=8, rank=8)
    with pytest.raises(ValueError):
        TrainConfig(pooling_mode="max")


def test_trainable_fraction_under_two_percent_with_frozen_embeddings():
    cfg = TrainConfig(freeze_embeddings=True)
    model = PropertyModel(cfg, seed=0)
    trainable, total = model.parameter_counts()
    assert "embed" not in model.trainable_names()
    assert "w0" not in model.trainable_names()
    assert trainable / total < 0.02
