import numpy as np
import pytest

from polyreg.checkpoint import (
    CorruptCheckpoint,
    VersionMismatch,
    load_checkpoint,
    save_checkpoint,
)
from polyreg import encoder as enc
from polyreg.datasets import PromptInstance
from polyreg.model import PropertyModel, make_batch
from polyreg.registry import N_HEADS, default_registry
from polyreg.trainer import (
    NonFiniteLoss,
    TrainConfig,
    _adam_update,
    fit_label_stats,
    load_config,
    load_trained,
    save_config,
    save_trained,
    train,
)
from polyreg.metrics import evaluate, predict

REG = default_registry()

TG = REG.by_name("Tg").head_id
TS = REG.by_name("tensile_strength").head_id


def _instance(sid, text, values: dict):
    labels = np.full(N_HEADS, np.nan)
    mask = np.zeros(N_HEADS, dtype=bool)
    for head, value in values.items():
        labels[head] = value
        mask[head] = True
    return PromptInstance(sid, "sample_only", text, labels, mask)


def _toy_dataset(n=12, seed=0):
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    instances = []
    for i in range(n):
        picks = rng.choice(words, size=3, replace=False)
        text = "[Sample]\nblend of " + " and ".join(picks)
        tg = 60.0 + 10.0 * (i % 5)
        ts = 10.0 ** (1.2 + 0.1 * (i % 4))
        instances.append(_instance(f"s{i}", text, {TG: tg, TS: ts}))
    return instances


def _small_cfg(**kw):
    base = dict(seed=0, epochs=2, batch_size=4, vocab_size=512, dim=16, rank=4, hidden_dim=16, n_blocks=1)
    base.update(kw)
    return TrainConfig(**base)


# ---- label statistics -----------------------------------------------------


def test_fit_label_stats_shapes_and_weights():
    instances = _toy_dataset()
    transforms, density, targets, masks, weights = fit_label_stats(instances)
    assert transforms[TG] is not None and transforms[TS] is not None
    assert transforms[TS].log_space and not transforms[TG].log_space
    assert density[TG] is not None
    got = weights[masks[:, TG], TG]
    assert abs(got.mean() - 1.0) <= 1e-9
    unused = [t for t in range(N_HEADS) if t not in (TG, TS)]
    assert all(transforms[t] is None for t in unused)
    assert np.all(weights[:, unused] == 0)


def test_fit_label_stats_single_label_fallback():
    # one lone label must not kill the run: identity-scale transform, unit weight
    instances = _toy_dataset()[:4]
    solo = _instance("solo", "[Sample]\nlone", {REG.by_name("Tm").head_id: 170.0})
    tm = REG.by_name("Tm").head_id
    transforms, density, targets, masks, weights = fit_label_stats(instances + [solo])
    assert transforms[tm] is not None and transforms[tm].sigma == 1.0
    assert density[tm] is None
    assert weights[-1, tm] == 1.0


def test_fit_label_stats_drops_nonpositive_log_labels():
    instances = _toy_dataset()[:4]
    bad = _instance("bad", "[Sample]\nbad", {TS: -5.0})
    transforms, density, targets, masks, weights = fit_label_stats(instances + [bad])
    assert not masks[-1, TS]


def test_fit_label_stats_drops_non_finite_labels():
    instances = _toy_dataset()[:4]
    bad = [
        _instance("inf", "[Sample]\ninf", {TG: np.inf, TS: np.inf}),
        _instance("nan", "[Sample]\nnan", {TG: np.nan}),
    ]
    transforms, density, targets, masks, weights = fit_label_stats(instances + bad)
    assert not masks[-2:, [TG, TS]].any()
    assert np.all(weights[-2:] == 0) and np.all(targets[-2:] == 0)
    clean = fit_label_stats(instances)
    assert (transforms[TG].mu, transforms[TG].sigma) == (clean[0][TG].mu, clean[0][TG].sigma)
    assert np.isfinite(weights).all() and np.isfinite(targets).all()


# ---- training loop --------------------------------------------------------


def _dense_reference(cfg, instances):
    """The training loop with the model's row-sparse embedding gradient
    scattered into a dense table and a dense Adam step over the whole
    table, each prompt re-encoded in every batch.  Returns the model and,
    per step, the batch's embedding rows and a copy of the table after
    the step."""
    model = PropertyModel(cfg.model_config(), seed=cfg.seed)
    _, _, targets, masks, weights = fit_label_stats(instances)
    trainable = model.trainable_names()
    state = {k: (np.zeros_like(model.params[k]), np.zeros_like(model.params[k])) for k in trainable}
    rng = np.random.default_rng(cfg.seed)
    steps = []
    step = 0
    for _epoch in range(cfg.epochs):
        perm = rng.permutation(len(instances))
        for start in range(0, len(instances), cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            ids = [enc.bucket_ids(enc.tokenize(instances[i].text), cfg.vocab_size) for i in sel]
            batch = make_batch(ids, targets[sel], masks[sel], weights[sel])
            if not batch.label_mask.any():
                continue
            preds, cache = model.forward(batch)
            grads = model.backward(batch, cache)
            dembed = np.zeros_like(model.params["embed"])
            dembed[grads["embed"].rows] = grads["embed"].values
            grads["embed"] = dembed
            gnorm = np.sqrt(sum(float((grads[k] ** 2).sum()) for k in trainable))
            clip = min(1.0, cfg.grad_clip / gnorm) if gnorm > 0 else 1.0
            step += 1
            for k in trainable:
                lr = cfg.rho_lr if k == "rho" else cfg.lr
                _adam_update(
                    model.params[k], grads[k] * clip, state[k], lr,
                    cfg.beta1, cfg.beta2, cfg.adam_eps, step,
                )
            rows = batch.ids[batch.token_mask]
            steps.append((set(rows.tolist()), model.params["embed"].copy()))
    return model, steps


@pytest.mark.parametrize("pooling_mode", ["mean", "attention"])
def test_row_sparse_training_equals_dense_reference_bitwise(pooling_mode):
    # with clipping off, the only summation the sparse path reorders (the
    # embedding's grad-norm term) never reaches the parameters
    cfg = _small_cfg(epochs=3, grad_clip=1e12, pooling_mode=pooling_mode)
    data = _toy_dataset()
    reference, _ = _dense_reference(cfg, data)
    trained = train(cfg, data)
    for name in reference.params:
        assert np.array_equal(trained.model.params[name], reference.params[name]), name


def test_row_touched_only_in_first_step_keeps_its_momentum_step():
    instances = [
        _instance("a", "[Sample]\nalpha resin", {TG: 60.0}),
        _instance("b", "[Sample]\nbeta resin", {TG: 100.0}),
    ]
    cfg = _small_cfg(epochs=1, batch_size=1, grad_clip=1e12)
    reference, steps = _dense_reference(cfg, instances)
    (rows1, after1), (rows2, after2) = steps
    only_first = sorted(rows1 - rows2)
    assert only_first
    init = PropertyModel(cfg.model_config(), seed=cfg.seed).params["embed"]
    assert not np.array_equal(after1[only_first], init[only_first])
    assert not np.array_equal(after2[only_first], after1[only_first])
    trained = train(cfg, instances)
    assert np.array_equal(trained.model.params["embed"], after2)


def test_frozen_embeddings_stay_at_init():
    cfg = _small_cfg(epochs=2, freeze_embeddings=True)
    trained = train(cfg, _toy_dataset())
    fresh = PropertyModel(cfg.model_config(), seed=cfg.seed)
    assert np.array_equal(trained.model.params["embed"], fresh.params["embed"])
    assert not np.array_equal(trained.model.params["lora_a"], fresh.params["lora_a"])


def test_zero_epochs_leaves_parameters_at_init():
    cfg = _small_cfg(epochs=0)
    trained = train(cfg, _toy_dataset())
    fresh = PropertyModel(cfg.model_config(), seed=cfg.seed)
    for name in fresh.params:
        assert np.array_equal(trained.model.params[name], fresh.params[name]), name
    assert trained.loss_trace == []


def test_training_is_bit_deterministic():
    cfg = _small_cfg(epochs=3)
    data = _toy_dataset()
    a = train(cfg, data)
    b = train(cfg, data)
    assert a.loss_trace == b.loss_trace
    for name in a.model.params:
        assert np.array_equal(a.model.params[name], b.model.params[name]), name


def test_different_seed_changes_parameters():
    data = _toy_dataset()
    a = train(_small_cfg(epochs=2, seed=0), data)
    b = train(_small_cfg(epochs=2, seed=1), data)
    assert not np.array_equal(a.model.params["proj_w"], b.model.params["proj_w"])


def test_frozen_base_projection_never_moves():
    cfg = _small_cfg(epochs=3)
    trained = train(cfg, _toy_dataset())
    fresh = PropertyModel(cfg.model_config(), seed=cfg.seed)
    assert np.array_equal(trained.model.params["w0"], fresh.params["w0"])


def test_freeze_flags_respected():
    cfg = _small_cfg(epochs=2, freeze_embeddings=True, freeze_encoder=True)
    trained = train(cfg, _toy_dataset())
    fresh = PropertyModel(cfg.model_config(), seed=cfg.seed)
    for name in ("embed", "lora_a", "lora_b"):
        assert np.array_equal(trained.model.params[name], fresh.params[name]), name
    assert not np.array_equal(trained.model.params["proj_w"], fresh.params["proj_w"])


def test_small_dataset_memorization():
    # distinct prompts, few labels: the model should drive train error tiny.
    # rho stays fixed: once a head's loss nears zero the objective is
    # unbounded below in its learned log-variance, so a learned rho runs
    # away and the error oscillates instead of falling.
    instances = [
        _instance("a", "[Sample]\nalpha blend", {TG: 60.0}),
        _instance("b", "[Sample]\nbeta blend", {TG: 100.0}),
        _instance("c", "[Sample]\ngamma blend", {TG: 140.0}),
        _instance("d", "[Sample]\ndelta blend", {TG: 180.0}),
    ]
    cfg = _small_cfg(epochs=300, batch_size=4, lr=3e-3, rho_lr=0.0)
    trained = train(cfg, instances)
    assert np.all(trained.model.params["rho"] == 0)
    preds = predict(trained, instances)
    targets = np.array([60.0, 100.0, 140.0, 180.0])
    normed = trained.transforms[TG].normalize(targets)
    got = trained.transforms[TG].normalize(preds[:, TG])
    assert float(np.mean((got - normed) ** 2)) < 1e-6


def test_evaluate_rejects_empty_instance_list():
    trained = train(_small_cfg(epochs=0), _toy_dataset())
    with pytest.raises(ValueError, match="instance list is empty"):
        evaluate(trained, [])


def test_loss_trace_roughly_decreases():
    cfg = _small_cfg(epochs=12, lr=3e-3)
    trained = train(cfg, _toy_dataset(n=24))
    trace = np.array(trained.loss_trace)
    assert trace.size == 12
    # after the warmup epochs the trace should be mostly non-increasing
    later = trace[3:]
    increases = (np.diff(later) > 1e-9).sum()
    assert increases <= max(1, int(0.1 * later.size) + 1)
    assert trace[-1] < trace[0]


def test_head_isolation_with_frozen_shared_layers():
    # with the shared trunk and encoder frozen, removing head t's labels
    # leaves every other head's final parameters unchanged
    # grad_clip is effectively off here: the global norm couples heads
    data = _toy_dataset()
    cfg = _small_cfg(
        epochs=3,
        freeze_embeddings=True,
        freeze_encoder=True,
        freeze_trunk=True,
        grad_clip=1e12,
    )
    full = train(cfg, data)
    stripped = []
    for inst in data:
        labels = inst.labels.copy()
        mask = inst.label_mask.copy()
        labels[TS] = np.nan
        mask[TS] = False
        stripped.append(PromptInstance(inst.sample_id, inst.variant, inst.text, labels, mask))
    partial = train(cfg, stripped)
    assert np.array_equal(full.model.params["head_w"][TG], partial.model.params["head_w"][TG])
    assert full.model.params["rho"][TG] == partial.model.params["rho"][TG]
    assert not np.array_equal(full.model.params["head_w"][TS], partial.model.params["head_w"][TS])


def test_divergent_training_raises_non_finite_loss():
    # absurd learning rates blow rho up, driving exp(-rho) to overflow;
    # the loop must abort with a diagnostic instead of looping on NaN
    cfg = _small_cfg(epochs=5, lr=1e5, rho_lr=1e5)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
        train(cfg, _toy_dataset())


# ---- config files ---------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = _small_cfg(epochs=7, lr=5e-4, freeze_trunk=True, pooling_mode="attention")
    path = tmp_path / "train.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert load_config(path).digest() == cfg.digest()


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError):
        load_config(path)


# ---- checkpoints ----------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.normal(size=(3, 4)),
        "b": np.arange(5, dtype=np.int64),
        "scalar": np.array(2.5),
    }
    meta = {"key": "value", "nested": {"x": 1}}
    path = tmp_path / "ck.bin"
    save_checkpoint(path, tensors, meta)
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert np.array_equal(loaded[name], arr)


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"a": np.ones(4)}, {})
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_bitflip_detected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"a": np.ones(4)}, {})
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    import struct
    import zlib

    from polyreg.checkpoint import MAGIC

    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"a": np.ones(2)}, {})
    blob = bytearray(path.read_bytes())
    # bump the version field and rewrite the trailing CRC
    struct.pack_into("<I", blob, len(MAGIC), 99)
    body = bytes(blob[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_trained_model_round_trip(tmp_path):
    cfg = _small_cfg(epochs=2)
    data = _toy_dataset()
    trained = train(cfg, data)
    path = tmp_path / "model.ckpt"
    save_trained(trained, path)
    loaded = load_trained(path)
    assert loaded.config == cfg
    assert loaded.loss_trace == trained.loss_trace
    for name in trained.model.params:
        assert np.array_equal(loaded.model.params[name], trained.model.params[name]), name
    for t in range(N_HEADS):
        a, b = trained.transforms[t], loaded.transforms[t]
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.mu, a.sigma, a.log_space) == (b.mu, b.sigma, b.log_space)
        da, db = trained.density[t], loaded.density[t]
        assert (da is None) == (db is None)
        if da is not None:
            assert np.array_equal(da.train_labels, db.train_labels)
            assert da.bandwidth == db.bandwidth and da.epsilon == db.epsilon
    preds_a = predict(trained, data)
    preds_b = predict(loaded, data)
    valid = ~np.isnan(preds_a)
    assert np.array_equal(preds_a[valid], preds_b[valid])


def test_saved_checkpoints_are_byte_identical_across_runs(tmp_path):
    cfg = _small_cfg(epochs=2)
    data = _toy_dataset()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_trained(train(cfg, data), p1)
    save_trained(train(cfg, data), p2)
    assert p1.read_bytes() == p2.read_bytes()
