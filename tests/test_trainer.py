import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from polyreg.checkpoint import (
    MAGIC,
    VERSION,
    CorruptCheckpoint,
    VersionMismatch,
    load_checkpoint,
    save_checkpoint,
)
from polyreg import encoder as enc
from polyreg.config import load_configs
from polyreg.datasets import PromptInstance
from polyreg.model import PropertyModel, encode, make_batch
from polyreg.registry import N_HEADS, default_registry
from polyreg.trainer import (
    NonFiniteLoss,
    TrainConfig,
    TrainedModel,
    _adam_update,
    fit_label_stats,
    load_trained,
    save_trained,
    train,
)
from polyreg.metrics import evaluate, predict

REG = default_registry()
SRC = Path(__file__).resolve().parents[1] / "src"

TG = REG.lookup("Tg").head_id
TS = REG.lookup("tensile_strength").head_id


def _embedding(model: PropertyModel, ids) -> np.ndarray:
    """Embedding rows (ids.shape + (dim,)) of the bucket ids ``ids``."""
    _, values = model.lookup(np.ravel(ids))
    return values.reshape(np.shape(ids) + (model.cfg.dim,))


def _instance(sid, text, values: dict):
    labels = np.full(N_HEADS, np.nan)
    mask = np.zeros(N_HEADS, dtype=bool)
    for head, value in values.items():
        labels[head] = value
        mask[head] = True
    return PromptInstance(sid, "sample_synthesis", text, labels, mask)


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
    transforms, targets, masks, weights = fit_label_stats(instances)
    assert transforms.valid[TG] == 1 and transforms.valid[TS] == 1
    assert transforms.log_space[TS] == 1 and transforms.log_space[TG] == 0
    got = weights[masks[:, TG], TG]
    assert abs(got.mean() - 1.0) <= 1e-9 and got.std() > 0  # KDE weights, not unit ones
    unused = [t for t in range(N_HEADS) if t not in (TG, TS)]
    assert np.all(transforms.valid[unused] == 0)
    assert np.all(np.isnan(transforms.mu[unused])) and np.all(np.isnan(transforms.sigma[unused]))
    assert np.all(transforms.log_space[unused] == 0)
    assert np.all(weights[:, unused] == 0)


def test_fit_label_stats_single_label_fallback():
    # one lone label must not kill the run: identity-scale transform, unit weight
    instances = _toy_dataset()[:4]
    solo = _instance("solo", "[Sample]\nlone", {REG.lookup("Tm").head_id: 170.0})
    tm = REG.lookup("Tm").head_id
    transforms, targets, masks, weights = fit_label_stats(instances + [solo])
    assert transforms.valid[tm] == 1 and (transforms.mu[tm], transforms.sigma[tm]) == (170.0, 1.0)
    assert weights[-1, tm] == 1.0


def _assert_zero_off_mask(targets, masks, weights):
    """``train`` hands these rows to the loss with no second masking:
    every entry the returned mask leaves out, a dropped label's too, must
    be exactly 0."""
    assert np.all(targets[~masks] == 0) and np.all(weights[~masks] == 0)


def test_fit_label_stats_drops_nonpositive_log_labels():
    instances = _toy_dataset()[:4]
    bad = [
        _instance("bad", "[Sample]\nbad", {TS: -5.0}),
        _instance("zero", "[Sample]\nzero", {TS: 0.0}),
    ]
    transforms, targets, masks, weights = fit_label_stats(instances + bad)
    assert not masks[-2:, TS].any()
    _assert_zero_off_mask(targets, masks, weights)


def test_fit_label_stats_drops_non_finite_labels():
    instances = _toy_dataset()[:4]
    bad = [
        _instance("inf", "[Sample]\ninf", {TG: np.inf, TS: np.inf}),
        _instance("nan", "[Sample]\nnan", {TG: np.nan}),
    ]
    transforms, targets, masks, weights = fit_label_stats(instances + bad)
    assert not masks[-2:, [TG, TS]].any()
    assert np.all(weights[-2:] == 0) and np.all(targets[-2:] == 0)
    _assert_zero_off_mask(targets, masks, weights)
    clean = fit_label_stats(instances)
    assert (transforms.mu[TG], transforms.sigma[TG]) == (clean[0].mu[TG], clean[0].sigma[TG])
    assert np.isfinite(weights).all() and np.isfinite(targets).all()


# ---- training loop --------------------------------------------------------


def _dense_reference(cfg, instances):
    """The training loop on a full vocab_size x dim table seeded by
    ``init_rows``, with the model's row-sparse embedding gradient scattered
    into a dense table and a dense Adam step over the whole table, each
    prompt re-encoded in every batch.  Returns the model and, per step, the
    batch's embedding rows and a copy of the table after the step."""
    model = PropertyModel(cfg)
    model.materialize(np.arange(cfg.vocab_size))  # a bucket id is its own position
    _, targets, masks, weights = fit_label_stats(instances)
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
            if not masks[sel].any():
                continue
            batch = make_batch(ids)
            preds, cache = model.forward(batch)
            grads = model.backward(cache, model.loss(preds, targets[sel], masks[sel], weights[sel])[1])
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
    model = trained.model
    every_id = np.arange(cfg.vocab_size)
    assert not np.array_equal(reference.params["embed"], enc.init_rows(cfg.seed, every_id, cfg.dim))
    # the stored rows are exactly the training ids
    seen = np.unique(np.concatenate([enc.bucket_ids(enc.tokenize(i.text), cfg.vocab_size) for i in data]))
    assert np.array_equal(model.embed_rows, seen)
    assert np.array_equal(model.params["embed"], reference.params["embed"][seen])
    assert np.array_equal(_embedding(model, every_id), reference.params["embed"])
    for name in reference.params:
        if name != "embed":
            assert np.array_equal(model.params[name], reference.params[name]), name


def _adam_reference(param, grad, m, v, lr, beta1, beta2, eps, step):
    """The Adam step as one expression per tensor."""
    m[:] = beta1 * m + (1 - beta1) * grad
    v[:] = beta2 * v + (1 - beta2) * grad * grad
    param -= lr * (m / (1 - beta1**step)) / (np.sqrt(v / (1 - beta2**step)) + eps)


@pytest.mark.parametrize("clip", [1.0, 0.37])
def test_adam_on_a_row_grad_equals_the_dense_scattered_step_bitwise(clip):
    rng = np.random.default_rng(11)
    shape = (12, 5)
    param = rng.normal(size=shape)
    # nonzero moments on every row, so rows outside a step's gradient move too
    state = (rng.normal(0.0, 1e-2, size=shape), rng.uniform(1e-6, 1e-3, size=shape))
    sparse = (param.copy(), tuple(a.copy() for a in state))
    dense = (param.copy(), tuple(a.copy() for a in state))
    hyper = (1e-3, 0.9, 0.999, 1e-8)
    for step in (1, 2, 7):
        rows = np.sort(rng.choice(shape[0], size=4, replace=False))
        values = rng.normal(size=(4, shape[1]))
        grad = np.zeros(shape)
        grad[rows] = values
        _adam_reference(param, grad * clip, *state, *hyper, step)
        _adam_update(sparse[0], enc.RowGrad(rows, values), sparse[1], *hyper, step, clip)
        _adam_update(dense[0], grad, dense[1], *hyper, step, clip)
        for got in (sparse, dense):
            assert np.array_equal(got[0], param)
            assert np.array_equal(got[1][0], state[0]) and np.array_equal(got[1][1], state[1])


@pytest.mark.parametrize("text", ["omega kappa 42", "[Sample]\nalpha and omega kappa"])
def test_predict_derives_unseen_rows_without_storing_them(text):
    cfg = _small_cfg(epochs=3, grad_clip=1e12)
    data = _toy_dataset()
    trained = train(cfg, data)
    reference, _ = _dense_reference(cfg, data)
    model = trained.model
    unseen = _instance("u", text, {TG: 80.0})
    ids = enc.bucket_ids(enc.tokenize(text), cfg.vocab_size)
    assert not np.isin(ids, model.embed_rows).all()
    rows, values = model.embed_rows.copy(), model.params["embed"].copy()
    got = predict(trained, [unseen, data[0]])
    want = predict(TrainedModel(reference, trained.transforms), [unseen, data[0]])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(model.embed_rows, rows)
    assert np.array_equal(model.params["embed"], values)


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
    init = enc.init_rows(cfg.seed, np.arange(cfg.vocab_size), cfg.dim)
    assert not np.array_equal(after1[only_first], init[only_first])
    assert not np.array_equal(after2[only_first], after1[only_first])
    trained = train(cfg, instances)
    assert np.array_equal(_embedding(trained.model, np.arange(cfg.vocab_size)), after2)


def test_frozen_embeddings_stay_at_init():
    cfg = _small_cfg(epochs=2, freeze_embeddings=True)
    trained = train(cfg, _toy_dataset())
    model = trained.model
    assert model.embed_rows.size > 0
    assert np.array_equal(model.params["embed"], enc.init_rows(cfg.seed, model.embed_rows, cfg.dim))
    fresh = PropertyModel(cfg)
    assert not np.array_equal(model.params["lora_a"], fresh.params["lora_a"])


def test_zero_epochs_leaves_parameters_at_init():
    cfg = _small_cfg(epochs=0)
    trained = train(cfg, _toy_dataset())
    fresh = PropertyModel(cfg)
    every_id = np.arange(cfg.vocab_size)
    assert np.array_equal(_embedding(trained.model, every_id), _embedding(fresh, every_id))
    for name in fresh.params:
        if name != "embed":
            assert np.array_equal(trained.model.params[name], fresh.params[name]), name
    assert trained.loss_trace == []


def test_training_is_bit_deterministic():
    cfg = _small_cfg(epochs=3)
    data = _toy_dataset()
    a = train(cfg, data)
    b = train(cfg, data)
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.model.embed_rows, b.model.embed_rows)
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
    fresh = PropertyModel(cfg)
    assert np.array_equal(trained.model.params["w0"], fresh.params["w0"])


def test_freeze_flags_respected():
    cfg = _small_cfg(epochs=2, freeze_embeddings=True, freeze_encoder=True)
    trained = train(cfg, _toy_dataset())
    fresh = PropertyModel(cfg)
    every_id = np.arange(cfg.vocab_size)
    assert np.array_equal(_embedding(trained.model, every_id), _embedding(fresh, every_id))
    for name in ("lora_a", "lora_b"):
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
    normed = trained.transforms.normalize(TG, targets)
    got = trained.transforms.normalize(TG, preds[:, TG])
    assert float(np.mean((got - normed) ** 2)) < 1e-6


def test_evaluate_rejects_empty_instance_list():
    trained = train(_small_cfg(epochs=0), _toy_dataset())
    with pytest.raises(ValueError, match="instance list is empty"):
        evaluate(trained, [])


def test_train_rejects_instances_with_no_usable_label():
    none = np.full(N_HEADS, np.nan)
    nonpositive = np.zeros(N_HEADS)  # finite, but not on log-space heads
    only_log_heads = np.array([spec.log_space for spec in default_registry()])
    with pytest.raises(ValueError, match="none of the 0 instances has a usable label"):
        train(_small_cfg(epochs=0), [])
    unusable = [
        PromptInstance("s0", "sample_synthesis", "x", none, np.ones(N_HEADS, bool)),
        PromptInstance("s1", "sample_synthesis", "x", nonpositive, only_log_heads),
    ]
    with pytest.raises(ValueError, match="none of the 2 instances has a usable label"):
        train(_small_cfg(epochs=0), unusable)


def test_train_rejects_instances_of_another_variant():
    wrong = PromptInstance("s9", "sample_only", "x", np.full(N_HEADS, np.nan), np.zeros(N_HEADS, bool))
    message = "an instance has variant 'sample_only', but the config trains 'sample_synthesis'"
    # checked before any work: alone, ``wrong`` would fail the usable-label check
    for instances in ([wrong], _toy_dataset() + [wrong]):
        with pytest.raises(ValueError, match=message):
            train(_small_cfg(), instances)


def test_loss_trace_roughly_decreases():
    # at lr 3e-3 minibatch noise breaks this for over half of the seeds
    # (22 of 40); at lr 1e-3 it held for 59 of 60
    cfg = _small_cfg(epochs=12, lr=1e-3)
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


def test_huge_vocab_trains_without_a_dense_table(tmp_path):
    # a dense 2**24 x 64 table would take 8 GiB; the stored rows are the
    # toy dataset's few distinct tokens whatever the vocab size
    data = _toy_dataset()
    small, huge = tmp_path / "small.ckpt", tmp_path / "huge.ckpt"
    save_trained(train(_small_cfg(vocab_size=4096, dim=64), data), small)
    tracemalloc.start()
    try:
        trained = train(_small_cfg(vocab_size=2**24, dim=64), data)
        save_trained(trained, huge)
        loaded = load_trained(huge)
        predict(loaded, data + [_instance("u", "omega kappa 42", {TG: 80.0})])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert abs(huge.stat().st_size - small.stat().st_size) <= 1024
    assert trained.model.embed_rows.size == loaded.model.embed_rows.size < 20


# ---- config files ---------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = _small_cfg(epochs=7, lr=5e-4, freeze_trunk=True, pooling_mode="attention")
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in vars(cfg).items()))
    loaded = load_configs(path)[1]
    assert loaded == cfg
    assert loaded.digest() == cfg.digest()


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError):
        load_configs(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("rank = 64", "rank < dim"),
        ("pooling_mode = max", "unknown pooling mode 'max'"),
        ("n_blocks = 0", "n_blocks must be at least 1, got 0"),
        ("batch_size = 0", "batch_size must be at least 1, got 0"),
        ("batch_size = -3", "batch_size must be at least 1, got -3"),
        ("epochs = -2", "epochs must be at least 0, got -2"),
        ("vocab_size = 0", "vocab_size must be at least 1"),
        ("vocab_size = 18446744073709551616", r"vocab_size must be at most 2\*\*63, got 18446744073709551616"),
        ("rank = 0", "rank must be at least 1"),
        ("hidden_dim = 0", "hidden_dim must be at least 1"),
        ("lr = -0.1", "lr must be at least 0"),
        ("lr = nan", "lr must be finite, got nan"),
        ("rho_lr = inf", "rho_lr must be finite, got inf"),
        ("grad_clip = 0", r"grad_clip must be above 0, got 0\.0"),
        ("grad_clip = -1", r"grad_clip must be above 0, got -1\.0"),
        ("grad_clip = inf", "grad_clip must be finite, got inf"),
        ("adam_eps = 0", r"adam_eps must be above 0, got 0\.0"),
        ("adam_eps = nan", "adam_eps must be finite, got nan"),
        ("beta1 = 1.0", r"beta1 must be in \[0, 1\), got 1\.0"),
        ("beta1 = -0.1", r"beta1 must be in \[0, 1\), got -0\.1"),
        ("beta2 = 1.5", r"beta2 must be in \[0, 1\), got 1\.5"),
        ("beta2 = nan", r"beta2 must be in \[0, 1\), got nan"),
        ("alpha = nan", "alpha must be finite, got nan"),
        ("alpha = -inf", "alpha must be finite, got -inf"),
        ("seed = -1", "seed must be at least 0, got -1"),
        ("train.seed = -1", "seed must be at least 0, got -1"),
        ("variant = sample_synth", "unknown variant 'sample_synth'"),
    ],
)
def test_config_rejects_an_invalid_combination(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=message) as err:
        load_configs(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("name", ["lr", "rho_lr", "grad_clip", "adam_eps", "alpha"])
def test_config_refuses_an_int_too_large_for_a_float(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got 1000"):
        TrainConfig(**{name: 10**400})


def test_vocab_size_is_capped_where_bucket_ids_fit_int64():
    ids = encode(["polymer melt"], TrainConfig(vocab_size=2**63).vocab_size)[0]
    assert ids.dtype == np.int64 and (ids >= 0).all()
    with pytest.raises(ValueError, match=r"vocab_size must be at most 2\*\*63"):
        TrainConfig(vocab_size=2**63 + 1)


# a model too large to allocate must be refused before any allocation, so
# each case runs in a child whose address space is capped at 2 GiB: one
# that allocates fails fast instead of filling the host's memory
_BOUNDED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from polyreg.trainer import TrainConfig, load_trained
try:
    {call}
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize(
    "call, message",
    [
        ("TrainConfig(n_blocks=10**400)", r"^dim 64, hidden_dim 128 and n_blocks 1000+ make \d+ dense parameters"),
        ("TrainConfig(hidden_dim=10**6)", r"^dim 64, hidden_dim 1000000 and n_blocks 2 make 2000192004096 dense"),
        ("load_trained(sys.argv[1])", r"^checkpoint {path}: bad config: .* n_blocks 1000000000 make \d+ dense"),
    ],
    ids=["huge_n_blocks", "huge_hidden_dim", "checkpoint_with_huge_n_blocks"],
)
def test_a_model_past_the_size_bound_is_refused_before_allocating(tmp_path, call, message):
    pytest.importorskip("resource")  # the child caps its address space with it
    path = tmp_path / "model.ckpt"
    config = {**asdict(TrainConfig()), "n_blocks": 10**9}
    save_checkpoint(path, {"a": np.ones(2)}, {"config": config, "config_digest": "", "loss_trace": []})
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _BOUNDED_CHILD.format(call=call), str(path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert re.match(message.format(path=re.escape(str(path))), done.stdout), done.stdout
    assert "more than 134217728" in done.stdout


def test_the_size_bound_is_2_to_the_27_dense_values():
    # dim 2 and hidden_dim 1 hold 4 + 2 + n_blocks + 128 values
    TrainConfig(dim=2, rank=1, hidden_dim=1, n_blocks=2**27 - 134)
    with pytest.raises(ValueError, match="make 134217729 dense parameters, more than 134217728"):
        TrainConfig(dim=2, rank=1, hidden_dim=1, n_blocks=2**27 - 133)


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
    assert loaded.model.cfg == cfg
    assert loaded.loss_trace == trained.loss_trace
    assert list(loaded.model.params) == list(trained.model.params)
    for name in trained.model.params:
        assert np.array_equal(loaded.model.params[name], trained.model.params[name]), name
    assert np.array_equal(loaded.model.embed_rows, trained.model.embed_rows)
    assert loaded.model.embed_rows.dtype == np.int64
    # the label table bit for bit, NaN at the heads not fitted included
    assert np.isnan(trained.transforms.mu).any() and np.isnan(trained.transforms.sigma).any()
    for name in ("mu", "sigma", "log_space", "valid"):
        a, b = getattr(trained.transforms, name), getattr(loaded.transforms, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
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


def _reseal(body: bytes) -> bytes:
    """``body`` followed by its CRC, as the writer seals a checkpoint."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _trained_checkpoint(tmp_path):
    cfg = _small_cfg(epochs=1)
    path = tmp_path / "model.ckpt"
    save_trained(train(cfg, _toy_dataset()), path)
    return path


def test_trained_checkpoint_cut_at_every_offset_is_corrupt(tmp_path):
    path = _trained_checkpoint(tmp_path)
    for n in range(path.stat().st_size - 1, -1, -1):
        os.truncate(path, n)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)


def test_resealed_cut_checkpoint_is_corrupt(tmp_path):
    # a cut body under a matching CRC: the parser itself must find the
    # missing bytes, wherever the cut falls in a header, name or payload
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"a": np.ones((2, 3)), "ids": np.arange(3)}, {"key": "value"})
    body = path.read_bytes()[:-4]
    for n in range(len(body)):
        path.write_bytes(_reseal(body[:n]))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)


def test_version_one_checkpoint_is_refused(tmp_path):
    blob = bytearray(_trained_checkpoint(tmp_path).read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), 1)
    old = tmp_path / "v1.ckpt"
    old.write_bytes(_reseal(bytes(blob[:-4])))
    with pytest.raises(VersionMismatch, match="version 1"):
        load_trained(old)


def _sealed(meta: bytes, name=b"a", dtype=b"<f8", shape=(2,), data=bytes(16)) -> bytes:
    """A CRC-valid checkpoint holding metadata ``meta`` and one tensor."""
    return _reseal(
        MAGIC + struct.pack("<IQ", VERSION, len(meta)) + meta + struct.pack("<IH", 1, len(name)) + name
        + struct.pack("<H", len(dtype)) + dtype + struct.pack(f"<B{len(shape)}QQ", len(shape), *shape, len(data))
        + data
    )


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"x", "file too short"),
        (_sealed(b"{not json"), "undecodable metadata or tensor table: Expecting property name"),
        (_sealed(b"\xff\xfe"), "undecodable metadata or tensor table: 'utf-8' codec can't decode byte 0xff"),
        (_sealed(b"[" * 100_000), "undecodable metadata or tensor table: maximum recursion depth exceeded"),
        (_sealed(b"{}", name=b"\xff"), "undecodable metadata or tensor table: 'utf-8' codec can't decode byte 0xff"),
        (_sealed(b"{}", dtype=b"zz"), "undecodable metadata or tensor table: data type 'zz' not understood"),
        (_sealed(b"{}", dtype=b"|O"), "undecodable metadata or tensor table: cannot create an OBJECT"),
        (_sealed(b"{}", data=bytes(15)), "undecodable metadata or tensor table: buffer size must be a multiple"),
        (_sealed(b"{}", shape=(3,)), r"undecodable metadata or tensor table: cannot reshape array of size 2"),
    ],
    ids=[
        "too_short", "meta_not_json", "meta_not_utf8", "meta_nested_deep", "name_not_utf8",
        "dtype_unknown", "dtype_object", "data_not_whole_items", "data_not_its_shape",
    ],
)
def test_an_undecodable_checkpoint_is_corrupt_and_load_trained_names_it(tmp_path, blob, message):
    path = tmp_path / "model.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CorruptCheckpoint, match="^" + message):
        load_checkpoint(path)
    with pytest.raises(CorruptCheckpoint, match=f"^checkpoint {re.escape(str(path))}: {message}"):
        load_trained(path)


def test_load_trained_names_the_file_of_a_version_mismatch(tmp_path):
    blob = bytearray(_sealed(b"{}"))
    struct.pack_into("<I", blob, len(MAGIC), 1)
    path = tmp_path / "v1.ckpt"
    path.write_bytes(_reseal(bytes(blob[:-4])))
    with pytest.raises(VersionMismatch) as err:
        load_trained(path)
    assert str(err.value) == f"checkpoint {path}: format version 1, expected {VERSION}"


def _set_entry(tensors, name, head, value):
    tensors[name] = tensors[name].copy()
    tensors[name][head] = value


def _set_config(metadata, **fields):
    """Edit the stored config and re-digest it, so the load gets past the
    digest check to the checks after it."""
    metadata["config"].update(fields)
    metadata["config_digest"] = TrainConfig(**metadata["config"]).digest()


def _set_rows(tensors, rows):
    tensors["embed_rows"] = np.asarray(rows, dtype=np.int64)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: _set_rows(t, t["embed_rows"][::-1]),  # unsorted
        lambda t: _set_rows(t, np.r_[t["embed_rows"][:1], t["embed_rows"][:-1]]),  # duplicate
        lambda t: _set_rows(t, np.r_[-1, t["embed_rows"][1:]]),  # below range
        lambda t: _set_rows(t, np.r_[t["embed_rows"][:-1], 512]),  # at vocab_size
        lambda t: t.update(embed=t["embed"][:-1]),  # one value row missing
        lambda t: t.update(embed_rows=t["embed_rows"].astype(np.float64)),
        lambda t: t.pop("embed_rows"),
    ],
    ids=["unsorted", "duplicate", "negative", "out_of_range", "row_count", "dtype", "missing"],
)
def test_bad_embed_rows_name_the_checkpoint(tmp_path, corrupt):
    path = _trained_checkpoint(tmp_path)
    tensors, metadata = load_checkpoint(path)
    assert metadata["config"]["vocab_size"] == 512
    corrupt(tensors)
    save_checkpoint(path, tensors, metadata)
    with pytest.raises(ValueError, match="model.ckpt"):
        load_trained(path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t, m: t.pop("transform_valid"),  # missing transform tensor
        lambda t, m: t.pop("transform_mu"),
        lambda t, m: t.pop("rho"),  # missing parameter
        lambda t, m: t.update(extra=np.zeros(3)),  # stray tensor
        lambda t, m: t.update(rho=t["rho"][:-1]),  # wrong parameter shape
        lambda t, m: t.update(head_w=t["head_w"].T.copy()),
        lambda t, m: t.update(transform_sigma=t["transform_sigma"][:5]),
        lambda t, m: m["config"].update(learning_rate=0.1),  # unknown config key
        lambda t, m: _set_config(m, dim=24),  # config that does not fit the tensors
        lambda t, m: m.pop("config"),
        lambda t, m: m.pop("config_digest"),
        lambda t, m: m.update(loss_trace="abc"),  # not a list
        lambda t, m: m.update(loss_trace={"0": 1.0}),
        lambda t, m: m.update(loss_trace=[1.0, "2.0"]),  # entries not finite numbers
        lambda t, m: m.update(loss_trace=[1.0, None]),
        lambda t, m: m.update(loss_trace=[True]),
        lambda t, m: m.update(loss_trace=[1.0, float("nan")]),
        lambda t, m: m.update(loss_trace=[float("inf")]),
        lambda t, m: m.update(loss_trace=[10**400]),  # too large for a float
        lambda t, m: m.update(loss_trace=[1.0, -(10**400)]),
        lambda t, m: m["config"].update(lr=10**400),
        # label tables no fit could make: TG and TS are fitted, head 0 is not
        lambda t, m: _set_entry(t, "transform_valid", 0, 0.5),
        lambda t, m: _set_entry(t, "transform_valid", TG, np.nan),
        lambda t, m: _set_entry(t, "transform_mu", TG, np.nan),
        lambda t, m: _set_entry(t, "transform_mu", TS, -np.inf),
        lambda t, m: _set_entry(t, "transform_sigma", TG, 0.0),
        lambda t, m: _set_entry(t, "transform_sigma", TS, -1.0),
        lambda t, m: _set_entry(t, "transform_sigma", TG, np.inf),
        lambda t, m: _set_entry(t, "transform_sigma", TS, np.nan),
        lambda t, m: _set_entry(t, "transform_log", TS, 0.5),
        lambda t, m: _set_entry(t, "transform_log", TG, 2.0),
    ],
    ids=[
        "no_transform_valid", "no_transform_mu", "no_rho", "stray_tensor", "rho_shape",
        "head_w_shape", "transform_shape", "unknown_config_key", "config_mismatch", "no_config",
        "no_config_digest", "trace_str", "trace_dict", "trace_str_entry", "trace_null_entry",
        "trace_bool_entry", "trace_nan_entry", "trace_inf_entry", "trace_huge_int_entry",
        "trace_huge_negative_int_entry", "config_huge_int_lr",
        "valid_half", "valid_nan", "mu_nan", "mu_inf", "sigma_zero", "sigma_negative",
        "sigma_inf", "sigma_nan", "log_half", "log_two",
    ],
)
def test_malformed_checkpoint_names_the_file(tmp_path, corrupt):
    path = _trained_checkpoint(tmp_path)
    tensors, metadata = load_checkpoint(path)
    corrupt(tensors, metadata)
    save_checkpoint(path, tensors, metadata)
    with pytest.raises(ValueError, match="model.ckpt"):
        load_trained(path)


def test_edited_config_with_stale_digest_names_the_file(tmp_path):
    # a config edited after saving loads no more: its digest is the old one
    path = _trained_checkpoint(tmp_path)
    tensors, metadata = load_checkpoint(path)
    assert metadata["config_digest"] == TrainConfig(**metadata["config"]).digest()
    metadata["config"]["lr"] = metadata["config"]["lr"] * 2
    save_checkpoint(path, tensors, metadata)
    with pytest.raises(ValueError, match="model.ckpt.*config_digest"):
        load_trained(path)
    _set_config(metadata)
    save_checkpoint(path, tensors, metadata)
    assert load_trained(path).model.cfg.lr == metadata["config"]["lr"]


def test_reloaded_model_derives_unseen_rows_from_its_config_seed(tmp_path):
    # rows no training prompt has are not in the checkpoint: the reloaded
    # model derives them from the saved config's seed, as the trained one did
    cfg = _small_cfg(epochs=2, seed=7)
    data = _toy_dataset()
    trained = train(cfg, data)
    prompts = [_instance("u", "omega kappa 42", {TG: 80.0}), data[0]]
    ids = enc.bucket_ids(enc.tokenize(prompts[0].text), cfg.vocab_size)
    assert not np.isin(ids, trained.model.embed_rows).any()
    before = predict(trained, prompts)
    path = tmp_path / "model.ckpt"
    save_trained(trained, path)
    after = predict(load_trained(path), prompts)
    assert before.tobytes() == after.tobytes()
    seed0 = PropertyModel(replace(cfg, seed=0), dict(trained.model.params), trained.model.embed_rows)
    assert predict(TrainedModel(seed0, trained.transforms), prompts[:1]).tobytes() != before[:1].tobytes()


def test_checkpoint_unchanged_by_evaluate(tmp_path):
    # evaluate derives unseen rows without storing them
    data = _toy_dataset()
    trained = train(_small_cfg(epochs=2), data)
    before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
    save_trained(trained, before)
    evaluate(trained, data + [_instance("u", "omega kappa 42", {TG: 80.0, TS: 20.0})])
    save_trained(trained, after)
    assert before.read_bytes() == after.read_bytes()
