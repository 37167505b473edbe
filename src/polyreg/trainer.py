"""Mini-batch training loop: seeded shuffling, Adam updates on trainable
tensors only, gradient clipping by global norm, and checkpoint persistence
carrying the label transforms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import objective as obj
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig
from .datasets import PromptInstance
from .encoder import RowGrad
from .model import PropertyModel, encode, make_batch
from .registry import N_HEADS, PropertyRegistry, default_registry


class NonFiniteLoss(Exception):
    """Training aborted on a non-finite batch loss."""


@dataclass
class TrainedModel:
    model: PropertyModel
    config: TrainConfig
    transforms: list  # per head: LabelTransform or None
    loss_trace: list[float] = field(default_factory=list)


def fit_label_stats(
    instances: list[PromptInstance],
    registry: PropertyRegistry | None = None,
):
    """Fit per-head transforms and KDE weights on a training set.

    Non-finite labels, and non-positive ones on log-space heads, are
    dropped from the returned masks.  Heads with fewer than 2 usable labels
    or zero variance fall back to an identity-scale transform and unit
    weights instead of failing the run.
    Returns (transforms, normalized_targets, masks, weights).
    """
    registry = registry or default_registry()
    n = len(instances)
    labels = np.stack([inst.labels for inst in instances]) if n else np.zeros((0, N_HEADS))
    masks = np.stack([inst.label_mask for inst in instances]) if n else np.zeros((0, N_HEADS), bool)
    masks = masks.copy()
    transforms: list = [None] * N_HEADS
    targets = np.zeros((n, N_HEADS))
    weights = np.zeros((n, N_HEADS))
    for t in range(N_HEADS):
        log_space = registry.is_log_space(t)
        idx = np.flatnonzero(masks[:, t])
        if idx.size == 0:
            continue
        vals = labels[idx, t]
        bad = ~np.isfinite(vals)
        if log_space:
            bad |= vals <= 0
        if bad.any():
            masks[idx[bad], t] = False
            idx = idx[~bad]
            vals = vals[~bad]
        if idx.size == 0:
            continue
        try:
            tr = obj.fit_transform(vals, log_space)
        except obj.DegenerateHead:
            mu = float(np.log10(vals).mean() if log_space else vals.mean())
            tr = obj.LabelTransform(log_space=log_space, mu=mu, sigma=1.0)
        transforms[t] = tr
        normed = tr.normalize(vals)
        targets[idx, t] = normed
        weights[idx, t] = obj.fit_density_model(normed) if idx.size >= 2 else 1.0
    return transforms, targets, masks, weights


def _adam_update(param, grad, state, lr, beta1, beta2, eps, step, clip=1.0):
    """One Adam step in place on ``param`` and its moments ``state`` with
    the gradient ``grad * clip``, rounded at every operation as
    ``m = beta1 * m + (1 - beta1) * g`` and so on.  A ``RowGrad`` adds its
    terms into the moments at its rows only.  Elsewhere the dense gradient
    is zero, and adding zero could change only the sign of a zero moment,
    which reaches no parameter but a negative zero."""
    m, v = state
    rows = None
    if isinstance(grad, RowGrad):
        rows, grad = grad.rows, grad.values
    if clip != 1.0:
        grad = grad * clip
    m *= beta1
    v *= beta2
    dm = (1 - beta1) * grad
    dv = (1 - beta2) * grad
    dv *= grad
    if rows is None:
        m += dm
        v += dv
    else:
        m[rows] += dm
        v[rows] += dv
    delta = m / (1 - beta1**step)
    delta *= lr
    denom = v / (1 - beta2**step)
    np.sqrt(denom, out=denom)
    denom += eps
    delta /= denom
    param -= delta


def _squared_norm(grad) -> float:
    values = grad.values if isinstance(grad, RowGrad) else grad
    return float((values**2).sum())


def train(
    cfg: TrainConfig,
    instances: list[PromptInstance],
    registry: PropertyRegistry | None = None,
) -> TrainedModel:
    """Run the training loop and return the trained model plus loss trace."""
    registry = registry or default_registry()
    model = PropertyModel(cfg, seed=cfg.seed)
    transforms, targets, masks, weights = fit_label_stats(instances, registry)
    encoded = encode([inst.text for inst in instances], cfg.vocab_size)
    # every row a batch can touch, stored up front: a row no batch has
    # touched yet has zero moments and zero gradient, so Adam leaves it bit
    # for bit at its init and plain Adam on these rows is exact dense Adam
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *encoded])
    model.materialize(flat)
    _, positions = model.index(flat)
    encoded = np.split(positions, np.cumsum([len(ids) for ids in encoded])[:-1])
    n = len(instances)
    trainable = model.trainable_names()
    adam_state = {
        name: (np.zeros_like(model.params[name]), np.zeros_like(model.params[name]))
        for name in trainable
    }
    rng = np.random.default_rng(cfg.seed)
    trace: list[float] = []
    step = 0
    for _epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            batch = make_batch([encoded[i] for i in sel], targets[sel], masks[sel], weights[sel])
            if not batch.label_mask.any():
                continue
            preds, cache = model.forward(batch)
            total, terms = model.loss(batch, preds)
            if not np.isfinite(total):
                raise NonFiniteLoss(f"non-finite loss at step {step}")
            grads = model.backward(batch, cache, terms)
            gnorm = np.sqrt(sum(_squared_norm(grads[k]) for k in trainable))
            clip = min(1.0, cfg.grad_clip / gnorm) if gnorm > 0 else 1.0
            step += 1
            for name in trainable:
                lr = cfg.rho_lr if name == "rho" else cfg.lr
                hyper = (lr, cfg.beta1, cfg.beta2, cfg.adam_eps, step, clip)
                _adam_update(model.params[name], grads[name], adam_state[name], *hyper)
            batch_losses.append(total)
        if batch_losses:
            trace.append(float(np.mean(batch_losses)))
    return TrainedModel(model=model, config=cfg, transforms=transforms, loss_trace=trace)


# ---- checkpoint packing ---------------------------------------------------


_TRANSFORM_TENSORS = ("transform_mu", "transform_sigma", "transform_log", "transform_valid")


def save_trained(trained: TrainedModel, path) -> None:
    tensors = {"embed_rows": trained.model.embed_rows, **trained.model.params}
    mu = np.full(N_HEADS, np.nan)
    sigma = np.full(N_HEADS, np.nan)
    log_flags = np.zeros(N_HEADS)
    valid = np.zeros(N_HEADS)
    for t, tr in enumerate(trained.transforms):
        if tr is not None:
            mu[t], sigma[t], log_flags[t], valid[t] = tr.mu, tr.sigma, float(tr.log_space), 1.0
    tensors.update(zip(_TRANSFORM_TENSORS, (mu, sigma, log_flags, valid)))
    metadata = {
        "config": asdict(trained.config),
        "config_digest": trained.config.digest(),
        "loss_trace": [float(x) for x in trained.loss_trace],
    }
    save_checkpoint(path, tensors, metadata)


def _shapes(tensors: dict) -> dict:
    """Tensor shapes by name; the embedding's is that of one row, since
    ``embed_rows`` sets its row count."""
    return {
        name: arr.shape[1:] if name == "embed" else arr.shape
        for name, arr in tensors.items()
        if name != "embed_rows"
    }


def load_trained(path) -> TrainedModel:
    """The model ``save_trained`` wrote to ``path``.  A checkpoint whose
    config, tensor names or tensor shapes are not those of that model raises
    ``ValueError`` naming the file."""
    tensors, metadata = load_checkpoint(path)
    try:
        cfg = TrainConfig(**metadata["config"])
        # a fresh model's tensors are the ones to expect; its embedding rows
        # are lazy, so it costs next to nothing
        fresh = PropertyModel(cfg, seed=cfg.seed).params
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: bad config: {exc}") from None
    expected = _shapes(fresh) | {name: (N_HEADS,) for name in _TRANSFORM_TENSORS}
    found = _shapes(tensors)
    if found != expected:
        wrong = sorted(n for n in found.keys() | expected.keys() if found.get(n) != expected.get(n))
        raise ValueError(f"checkpoint {path}: tensors {wrong} are missing, unexpected or misshapen")
    # the parameters in the order the model holds them
    params = {name: tensors[name] for name in fresh}
    try:
        model = PropertyModel(cfg, cfg.seed, params, tensors.get("embed_rows"))
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    mu, sigma, log_flags, valid = (tensors[name] for name in _TRANSFORM_TENSORS)
    transforms: list = [None] * N_HEADS
    for t in range(N_HEADS):
        if valid[t]:
            transforms[t] = obj.LabelTransform(
                log_space=bool(log_flags[t]), mu=float(mu[t]), sigma=float(sigma[t])
            )
    return TrainedModel(
        model=model,
        config=cfg,
        transforms=transforms,
        loss_trace=list(metadata.get("loss_trace", [])),
    )
