"""Mini-batch training loop: seeded shuffling, Adam updates on trainable
tensors only, gradient clipping by global norm, and checkpoint persistence
carrying the label transforms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import objective as obj
from .checkpoint import CorruptCheckpoint, VersionMismatch, load_checkpoint, save_checkpoint
from .config import TrainConfig, finite
from .datasets import PromptInstance
from .encoder import RowGrad
from .model import PropertyModel, encode, make_batch
from .registry import N_HEADS, PropertyRegistry, default_registry


class NonFiniteLoss(Exception):
    """Training aborted on a non-finite batch loss."""


@dataclass
class TrainedModel:
    model: PropertyModel
    transforms: obj.LabelTransforms
    loss_trace: list[float] = field(default_factory=list)


def fit_label_stats(
    instances: list[PromptInstance],
    registry: PropertyRegistry | None = None,
):
    """Fit per-head transforms and KDE weights on a training set.

    Non-finite labels, and non-positive ones on log-space heads, are
    dropped from the returned masks.  Heads with fewer than 2 usable labels
    or zero variance fall back to a unit-scale transform
    (``LabelTransforms.fit``), and a lone label to a unit weight, instead
    of failing the run.
    Returns (transforms, normalized_targets, masks, weights).
    """
    registry = registry or default_registry()
    n = len(instances)
    labels = np.array([inst.labels for inst in instances]) if n else np.zeros((0, N_HEADS))
    masks = np.array([inst.label_mask for inst in instances]) if n else np.zeros((0, N_HEADS), bool)
    transforms = obj.LabelTransforms()
    targets = np.zeros((n, N_HEADS))
    weights = np.zeros((n, N_HEADS))
    for t in range(N_HEADS):
        log_space = registry.is_log_space(t)
        idx = np.flatnonzero(masks[:, t])
        vals = labels[idx, t]
        bad = ~np.isfinite(vals)
        if log_space:
            bad |= vals <= 0
        masks[idx[bad], t] = False
        idx, vals = idx[~bad], vals[~bad]
        if idx.size == 0:
            continue
        transforms.fit(t, vals, log_space)
        normed = transforms.normalize(t, vals)
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
    """Run the training loop and return the trained model plus loss trace.
    Raises ``ValueError`` if an instance's variant is not ``cfg.variant`` or
    no instance has a usable label."""
    wrong = next((inst.variant for inst in instances if inst.variant != cfg.variant), None)
    if wrong is not None:
        raise ValueError(f"train: an instance has variant {wrong!r}, but the config trains {cfg.variant!r}")
    registry = registry or default_registry()
    model = PropertyModel(cfg)
    transforms, targets, masks, weights = fit_label_stats(instances, registry)
    if not masks.any():
        raise ValueError(f"train: none of the {len(instances)} instances has a usable label")
    encoded = encode([inst.text for inst in instances], cfg.vocab_size)
    # every row a batch can touch, stored up front: a row no batch has
    # touched yet has zero moments and zero gradient, so Adam leaves it bit
    # for bit at its init and plain Adam on these rows is exact dense Adam
    model.materialize(np.concatenate(encoded))
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
            if not masks[sel].any():
                continue
            preds, cache = model.forward(make_batch([encoded[i] for i in sel]))
            total, terms = model.loss(preds, targets[sel], masks[sel], weights[sel])
            if not np.isfinite(total):
                raise NonFiniteLoss(f"non-finite loss at step {step}")
            grads = model.backward(cache, terms)
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
    return TrainedModel(model=model, transforms=transforms, loss_trace=trace)


# ---- checkpoint packing ---------------------------------------------------


_TRANSFORM_TENSORS = ("transform_mu", "transform_sigma", "transform_log", "transform_valid")


def save_trained(trained: TrainedModel, path) -> None:
    cfg, tr = trained.model.cfg, trained.transforms
    tensors = {"embed_rows": trained.model.embed_rows, **trained.model.params}
    tensors.update(zip(_TRANSFORM_TENSORS, (tr.mu, tr.sigma, tr.log_space, tr.valid)))
    metadata = {
        "config": asdict(cfg),
        "config_digest": cfg.digest(),
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
    config does not match its ``config_digest``, whose loss trace is not a
    list of finite numbers, whose config, tensor names or tensor shapes are
    not those of that model, or whose label table no fit could have made,
    raises ``ValueError`` naming the file; ``load_checkpoint``'s errors are
    raised again with the same type, prefixed ``checkpoint <path>: ``."""
    try:
        tensors, metadata = load_checkpoint(path)
    except (CorruptCheckpoint, VersionMismatch) as exc:
        raise type(exc)(f"checkpoint {path}: {exc}") from None
    try:
        cfg = TrainConfig(**metadata["config"])
        # a fresh model's tensors are the ones to expect; its embedding rows
        # are lazy, so it costs next to nothing
        fresh = PropertyModel(cfg).params
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: bad config: {exc}") from None
    if metadata.get("config_digest") != cfg.digest():
        raise ValueError(f"checkpoint {path}: config_digest does not match its config")
    trace = metadata.get("loss_trace", [])
    if not isinstance(trace, list) or not all(type(x) in (int, float) and finite(x) for x in trace):
        raise ValueError(f"checkpoint {path}: loss_trace is not a list of finite numbers")
    expected = _shapes(fresh) | {name: (N_HEADS,) for name in _TRANSFORM_TENSORS}
    found = _shapes(tensors)
    if found != expected:
        wrong = sorted(n for n in found.keys() | expected.keys() if found.get(n) != expected.get(n))
        raise ValueError(f"checkpoint {path}: tensors {wrong} are missing, unexpected or misshapen")
    # the parameters in the order the model holds them
    params = {name: tensors[name] for name in fresh}
    try:
        model = PropertyModel(cfg, params, tensors.get("embed_rows"))
        transforms = obj.LabelTransforms(*(tensors[name] for name in _TRANSFORM_TENSORS))
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    return TrainedModel(model, transforms, trace)
