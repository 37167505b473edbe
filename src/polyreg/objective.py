"""Training objective: z-score label normalization (log10 space for
order-of-magnitude heads), Gaussian-KDE inverse-density weights with 5th
percentile truncation, per-task weighted MSE and the homoscedastic
multi-task total loss with learned log-variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SILVERMAN_FLOOR = 1e-3
EPS_PERCENTILE = 5.0

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_KDE_CHUNK_ELEMENTS = 1 << 17


class DegenerateHead(Exception):
    """Fewer than 2 finite labels or zero variance at transform fit time."""


@dataclass
class LabelTransform:
    """Per-head z-score transform, in log10 space for log-scale heads."""

    log_space: bool
    mu: float
    sigma: float

    def normalize(self, y):
        t = np.log10(y) if self.log_space else np.asarray(y, dtype=np.float64)
        return (t - self.mu) / self.sigma

    def denormalize(self, z):
        t = np.asarray(z, dtype=np.float64) * self.sigma + self.mu
        return np.power(10.0, t) if self.log_space else t


def fit_transform(labels, log_space: bool) -> LabelTransform:
    """Fit the per-head transform on training labels.

    Non-finite labels, and non-positive ones on log-space heads, are
    dropped.  Raises DegenerateHead with fewer than 2 usable labels or zero
    variance.
    """
    y = np.asarray(labels, dtype=np.float64)
    y = y[np.isfinite(y)]
    if log_space:
        y = np.log10(y[y > 0])
    if y.size < 2:
        raise DegenerateHead(f"need at least 2 labels, got {y.size}")
    mu = float(y.mean())
    sigma = float(y.std())
    if sigma <= 0.0:
        raise DegenerateHead("zero label variance")
    return LabelTransform(log_space=log_space, mu=mu, sigma=sigma)


def silverman_bandwidth(y: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), floored at 1e-3."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    std = y.std(ddof=1) if n > 1 else 0.0
    q75, q25 = np.percentile(y, [75, 25])
    iqr = q75 - q25
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    return max(0.9 * spread * n ** (-0.2), SILVERMAN_FLOOR)


def kde_density(train: np.ndarray, h: float, y) -> np.ndarray:
    """Gaussian KDE: p(y) = (1/(n h)) sum_j phi((y - y_j)/h)."""
    train = np.asarray(train, dtype=np.float64)
    if train.size == 0:
        raise ValueError("empty training set")
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    # query rows in chunks of about 1 MiB of temporaries; each row's sum is
    # the same as over the whole (len(y), n) matrix at once
    step = max(1, _KDE_CHUNK_ELEMENTS // train.size)
    sums = np.empty(y.size)
    for start in range(0, y.size, step):
        u = (y[start : start + step, None] - train[None, :]) / h
        phi = np.exp(-0.5 * u * u) / _SQRT_2PI
        sums[start : start + step] = phi.sum(axis=1)
    return sums / (train.size * h)


def density_weights(densities, eps: float) -> np.ndarray:
    """Inverse-density weights, clamped at eps, normalized to mean 1."""
    p = np.asarray(densities, dtype=np.float64)
    if not eps > 0:
        raise ValueError("eps must be positive")
    raw = 1.0 / np.maximum(p, eps)
    return raw * (p.size / raw.sum())


def fit_density_model(normalized_labels) -> np.ndarray:
    """Per-sample weights of the labels: the inverse of their in-sample KDE
    density at the Silverman bandwidth, clamped at eps, the 5th percentile
    of those densities, and normalized to mean 1."""
    y = np.asarray(normalized_labels, dtype=np.float64)
    h = silverman_bandwidth(y)
    dens = kde_density(y, h, y)
    eps = float(np.percentile(dens, EPS_PERCENTILE))
    if eps <= 0:
        eps = max(float(dens.min()), 1e-300)
    return density_weights(dens, eps)


def task_losses(preds, targets, mask, weights):
    """KDE-weighted MSE of each head over the samples it has labels for.

    All arguments are (B, heads); ``mask`` marks the labelled entries.
    Returns (L, err, counts, present): the per-head losses (0 for heads with
    no label), the errors (0 where unlabelled), the label counts and which
    heads have any label.
    """
    counts = mask.sum(axis=0)
    present = counts > 0
    err = np.where(mask, preds - targets, 0.0)
    L = np.zeros(counts.size)
    np.divide((weights * err * err).sum(axis=0), counts, out=L, where=present)
    return L, err, counts, present


def total_loss(task_losses, rho) -> float:
    """Homoscedastic multi-task objective over the heads present:
    sum_t [ L_t * exp(-rho_t)/2 + rho_t/2 ] with rho_t = log sigma_t^2."""
    L = np.asarray(task_losses, dtype=np.float64)
    r = np.asarray(rho, dtype=np.float64)
    return float((L * np.exp(-r) / 2.0 + r / 2.0).sum())


def total_loss_grad_rho(task_losses, rho) -> np.ndarray:
    L = np.asarray(task_losses, dtype=np.float64)
    r = np.asarray(rho, dtype=np.float64)
    return -L * np.exp(-r) / 2.0 + 0.5


def total_loss_grad_preds(err, weights, counts, rho) -> np.ndarray:
    """d total / d preds from the ``task_losses`` terms: w err exp(-rho) / n
    per head, 0 for heads with no label."""
    scale = np.zeros(counts.size)
    np.divide(np.exp(-rho), counts, out=scale, where=counts > 0)
    return weights * err * scale[None, :]


def sigma_from_rho(rho) -> np.ndarray:
    return np.exp(np.asarray(rho, dtype=np.float64) / 2.0)
