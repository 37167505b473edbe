"""Training objective: z-score label normalization (log10 space for
order-of-magnitude heads), Gaussian-KDE inverse-density weights with 5th
percentile truncation, per-task weighted MSE and the homoscedastic
multi-task total loss with learned log-variances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .registry import N_HEADS

SILVERMAN_FLOOR = 1e-3
EPS_PERCENTILE = 5.0

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_KDE_CHUNK_ELEMENTS = 1 << 17

# Heads with more labels than this take the binned KDE in ``label_density``:
# the exact sum costs about 11 ms at 2,048 labels and grows as n².
BINNED_KDE_ABOVE = 2048
_BINS_PER_H = 64
_KERNEL_CUT_H = 10
_MAX_GRID = 1 << 20


@dataclass
class LabelTransforms:
    """Per-head z-score transforms, in log10 space for log-scale heads, as
    four (22,) arrays: the checkpoint tensors ``transform_mu``,
    ``transform_sigma``, ``transform_log`` and ``transform_valid``.  A head
    not fitted has NaN ``mu`` and ``sigma`` and a log flag of 0.  Raises
    ``ValueError`` on a table no fit could have made."""

    mu: np.ndarray = field(default_factory=lambda: np.full(N_HEADS, np.nan))
    sigma: np.ndarray = field(default_factory=lambda: np.full(N_HEADS, np.nan))
    log_space: np.ndarray = field(default_factory=lambda: np.zeros(N_HEADS))
    valid: np.ndarray = field(default_factory=lambda: np.zeros(N_HEADS))

    def __post_init__(self):
        fitted = self.valid == 1
        sigma_ok = np.isfinite(self.sigma) & (self.sigma > 0)
        for what, bad in (
            ("transform_valid is not 0 or 1", ~fitted & (self.valid != 0)),
            ("transform_mu is not finite", fitted & ~np.isfinite(self.mu)),
            ("transform_sigma is not finite and above 0", fitted & ~sigma_ok),
            ("transform_log is not 0 or 1", fitted & (self.log_space != 0) & (self.log_space != 1)),
        ):
            if bad.any():
                raise ValueError(f"{what} at heads {np.flatnonzero(bad).tolist()}")

    def fit(self, t: int, labels: np.ndarray, log_space: bool) -> None:
        """Fit head ``t`` on its cleaned training labels: finite, and
        positive on a log-space head.  With fewer than 2 labels or zero
        variance, ``sigma`` falls back to 1."""
        y = np.log10(labels) if log_space else labels
        sigma = y.std()
        self.mu[t] = y.mean()
        self.sigma[t] = 1.0 if sigma == 0.0 else sigma
        self.log_space[t] = log_space
        self.valid[t] = 1.0

    def normalize(self, t: int, y):
        v = np.log10(y) if self.log_space[t] else np.asarray(y, dtype=np.float64)
        return (v - self.mu[t]) / self.sigma[t]

    def denormalize(self, t: int, z):
        v = np.asarray(z, dtype=np.float64) * self.sigma[t] + self.mu[t]
        return np.power(10.0, v) if self.log_space[t] else v


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
    # query rows in chunks of about 1 MiB; each row is summed whole, so its
    # sum is the same as over the whole (len(y), n) matrix at once
    step = max(1, _KDE_CHUNK_ELEMENTS // train.size)
    buffer = np.empty((min(step, y.size), train.size))
    sums = np.empty(y.size)
    for start in range(0, y.size, step):
        rows = slice(start, min(start + step, y.size))
        p = buffer[: rows.stop - start]
        np.subtract(y[rows, None], train, out=p)
        p /= h
        # (u * u) * -0.5 has the bits of -0.5 * u * u: halving is exact,
        # and where u * u underflows or overflows exp gives 1 or 0 anyway
        p *= p
        p *= -0.5
        np.exp(p, out=p)
        p /= _SQRT_2PI
        p.sum(axis=1, out=sums[rows])
    return sums / (train.size * h)


def label_density(y: np.ndarray, h: float) -> np.ndarray:
    """Gaussian KDE of the labels ``y`` at each label, bandwidth ``h``.

    Up to BINNED_KDE_ABOVE labels this is the exact sum ``kde_density``.
    Above, the labels are binned linearly onto a grid of spacing
    ``h / _BINS_PER_H`` over ``[min - 10h, max + 10h]``, convolved by FFT
    with the Gaussian cut at ``±10h`` and read back at each label by linear
    interpolation (Silverman 1982, AS 176; Wand 1994): O(n + G log G) in
    place of O(n²).  The binned density errs by the order of (1/64)²
    relative (at most 8.8e-5 over normal, log-normal, Student-t(2) and
    60%-tied samples of 2,049 to 30,000 labels).  A grid of more than
    _MAX_GRID points (tails far wider than ``h``) takes the exact sum.
    """
    half = _BINS_PER_H * _KERNEL_CUT_H
    delta = h / _BINS_PER_H
    grid = np.ceil((y.max() - y.min()) / delta) + 2 * half + 1
    if y.size <= BINNED_KDE_ABOVE or not grid <= _MAX_GRID:
        return kde_density(y, h, y)
    grid = int(grid)
    x = (y - (y.min() - _KERNEL_CUT_H * h)) / delta
    i = x.astype(np.int64)  # x >= 0, so this is the floor
    frac = x - i
    counts = np.bincount(i, 1.0 - frac, grid) + np.bincount(i + 1, frac, grid)
    # every label sits at least ``half`` empty bins from either end, so a
    # circular convolution of length >= grid adds no wrapped term at a label
    n_fft = 1 << (grid - 1).bit_length()
    u = np.arange(half + 1) / _BINS_PER_H
    side = np.exp(-0.5 * u * u) / _SQRT_2PI
    kernel = np.zeros(n_fft)
    kernel[: half + 1] = side
    kernel[n_fft - half :] = side[:0:-1]
    smooth = np.fft.irfft(np.fft.rfft(counts, n_fft) * np.fft.rfft(kernel), n_fft)
    return ((1.0 - frac) * smooth[i] + frac * smooth[i + 1]) / (y.size * h)


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
    dens = label_density(y, silverman_bandwidth(y))
    eps = float(np.percentile(dens, EPS_PERCENTILE))
    if eps <= 0:
        eps = max(float(dens.min()), 1e-300)
    return density_weights(dens, eps)


def task_losses(preds, targets, mask, weights):
    """KDE-weighted MSE of each head over the samples it has labels for.

    All arguments are (B, heads); ``mask`` marks the labelled entries.
    Returns (L, werr, counts, present): the per-head losses (0 for heads
    with no label), the weighted errors ``weights * err`` (0 where
    unlabelled), the label counts and which heads have any label.
    """
    counts = mask.sum(axis=0)
    present = counts > 0
    err = np.where(mask, preds - targets, 0.0)
    werr = weights * err
    L = np.zeros(counts.size)
    np.divide((werr * err).sum(axis=0), counts, out=L, where=present)
    return L, werr, counts, present


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


def total_loss_grad_preds(werr, counts, rho) -> np.ndarray:
    """d total / d preds from the ``task_losses`` terms: w err exp(-rho) / n
    per head, 0 for heads with no label."""
    scale = np.zeros(counts.size)
    np.divide(np.exp(-rho), counts, out=scale, where=counts > 0)
    return werr * scale[None, :]


def sigma_from_rho(rho) -> np.ndarray:
    return np.exp(np.asarray(rho, dtype=np.float64) / 2.0)
