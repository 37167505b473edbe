"""The run configs, the prompt variants, and ``key = value`` files read
into dataclass fields, all without numpy.

``SynthConfig`` configures the synthetic corpus and ``TrainConfig`` the
model and its training; the CLI reads both from one file.  Each key is
routed by field name; a key can also name its section, as in
``synth.n_docs``.  A key that no section has is an error that names the
key, the file and the line, so a misspelled key never falls back
silently to a default.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

from .lines import read_lines
from .registry import N_HEADS

VARIANTS = ("sample_synthesis", "sample_only")

POOLING_MODES = ("mean", "attention")

MECHANICAL_HEADS = tuple(range(5, 13))


def finite(x) -> bool:
    """``math.isfinite(x)``, but False, not OverflowError, on a huge int."""
    return abs(x) <= sys.float_info.max if type(x) is int else math.isfinite(x)


# the most documents a corpus may hold, all drawn at once: a (heads, n_docs)
# float64 array of 22 heads is then 176 MiB; the paper's 276,400 fit
MAX_DOCS = 2**20


@dataclass
class SynthConfig:
    seed: int = 0
    n_docs: int = 5000
    heads: tuple[int, ...] = MECHANICAL_HEADS
    eta: float | dict[int, float] = 0.08
    gamma: float = 0.5
    tail_skew: float = 0.6
    obs_prob: float = 0.35

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        # one document has no spread to z-score its labels by
        if self.n_docs < 2:
            raise ValueError(f"n_docs must be at least 2, got {self.n_docs}")
        if self.n_docs > MAX_DOCS:
            raise ValueError(f"n_docs must be at most MAX_DOCS = {MAX_DOCS}, got {self.n_docs}")
        heads = list(self.heads)
        if not heads or len(set(heads)) < len(heads) or not set(heads) <= set(range(N_HEADS)):
            raise ValueError(f"heads must be distinct head ids in 0..{N_HEADS - 1}, got {self.heads}")
        unknown = sorted(set(self.eta) - set(heads)) if isinstance(self.eta, dict) else []
        if unknown:
            raise ValueError(f"eta names heads {unknown} that are not in heads {self.heads}")
        etas = self.eta.values() if isinstance(self.eta, dict) else [self.eta]
        for name, values in (("eta", etas), ("gamma", [self.gamma]), ("tail_skew", [self.tail_skew])):
            if not all(finite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 <= self.obs_prob <= 1:
            raise ValueError(f"obs_prob must be in [0, 1], got {self.obs_prob}")

    def eta_for(self, head_id: int) -> float:
        if isinstance(self.eta, dict):
            return float(self.eta.get(head_id, 0.08))
        return float(self.eta)


# the least value of each TrainConfig field that has one
_MINIMUMS = dict(seed=0, batch_size=1, epochs=0, lr=0, rho_lr=0, vocab_size=1, rank=1, hidden_dim=1)

# the most dense parameter values a model may hold: 1 GiB of float64
MAX_DENSE_PARAMS = 2**27

# the width of the regressor's bottleneck, between its trunk and its heads
BOTTLENECK_DIM = 128


@dataclass
class TrainConfig:
    """The model's shape and its training; ``digest`` hashes the fields
    with their keys sorted."""

    seed: int = 0
    batch_size: int = 64
    epochs: int = 10
    lr: float = 1e-3
    rho_lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 5.0
    variant: str = "sample_synthesis"
    pooling_mode: str = "mean"
    vocab_size: int = 2**16
    dim: int = 64
    rank: int = 8
    alpha: float = 16.0
    hidden_dim: int = 128
    n_blocks: int = 2
    freeze_embeddings: bool = False
    freeze_encoder: bool = False
    freeze_trunk: bool = False

    def __post_init__(self):
        for name in ("lr", "rho_lr", "grad_clip", "adam_eps", "alpha"):
            if not finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name, low in _MINIMUMS.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.vocab_size > 2**63:  # bucket ids are int64
            raise ValueError(f"vocab_size must be at most 2**63, got {self.vocab_size}")
        # a clip of 0 freezes training and a negative one ascends
        for name in ("grad_clip", "adam_eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be above 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.rank < self.dim:
            raise ValueError("low-rank condition requires rank < dim")
        if self.pooling_mode not in POOLING_MODES:
            raise ValueError(f"unknown pooling mode {self.pooling_mode!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n_blocks < 1:
            raise ValueError("at least one residual block required")
        # every dense tensor is allocated up front: w0, the trunk's input
        # projection, its blocks and the regressor's bottleneck
        d, h = self.dim, self.hidden_dim
        dense = d * d + h * d + self.n_blocks * h * h + BOTTLENECK_DIM * h
        if dense > MAX_DENSE_PARAMS:
            raise ValueError(
                f"dim {d}, hidden_dim {h} and n_blocks {self.n_blocks} make {dense} "
                f"dense parameters, more than {MAX_DENSE_PARAMS}"
            )

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        ).hexdigest()


_TRUE = ("1", "true", "yes")
_FALSE = ("0", "false", "no")


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _TRUE + _FALSE:
        raise ValueError(raw)
    return raw.lower() in _TRUE


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _parse_float_or_map(raw: str) -> float | dict[int, float]:
    """``0.1``, or per-key values as ``5:0.1,6:0.2``."""
    if ":" not in raw:
        return float(raw)
    pairs = (pair.split(":") for pair in raw.split(","))
    return {int(k): float(v) for k, v in pairs}


# value parser by field annotation (the config modules postpone annotations)
_PARSERS = {
    "bool": _parse_bool,
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _parse_int_tuple,
    "float | dict[int, float]": _parse_float_or_map,
}


def read_config(path, sections: dict[str, type]) -> dict[str, dict]:
    """Keyword arguments for each dataclass in ``sections`` (name -> class).

    A plain key goes to every section whose dataclass has a field of that
    name, so a shared field such as ``seed`` reaches them all;
    ``<section>.<key>`` goes to that section alone.  Text after ``#`` is a
    comment.  Unknown keys, lines without ``=`` and unparsable values
    raise ``ValueError`` naming the file and the line, and values no
    section's dataclass accepts raise it naming the file.
    """
    known = {name: {f.name: f.type for f in fields(cls)} for name, cls in sections.items()}
    values: dict[str, dict] = {name: {} for name in sections}

    def assign(line: str) -> None:
        line = line.split("#", 1)[0].strip()
        if not line:
            return
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        section, _, name = key.rpartition(".")
        targets = [section] if section else list(sections)
        hits = [s for s in targets if name in known.get(s, {})]
        if not hits:
            raise ValueError(f"unknown config key {key!r}")
        for s in hits:
            try:
                values[s][name] = _PARSERS[known[s][name]](raw)
            except ValueError:
                raise ValueError(f"bad value {raw!r} for {key!r}") from None

    read_lines(path, assign)
    for name, cls in sections.items():
        try:
            cls(**values[name])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return values
