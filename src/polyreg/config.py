"""The run config, and ``key = value`` files read into dataclass fields.

``TrainConfig`` configures the model and its training alike.  One file
may configure several dataclasses at once (the CLI reads the corpus's
``SynthConfig`` and the ``TrainConfig`` from one file).  Each key is
routed by field name; a key can also name its section, as in
``synth.n_docs``.  A key that no section has is an error that names the
key and the file, so a misspelled key never falls back silently to a
default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

POOLING_MODES = ("mean", "attention")
# the least value of each TrainConfig field that has one
_MINIMUMS = dict(batch_size=1, epochs=0, lr=0, rho_lr=0, vocab_size=1, rank=1, hidden_dim=1)


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
        for name in ("lr", "rho_lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name, low in _MINIMUMS.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not self.rank < self.dim:
            raise ValueError("low-rank condition requires rank < dim")
        if self.pooling_mode not in POOLING_MODES:
            raise ValueError(f"unknown pooling mode {self.pooling_mode!r}")
        if self.n_blocks < 1:
            raise ValueError("at least one residual block required")

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
    comment.  Unknown keys, lines without ``=``, unparsable values and
    values no section's dataclass accepts raise ``ValueError`` naming the
    file.
    """
    known = {name: {f.name: f.type for f in fields(cls)} for name, cls in sections.items()}
    values: dict[str, dict] = {name: {} for name in sections}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            section, _, name = key.rpartition(".")
            targets = [section] if section else list(sections)
            hits = [s for s in targets if name in known.get(s, {})]
            if not hits:
                raise ValueError(f"{path}: unknown config key {key!r}")
            for s in hits:
                try:
                    values[s][name] = _PARSERS[known[s][name]](raw)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad value {raw!r} for {key!r}") from None
    for name, cls in sections.items():
        try:
            cls(**values[name])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return values
