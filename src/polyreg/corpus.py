"""Synthetic literature-style corpus generator.

Each document describes one sample: a composition block (two base
polymers with a mixing ratio plus a filler) and a synthesis block with
discrete process settings.  True labels are a seeded deterministic
function of composition plus, scaled by the process-effect strength, of
the process settings, with per-head Gaussian noise; label distributions
are long-tailed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_DOCS, MECHANICAL_HEADS, SynthConfig  # noqa: F401
from .lines import replacing
from .registry import PropertyRegistry, default_registry

MONOMERS = [
    "polyalphene", "polybetine", "polycurene", "polydexane", "polyethrene",
    "polyfluxene", "polygrenine", "polyhexine", "polyindene", "polyjulene",
    "polykemene", "polylurene", "polymarene", "polynovene", "polyoxene",
    "polypyrene", "polyquorene", "polyrivene", "polysolene", "polytexene",
]
FILLERS = ["glassfiber", "carbonblack", "silica", "talc", "nanoclay", "unfilled"]
RATIOS = [30, 50, 70]
CURE_TIMES = [1, 2, 3, 5, 8]
CURE_TEMPS = [120, 140, 160, 180, 200]
ANNEAL_TEMPS = [60, 80, 100, 130, 150, 170]
LOADINGS = [0, 5, 10, 15, 20]

# group-level process sensitivity: mechanical full, thermal half
_GROUP_STRENGTH = {
    "mechanical": 1.0,
    "thermal": 0.5,
    "electrical_transport": 1.0,
    "physicochemical": 1.0,
}

# per-head value scales: linear heads (loc, scale), log heads (log10 base, span)
_HEAD_SCALE = {
    0: (30.0, 50.0), 1: (80.0, 60.0), 2: (50.0, 50.0), 3: (250.0, 60.0),
    4: (220.0, 60.0), 5: (1.4, 0.35), 6: (3.2, 0.4), 7: (5.0, 80.0),
    8: (1.6, 0.35), 9: (1.7, 0.35), 10: (2.0, 8.0), 11: (1.4, 0.35),
    12: (3.1, 0.4), 13: (-4.0, 1.2), 14: (0.6, 0.3), 15: (-0.3, 0.4),
    16: (0.9, 0.3), 17: (4.5, 0.5), 18: (4.9, 0.5), 19: (1.1, 0.8),
    20: (5.0, 25.0), 21: (1.5, 0.8),
}


@dataclass(slots=True)
class TruthRow:
    sample_id: str
    head_id: int
    value: float


@dataclass
class SynthCorpus:
    text: str  # the corpus file: each document after its ``== DOC <i> ==`` line
    truths: list[TruthRow]


def _format_value(head_id: int, value: float, registry: PropertyRegistry) -> tuple[str, str]:
    """Render a measurement value and its unit for the document text."""
    spec = registry.spec(head_id)
    unit = spec.canonical_unit
    if spec.name in ("youngs_modulus", "flexural_modulus") and value >= 1000.0:
        return f"{value / 1000.0:.5g}", "GPa"
    if unit == "-":
        return f"{value:.5g}", ""
    return f"{value:.5g}", unit


def gen_corpus(cfg: SynthConfig, registry: PropertyRegistry | None = None) -> SynthCorpus:
    """Generate documents plus ground-truth observations."""
    registry = registry or default_registry()
    rng = np.random.default_rng(cfg.seed)
    heads = list(cfg.heads)
    nh = len(heads)
    n = cfg.n_docs

    # seeded token-weight functions f_t (composition) and g_t (process)
    wf_mono = rng.uniform(0.0, 1.0, size=(nh, len(MONOMERS)))
    wf_fill = rng.uniform(0.0, 1.0, size=(nh, len(FILLERS)))
    wg = {
        "cure_time": rng.uniform(0.0, 1.0, size=(nh, len(CURE_TIMES))),
        "cure_temp": rng.uniform(0.0, 1.0, size=(nh, len(CURE_TEMPS))),
        "anneal": rng.uniform(0.0, 1.0, size=(nh, len(ANNEAL_TEMPS))),
        "loading": rng.uniform(0.0, 1.0, size=(nh, len(LOADINGS))),
    }

    m1 = rng.integers(0, len(MONOMERS), size=n)
    shift = rng.integers(1, len(MONOMERS), size=n)
    m2 = (m1 + shift) % len(MONOMERS)
    ratio = rng.choice(RATIOS, size=n)
    filler = rng.integers(0, len(FILLERS), size=n)
    cure_time = rng.integers(0, len(CURE_TIMES), size=n)
    cure_temp = rng.integers(0, len(CURE_TEMPS), size=n)
    anneal = rng.integers(0, len(ANNEAL_TEMPS), size=n)
    loading = rng.integers(0, len(LOADINGS), size=n)

    p = ratio / 100.0
    u = (
        p[None, :] * wf_mono[:, m1]
        + (1.0 - p)[None, :] * wf_mono[:, m2]
        + 0.5 * wf_fill[:, filler]
    )  # (nh, n)
    v = (
        wg["cure_time"][:, cure_time]
        + wg["cure_temp"][:, cure_temp]
        + wg["anneal"][:, anneal]
        + wg["loading"][:, loading]
    )
    zu = (u - u.mean(axis=1, keepdims=True)) / u.std(axis=1, keepdims=True)
    zv = (v - v.mean(axis=1, keepdims=True)) / v.std(axis=1, keepdims=True)

    noise = rng.standard_normal(size=(nh, n))
    values = np.zeros((nh, n))
    for k, head_id in enumerate(heads):
        spec = registry.spec(head_id)
        strength = _GROUP_STRENGTH[spec.group]
        eta = cfg.eta_for(head_id)
        s = zu[k] + cfg.gamma * strength * zv[k] + eta * noise[k]
        a, b = _HEAD_SCALE[head_id]
        if spec.log_space:
            values[k] = np.power(10.0, a + b * s)
        else:
            values[k] = a + b * np.exp(cfg.tail_skew * s)
        if not np.isfinite(values[k]).all():
            raise ValueError(f"head {head_id} ({spec.name}): a generated label is not finite")

    observe = rng.random(size=(nh, n)) < cfg.obs_prob
    fallback = rng.integers(0, nh, size=n)
    none_observed = ~observe.any(axis=0)
    observe[fallback[none_observed], np.flatnonzero(none_observed)] = True

    parts: list[str] = []
    truths: list[TruthRow] = []
    for i in range(n):
        sid = f"{i:05d}a"
        sample_line = (
            f"Sample: blend of {MONOMERS[m1[i]]} and {MONOMERS[m2[i]]} "
            f"at ratio {ratio[i]}:{100 - ratio[i]} with {FILLERS[filler[i]]} filler."
        )
        synth_line = (
            f"Synthesis: cured {CURE_TIMES[cure_time[i]]} h at {CURE_TEMPS[cure_temp[i]]} °C; "
            f"annealed at {ANNEAL_TEMPS[anneal[i]]} °C; "
            f"filler loading {LOADINGS[loading[i]]} %."
        )
        clauses = []
        for k, head_id in enumerate(heads):
            if not observe[k, i]:
                continue
            val_str, unit = _format_value(head_id, values[k, i], registry)
            name = registry.spec(head_id).name.replace("_", " ")
            clauses.append(f"{name} = {val_str} {unit}".rstrip())
            truths.append(TruthRow(sample_id=sid, head_id=head_id, value=float(values[k, i])))
        measured_line = "Measured " + "; ".join(clauses) + "."
        parts.append(
            f"== DOC {i:05d} ==\n== SAMPLE {sid} ==\n{sample_line}\n{synth_line}\n{measured_line}\n"
        )
    return SynthCorpus(text="".join(parts), truths=truths)


def write_corpus(corpus: SynthCorpus, path) -> None:
    with replacing(path) as fh:
        fh.write(corpus.text)
