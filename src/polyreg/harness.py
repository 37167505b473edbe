"""Experiment harness: seeded splits, the matched synthesis-ablation run
and the task-level uncertainty report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .corpus import SynthConfig, gen_corpus
from .datasets import LeakageDetected, PromptInstance, build_dataset, scan_dataset_for_leaks
from .metrics import EvalReport, evaluate
from .records import extract_corpus
from .registry import PropertyRegistry, default_registry
from .trainer import TrainConfig, TrainedModel, train


@dataclass
class AblationRow:
    head_id: int
    name: str
    n: int
    r2_with_synthesis: float
    r2_sample_only: float

    @property
    def delta(self) -> float:
        return self.r2_sample_only - self.r2_with_synthesis


@dataclass
class AblationReport:
    rows: list[AblationRow]
    split_hash: str

    @property
    def mean_delta(self) -> float:
        return float(np.mean([r.delta for r in self.rows]))

    def to_table(self) -> str:
        lines = ["head_id\tname\tn\tr2_sample_synthesis\tr2_sample_only\tdelta"]
        for r in self.rows:
            lines.append(
                f"{r.head_id}\t{r.name}\t{r.n}\t{r.r2_with_synthesis:.6f}"
                f"\t{r.r2_sample_only:.6f}\t{r.delta:.6f}"
            )
        lines.append(f"# mean_delta\t{self.mean_delta:.6f}")
        lines.append(f"# split_hash\t{self.split_hash}")
        return "\n".join(lines) + "\n"


def split_samples(samples: list, seed: int, test_fraction: float = 0.2):
    """Seeded train/test split by sample position."""
    rng = np.random.default_rng(seed)
    n = len(samples)
    perm = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = set(perm[:n_test].tolist())
    train_set = [samples[i] for i in range(n) if i not in test_idx]
    test_set = [samples[i] for i in range(n) if i in test_idx]
    return train_set, test_set


def _sample_id_hash(instances: list[PromptInstance]) -> str:
    ids = sorted(inst.sample_id for inst in instances)
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()


def prepare_variant_datasets(
    synth_cfg: SynthConfig,
    split_seed: int,
    registry: PropertyRegistry | None = None,
):
    """Generate, extract and build both prompt variants on a shared split.

    The leakage guard runs on every built dataset; a nonzero hit count
    raises LeakageDetected, naming the variant and the part, before any
    training.
    """
    registry = registry or default_registry()
    corpus = gen_corpus(synth_cfg, registry)
    samples, _ = extract_corpus(corpus.text, registry)
    train_samples, test_samples = split_samples(samples, split_seed)
    datasets = {}
    for variant in ("sample_synthesis", "sample_only"):
        tr = build_dataset(train_samples, variant, registry)
        te = build_dataset(test_samples, variant, registry)
        for part, built in (("train", tr), ("test", te)):
            hits = scan_dataset_for_leaks(built, registry)
            if hits:
                raise LeakageDetected(f"{variant} {part} set: {hits} surviving target values")
        datasets[variant] = (tr, te)
    return datasets


def run_ablation(
    train_cfg: TrainConfig,
    synth_cfg: SynthConfig,
    registry: PropertyRegistry | None = None,
) -> AblationReport:
    """Train matched sample_synthesis / sample_only models and compare.

    Both runs share the seed, the corpus and the held-out split; only the
    input variant differs.
    """
    registry = registry or default_registry()
    datasets = prepare_variant_datasets(synth_cfg, train_cfg.seed, registry)
    reports: dict[str, EvalReport] = {}
    split_hashes = set()
    for variant, (train_set, test_set) in datasets.items():
        cfg = replace(train_cfg, variant=variant)
        trained = train(cfg, train_set, registry)
        reports[variant] = evaluate(trained, test_set, registry)
        split_hashes.add(_sample_id_hash(test_set))
    if len(split_hashes) != 1:
        raise AssertionError("ablation variants evaluated on different held-out splits")
    with_syn = {h.head_id: h for h in reports["sample_synthesis"].heads}
    without = {h.head_id: h for h in reports["sample_only"].heads}
    rows = []
    for head_id in sorted(set(with_syn) & set(without)):
        a, b = with_syn[head_id], without[head_id]
        if a.primary_r2 is None or b.primary_r2 is None:
            continue
        rows.append(
            AblationRow(
                head_id=head_id,
                name=a.name,
                n=a.n,
                r2_with_synthesis=a.primary_r2,
                r2_sample_only=b.primary_r2,
            )
        )
    return AblationReport(rows=rows, split_hash=split_hashes.pop())


@dataclass
class UncertaintyReport:
    head_ids: list[int]
    sigma: np.ndarray
    rmse_normalized: np.ndarray
    pearson: float | None
    spearman: float | None
    calibration_ratio: float
    low_signal: bool = False

    def to_table(self) -> str:
        lines = ["head_id\tsigma\trmse_normalized"]
        for h, s, r in zip(self.head_ids, self.sigma, self.rmse_normalized):
            lines.append(f"{h}\t{s:.6g}\t{r:.6g}")
        pe = "NA" if self.pearson is None else f"{self.pearson:.6f}"
        sp = "NA" if self.spearman is None else f"{self.spearman:.6f}"
        lines.append(f"# pearson\t{pe}")
        lines.append(f"# spearman\t{sp}")
        lines.append(f"# calibration_ratio\t{self.calibration_ratio:.6f}")
        lines.append(f"# low_signal\t{int(self.low_signal)}")
        return "\n".join(lines) + "\n"


LOW_SIGNAL_SPEARMAN = 0.3


def run_uncertainty_report(
    trained: TrainedModel,
    test_set: list[PromptInstance],
    registry: PropertyRegistry | None = None,
) -> UncertaintyReport:
    """Learned sigma vs held-out normalized RMSE across heads."""
    registry = registry or default_registry()
    report = evaluate(trained, test_set, registry)
    usable = [h for h in report.heads if h.rmse_normalized is not None]
    if len(usable) < 5:
        raise ValueError("uncertainty report needs at least 5 evaluated heads")
    # evaluate correlated and calibrated these same heads, in this order
    sp = report.uncertainty_spearman
    return UncertaintyReport(
        head_ids=[h.head_id for h in usable],
        sigma=np.array([report.sigma[h.head_id] for h in usable]),
        rmse_normalized=np.array([h.rmse_normalized for h in usable]),
        pearson=report.uncertainty_pearson,
        spearman=sp,
        calibration_ratio=report.calibration_ratio,
        low_signal=sp is None or abs(sp) < LOW_SIGNAL_SPEARMAN,
    )
