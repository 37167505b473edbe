"""Evaluation: linear/log R², MAE, RMSE per head, macro aggregation,
task-level uncertainty correlation and calibration, and strict numeric
parsing for scoring external prediction files.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import regressor as reg
from .lines import read_lines
from .model import encode, make_batch
from .objective import sigma_from_rho
from .records import _NUM_RE, ParseFailure, parse_quantity, to_canonical
from .registry import N_HEADS, PropertyRegistry, PropertySpec, default_registry
from .units import IncompatibleUnit


class ZeroVariance(Exception):
    """All targets equal; R² undefined."""


def r_squared(targets, preds, space: str = "linear") -> tuple[float, int]:
    """1 - SSE/SST in the chosen space; returns (r2, n_excluded).

    Log space excludes pairs with a non-positive target or prediction and
    reports the exclusion count.
    """
    y = np.asarray(targets, dtype=np.float64)
    p = np.asarray(preds, dtype=np.float64)
    excluded = 0
    if space == "log10":
        keep = (y > 0) & (p > 0)
        excluded = int((~keep).sum())
        y, p = np.log10(y[keep]), np.log10(p[keep])
    elif space != "linear":
        raise ValueError(f"unknown space {space!r}")
    if y.size < 2:
        raise ZeroVariance("need at least 2 usable pairs")
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        raise ZeroVariance("all targets equal")
    sse = float(((y - p) ** 2).sum())
    return 1.0 - sse / sst, excluded


def mae(targets, preds) -> float:
    y = np.asarray(targets, dtype=np.float64)
    p = np.asarray(preds, dtype=np.float64)
    return float(np.abs(p - y).mean())


def rmse(targets, preds) -> float:
    y = np.asarray(targets, dtype=np.float64)
    p = np.asarray(preds, dtype=np.float64)
    return float(np.sqrt(((p - y) ** 2).mean()))


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc, yc = x - x.mean(), y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        raise ZeroVariance("zero variance in correlation input")
    return float((xc * yc).sum() / denom)


def average_ranks(a) -> np.ndarray:
    """1-based ranks of the flattened input, ties sharing their mean rank.

    Equals ``scipy.stats.rankdata(a)`` bitwise, without importing
    ``scipy.stats``: any NaN makes every rank NaN, and the result is float64.
    """
    arr = np.ravel(np.asarray(a))
    if np.isnan(arr).any():
        return np.full(arr.size, np.nan)
    order = np.argsort(arr, kind="mergesort")
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.arange(order.size, dtype=np.intp)
    s = arr[order]
    first = np.r_[True, s[1:] != s[:-1]]
    dense = first.cumsum()[inverse]
    count = np.r_[np.nonzero(first)[0], first.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def rank_correlations(x, y) -> tuple[float, float]:
    """(Pearson, Spearman); Spearman is Pearson on average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 3:
        raise ValueError("need equal lengths >= 3")
    return pearson(x, y), pearson(average_ranks(x), average_ranks(y))


def calibration_ratio(rmse_per_head, sigma_per_head) -> float:
    """Mean over heads of RMSE_t / sigma_t (normalized space)."""
    r = np.asarray(rmse_per_head, dtype=np.float64)
    s = np.asarray(sigma_per_head, dtype=np.float64)
    if np.any(s <= 0):
        raise ValueError("sigma must be positive")
    return float((r / s).mean())


# ---- strict numeric-response parsing --------------------------------------


def strict_numeric_parse(text: str, head: PropertySpec | None = None) -> float | None:
    """Accept a response that is exactly one number with an optional unit.

    Ranges, hedged prose and multiple numbers are rejected (None).  With a
    head, the value converts to the head's canonical unit; an unknown or
    incompatible unit also rejects, as does a value that overflows it.
    """
    if not isinstance(text, str):
        return None
    stripped = text.strip().rstrip(".")
    if len(_NUM_RE.findall(stripped)) != 1:
        return None
    try:
        q = parse_quantity(stripped)
    except ParseFailure:
        return None
    if q.kind != "point":
        return None
    if head is None or q.unit is None:
        return q.value  # a bare number is read in the head's canonical unit
    try:
        return to_canonical(q, head)
    except (IncompatibleUnit, ParseFailure):  # "1e308 GPa" is inf MPa
        return None


# ---- report ---------------------------------------------------------------


@dataclass
class HeadResult:
    head_id: int
    name: str
    n: int
    r2_linear: float | None
    r2_log: float | None
    mae: float
    rmse: float
    rmse_normalized: float | None
    primary_metric: str  # "linear" or "log"
    log_excluded: int = 0

    @property
    def primary_r2(self) -> float | None:
        return self.r2_log if self.primary_metric == "log" else self.r2_linear


@dataclass
class EvalReport:
    heads: list[HeadResult]
    macro_r2_linear: float | None = None
    macro_r2_log: float | None = None
    macro_primary_r2: float | None = None
    uncertainty_pearson: float | None = None
    uncertainty_spearman: float | None = None
    calibration_ratio: float | None = None
    sigma: dict[int, float] = field(default_factory=dict)

    def to_json(self) -> str:
        # json writes the int keys of ``sigma`` as strings
        return json.dumps(asdict(self), indent=2)

    def to_table(self) -> str:
        lines = ["head_id\tname\tn\tr2_linear\tr2_log\tmae\trmse\tprimary"]
        for h in self.heads:
            r2l = "NA" if h.r2_linear is None else f"{h.r2_linear:.6f}"
            r2g = "NA" if h.r2_log is None else f"{h.r2_log:.6f}"
            lines.append(
                f"{h.head_id}\t{h.name}\t{h.n}\t{r2l}\t{r2g}\t{h.mae:.6g}\t{h.rmse:.6g}\t{h.primary_metric}"
            )
        return "\n".join(lines) + "\n"


PREDICT_CHUNK = 256  # prompts a forward pass of ``predict`` takes


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps
    one (so taskset and cpusets count), else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def predict(trained, instances) -> np.ndarray:
    """Canonical-unit predictions (n, 22) for a list of prompt instances.

    The calling thread encodes the instances in one ``encode`` call (a
    table of the call's distinct pieces and one id buffer), then pools
    and projects each chunk of PREDICT_CHUNK prompts in order.  Each
    chunk's trunk and heads run with no backward cache
    (``regressor.infer``) on one of ``workers`` threads, one per usable
    CPU and at most one per chunk: the calling thread runs every
    ``workers``-th chunk, the last chunk among them, and deals the rest
    to a pool of ``workers - 1`` threads.  A chunk takes
    the same operations on any thread, so the predictions are those of
    ``PropertyModel.forward`` bitwise at any worker count.  If chunks
    fail, the earliest one's exception is raised.
    """
    n = len(instances)
    model = trained.model
    params, cfg = model.params, model.cfg
    encoded = encode([i.text for i in instances], cfg.vocab_size)
    preds_norm = np.empty((n, N_HEADS))
    starts = range(0, n, PREDICT_CHUNK)
    workers = max(1, min(_usable_cpus(), len(starts)))

    def run(start: int, projected: np.ndarray) -> None:
        # numpy only, and nothing a tracer rebinds: it runs on pool threads
        preds_norm[start : start + len(projected)] = reg.infer(projected, params, cfg)

    dealt = []
    # the pool starts its threads on the first submit, so one worker starts none
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        try:
            for chunk, start in enumerate(starts):
                batch = make_batch(encoded[start : start + PREDICT_CHUNK])
                projected = model.pool_project(batch)[3]
                if (len(starts) - 1 - chunk) % workers == 0:
                    run(start, projected)
                else:
                    dealt.append(pool.submit(run, start, projected))
        finally:
            # every chunk dealt so far precedes one the calling thread raised on
            for future in dealt:
                future.result()
    preds = np.full((n, N_HEADS), np.nan)
    for t in np.flatnonzero(trained.transforms.valid):
        preds[:, t] = trained.transforms.denormalize(t, preds_norm[:, t])
    return preds


MIN_HEAD_N = 2  # scored pairs a head needs to appear in a report


def _scored(instances, preds, registry: PropertyRegistry, transforms=None) -> EvalReport:
    """The report of canonical-unit predictions ``preds`` (n, 22; NaN for
    none) against the labels of ``instances``: each head with at least
    MIN_HEAD_N labelled rows of finite prediction, scored in instance order.
    With ``transforms``, RMSE is also read in normalized space, where a
    log-space head keeps only its positive labels and clips its predictions
    at 1e-300; a linear head's are taken as they are."""
    labels = np.array([i.labels for i in instances], dtype=np.float64).reshape(-1, N_HEADS)
    masks = np.array([i.label_mask for i in instances], dtype=bool).reshape(-1, N_HEADS)
    heads: list[HeadResult] = []
    for t in range(N_HEADS):
        idx = np.flatnonzero(masks[:, t] & np.isfinite(preds[:, t]))
        if idx.size < MIN_HEAD_N:
            continue
        y, p = labels[idx, t], preds[idx, t]
        rmse_norm = None
        if transforms is not None:
            y_n, p_n = (y[y > 0], np.maximum(p[y > 0], 1e-300)) if transforms.log_space[t] else (y, p)
            if y_n.size >= 2:
                rmse_norm = rmse(transforms.normalize(t, y_n), transforms.normalize(t, p_n))
        try:
            r2_lin, _ = r_squared(y, p, "linear")
        except ZeroVariance:
            r2_lin = None
        try:
            r2_log, excluded = r_squared(y, p, "log10")
        except ZeroVariance:
            r2_log, excluded = None, 0
        spec = registry.spec(t)
        primary = "log" if spec.log_space else "linear"
        heads.append(
            HeadResult(t, spec.name, int(y.size), r2_lin, r2_log, mae(y, p), rmse(y, p), rmse_norm, primary, excluded)
        )

    def mean(values):
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else None

    return EvalReport(
        heads=heads,
        macro_r2_linear=mean(h.r2_linear for h in heads),
        macro_r2_log=mean(h.r2_log for h in heads),
        macro_primary_r2=mean(h.primary_r2 for h in heads),
    )


def evaluate(trained, instances, registry: PropertyRegistry | None = None) -> EvalReport:
    """Score a trained model on held-out prompt instances.  Raises
    ``ValueError`` if an instance's variant is not the model's."""
    if not instances:
        raise ValueError("evaluate: the instance list is empty")
    trained_on = trained.model.cfg.variant
    wrong = next((inst.variant for inst in instances if inst.variant != trained_on), None)
    if wrong is not None:
        raise ValueError(f"evaluate: an instance has variant {wrong!r}, but the model was trained on {trained_on!r}")
    registry = registry or default_registry()
    report = _scored(instances, predict(trained, instances), registry, trained.transforms)
    sigma = sigma_from_rho(trained.model.params["rho"])
    report.sigma = {h.head_id: float(sigma[h.head_id]) for h in report.heads}
    usable = [h for h in report.heads if h.rmse_normalized is not None]
    if len(usable) >= 3:
        svec = np.array([report.sigma[h.head_id] for h in usable])
        rvec = np.array([h.rmse_normalized for h in usable])
        try:
            report.uncertainty_pearson, report.uncertainty_spearman = rank_correlations(
                svec, rvec
            )
        except ZeroVariance:
            pass
        report.calibration_ratio = calibration_ratio(rvec, svec)
    return report


def score_prediction_file(
    path, instances, registry: PropertyRegistry | None = None
) -> tuple[EvalReport, float]:
    """Score an external baseline file of (sample_id, head, response text).

    Responses pass through strict numeric parsing; the retention fraction
    (parsed / total) is returned alongside the report, which scores the
    parsed responses whose sample has a label for the head, in the order of
    ``instances`` whatever the order of the file's lines.  A line without
    the three tab-separated columns, with a head the registry does not know
    or a sample not in ``instances``, or a second response for one sample
    and head raises ``ValueError`` naming the file and the line.
    """
    registry = registry or default_registry()
    row = {inst.sample_id: i for i, inst in enumerate(instances)}

    def response(line: str):
        parts = line.split("\t", 2)
        if len(parts) != 3 or not parts[1].strip():
            raise ValueError(f"expected sample_id, head, response; got {line!r}")
        sid, head_name, text = parts
        spec = registry.lookup(head_name)
        if spec is None:
            raise ValueError(f"unknown head {head_name!r}")
        if sid not in row:
            raise ValueError(f"sample {sid!r} is not in the dataset")
        return (sid, spec.name), (row[sid], spec.head_id, strict_numeric_parse(text, spec))

    parsed = read_lines(path, response, header="sample_id", key="sample_id and head")
    preds = np.full((len(instances), N_HEADS), np.nan)
    for i, t, value in parsed:
        if value is not None:
            preds[i, t] = value
    kept = sum(value is not None for _, _, value in parsed)
    retention = kept / len(parsed) if parsed else 0.0
    return _scored(instances, preds, registry), retention
