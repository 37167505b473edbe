"""Extraction audit: component precisions and strict record precision.

An audit record is one extracted property measurement keyed by record_id.
The audit compares extracted records against gold annotations on four
components (sample association, property mapping, value, unit); the strict
precision requires all four to be simultaneously correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .units import normalize_unit


class MismatchedIds(Exception):
    """Extracted and gold record id sets differ."""


@dataclass(frozen=True)
class AuditRecord:
    record_id: str
    sample_id: str
    head: str
    value: float
    unit: str


@dataclass(frozen=True)
class AuditReport:
    n: int
    sample_assoc_precision: float
    property_precision: float
    value_precision: float
    unit_precision: float
    strict_precision: float

    def as_rows(self) -> list[tuple[str, float]]:
        return [
            ("sample_assoc_precision", self.sample_assoc_precision),
            ("property_precision", self.property_precision),
            ("value_precision", self.value_precision),
            ("unit_precision", self.unit_precision),
            ("strict_precision", self.strict_precision),
        ]


def _values_match(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _units_match(a: str, b: str) -> bool:
    ua, ub = normalize_unit(a), normalize_unit(b)
    if ua is None or ub is None:
        return a.strip() == b.strip()
    return ua.symbol == ub.symbol


def audit(extracted: list[AuditRecord], gold: list[AuditRecord]) -> AuditReport:
    """Score extracted records against gold annotations."""
    ext = {r.record_id: r for r in extracted}
    ref = {r.record_id: r for r in gold}
    if set(ext) != set(ref):
        raise MismatchedIds("extracted and gold record ids differ")
    n = len(ref)
    if n == 0:
        raise MismatchedIds("empty record sets")
    sample_ok = prop_ok = value_ok = unit_ok = strict_ok = 0
    for rid, g in ref.items():
        e = ext[rid]
        s = e.sample_id == g.sample_id
        p = e.head == g.head
        v = _values_match(e.value, g.value)
        u = _units_match(e.unit, g.unit)
        sample_ok += s
        prop_ok += p
        value_ok += v
        unit_ok += u
        strict_ok += s and p and v and u
    return AuditReport(
        n=n,
        sample_assoc_precision=sample_ok / n,
        property_precision=prop_ok / n,
        value_precision=value_ok / n,
        unit_precision=unit_ok / n,
        strict_precision=strict_ok / n,
    )


# ---------------------------------------------------------------------------
# tabular file format: record_id <tab> sample_id <tab> head <tab> value <tab> unit


def write_records(records: list[AuditRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("record_id\tsample_id\thead\tvalue\tunit\n")
        for r in records:
            fh.write(f"{r.record_id}\t{r.sample_id}\t{r.head}\t{r.value:.10g}\t{r.unit}\n")


def read_records(path) -> list[AuditRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("record_id"):
            raise ValueError(f"{path}: missing audit header row")
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
            rid, sid, head, value, unit = parts
            try:
                value = float(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            records.append(AuditRecord(rid, sid, head, value, unit))
    return records


def bundled_fixture_paths():
    """Paths of the bundled 120-record audit fixture (extracted, gold)."""
    data = resources.files("polyreg.data")
    return data.joinpath("audit_extracted.tsv"), data.joinpath("audit_gold.tsv")


def load_bundled_fixture() -> tuple[list[AuditRecord], list[AuditRecord]]:
    ext_path, gold_path = bundled_fixture_paths()
    return read_records(ext_path), read_records(gold_path)
