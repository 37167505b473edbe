"""Extraction audit: component precisions and strict record precision.

An audit record is one extracted property measurement keyed by record_id.
The audit compares extracted records against gold annotations on four
components (sample association, property mapping, value, unit); the strict
precision requires all four to be simultaneously correct.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from importlib import resources

from .lines import read_lines
from .units import normalize_unit


class MismatchedIds(Exception):
    """Extracted and gold record id sets differ, or one repeats an id."""


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
        """(name, precision) of every field but ``n``, in field order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "n"]


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
    for side, records, by_id in (("extracted", extracted, ext), ("gold", gold, ref)):
        if len(by_id) < len(records):  # the dict kept only the last of a repeated id
            rid = next(rid for rid, count in Counter(r.record_id for r in records).items() if count > 1)
            raise MismatchedIds(f"record {rid!r} repeats in the {side} records")
    if ext.keys() != ref.keys():
        rid = min(ext.keys() ^ ref.keys())
        where = "extracted records but not in the gold" if rid in ext else "gold records but not in the extracted"
        raise MismatchedIds(f"record {rid!r} is in the {where}")
    n = len(ref)
    if n == 0:
        raise MismatchedIds("empty record sets")
    # one row per gold record, in AuditReport's field order: sample, property, value, unit
    checks = [
        (e.sample_id == g.sample_id, e.head == g.head, _values_match(e.value, g.value), _units_match(e.unit, g.unit))
        for e, g in zip(map(ext.get, ref), ref.values())
    ]
    counts = [sum(column) for column in zip(*checks)] + [sum(map(all, checks))]  # strict: all four
    return AuditReport(n, *(count / n for count in counts))


# ---------------------------------------------------------------------------
# tabular file format: record_id <tab> sample_id <tab> head <tab> value <tab> unit


def read_records(path) -> list[AuditRecord]:
    """Records of an audit file; a malformed row, a non-finite value or a
    repeated record_id raises ``ValueError`` naming the file and the line."""
    return read_lines(path, _record, header="record_id", columns=5, key="record_id")


def _record(parts: list[str]) -> tuple[str, AuditRecord]:
    rid, sid, head, value, unit = parts
    value = float(value)
    if not math.isfinite(value):  # it could never match, not even itself
        raise ValueError(f"value {value!r} is not finite")
    return rid, AuditRecord(rid, sid, head, value, unit)


def bundled_fixture_paths():
    """Paths of the bundled 120-record audit fixture (extracted, gold)."""
    data = resources.files("polyreg.data")
    return data.joinpath("audit_extracted.tsv"), data.joinpath("audit_gold.tsv")


def load_bundled_fixture() -> tuple[list[AuditRecord], list[AuditRecord]]:
    ext_path, gold_path = bundled_fixture_paths()
    return read_records(ext_path), read_records(gold_path)
