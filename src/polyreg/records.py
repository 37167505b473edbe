"""Quantity parsing and observation extraction from literature-style text.

Documents follow the fixture format: sample sections delimited by lines of
the form ``== SAMPLE <id> ==``.  Inside a section, ``Sample:`` lines carry
the material description, ``Synthesis:`` lines the processing history, and
any other line may contain ``<property> = <quantity>`` measurement clauses
separated by semicolons.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields

from .registry import PropertyRegistry, PropertySpec, default_registry
from .units import IncompatibleUnit, convert, normalize_unit


class ParseFailure(Exception):
    """Span does not contain a single parseable quantity."""


class MalformedDocument(Exception):
    """Sample delimiters are missing or malformed."""


_NUM = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_NUM_RE = re.compile(_NUM)
_LIMIT_RE = re.compile(rf"^\s*(>=|<=|>|<|≥|≤)\s*({_NUM})\s*(.*)$")
_RANGE_RE = re.compile(rf"^\s*({_NUM})\s*(?:–|—|‐|-|\bto\b)\s*({_NUM})\s*(.*)$")
_TOL_RE = re.compile(rf"^\s*({_NUM})\s*(?:±|\+/-|\+-)\s*({_NUM})\s*(.*)$")
_POINT_RE = re.compile(rf"^\s*({_NUM})\s*(.*)$")


@dataclass(frozen=True)
class Quantity:
    kind: str  # point | range | limit
    value: float | None = None
    lo: float | None = None
    hi: float | None = None
    bound: float | None = None
    direction: str | None = None  # greater | less
    unit: str | None = None

    def __post_init__(self):
        if self.kind == "range" and not self.lo < self.hi:
            raise ParseFailure(f"range requires lo < hi, got {self.lo}..{self.hi}")


# all scalars: the file IO copies them by name, not by asdict's deep copy
_QUANTITY_FIELDS = tuple(f.name for f in fields(Quantity))


@dataclass(frozen=True)
class PropertyObservation:
    sample_id: str
    head_id: int
    quantity: Quantity
    canonical_value: float | None
    source_span: tuple[int, int] = (0, 0)


@dataclass
class ExtractedSample:
    sample_id: str
    sample_text: str = ""
    synthesis_text: str = ""
    observations: list[PropertyObservation] = field(default_factory=list)


@dataclass
class ExtractionCounters:
    unmapped: int = 0
    parse_failures: int = 0
    incompatible_units: int = 0


def _unit_tail(tail: str) -> str | None:
    """Validate the trailing unit portion of a quantity span."""
    tail = tail.strip().rstrip(".")
    if _NUM_RE.search(tail):
        raise ParseFailure(f"trailing text contains another number: {tail!r}")
    if len(tail) > 16:
        raise ParseFailure(f"trailing text too long for a unit: {tail!r}")
    return tail or None


def _number(num: str, text: str) -> float:
    value = float(num)
    if not math.isfinite(value):
        raise ParseFailure(f"non-finite number {num!r} in {text!r}")
    return value


def parse_quantity(text: str) -> Quantity:
    """Parse a measurement span into a point, range or inequality limit.

    Recognizes decimal/scientific numbers, dash/"to" ranges, ± tolerances
    (the tolerance is dropped) and >/≥/</≤ limits, each with an optional
    trailing unit token.  Raises ParseFailure otherwise, and on a number
    too large to be finite (``1e999``).
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseFailure("empty span")
    m = _LIMIT_RE.match(text)
    if m:
        op, num, tail = m.groups()
        direction = "greater" if op in (">", ">=", "≥") else "less"
        return Quantity(kind="limit", bound=_number(num, text), direction=direction, unit=_unit_tail(tail))
    m = _TOL_RE.match(text)
    if m:
        num, _tol, tail = m.groups()
        return Quantity(kind="point", value=_number(num, text), unit=_unit_tail(tail))
    m = _RANGE_RE.match(text)
    if m:
        lo, hi, tail = m.groups()
        lo, hi = _number(lo, text), _number(hi, text)
        if not lo < hi:
            raise ParseFailure(f"range requires lo < hi in {text!r}")
        return Quantity(kind="range", lo=lo, hi=hi, unit=_unit_tail(tail))
    m = _POINT_RE.match(text)
    if m:
        num, tail = m.groups()
        return Quantity(kind="point", value=_number(num, text), unit=_unit_tail(tail))
    raise ParseFailure(f"no number found in {text!r}")


def to_canonical(q: Quantity, head: PropertySpec) -> float | None:
    """Convert a quantity to the head's canonical unit.

    Points convert directly, ranges convert endpoint-wise and collapse to
    the midpoint, limits give None (they carry no regression label).
    Raises IncompatibleUnit on a dimension mismatch.
    """
    if q.kind == "limit":
        return None
    unit = q.unit
    if unit is None and normalize_unit(head.canonical_unit).dimension != "dimensionless":
        raise IncompatibleUnit(f"head {head.name} requires a {head.canonical_unit} compatible unit")
    if unit is None:
        unit = "-"
    if q.kind == "point":
        return convert(q.value, unit, head.canonical_unit)
    lo = convert(q.lo, unit, head.canonical_unit)
    hi = convert(q.hi, unit, head.canonical_unit)
    return 0.5 * (lo + hi)


_SAMPLE_RE = re.compile(r"^== SAMPLE (\S+) ==$")


def _match_alias(lhs: str, registry: PropertyRegistry) -> PropertySpec | None:
    """Resolve the left-hand side of a measurement clause to a head.

    Tries the whole phrase first, then progressively shorter word suffixes
    ("measured tensile strength" -> "tensile strength").
    """
    words = lhs.strip().split()
    for start in range(len(words)):
        candidate = " ".join(words[start:])
        if candidate:
            spec = registry.lookup(candidate)
            if spec is not None:
                return spec
    return None


def _extract_clauses(
    line: str,
    offset: int,
    sample_id: str,
    registry: PropertyRegistry,
    counters: ExtractionCounters,
) -> list[PropertyObservation]:
    observations = []
    pos = 0
    for clause in line.split(";"):
        start = offset + pos
        pos += len(clause) + 1
        if "=" not in clause:
            continue
        lhs, rhs = clause.split("=", 1)
        if not _NUM_RE.search(rhs):
            continue
        spec = _match_alias(lhs, registry)
        if spec is None:
            counters.unmapped += 1
            continue
        try:
            quantity = parse_quantity(rhs)
        except ParseFailure:
            counters.parse_failures += 1
            continue
        try:
            canonical = to_canonical(quantity, spec)
        except IncompatibleUnit:
            counters.incompatible_units += 1
            continue
        observations.append(
            PropertyObservation(
                sample_id=sample_id,
                head_id=spec.head_id,
                quantity=quantity,
                canonical_value=canonical,
                source_span=(start, start + len(clause)),
            )
        )
    return observations


def extract_document(
    doc: str,
    registry: PropertyRegistry | None = None,
    counters: ExtractionCounters | None = None,
) -> list[ExtractedSample]:
    """Extract per-sample observations from one sample-delimited document."""
    registry = registry or default_registry()
    counters = counters if counters is not None else ExtractionCounters()
    samples: list[ExtractedSample] = []
    current: ExtractedSample | None = None
    seen_ids: set[str] = set()
    offset = 0
    for line in doc.splitlines(keepends=True):
        stripped = line.rstrip("\n")
        if "== SAMPLE" in stripped:
            m = _SAMPLE_RE.match(stripped.strip())
            if m is None:
                raise MalformedDocument(f"malformed sample delimiter: {stripped!r}")
            sid = m.group(1)
            if sid in seen_ids:
                raise MalformedDocument(f"duplicate sample id {sid!r}")
            seen_ids.add(sid)
            current = ExtractedSample(sample_id=sid)
            samples.append(current)
        elif current is not None:
            body = stripped.strip()
            if body.startswith("Sample:"):
                current.sample_text = (current.sample_text + " " + body[len("Sample:"):].strip()).strip()
            elif body.startswith("Synthesis:"):
                current.synthesis_text = (current.synthesis_text + " " + body[len("Synthesis:"):].strip()).strip()
            elif body:
                current.observations.extend(
                    _extract_clauses(stripped, offset, current.sample_id, registry, counters)
                )
        offset += len(line)
    if not samples:
        raise MalformedDocument("document contains no sample sections")
    return samples


def split_corpus(text: str) -> list[str]:
    """Split a corpus file into documents on ``== DOC <id> ==`` headers."""
    docs: list[str] = []
    current: list[str] = []
    for line in text.splitlines(keepends=True):
        if line.strip().startswith("== DOC "):
            if current:
                docs.append("".join(current))
            current = []
        else:
            current.append(line)
    if current and "".join(current).strip():
        docs.append("".join(current))
    return docs


def extract_corpus(
    text: str, registry: PropertyRegistry | None = None
) -> tuple[list[ExtractedSample], ExtractionCounters]:
    """Extract every document in a corpus file, in document order."""
    registry = registry or default_registry()
    counters = ExtractionCounters()
    samples: list[ExtractedSample] = []
    for doc in split_corpus(text):
        if not doc.strip():
            continue
        samples.extend(extract_document(doc, registry, counters))
    return samples, counters


# ---- extracted-sample file IO (one JSON record per line) ------------------


def save_extracted(samples: list[ExtractedSample], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in samples:
            row = {
                "sample_id": s.sample_id,
                "sample_text": s.sample_text,
                "synthesis_text": s.synthesis_text,
                "observations": [
                    {
                        "head_id": o.head_id,
                        **{name: getattr(o.quantity, name) for name in _QUANTITY_FIELDS},
                        "canonical_value": o.canonical_value,
                        "span": list(o.source_span),
                    }
                    for o in s.observations
                ],
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def load_extracted(path) -> list[ExtractedSample]:
    """Read save_extracted's file; a malformed line raises a ValueError naming it."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                samples.append(
                    ExtractedSample(
                        sample_id=row["sample_id"],
                        sample_text=row["sample_text"],
                        synthesis_text=row["synthesis_text"],
                        observations=[
                            PropertyObservation(
                                sample_id=row["sample_id"],
                                head_id=o["head_id"],
                                quantity=Quantity(**{name: o[name] for name in _QUANTITY_FIELDS}),
                                canonical_value=o["canonical_value"],
                                source_span=tuple(o["span"]),
                            )
                            for o in row["observations"]
                        ],
                    )
                )
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError, ParseFailure) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return samples
