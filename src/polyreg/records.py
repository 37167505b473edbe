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
import operator
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote

from .config import finite
from .lines import read_lines, replacing
from .registry import N_HEADS, PropertyRegistry, PropertySpec, default_registry
from .units import IncompatibleUnit, normalize_unit


class ParseFailure(Exception):
    """Span does not contain a single parseable quantity."""


class MalformedDocument(Exception):
    """Sample delimiters are missing, malformed or repeated at ``line``, which
    extraction counts from 1 in the text it is given."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


# The matches of [-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?, from a pattern that
# opens with a required character class, so the scanner skips to candidate
# characters.  The package supports Python 3.10: no possessive quantifier
# or atomic group.
_NUM_RE = re.compile(r"[-+\d](?:(?<=[-+])\d+|(?<=\d)\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?")
_LIMIT_RE = re.compile(rf"^\s*(>=|<=|>|<|≥|≤)\s*({_NUM_RE.pattern})\s*(.*)$")
_RANGE_RE = re.compile(rf"^\s*({_NUM_RE.pattern})\s*(?:–|—|‐|-|\bto\b)\s*({_NUM_RE.pattern})\s*(.*)$")
_TOL_RE = re.compile(rf"^\s*({_NUM_RE.pattern})\s*(?:±|\+/-|\+-)\s*({_NUM_RE.pattern})\s*(.*)$")
_POINT_RE = re.compile(rf"^\s*({_NUM_RE.pattern})\s*(.*)$")


# The records' __init__ sets each slot through its member descriptor's
# __set__ (bound below each class), at about 60% of the cost of the
# generated __init__, which goes through object.__setattr__ field by field.


@dataclass(frozen=True, slots=True, init=False)
class Quantity:
    kind: str  # point | range | limit
    value: float | None = None
    lo: float | None = None
    hi: float | None = None
    bound: float | None = None
    direction: str | None = None  # greater | less
    unit: str | None = None

    def __init__(self, kind, value=None, lo=None, hi=None, bound=None, direction=None, unit=None):
        if kind == "range" and not lo < hi:
            raise ParseFailure(f"range requires lo < hi, got {lo}..{hi}")
        _set_kind(self, kind)
        _set_value(self, value)
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_bound(self, bound)
        _set_direction(self, direction)
        _set_unit(self, unit)


# all scalars: the file IO copies them by name, not by asdict's deep copy
_QUANTITY_FIELDS = tuple(f.name for f in fields(Quantity))
_QUANTITY_KINDS = ("point", "range", "limit")
_set_kind, _set_value, _set_lo, _set_hi, _set_bound, _set_direction, _set_unit = (
    getattr(Quantity, name).__set__ for name in _QUANTITY_FIELDS
)


@dataclass(frozen=True, slots=True, init=False)
class PropertyObservation:
    sample_id: str
    head_id: int
    quantity: Quantity
    canonical_value: float | None
    source_span: tuple[int, int] = (0, 0)

    def __init__(self, sample_id, head_id, quantity, canonical_value, source_span=(0, 0)):
        _set_sample_id(self, sample_id)
        _set_head_id(self, head_id)
        _set_quantity(self, quantity)
        _set_canonical_value(self, canonical_value)
        _set_source_span(self, source_span)


_set_sample_id, _set_head_id, _set_quantity, _set_canonical_value, _set_source_span = (
    getattr(PropertyObservation, f.name).__set__ for f in fields(PropertyObservation)
)


@dataclass(slots=True)
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
    # Each of the first three patterns needs a literal that most spans lack;
    # testing for it first skips a failing regex match.
    m = (">" in text or "<" in text or "≥" in text or "≤" in text) and _LIMIT_RE.match(text)
    if m:
        op, num, tail = m.groups()
        direction = "greater" if op in (">", ">=", "≥") else "less"
        return Quantity(kind="limit", bound=_number(num, text), direction=direction, unit=_unit_tail(tail))
    m = ("±" in text or "+-" in text or "+/-" in text) and _TOL_RE.match(text)
    if m:
        num, _tol, tail = m.groups()
        return Quantity(kind="point", value=_number(num, text), unit=_unit_tail(tail))
    m = ("-" in text or "–" in text or "—" in text or "‐" in text or "to" in text) and _RANGE_RE.match(text)
    if m:
        lo, hi, tail = m.groups()
        # Quantity raises ParseFailure unless lo < hi
        return Quantity(kind="range", lo=_number(lo, text), hi=_number(hi, text), unit=_unit_tail(tail))
    m = _POINT_RE.match(text)
    if m:
        num, tail = m.groups()
        return Quantity(kind="point", value=_number(num, text), unit=_unit_tail(tail))
    raise ParseFailure(f"no number found in {text!r}")


def to_canonical(q: Quantity, head: PropertySpec) -> float | None:
    """Convert a quantity to the head's canonical unit, its dimension's base unit.

    Points convert directly, ranges convert endpoint-wise and collapse to
    the midpoint, limits give None (they carry no regression label), and
    no unit is dimensionless.  Raises IncompatibleUnit on an unknown unit
    or a dimension mismatch and ParseFailure when the converted value
    overflows to a non-finite one.
    """
    if q.kind == "limit":
        return None
    unit = normalize_unit(q.unit)
    dimension = normalize_unit(head.canonical_unit).dimension
    if unit is None or unit.dimension != dimension:
        raise IncompatibleUnit(f"{q.unit!r} is not a {dimension} unit for head {head.name}")
    if q.kind == "point":
        value = unit.to_canonical(q.value)
    else:
        value = 0.5 * (unit.to_canonical(q.lo) + unit.to_canonical(q.hi))
    if not math.isfinite(value):
        raise ParseFailure(f"{head.name} is not finite in {head.canonical_unit}: {value}")
    return value


_SAMPLE_RE = re.compile(r"^== SAMPLE (\S+) ==$")


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
        spec = registry.match_alias(lhs)
        if spec is None:
            counters.unmapped += 1
            continue
        try:
            quantity = parse_quantity(rhs)
            canonical = to_canonical(quantity, spec)
        except ParseFailure:
            counters.parse_failures += 1
            continue
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


def _extract(text: str, registry: PropertyRegistry | None, counters: ExtractionCounters) -> list[ExtractedSample]:
    """The samples of each document of ``text`` in order, in one walk over its lines."""
    registry = registry or default_registry()
    samples: list[ExtractedSample] = []
    first_line: dict[str, int] = {}
    for header, lines in _documents(text):
        current: ExtractedSample | None = None
        offset = 0
        for lineno, line in enumerate(lines, header + 1):
            if "== SAMPLE" in line:
                m = _SAMPLE_RE.match(line.strip())
                if m is None:
                    raise MalformedDocument(f"malformed sample delimiter: {line!r}", lineno)
                sid = m.group(1)
                if first_line.setdefault(sid, lineno) != lineno:
                    raise MalformedDocument(f"sample id {sid!r} repeats line {first_line[sid]}", lineno)
                current = ExtractedSample(sample_id=sid)
                samples.append(current)
            elif current is not None:
                body = line.strip()
                if body.startswith("Sample:"):
                    current.sample_text = (current.sample_text + " " + body[len("Sample:"):].strip()).strip()
                elif body.startswith("Synthesis:"):
                    current.synthesis_text = (current.synthesis_text + " " + body[len("Synthesis:"):].strip()).strip()
                elif body:
                    current.observations.extend(_extract_clauses(line, offset, current.sample_id, registry, counters))
            offset += len(line) + 1
        if current is None and any(line.strip() for line in lines):
            raise MalformedDocument("document contains no sample sections", max(header, 1))
    return samples


def extract_document(
    doc: str,
    registry: PropertyRegistry | None = None,
    counters: ExtractionCounters | None = None,
) -> list[ExtractedSample]:
    """Extract per-sample observations from sample-delimited text, as
    extract_corpus does; blank text holds none."""
    return _extract(doc, registry, counters if counters is not None else ExtractionCounters())


def split_corpus(text: str) -> Iterator[str]:
    """Yield the documents of a corpus file, split on ``== DOC <id> ==``
    header lines; a blank trailing document is dropped."""
    return ("\n".join(lines) for _, lines in _documents(text))


def _documents(text: str) -> Iterator[tuple[int, list[str]]]:
    """split_corpus's documents, each as its lines split at ``\\n`` (a document
    ending in one ends in ``""``), after its header's line number (0 before
    the first)."""
    current, header = [], 0
    for lineno, line in enumerate(text.split("\n"), 1):
        if "== DOC " in line and line.strip().startswith("== DOC "):
            if current:
                current.append("")
                yield header, current
            current, header = [], lineno
        else:
            current.append(line)
    if any(line.strip() for line in current):
        yield header, current


def extract_corpus(
    text: str, registry: PropertyRegistry | None = None
) -> tuple[list[ExtractedSample], ExtractionCounters]:
    """Extract every document in a corpus file, in document order.

    Lines end at ``\\n`` only and count from 1 in ``text``.  Raises
    MalformedDocument at a malformed ``== SAMPLE`` delimiter, at one whose
    sample id an earlier line holds (naming that line), and at the header
    of a document that is not blank but holds no sample (line 1 before the
    first header)."""
    counters = ExtractionCounters()
    return _extract(text, registry, counters), counters


# ---- extracted-sample file IO (one JSON record per line) ------------------

# A line is what json.JSONEncoder(sort_keys=True) makes of the sample as
# {"observations", "sample_id", "sample_text", "synthesis_text"}, each
# observation as {quantity fields, "head_id", "canonical_value", "span"}.
_quantity_values = operator.attrgetter(*_QUANTITY_FIELDS)
_sample_values = operator.itemgetter("sample_id", "sample_text", "synthesis_text", "observations")
_observation_values = operator.itemgetter("head_id", *_QUANTITY_FIELDS, "canonical_value", "span")


def save_extracted(samples: list[ExtractedSample], path) -> None:
    """Write one JSON line per sample, the one load_extracted reads.

    A value load_extracted would refuse (a non-finite number, an id or a
    text that is not a ``str``, ...) or an observation's sample_id that is
    not its sample's (the file does not store it) raises a ValueError
    naming the path, the sample id and the field, and leaves ``path`` as
    it was, as does a sample_id an earlier sample holds, naming both
    lines.  Each line is the encoder's bytes for the layout above, laid
    out by hand: keys in sorted order, strings through
    encode_basestring_ascii, numbers (exact floats and ints, once checked)
    through repr and None as null."""
    first_line: dict[str, int] = {}
    with replacing(path) as fh:
        for lineno, s in enumerate(samples, 1):
            fault = _sample_fault(s.sample_id, s.sample_text, s.synthesis_text)
            for o in s.observations:
                fault = fault or _fault(o.head_id, *_quantity_values(o.quantity), o.canonical_value, o.source_span)
                fault = fault or o.sample_id != s.sample_id and f"observation sample_id {o.sample_id!r} differs"
            if fault:
                raise ValueError(f"{path}: sample {s.sample_id!r}: {fault}")
            if first_line.setdefault(s.sample_id, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: sample_id {s.sample_id!r} repeats line {first_line[s.sample_id]}")
            observations = []
            for o in s.observations:
                kind, value, lo, hi, bound, direction, unit = _quantity_values(o.quantity)
                canonical_value = o.canonical_value
                start, end = o.source_span
                observations.append(
                    f'{{"bound": {"null" if bound is None else repr(bound)}, '
                    f'"canonical_value": {"null" if canonical_value is None else repr(canonical_value)}, '
                    f'"direction": {"null" if direction is None else _quote(direction)}, '
                    f'"head_id": {o.head_id}, "hi": {"null" if hi is None else repr(hi)}, '
                    f'"kind": "{kind}", "lo": {"null" if lo is None else repr(lo)}, "span": [{start}, {end}], '
                    f'"unit": {"null" if unit is None else _quote(unit)}, '
                    f'"value": {"null" if value is None else repr(value)}}}'
                )
            fh.write(
                f'{{"observations": [{", ".join(observations)}], "sample_id": {_quote(s.sample_id)}, '
                f'"sample_text": {_quote(s.sample_text)}, "synthesis_text": {_quote(s.synthesis_text)}}}\n'
            )


def _finite(x) -> bool:
    """Whether ``x`` is None or a finite exact float or int (not a bool)."""
    return x is None or type(x) in (int, float) and finite(x)


def _fault(head_id, kind, value, lo, hi, bound, direction, unit, canonical_value, span) -> str | None:
    """The message naming the first of an observation's fields that the
    observations file may not hold, or None: save_extracted's refusal and
    load_extracted's error alike."""
    # not isinstance: True is an int, and as a numpy index it selects every head
    if type(head_id) is not int or not 0 <= head_id < N_HEADS:
        return f"head_id {head_id!r} is not an int in 0..{N_HEADS - 1}"
    if kind not in _QUANTITY_KINDS:
        return f"quantity kind {kind!r} is not one of {', '.join(_QUANTITY_KINDS)}"
    if not (_finite(value) and _finite(lo) and _finite(hi) and _finite(bound) and _finite(canonical_value)):
        numbers = zip(("value", "lo", "hi", "bound", "canonical_value"), (value, lo, hi, bound, canonical_value))
        name, x = next((name, x) for name, x in numbers if not _finite(x))
        return f"{name} {x!r} is not a finite number or null"
    if kind == "range":
        if lo is None or hi is None:
            return f"range lo {lo!r} and hi {hi!r} must both be numbers"
        if not lo < hi:
            return f"range requires lo < hi, got {lo}..{hi}"
    if direction is not None and type(direction) is not str:
        return f"direction {direction!r} is not a string or null"
    if unit is not None and type(unit) is not str:
        return f"unit {unit!r} is not a string or null"
    if not ((type(span) is list or type(span) is tuple) and len(span) == 2 and type(span[0]) is type(span[1]) is int):
        return f"span {span!r} is not two ints"
    return None


def _sample_fault(sample_id, sample_text, synthesis_text) -> str | None:
    """_fault for a sample's id and texts."""
    if type(sample_id) is not str:
        return f"sample_id {sample_id!r} is not a string"
    if type(sample_text) is not str:
        return f"sample_text {sample_text!r} is not a string"
    if type(synthesis_text) is not str:
        return f"synthesis_text {synthesis_text!r} is not a string"
    return None


def load_extracted(path) -> list[ExtractedSample]:
    """Read save_extracted's file.  A malformed line, or one whose sample_id
    an earlier line holds, raises a ValueError naming it."""
    return read_lines(path, _sample, key="sample_id")


def _sample(line: str) -> tuple[str, ExtractedSample]:
    try:
        row = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if type(row) is not dict:
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    try:
        sample_id, sample_text, synthesis_text, rows = _sample_values(row)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    fault = _sample_fault(sample_id, sample_text, synthesis_text)
    if fault:
        raise ValueError(fault)
    if type(rows) is not list or not all(type(o) is dict for o in rows):
        raise ValueError(f"observations {rows!r} is not a list of objects")
    observations = []
    for o in rows:
        try:
            values = _observation_values(o)
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        fault = _fault(*values)
        if fault:
            raise ValueError(fault)
        head_id, kind, value, lo, hi, bound, direction, unit, canonical_value, span = values
        observations.append(
            PropertyObservation(
                sample_id,
                head_id,
                Quantity(kind, value, lo, hi, bound, direction, unit),
                canonical_value,
                (span[0], span[1]),
            )
        )
    return sample_id, ExtractedSample(sample_id, sample_text, synthesis_text, observations)
