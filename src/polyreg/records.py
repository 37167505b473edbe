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
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote

from .lines import read_lines
from .registry import N_HEADS, PropertyRegistry, PropertySpec, default_registry
from .units import IncompatibleUnit, convert, normalize_unit


class ParseFailure(Exception):
    """Span does not contain a single parseable quantity."""


class MalformedDocument(Exception):
    """Sample delimiters are missing or malformed."""


_NUM = r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
# The same matches as _NUM, from a pattern that opens with a required
# character class, so the scanner skips to candidate characters.  The
# package supports Python 3.10: no possessive quantifier or atomic group.
_NUM_RE = re.compile(r"[-+\d](?:(?<=[-+])\d+|(?<=\d)\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?")
_LIMIT_RE = re.compile(rf"^\s*(>=|<=|>|<|≥|≤)\s*({_NUM})\s*(.*)$")
_RANGE_RE = re.compile(rf"^\s*({_NUM})\s*(?:–|—|‐|-|\bto\b)\s*({_NUM})\s*(.*)$")
_TOL_RE = re.compile(rf"^\s*({_NUM})\s*(?:±|\+/-|\+-)\s*({_NUM})\s*(.*)$")
_POINT_RE = re.compile(rf"^\s*({_NUM})\s*(.*)$")


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
    """Convert a quantity to the head's canonical unit.

    Points convert directly, ranges convert endpoint-wise and collapse to
    the midpoint, limits give None (they carry no regression label).
    Raises IncompatibleUnit on a dimension mismatch and ParseFailure when
    the converted value overflows to a non-finite one.
    """
    if q.kind == "limit":
        return None
    unit = q.unit
    if unit is None and normalize_unit(head.canonical_unit).dimension != "dimensionless":
        raise IncompatibleUnit(f"head {head.name} requires a {head.canonical_unit} compatible unit")
    if unit is None:
        unit = "-"
    if q.kind == "point":
        value = convert(q.value, unit, head.canonical_unit)
    else:
        lo = convert(q.lo, unit, head.canonical_unit)
        hi = convert(q.hi, unit, head.canonical_unit)
        value = 0.5 * (lo + hi)
    if not math.isfinite(value):
        raise ParseFailure(f"{head.name} is not finite in {head.canonical_unit}: {value}")
    return value


def finite_label(value: float | None) -> float | None:
    """``value`` unless it is a non-finite number, which raises ValueError."""
    if value is not None and not math.isfinite(value):
        raise ValueError(f"label {value!r} is not finite")
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


def split_corpus(text: str) -> Iterator[str]:
    """Yield the documents of a corpus file, split on ``== DOC <id> ==``
    header lines; a blank trailing document is dropped."""
    current: list[str] = []
    for line in text.splitlines(keepends=True):
        if "== DOC " in line and line.strip().startswith("== DOC "):
            if current:
                yield "".join(current)
            current = []
        else:
            current.append(line)
    if current:
        doc = "".join(current)
        if doc.strip():
            yield doc


def extract_corpus(
    text: str, registry: PropertyRegistry | None = None
) -> tuple[list[ExtractedSample], ExtractionCounters]:
    """Extract every document in a corpus file, in document order.

    Raises MalformedDocument when a sample id appears in more than one
    document, as extract_document does for a repeat within one."""
    registry = registry or default_registry()
    counters = ExtractionCounters()
    samples: list[ExtractedSample] = []
    seen_ids: set[str] = set()
    for doc in split_corpus(text):
        if not doc.strip():
            continue
        for sample in extract_document(doc, registry, counters):
            if sample.sample_id in seen_ids:
                raise MalformedDocument(f"sample id {sample.sample_id!r} appears in more than one document")
            seen_ids.add(sample.sample_id)
            samples.append(sample)
    return samples, counters


# ---- extracted-sample file IO (one JSON record per line) ------------------

# A line is what json.JSONEncoder(sort_keys=True) makes of the sample as
# {"observations", "sample_id", "sample_text", "synthesis_text"}, each
# observation as {quantity fields, "head_id", "canonical_value", "span"}.
_quantity_values = operator.attrgetter(*_QUANTITY_FIELDS)
_quantity_args = operator.itemgetter(*_QUANTITY_FIELDS)
_sample_values = operator.itemgetter("sample_id", "sample_text", "synthesis_text", "observations")
_observation_values = operator.itemgetter("head_id", *_QUANTITY_FIELDS, "canonical_value", "span")
_MAX = sys.float_info.max


def save_extracted(samples: list[ExtractedSample], path) -> None:
    """Write one JSON line per sample, the one load_extracted reads.

    A value load_extracted would refuse (a non-finite number, an id or a
    text that is not a ``str``, ...) raises a ValueError naming the path,
    the sample id and the field before the file is opened.  Each line is
    the encoder's bytes for the layout above, laid out by hand: keys in
    sorted order, strings through encode_basestring_ascii, numbers (exact
    floats and ints, once checked) through repr and None as null."""
    for s in samples:
        _check_loadable(s, path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in samples:
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


def _check_loadable(s: ExtractedSample, path) -> None:
    """Raise ``ValueError("path: sample <id>: message")`` unless
    load_extracted would read ``s`` back from its line."""
    loadable = type(s.sample_id) is type(s.sample_text) is type(s.synthesis_text) is str
    for o in s.observations:
        loadable = loadable and _loadable(o.head_id, *_quantity_values(o.quantity), o.canonical_value, o.source_span)
    if loadable:
        return
    # the reader's own checks name the field, over the line's layout; an
    # infinite canonical value would read "label inf is not finite" there
    row = dict(sample_id=s.sample_id, sample_text=s.sample_text, synthesis_text=s.synthesis_text)
    row["observations"] = [
        dict(
            zip(_QUANTITY_FIELDS, _quantity_values(o.quantity)),
            head_id=o.head_id, canonical_value=o.canonical_value, span=o.source_span,
        )
        for o in s.observations
    ]
    try:
        for o in s.observations:
            _finite_or_null("canonical_value", o.canonical_value)
        _checked_sample(row)
    except ValueError as exc:
        raise ValueError(f"{path}: sample {s.sample_id!r}: {exc}") from None


def _loadable(head_id, kind, value, lo, hi, bound, direction, unit, canonical_value, span) -> bool:
    """Whether _checked_sample takes these observation fields as they are.

    Its checks inline, and never looser: a field this turns down goes
    through them.  ``-_MAX <= x <= _MAX`` is math.isfinite for a float
    and turns down an int too large for one."""
    return (
        type(head_id) is int
        and 0 <= head_id < N_HEADS
        and kind in _QUANTITY_KINDS
        and (value is None or (type(value) is float or type(value) is int) and -_MAX <= value <= _MAX)
        and (lo is None or (type(lo) is float or type(lo) is int) and -_MAX <= lo <= _MAX)
        and (hi is None or (type(hi) is float or type(hi) is int) and -_MAX <= hi <= _MAX)
        and (bound is None or (type(bound) is float or type(bound) is int) and -_MAX <= bound <= _MAX)
        and (kind != "range" or lo is not None and hi is not None and lo < hi)
        and (direction is None or type(direction) is str)
        and (unit is None or type(unit) is str)
        and (
            canonical_value is None
            or (type(canonical_value) is float or type(canonical_value) is int)
            and -_MAX <= canonical_value <= _MAX
        )
        and (type(span) is list or type(span) is tuple)
        and len(span) == 2
        and type(span[0]) is int
        and type(span[1]) is int
    )


def _head_id(value) -> int:
    # not isinstance: True is an int, and as a numpy index it selects every head
    if type(value) is not int or not 0 <= value < N_HEADS:
        raise ValueError(f"head_id {value!r} is not an int in 0..{N_HEADS - 1}")
    return value


def _finite_or_null(name: str, value) -> None:
    # not isinstance: True is an int
    if value is not None and (type(value) not in (float, int) or not math.isfinite(value)):
        raise ValueError(f"{name} {value!r} is not a finite number or null")


def _quantity(o: dict) -> Quantity:
    kind, value, lo, hi, bound, direction, unit = _quantity_args(o)  # as Quantity declares them
    if kind not in _QUANTITY_KINDS:
        raise ValueError(f"quantity kind {kind!r} is not one of {', '.join(_QUANTITY_KINDS)}")
    _finite_or_null("value", value)
    _finite_or_null("lo", lo)
    _finite_or_null("hi", hi)
    _finite_or_null("bound", bound)
    if kind == "range" and (lo is None or hi is None):
        raise ValueError(f"range lo {lo!r} and hi {hi!r} must both be numbers")
    for name, text in (("direction", direction), ("unit", unit)):
        if text is not None and type(text) is not str:
            raise ValueError(f"{name} {text!r} is not a string or null")
    return Quantity(kind, value, lo, hi, bound, direction, unit)


def _canonical_value(value) -> float | None:
    if value is not None and type(value) not in (float, int):
        raise ValueError(f"canonical_value {value!r} is not a number or null")
    return finite_label(value)


def _observations(value) -> list[dict]:
    if type(value) is not list or not all(type(o) is dict for o in value):
        raise ValueError(f"observations {value!r} is not a list of objects")
    return value


def _text(row: dict, name: str) -> str:
    value = row[name]
    if type(value) is not str:
        raise ValueError(f"{name} {value!r} is not a string")
    return value


def _span(value) -> tuple[int, int]:
    # not isinstance: True is an int; a record holds its span as a tuple
    if type(value) not in (list, tuple) or len(value) != 2 or not type(value[0]) is type(value[1]) is int:
        raise ValueError(f"span {value!r} is not two ints")
    return tuple(value)


def load_extracted(path) -> list[ExtractedSample]:
    """Read save_extracted's file.  A malformed line, or one whose sample_id
    an earlier line holds, raises a ValueError naming it."""
    return read_lines(path, _sample, key="sample_id")


def _sample(line: str) -> tuple[str, ExtractedSample]:
    row = json.loads(line)
    try:
        sample_id, sample_text, synthesis_text, rows = _sample_values(row)
    except (KeyError, TypeError):  # a field is missing, or the line is no object
        return _checked_sample(row)
    if not (type(sample_id) is type(sample_text) is type(synthesis_text) is str and type(rows) is list):
        return _checked_sample(row)
    observations = []
    for o in rows:
        try:
            values = _observation_values(o)
        except (KeyError, TypeError):
            return _checked_sample(row)
        if not _loadable(*values):
            return _checked_sample(row)
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


def _checked_sample(row) -> tuple[str, ExtractedSample]:
    """_sample for a line whose fields did not all pass _loadable's checks:
    each field through its own checker, in the order that names the first
    bad one."""
    if type(row) is not dict:
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    try:
        sample_id = _text(row, "sample_id")
        return sample_id, ExtractedSample(
            sample_id=sample_id,
            sample_text=_text(row, "sample_text"),
            synthesis_text=_text(row, "synthesis_text"),
            observations=[
                PropertyObservation(
                    sample_id=sample_id,
                    head_id=_head_id(o["head_id"]),
                    quantity=_quantity(o),
                    canonical_value=_canonical_value(o["canonical_value"]),
                    source_span=_span(o["span"]),
                )
                for o in _observations(row["observations"])
            ],
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from exc
    except (TypeError, ParseFailure) as exc:
        raise ValueError(str(exc)) from exc
