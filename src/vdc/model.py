"""Core value system: typed cell values, uncertain dates, canonical ordering.

Calendar model
--------------
Dates live on the proleptic Julian calendar with astronomical year numbering
(year 0 = 1 BC, year -1 = 2 BC, ...).  Day numbers count from day 0 =
1 January of year 1; leap years are exactly the years divisible by 4,
including year 0 and negative multiples of 4.  An uncertain date is an
inclusive interval of day numbers and nothing else: width 0 for a
day-precise date, up to decades for a vague one.

Cell values are plain Python objects: ``None`` (null), ``int``, ``str``
(always NFC-normalized at the point of ingest) and :class:`UncertainDate`.
A cell's int is an int64 (see :func:`int64`), and a date's year has at
most 16 digits, so every interval's days, ``ca.`` widening included, are
int64s too.
"""

from __future__ import annotations

import csv
import io
import re
import sys
import unicodedata
from bisect import bisect_right
from enum import Enum
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ParseError

if TYPE_CHECKING:  # only index and column image code makes arrays
    from array import array

_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# days before the first of each month in a common year
_MONTH_START = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)

# Interval widening applied by the "ca. " prefix: +/- 10 years of 365 days.
CIRCA_WIDENING_DAYS = 3650


def is_leap_year(year: int) -> bool:
    return year % 4 == 0


def days_in_month(year: int, month: int) -> int:
    if month == 2 and is_leap_year(year):
        return 29
    return _MONTH_DAYS[month - 1]


def day_number(year: int, month: int, day: int) -> int:
    """Day number of a calendar date (month 1-12); day 0 is 1 January of
    year 1.

    Valid for any astronomical year.  365*(y-1) + floor((y-1)/4) counts the
    days of all years before ``year`` (floor division makes the formula hold
    for year 0 and negative years as well).
    """
    days_before_year = 365 * (year - 1) + (year - 1) // 4
    days_before_month = _MONTH_START[month - 1] + (month > 2 and is_leap_year(year))
    return days_before_year + days_before_month + (day - 1)


def day_to_date(n: int) -> tuple[int, int, int]:
    """Inverse of :func:`day_number`.

    Works on the 1461-day leap cycle anchored at year 1; the leap year is
    the last year of each cycle, and its day 59 is 29 February.
    """
    cycle, rem = divmod(n, 1461)
    years = min(rem // 365, 3)
    year, rem = 4 * cycle + 1 + years, rem - 365 * years
    if years == 3 and rem >= 59:
        if rem == 59:
            return year, 2, 29
        rem -= 1
    month = bisect_right(_MONTH_START, rem)
    return year, month, rem - _MONTH_START[month - 1] + 1


def _format_year(year: int) -> str:
    # Sign before zero-padding: year -45 prints as "-0045", not "-045".
    if year < 0:
        return "-" + str(-year).zfill(4)
    return str(year).zfill(4)


init_field = object.__setattr__  # how a Record's constructor sets a field


class Record:
    """Base of the immutable records.  A record's ``__slots__`` name its
    fields in constructor order, and the one constructor here takes one
    positional cell per slot and sets each once; any later assignment
    raises.  A record declares only its slots, unless it checks its fields
    or has defaults: then its own ``__init__`` ends with ``Record.__init__``,
    or (``ItemRef`` and ``UncertainDate``, built per row ``vdc ingest``
    lists and per distinct date text) sets its fields directly.  Records
    equal, hash and print by class and field values, so a record never
    equals a tuple of its cells; one holding a list or a dict does not
    hash.  They are plain classes because every request is a fresh
    process, and decorating a dataclass costs about 0.45 ms of each
    process's import; ``QueryAst`` alone is still one, since perfbench's
    oracle calls ``dataclasses.replace`` on it."""

    __slots__ = ()

    def __init__(self, *cells):
        names = self.__slots__
        if len(cells) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(cells)}")
        for name, cell in zip(names, cells):
            init_field(self, name, cell)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def cells(self) -> tuple:
        """The field values, in constructor order."""
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        return self.cells() == other.cells() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.cells())

    def __repr__(self):
        cells = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({cells})"


class UncertainDate(Record):
    """An inclusive day-number interval, possibly spanning decades; the
    interval is all it holds, so equality is interval equality."""

    __slots__ = ("earliest_day", "latest_day")

    def __init__(self, earliest_day: int, latest_day: int):
        if earliest_day > latest_day:
            raise ValueError(f"reversed interval: {earliest_day} > {latest_day}")
        init_field(self, "earliest_day", earliest_day)
        init_field(self, "latest_day", latest_day)

    # written out: dates are compared and hashed per row
    def __eq__(self, other):
        if type(other) is not UncertainDate:
            return NotImplemented
        return self.earliest_day == other.earliest_day and self.latest_day == other.latest_day

    def __hash__(self):
        return hash((self.earliest_day, self.latest_day))


Value = int | str | UncertainDate | None

# The process's one date coercion memo: date text -> its date, or None
# when it does not parse.  A vault's column image seeds it with the days
# stored at registration as it decodes a date text chunk, and a view's
# coercion (``vdc.mediation.coerce_date``) parses only the texts it lacks.
DATE_MEMO: dict[str, UncertainDate | None] = {}

_BOUND_RE = re.compile(r"(-?[0-9]+)(?:-([0-9]{2}))?(?:-([0-9]{2}))?\Z")


def byte_offset(s: str, char_offset: int) -> int:
    """The byte offset in ``s``'s UTF-8 of its character ``char_offset``."""
    return len(s[:char_offset].encode("utf-8"))


_INT64_RE = re.compile(r"-?[0-9]{1,19}\Z")


def int64(text: str) -> int | None:
    """The value of ``text`` as an int that vdc reads from outside (a
    table's int cell, a ref's key, a query's integer literal): an optional
    ``-`` and at most 19 ASCII digits whose value fits int64.  None for any
    other text."""
    if _INT64_RE.match(text) is None:
        return None
    value = int(text)
    return value if -(1 << 63) <= value < 1 << 63 else None


def _parse_bound(part: str, whole: str, base: int) -> tuple[int, int]:
    """Parse one bound (Y, Y-MM or Y-MM-DD) to its (first, last) day numbers.

    ``whole``/``base`` locate the part inside the original string so errors
    carry byte offsets into it.
    """
    m = _BOUND_RE.match(part)
    if not m:
        raise ParseError(f"malformed date {part!r}", offset=byte_offset(whole, base))
    digits = len(m.group(1).lstrip("-"))
    if digits > 16:  # the most for which every interval has int64 days
        raise ParseError(f"year of {digits} digits exceeds 16 digits",
                         offset=byte_offset(whole, base))
    year = int(m.group(1))
    if m.group(2) is None:
        return day_number(year, 1, 1), day_number(year, 12, 31)
    month = int(m.group(2))
    month_at = base + m.start(2)
    if not 1 <= month <= 12:
        raise ParseError(
            f"month {m.group(2)} out of range", offset=byte_offset(whole, month_at)
        )
    if m.group(3) is None:
        return day_number(year, month, 1), day_number(year, month, days_in_month(year, month))
    day = int(m.group(3))
    day_at = base + m.start(3)
    if not 1 <= day <= days_in_month(year, month):
        raise ParseError(
            f"day {m.group(3)} invalid for {_format_year(year)}-{m.group(2)}",
            offset=byte_offset(whole, day_at),
        )
    n = day_number(year, month, day)
    return n, n


def parse_uncertain_date(s: str) -> UncertainDate:
    """Parse a date text to an interval.

    Accepted forms (Y = astronomical year of at most 16 ASCII digits,
    optionally negative):
    ``Y-MM-DD`` (zero width), ``Y-MM`` (whole month), ``Y`` (whole year),
    and ``lo/hi`` ranges whose bounds are any of those forms — which covers
    both the year-range form ``Y/Y`` and the canonical rendering emitted by
    :func:`format_uncertain_date`.  The prefix ``ca. `` widens the result by
    ten 365-day years on each side.
    """
    body = s.strip()
    if not body:
        raise ParseError("empty date text", offset=0)
    lead = s.index(body[0])

    circa = False
    if body.startswith("ca. "):
        circa = True
        lead += 4
        body = body[4:]
        if not body:
            raise ParseError("empty date text after 'ca. '", offset=byte_offset(s, lead))

    if "/" in body:
        left, _, right = body.partition("/")
        if "/" in right:
            raise ParseError(
                "more than one '/' in date range",
                offset=byte_offset(s, lead + len(left) + 1 + right.index("/")),
            )
        lo, _ = _parse_bound(left, s, lead)
        _, hi = _parse_bound(right, s, lead + len(left) + 1)
        if lo > hi:
            raise ParseError(
                "reversed date range", offset=byte_offset(s, lead + len(left) + 1)
            )
    else:
        lo, hi = _parse_bound(body, s, lead)

    if circa:
        lo -= CIRCA_WIDENING_DAYS
        hi += CIRCA_WIDENING_DAYS
    return UncertainDate(lo, hi)


def format_uncertain_date(d: UncertainDate) -> str:
    """Canonical two-bound form ``Y-MM-DD/Y-MM-DD``; parseable back."""
    parts = []
    for n in (d.earliest_day, d.latest_day):
        y, m, dd = day_to_date(n)
        parts.append(f"{_format_year(y)}-{m:02d}-{dd:02d}")
    return "/".join(parts)


def cell_text(v) -> str:
    """Canonical textual form of a cell (nulls are empty), as the query
    results and ``coll resolve`` print it."""
    if v is None:
        return ""
    if isinstance(v, UncertainDate):
        return format_uncertain_date(v)
    return v if isinstance(v, str) else str(v)


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """``rows`` of text cells as every command prints CSV: LF line ends,
    and a field holding a carriage return quoted, as one holding a line
    feed is.  ``csv`` quotes a field only for the delimiter, the quote and
    the line terminator's characters, so the rows are written under CRLF
    ends, which quote both, and each line is then given its LF (the writer
    writes each row with one call)."""
    out = io.StringIO()
    write = out.write
    lf_lines = SimpleNamespace(write=lambda line: write(line[:-2] + "\n"))
    csv.writer(lf_lines, lineterminator="\r\n").writerows(rows)
    return out.getvalue()


def date_gap_days(a: UncertainDate, b: UncertainDate) -> int:
    """0 when the intervals intersect, else the distance between the
    nearest endpoints.  Symmetric."""
    return max(0, max(a.earliest_day, b.earliest_day) - min(a.latest_day, b.latest_day))


def date_near(a: UncertainDate, b: UncertainDate, k_years: int) -> bool:
    """True when the intervals lie within ``k_years`` of each other.

    Uses a flat 365-day year: a proximity heuristic has no use for leap-day
    exactness.
    """
    if k_years < 0:
        raise ValueError("k_years must be >= 0")
    return date_gap_days(a, b) <= k_years * 365


def date_within(a: UncertainDate, lo: UncertainDate, hi: UncertainDate) -> bool:
    """Containment: a's whole interval lies inside [lo.earliest, hi.latest]."""
    if lo.earliest_day > hi.latest_day:
        raise ValueError("empty containment range")
    return lo.earliest_day <= a.earliest_day and a.latest_day <= hi.latest_day


def nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def fold(s: str) -> str:
    """NFC then case folding: texts match blind to case and composition."""
    return nfc(s).casefold()


def value_sort_key(v: Value) -> tuple:
    """Sort key realizing the canonical total order over values.

    Kinds rank Null < Int < Text < Date; within a kind: numeric value,
    code-point sequence, then (earliest_day, latest_day).  Used only for
    canonical result ordering, never for predicate evaluation.
    """
    if v is None:
        return (0,)
    if isinstance(v, bool):
        raise TypeError("bool is not a cell value")
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, UncertainDate):
        return (3, v.earliest_day, v.latest_day)
    raise TypeError(f"not a cell value: {v!r}")


def row_sort_key(row: tuple) -> tuple:
    return tuple(value_sort_key(v) for v in row)


class ColumnKind(str, Enum):
    INT = "int"
    TEXT = "text"
    DATE = "date"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ColumnDescriptor(Record):
    """A named, kinded column.

    ``date_text`` marks a text column that stores date texts and is
    eligible for view-level coercion to a date column; its cell values are
    ordinary strings until a view coerces them.
    """

    __slots__ = ("name", "kind", "date_text")

    def __init__(self, name: str, kind: ColumnKind, date_text: bool = False):
        if not name:
            raise ValueError("empty column name")
        if date_text and kind is not ColumnKind.TEXT:
            raise ValueError("date_text applies to text columns only")
        Record.__init__(self, name, kind, date_text)


class TableSchema(Record):
    __slots__ = ("name", "columns")

    def __init__(self, name: str, columns: tuple[ColumnDescriptor, ...]):
        if not columns:
            raise ValueError(f"table {name!r} has no columns")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {name!r}")
        Record.__init__(self, name, columns)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)


Row = tuple  # ordered cell values, positionally aligned with a TableSchema


# An identifier: a name as queries, views and recipes spell it unquoted.
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Characters that would break the textual container formats refs travel in
# (tab-separated index lines, comma-separated catalogue lines).
REF_FORBIDDEN_RE = re.compile("[\t\n\r,]")


def refable(part: str) -> bool:
    """Whether ``part`` may be one part of an item ref."""
    return bool(part) and REF_FORBIDDEN_RE.search(part) is None


class ItemRef(Record):
    """A reference to one item in one container of one source.

    Round-trips through the text form ``source_id/container/item_id``;
    the item id may itself contain slashes.
    """

    __slots__ = ("source_id", "container", "item_id")

    def __init__(self, source_id: str, container: str, item_id: str):
        if not (
            refable(source_id) and refable(container) and refable(item_id)
            and "/" not in source_id and "/" not in container
        ):
            for part, label in (
                (source_id, "source_id"), (container, "container"), (item_id, "item_id"),
            ):
                if not part:
                    raise ValueError(f"empty {label} in item ref")
                if not refable(part):
                    raise ValueError(f"{label} contains a forbidden character: {part!r}")
            raise ValueError("source_id and container must not contain '/'")
        init_field(self, "source_id", source_id)
        init_field(self, "container", container)
        init_field(self, "item_id", item_id)

    def text(self) -> str:
        return f"{self.source_id}/{self.container}/{self.item_id}"

    @classmethod
    def parse(cls, s: str) -> "ItemRef":
        parts = s.split("/", 2)
        if len(parts) != 3:
            raise ValueError(f"malformed item ref {s!r}")
        return cls(*parts)

    def __str__(self) -> str:
        return self.text()


# the width in bytes of the items of each array type an image stores
_ITEM_BYTES = {"H": 2, "I": 4, "q": 8, "Q": 8}


def little_endian(a: array) -> array:
    """``a`` with its items in little-endian byte order, the order of every
    array an index or column image stores: swapped in place where the
    platform is big-endian.  A reader passes the array it made of an
    image's bytes, a writer the array whose bytes it is about to write.  A
    platform whose items of that type have another width cannot read or
    write an image: it raises."""
    if a.itemsize != _ITEM_BYTES[a.typecode]:
        raise RuntimeError(f"array({a.typecode!r}) items are {a.itemsize} bytes on this "
                           f"platform, where images store {_ITEM_BYTES[a.typecode]}")
    if sys.byteorder == "big":
        a.byteswap()
    return a
