"""Core value system: typed cell values, uncertain dates, canonical ordering.

Calendar model
--------------
Dates live on the proleptic Julian calendar with astronomical year numbering
(year 0 = 1 BC, year -1 = 2 BC, ...).  Day numbers count from day 0 =
1 January of year 1; leap years are exactly the years divisible by 4,
including year 0 and negative multiples of 4.  An uncertain date is an
inclusive interval of day numbers: width 0 for a day-precise date, up to
decades for a vague one.

Cell values are plain Python objects: ``None`` (null), ``int``, ``str``
(always NFC-normalized at the point of ingest) and :class:`UncertainDate`.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum

from .errors import ParseError

_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# Interval widening applied by the "ca. " prefix: +/- 10 years of 365 days.
CIRCA_WIDENING_DAYS = 3650


def is_leap_year(year: int) -> bool:
    return year % 4 == 0


def days_in_month(year: int, month: int) -> int:
    if month == 2 and is_leap_year(year):
        return 29
    return _MONTH_DAYS[month - 1]


def days_in_year(year: int) -> int:
    return 366 if is_leap_year(year) else 365


def day_number(year: int, month: int, day: int) -> int:
    """Day number of a calendar date; day 0 is 1 January of year 1.

    Valid for any astronomical year.  365*(y-1) + floor((y-1)/4) counts the
    days of all years before ``year`` (floor division makes the formula hold
    for year 0 and negative years as well).
    """
    days_before_year = 365 * (year - 1) + (year - 1) // 4
    days_before_month = sum(days_in_month(year, m) for m in range(1, month))
    return days_before_year + days_before_month + (day - 1)


def day_to_date(n: int) -> tuple[int, int, int]:
    """Inverse of :func:`day_number`.

    Works on the 1461-day leap cycle anchored at year 1; the leap year is
    the last year of each cycle.
    """
    cycle, rem = divmod(n, 1461)
    year = 4 * cycle + 1
    for length in (365, 365, 365, 366):
        if rem < length:
            break
        rem -= length
        year += 1
    month = 1
    while rem >= days_in_month(year, month):
        rem -= days_in_month(year, month)
        month += 1
    return year, month, rem + 1


def _format_year(year: int) -> str:
    # Sign before zero-padding: year -45 prints as "-0045", not "-045".
    if year < 0:
        return "-" + str(-year).zfill(4)
    return str(year).zfill(4)


@dataclass(frozen=True)
class UncertainDate:
    """An inclusive day-number interval, possibly spanning decades.

    ``source_text`` preserves the textual form the interval was parsed from
    (or a canonical rendering for programmatically built intervals); it is
    carried along but excluded from equality, which is interval equality.
    """

    earliest_day: int
    latest_day: int
    source_text: str = field(default="", compare=False)

    def __post_init__(self):
        if self.earliest_day > self.latest_day:
            raise ValueError(
                f"reversed interval: {self.earliest_day} > {self.latest_day}"
            )

    @property
    def width_days(self) -> int:
        return self.latest_day - self.earliest_day


Value = int | str | UncertainDate | None

_BOUND_RE = re.compile(r"^(-?\d+)(?:-(\d{2}))?(?:-(\d{2}))?$")


def _byte_offset(s: str, char_offset: int) -> int:
    return len(s[:char_offset].encode("utf-8"))


def _parse_bound(part: str, whole: str, base: int) -> tuple[int, int]:
    """Parse one bound (Y, Y-MM or Y-MM-DD) to its (first, last) day numbers.

    ``whole``/``base`` locate the part inside the original string so errors
    carry byte offsets into it.
    """
    m = _BOUND_RE.match(part)
    if not m:
        raise ParseError(f"malformed date {part!r}", offset=_byte_offset(whole, base))
    year = int(m.group(1))
    if m.group(2) is None:
        return day_number(year, 1, 1), day_number(year, 12, 31)
    month = int(m.group(2))
    month_at = base + m.start(2)
    if not 1 <= month <= 12:
        raise ParseError(
            f"month {m.group(2)} out of range", offset=_byte_offset(whole, month_at)
        )
    if m.group(3) is None:
        return day_number(year, month, 1), day_number(year, month, days_in_month(year, month))
    day = int(m.group(3))
    day_at = base + m.start(3)
    if not 1 <= day <= days_in_month(year, month):
        raise ParseError(
            f"day {m.group(3)} invalid for {_format_year(year)}-{m.group(2)}",
            offset=_byte_offset(whole, day_at),
        )
    n = day_number(year, month, day)
    return n, n


def parse_uncertain_date(s: str) -> UncertainDate:
    """Parse a date text to an interval.

    Accepted forms (Y = astronomical year, optionally negative):
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
            raise ParseError("empty date text after 'ca. '", offset=_byte_offset(s, lead))

    if "/" in body:
        left, _, right = body.partition("/")
        if "/" in right:
            raise ParseError(
                "more than one '/' in date range",
                offset=_byte_offset(s, lead + len(left) + 1 + right.index("/")),
            )
        lo, _ = _parse_bound(left, s, lead)
        _, hi = _parse_bound(right, s, lead + len(left) + 1)
        if lo > hi:
            raise ParseError(
                "reversed date range", offset=_byte_offset(s, lead + len(left) + 1)
            )
    else:
        lo, hi = _parse_bound(body, s, lead)

    if circa:
        lo -= CIRCA_WIDENING_DAYS
        hi += CIRCA_WIDENING_DAYS
    return UncertainDate(lo, hi, source_text=s)


def format_uncertain_date(d: UncertainDate) -> str:
    """Canonical two-bound form ``Y-MM-DD/Y-MM-DD``; parseable back."""
    parts = []
    for n in (d.earliest_day, d.latest_day):
        y, m, dd = day_to_date(n)
        parts.append(f"{_format_year(y)}-{m:02d}-{dd:02d}")
    return "/".join(parts)


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


def compare_values(a: Value, b: Value) -> int:
    """-1/0/1 per the canonical total order."""
    ka, kb = value_sort_key(a), value_sort_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


class ColumnKind(str, Enum):
    INT = "int"
    TEXT = "text"
    DATE = "date"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ColumnDescriptor:
    """A named, kinded column.

    ``date_text`` marks a text column that stores date texts and is
    eligible for view-level coercion to a date column; its cell values are
    ordinary strings until a view coerces them.
    """

    name: str
    kind: ColumnKind
    date_text: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("empty column name")
        if self.date_text and self.kind is not ColumnKind.TEXT:
            raise ValueError("date_text applies to text columns only")


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnDescriptor, ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError(f"table {self.name!r} has no columns")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {self.name!r}")

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)


Row = tuple  # ordered cell values, positionally aligned with a TableSchema


# Characters that would break the textual container formats refs travel in
# (tab-separated index lines, comma-separated catalogue lines).
_REF_FORBIDDEN = set("\t\n\r,")


@dataclass(frozen=True)
class ItemRef:
    """A reference to one item in one container of one source.

    Round-trips through the text form ``source_id/container/item_id``;
    the item id may itself contain slashes.
    """

    source_id: str
    container: str
    item_id: str

    def __post_init__(self):
        for part, label in (
            (self.source_id, "source_id"),
            (self.container, "container"),
            (self.item_id, "item_id"),
        ):
            if not part:
                raise ValueError(f"empty {label} in item ref")
            if _REF_FORBIDDEN & set(part):
                raise ValueError(f"{label} contains a forbidden character: {part!r}")
        if "/" in self.source_id or "/" in self.container:
            raise ValueError("source_id and container must not contain '/'")

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
