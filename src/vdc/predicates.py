"""Scan predicates and the engine's one evaluator of them.

Compare, Contains and DateWithin name their column by ``index``, a
position in the row they test; for a scan predicate that is the relation's
row, which is also every base's raw row.  A scan predicate on a column
that a view only translates carries its translation table: the raw cell
is translated (unmapped terms pass through) before the test, which is
exactly what the central filter sees after mediation.  A date predicate
(DateWithin, or a Compare against a date) on a column that the view only
coerces, where that is the view's one coerced column, carries the view's
coercion instead and is a prefilter: a raw text that coerces is tested as
its date, and one that does not is kept, so that mediation still warns on
it and the exact predicate, which stays a central filter, drops it.
Only the planner makes scan predicates, and it checks each one as it binds
it: its column exists and its literal or test fits the column's kind.
``compare``, ``contains`` and ``holds`` are the engine's single
implementation of these meanings: the connectors apply them to pushed
predicates without checking them again, the executor to scan predicates
it keeps for itself and to filters.  Pushdown therefore cannot change an
answer by construction; the independent check of what the meanings should
be is ``query/reference.py``, which keeps its own code.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .model import Row, UncertainDate, date_within

if TYPE_CHECKING:  # pragma: no cover
    from .mediation import TranslationTable

COMPARE_OPS = ("=", "!=", "<", ">", "<=", ">=")

# A view's date coercion of one raw text: its date, or None when it does
# not parse.
Coercion = Callable[[str], "UncertainDate | None"]


@dataclass(frozen=True)
class Compare:
    index: int
    op: str
    literal: int | str | UncertainDate
    xlate: "TranslationTable | None" = None
    coerce: "Coercion | None" = None

    def __post_init__(self):
        if self.op not in COMPARE_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class Contains:
    index: int
    needle: str
    xlate: "TranslationTable | None" = None


@dataclass(frozen=True)
class DateWithin:
    """DATE_WITHIN: the cell's whole interval lies inside [lo, hi]."""

    index: int
    lo: UncertainDate
    hi: UncertainDate
    coerce: "Coercion | None" = None


def contains(cell: str, needle: str) -> bool:
    """Substring test after NFC normalization and case folding."""
    hay = unicodedata.normalize("NFC", cell).casefold()
    return unicodedata.normalize("NFC", needle).casefold() in hay


def compare(cell, op: str, literal) -> bool:
    """``cell op literal`` on a non-null cell; dates compare by interval
    equality only (the planner admits no ordering on date columns)."""
    if isinstance(cell, UncertainDate):
        same = (cell.earliest_day, cell.latest_day) == (
            literal.earliest_day,
            literal.latest_day,
        )
        return same if op == "=" else not same
    if op == "=":
        return cell == literal
    if op == "!=":
        return cell != literal
    if op == "<":
        return cell < literal
    if op == ">":
        return cell > literal
    if op == "<=":
        return cell <= literal
    return cell >= literal


def holds(p: Compare | Contains | DateWithin, cell) -> bool:
    """True when one cell satisfies ``p``; a null cell satisfies nothing.
    A translating predicate tests the cell's translation; a coercing one
    tests the cell's date, and keeps a cell that does not coerce."""
    if cell is None:
        return False
    if not isinstance(p, DateWithin) and p.xlate is not None:
        cell = p.xlate.translate(cell)
    if isinstance(p, Contains):
        return contains(cell, p.needle)
    if p.coerce is not None:
        cell = p.coerce(cell)
        if cell is None:
            return True  # mediation warns on it; the exact filter drops it
    if isinstance(p, DateWithin):
        return date_within(cell, p.lo, p.hi)
    return compare(cell, p.op, p.literal)


def matches(preds: Sequence, row: Row) -> bool:
    """True when a row satisfies every predicate in ``preds``."""
    return all(holds(p, row[p.index]) for p in preds)
