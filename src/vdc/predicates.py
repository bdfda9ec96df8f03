"""Scan predicates and the engine's one evaluator of them.

Compare, Contains and DateWithin name their column by ``index``, a
position in the row they test; for a scan predicate that is the relation's
row, which is also every base's raw row.  A scan predicate on a column
that a view transforms carries the view's one ``transform`` of a raw cell,
the callable mediation itself applies: a table's translation (unmapped
terms pass through) or the view's date coercion, which maps a text that
does not coerce to None.  The predicate tests the transformed cell, what
the central filter sees after mediation, and keeps a cell mapped to None,
so that mediation still warns on it; on a date column it is therefore a
prefilter, and the exact predicate, which stays a central filter, drops it.
Only the planner makes scan predicates, and it checks each one as it binds
it: its column exists and its literal or test fits the column's kind.
``holds`` is the engine's one evaluator of these meanings (``matches``
applies it to a row), and values compare by their own equality (a date's
is its interval's): the connectors apply it to pushed predicates without
checking them again, the executor to scan predicates it keeps for itself
and to filters.  One form of a predicate is tested elsewhere: a vault's
column image tests a coercing date predicate on each entry's stored days
(``vdc.colimage``), with the days-level containment test that
``date_within`` calls, ``vdc.model.days_within``, and interval equality
as a pair of days; a property test holds it equal to ``holds`` on each
entry's text.  Pushdown therefore cannot change an answer; the
independent check of what the meanings should be is
``query/reference.py``, which keeps its own code.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

from .model import Record, Row, UncertainDate, date_within, fold

COMPARE_OPS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}


class Compare(Record):
    __slots__ = ("index", "op", "literal", "transform")

    def __init__(self, index: int, op: str, literal: int | str | UncertainDate,
                 transform: Callable | None = None):
        if op not in COMPARE_OPS:
            raise ValueError(f"bad comparison operator {op!r}")
        Record.__init__(self, index, op, literal, transform)


class Contains(Record):
    __slots__ = ("index", "needle", "transform")

    def __init__(self, index: int, needle: str, transform: Callable | None = None):
        Record.__init__(self, index, needle, transform)


class DateWithin(Record):
    """DATE_WITHIN: the cell's whole interval lies inside [lo, hi]."""

    __slots__ = ("index", "lo", "hi", "transform")

    def __init__(self, index: int, lo: UncertainDate, hi: UncertainDate,
                 transform: Callable | None = None):
        Record.__init__(self, index, lo, hi, transform)


def holds(p: Compare | Contains | DateWithin, cell) -> bool:
    """True when one cell satisfies ``p``; a null cell satisfies nothing.
    A predicate with a transform tests the cell's transform, and keeps a
    cell that the transform maps to None.  CONTAINS is a substring test
    after NFC normalization and case folding."""
    if cell is None:
        return False
    if p.transform is not None:
        cell = p.transform(cell)
        if cell is None:
            return True  # mediation warns on it; the exact filter drops it
    if isinstance(p, Contains):
        return fold(p.needle) in fold(cell)
    if isinstance(p, DateWithin):
        return date_within(cell, p.lo, p.hi)
    return COMPARE_OPS[p.op](cell, p.literal)


def matches(preds: Sequence, row: Row) -> bool:
    """True when a row satisfies every predicate in ``preds``."""
    return all(holds(p, row[p.index]) for p in preds)
