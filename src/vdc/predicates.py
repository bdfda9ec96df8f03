"""Scan predicates and the engine's one evaluator of them.

Compare and Contains name their column by ``index``, a position in the row
they test; for a scan predicate that is the relation's row, which is also
every base's raw row.  Connectors only ever receive these two shapes; the
date predicates always run centrally on mediated rows.  A scan predicate
on a column that a view only translates carries its translation table: the
raw cell is translated (unmapped terms pass through) before the test,
which is exactly what the central filter sees after mediation.  ``compare``
and ``contains`` are the engine's single implementation of those meanings:
the tabular connector applies them to pushed predicates, the executor to
scan predicates it keeps for itself and to filters.  Pushdown therefore
cannot change an answer by construction; the independent check of what the
meanings should be is ``query/reference.py``, which keeps its own code.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .model import Row, UncertainDate

if TYPE_CHECKING:  # pragma: no cover
    from .mediation import TranslationTable

COMPARE_OPS = ("=", "!=", "<", ">", "<=", ">=")


@dataclass(frozen=True)
class Compare:
    index: int
    op: str
    literal: int | str | UncertainDate
    xlate: "TranslationTable | None" = None

    def __post_init__(self):
        if self.op not in COMPARE_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class Contains:
    index: int
    needle: str
    xlate: "TranslationTable | None" = None


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


def holds(p: Compare | Contains, cell) -> bool:
    """True when one cell satisfies ``p``; a null cell satisfies
    nothing.  A translating predicate tests the cell's translation."""
    if cell is None:
        return False
    if p.xlate is not None:
        hit = p.xlate.lookup(cell)
        if hit is not None:
            cell = hit
    if isinstance(p, Contains):
        return contains(cell, p.needle)
    return compare(cell, p.op, p.literal)


def matches(preds: Sequence, row: Row) -> bool:
    """True when a row satisfies every Compare/Contains in ``preds``."""
    return all(holds(p, row[p.index]) for p in preds)
