"""Scan predicates and the engine's one raw-space evaluator.

Connectors only ever receive Compare and Contains (the pushable shapes);
the date predicates always run centrally on mediated rows.  ``compare`` and
``contains`` are the engine's single implementation of those meanings: the
tabular connector applies them to pushed predicates, the executor applies
them to scan predicates it keeps for itself and to bound filters.  Pushdown
therefore cannot change an answer by construction; the independent check of
what the meanings should be is ``query/reference.py``, which keeps its own
code.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Sequence

from .model import Row, TableSchema, UncertainDate

COMPARE_OPS = ("=", "!=", "<", ">", "<=", ">=")


@dataclass(frozen=True)
class Compare:
    column: str
    op: str
    literal: int | str | UncertainDate

    def __post_init__(self):
        if self.op not in COMPARE_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class Contains:
    column: str
    needle: str


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


def matches(schema: TableSchema, preds: Sequence, row: Row) -> bool:
    """True when a raw row satisfies every Compare/Contains in ``preds``;
    a null cell satisfies nothing."""
    for p in preds:
        cell = row[schema.index_of(p.column)]
        if cell is None:
            return False
        if isinstance(p, Contains):
            if not contains(cell, p.needle):
                return False
        elif not compare(cell, p.op, p.literal):
            return False
    return True
