"""Plan execution with exact multiset semantics and canonical output order.

The engine runs a plan's terms left to right as one stream: a term's rows
are materialized only as a hash join's inputs (sources are desk-to-archive
scale, not warehouse scale), and the join's output streams (Graefe's
pipelined join).  The last stage's rows pass the cross-relation filters and
the projection, then the canonical sort, or with a LIMIT a bounded top-k
that holds at most twice LIMIT rows.
Coercion warnings collected during scans travel with the result; rows whose
date failed to coerce carry a null in that cell, which naturally drops them
from any predicate or join key on the column while keeping them visible to
unrelated queries.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from ..errors import CoercionError, ExecutionError
from ..model import (
    Record,
    Row,
    UncertainDate,
    cell_text,
    csv_text,
    date_near,
    row_sort_key,
    value_sort_key,
)
from ..predicates import holds
from .planner import BDateNear, Plan, Term

HASH_BUILD_CAP = 1_000_000  # rows; guards the hash-join build side


class ResultSet(Record):
    __slots__ = ("schema", "rows", "warnings")


# -- bound predicates (filters above the scans) -------------------------------

def eval_bound(pred, row: Row) -> bool:
    """Evaluate one bound predicate; null never satisfies anything."""
    if isinstance(pred, BDateNear):
        a, b = row[pred.index_a], row[pred.index_b]
        return a is not None and b is not None and date_near(a, b, pred.k_years)
    return holds(pred, row[pred.index])


# -- the pipeline -------------------------------------------------------------

def _hash_join(left: list[Row], right: list[Row], li: int, ri: int) -> Iterator[Row]:
    """Equi-join on the key cells' own equality, building on the smaller
    side; output rows are always ``left + right``, yielded as the probe
    side is read.  Null keys match nothing (none is built).  A build side
    over the cap raises before the first row."""
    build_left = len(left) < len(right)
    build, build_i, probe, probe_i = (
        (left, li, right, ri) if build_left else (right, ri, left, li)
    )
    if len(build) > HASH_BUILD_CAP:
        raise ExecutionError(
            f"hash join build side exceeds {HASH_BUILD_CAP} rows; filter first"
        )
    table: dict = {}
    for b in build:
        key_cell = b[build_i]
        if key_cell is not None:
            table.setdefault(key_cell, []).append(b)
    for p in probe:
        for b in table.get(p[probe_i], ()):
            yield b + p if build_left else p + b


def _term_rows(term: Term, pushdown: bool, warnings: list[CoercionError]) -> Iterator[Row]:
    """The rows of a term's bases that pass its scan predicates and its
    filters; each mediated row's coercion warnings go to ``warnings`` as
    it passes."""
    filters = term.filters
    for b in range(len(term.relation.bases)):
        for row, warns in term.relation.scan_base(b, term.scan_preds, pushdown, term.columns):
            warnings.extend(warns)
            if all(eval_bound(p, row) for p in filters):
                yield row


def top_k(rows: Iterable[Row], k: int) -> list[Row]:
    """``sorted(rows, key=row_sort_key)[:k]`` for k >= 1, holding at most
    2k rows: a row's full key is computed only when its leading cell sorts
    no later than the k-th kept row's."""
    full_key = itemgetter(0)
    kept: list[tuple[tuple, Row]] = []  # (full key, row); after a cut, the least k so far
    bound = None  # the k-th kept row's leading key, once k rows are kept
    for row in rows:
        if bound is not None and value_sort_key(row[0]) > bound:
            continue
        kept.append((row_sort_key(row), row))
        if len(kept) >= 2 * k:
            kept = sorted(kept, key=full_key)[:k]
            bound = kept[-1][0][0]
    return [row for _, row in sorted(kept, key=full_key)[:k]]


def execute_plan(plan: Plan) -> ResultSet:
    """Run a plan: each term's base scans, its filters and its join with the
    rows so far; then cross-relation filters, projection, canonical sort
    and LIMIT."""
    warnings: list[CoercionError] = []
    rows: Iterable[Row] = ()
    for term in plan.terms:
        term_rows = _term_rows(term, plan.pushdown, warnings)
        if term.join_key is None:
            rows = term_rows
        else:
            rows = _hash_join(list(rows), list(term_rows), *term.join_key)
    project, filters = plan.projection, plan.filters
    rows = (
        tuple(r[i] for i in project) for r in rows if all(eval_bound(p, r) for p in filters)
    )
    rows = sorted(rows, key=row_sort_key) if plan.limit is None else top_k(rows, plan.limit)
    warnings.sort(key=lambda w: (w.ref, w.column, w.text))
    return ResultSet(plan.schema, rows, warnings)


# -- result serialization ------------------------------------------------------

def result_to_csv(rs: ResultSet) -> str:
    cells = ([cell_text(v) for v in row] for row in rs.rows)
    return csv_text(chain([rs.schema.column_names()], cells))


def result_to_jsonl(rs: ResultSet) -> str:
    import json  # here: a CSV query never loads it

    names = rs.schema.column_names()
    lines = []
    for row in rs.rows:
        obj = {n: cell_text(v) if isinstance(v, UncertainDate) else v for n, v in zip(names, row)}
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")
