"""Plan execution with exact multiset semantics and canonical output order.

The engine runs a plan's terms left to right, materializing each stage
(sources are desk-to-archive scale, not warehouse scale), sorts the
projected rows with the canonical value order, and applies LIMIT last.
Coercion warnings collected during scans travel with the result; rows whose
date failed to coerce carry a null in that cell, which naturally drops them
from any predicate or join key on the column while keeping them visible to
unrelated queries.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
from dataclasses import dataclass, field

from ..errors import CoercionError, ExecutionError
from ..model import (
    Row,
    TableSchema,
    UncertainDate,
    date_near,
    date_within,
    format_uncertain_date,
    row_sort_key,
    value_sort_key,
)
from ..predicates import Compare, Contains, holds, matches
from .planner import BDateNear, Plan

HASH_BUILD_CAP = 1_000_000  # rows; guards the hash-join build side


@dataclass
class ResultSet:
    schema: TableSchema
    rows: list[Row]
    warnings: list[CoercionError] = field(default_factory=list)


# -- bound predicates (filters above the scans) -------------------------------

def eval_bound(pred, row: Row) -> bool:
    """Evaluate one bound predicate; null never satisfies anything."""
    if isinstance(pred, (Compare, Contains)):
        return holds(pred, row[pred.index])
    if isinstance(pred, BDateNear):
        a, b = row[pred.index_a], row[pred.index_b]
        return a is not None and b is not None and date_near(a, b, pred.k_years)
    a = row[pred.index]
    return a is not None and date_within(a, pred.lo, pred.hi)


# -- the pipeline -------------------------------------------------------------

def _hash_join(left: list[Row], right: list[Row], li: int, ri: int) -> list[Row]:
    """Equi-join on canonical key equality, building on the smaller side;
    output rows are always ``left + right``.  Null keys match nothing."""
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
            table.setdefault(value_sort_key(key_cell), []).append(b)
    out = []
    for p in probe:
        key_cell = p[probe_i]
        if key_cell is None:
            continue
        for b in table.get(value_sort_key(key_cell), ()):
            out.append(b + p if build_left else p + b)
    return out


def _keep(rows: list[Row], preds: tuple) -> list[Row]:
    return [r for r in rows if all(eval_bound(p, r) for p in preds)] if preds else rows


def execute_plan(plan: Plan) -> ResultSet:
    """Run a plan: each term's base scans, its filters and its join with the
    rows so far; then cross-relation filters, projection, canonical sort
    and LIMIT."""
    rows: list[Row] = []
    warnings: list[CoercionError] = []
    for term in plan.terms:
        term_rows: list[Row] = []
        for b in range(len(term.relation.bases)):
            for row, warns in term.relation.scan_base(
                b, term.scan_preds, plan.pushdown, matches, columns=term.columns
            ):
                term_rows.append(row)
                warnings.extend(warns)
        term_rows = _keep(term_rows, term.filters)
        if term.join_key is None:
            rows = term_rows
        else:
            rows = _hash_join(rows, term_rows, *term.join_key)
    rows = [tuple(r[i] for i in plan.projection) for r in _keep(rows, plan.filters)]
    if plan.limit is None:
        rows.sort(key=row_sort_key)
    else:  # documented equal to sorted(rows, key=...)[:limit], ties included
        rows = heapq.nsmallest(plan.limit, rows, key=row_sort_key)
    warnings.sort(key=lambda w: (w.ref, w.column, w.text))
    return ResultSet(plan.schema, rows, warnings)


# -- result serialization ------------------------------------------------------

def cell_text(v) -> str:
    """Canonical textual form of a cell (nulls are empty)."""
    if v is None:
        return ""
    if isinstance(v, UncertainDate):
        return format_uncertain_date(v)
    return v if isinstance(v, str) else str(v)


def result_to_csv(rs: ResultSet) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rs.schema.column_names())
    for row in rs.rows:
        writer.writerow([cell_text(v) for v in row])
    return buf.getvalue()


def result_to_jsonl(rs: ResultSet) -> str:
    names = rs.schema.column_names()
    lines = []
    for row in rs.rows:
        obj = {}
        for name, v in zip(names, row):
            if isinstance(v, UncertainDate):
                obj[name] = format_uncertain_date(v)
            else:
                obj[name] = v
        lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")
