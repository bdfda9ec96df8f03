"""Plan execution with exact multiset semantics and canonical output order.

The engine materializes operator results bottom-up (sources are desk-to-
archive scale, not warehouse scale), sorts the projected rows with the
canonical value order, and applies LIMIT last.  Coercion warnings collected
during scans travel with the result; rows whose date failed to coerce carry
a null in that cell, which naturally drops them from any predicate or join
key on the column while keeping them visible to unrelated queries.
"""

from __future__ import annotations

import csv
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
from ..predicates import compare, contains, matches
from .planner import (
    BCompare,
    BContains,
    BDateNear,
    FilterNode,
    HashJoinNode,
    LimitNode,
    Plan,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionAllNode,
)

HASH_BUILD_CAP = 1_000_000  # rows; guards the hash-join build side


@dataclass
class ResultSet:
    schema: TableSchema
    rows: list[Row]
    warnings: list[CoercionError] = field(default_factory=list)


# -- bound predicates (filters above the scans) -------------------------------

def eval_bound(pred, row: Row) -> bool:
    """Evaluate one bound predicate; null never satisfies anything."""
    if isinstance(pred, BCompare):
        cell = row[pred.index]
        return cell is not None and compare(cell, pred.op, pred.literal)
    if isinstance(pred, BContains):
        cell = row[pred.index]
        return cell is not None and contains(cell, pred.needle)
    if isinstance(pred, BDateNear):
        a, b = row[pred.index_a], row[pred.index_b]
        return a is not None and b is not None and date_near(a, b, pred.k_years)
    a = row[pred.index]
    return a is not None and date_within(a, pred.lo, pred.hi)


# -- operators ---------------------------------------------------------------

def _run(node: PlanNode, cap: int) -> tuple[list[Row], list[CoercionError]]:
    if isinstance(node, ScanNode):
        rows: list[Row] = []
        warnings: list[CoercionError] = []
        for row, warns in node.relation.scan_base(
            node.base_index, node.raw_preds, node.use_connector, matches
        ):
            rows.append(row)
            warnings.extend(warns)
        return rows, warnings
    if isinstance(node, UnionAllNode):
        rows, warnings = [], []
        for child in node.children:
            r, w = _run(child, cap)
            rows.extend(r)
            warnings.extend(w)
        return rows, warnings
    if isinstance(node, FilterNode):
        rows, warnings = _run(node.child, cap)
        return [r for r in rows if all(eval_bound(p, r) for p in node.preds)], warnings
    if isinstance(node, HashJoinNode):
        left, lw = _run(node.left, cap)
        right, rw = _run(node.right, cap)
        return _hash_join(left, right, node.left_index, node.right_index, cap), lw + rw
    if isinstance(node, ProjectNode):
        rows, warnings = _run(node.child, cap)
        return [tuple(r[i] for i in node.indices) for r in rows], warnings
    if isinstance(node, LimitNode):  # handled by execute_plan after sorting
        raise ExecutionError("LIMIT must be the plan root")
    raise ExecutionError(f"unknown plan node {type(node).__name__}")


def _hash_join(left: list[Row], right: list[Row], li: int, ri: int, cap: int) -> list[Row]:
    """Equi-join on canonical key equality, building on the smaller side;
    output rows are always ``left + right``.  Null keys match nothing."""
    build_left = len(left) < len(right)
    build, build_i, probe, probe_i = (
        (left, li, right, ri) if build_left else (right, ri, left, li)
    )
    if len(build) > cap:
        raise ExecutionError(
            f"hash join build side exceeds {cap} rows; raise the cap or filter first"
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


def execute_plan(plan: Plan, max_hash_build: int = HASH_BUILD_CAP) -> ResultSet:
    """Run a plan: relational evaluation, canonical sort, then LIMIT."""
    root = plan.root
    limit = None
    if isinstance(root, LimitNode):
        limit = root.n
        root = root.child
    rows, warnings = _run(root, max_hash_build)
    rows.sort(key=row_sort_key)
    if limit is not None:
        rows = rows[:limit]
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
