"""Query planning: predicate placement, pushdown and join order.

Scan-level predicates (single-relation Compare/Contains over columns whose
values pass through mediation untransformed) are attached to the Scan node
and evaluated either by the connector (when its capabilities allow and
pushdown is enabled) or centrally by the engine on the raw rows.  Both
routes see identical values and run the same evaluator
(``predicates.matches``), so enabling or disabling pushdown can never
change the result — including its coercion warnings, because mediation runs
on exactly the rows that survive the scan predicates in both modes.

Predicates that need mediated values (coerced dates, translated terms, and
the date predicates) become Filter nodes above the scan or above the joins;
cross-relation predicates always run post-join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from ..errors import PlanError
from ..model import ColumnKind, TableSchema, UncertainDate
from ..predicates import Compare, Contains
from .binder import Binding
from .parser import (
    CompareAst,
    ContainsAst,
    DateNearAst,
    DateWithinAst,
    QueryAst,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..datacentre import Relation


# -- bound predicates (slot-indexed, relative to the row a node sees) ------

@dataclass(frozen=True)
class BCompare:
    index: int
    op: str
    literal: int | str | UncertainDate


@dataclass(frozen=True)
class BContains:
    index: int
    needle: str


@dataclass(frozen=True)
class BDateNear:
    index_a: int
    index_b: int
    k_years: int


@dataclass(frozen=True)
class BDateWithin:
    index: int
    lo: UncertainDate
    hi: UncertainDate


BoundPredicate = Union[BCompare, BContains, BDateNear, BDateWithin]


# -- plan operators ---------------------------------------------------------

@dataclass
class ScanNode:
    relation: "Relation"
    base_index: int
    raw_preds: tuple[Compare | Contains, ...]  # raw column names of this base
    use_connector: bool


@dataclass
class UnionAllNode:
    children: tuple["PlanNode", ...]


@dataclass
class FilterNode:
    child: "PlanNode"
    preds: tuple[BoundPredicate, ...]


@dataclass
class HashJoinNode:
    left: "PlanNode"
    right: "PlanNode"
    left_index: int
    right_index: int


@dataclass
class ProjectNode:
    child: "PlanNode"
    indices: tuple[int, ...]


@dataclass
class LimitNode:
    child: "PlanNode"
    n: int


PlanNode = Union[
    ScanNode, UnionAllNode, FilterNode, HashJoinNode, ProjectNode, LimitNode,
]


@dataclass
class Plan:
    root: PlanNode
    schema: TableSchema
    binding: Binding


def _kind_name(kind: ColumnKind) -> str:
    return kind.value


def _typed_literal(ast: CompareAst, kind: ColumnKind) -> int | str | UncertainDate:
    """Check and convert a Compare literal against its column kind."""
    from ..model import parse_uncertain_date

    if kind is ColumnKind.INT:
        if ast.literal_is_string:
            raise PlanError(
                f"column {ast.column.text()!r} is int, got a string literal"
            )
        return ast.literal
    if kind is ColumnKind.TEXT:
        if not ast.literal_is_string:
            raise PlanError(
                f"column {ast.column.text()!r} is text, got an integer literal"
            )
        return ast.literal
    # date column: literal must be a date text, and only exact interval
    # equality is meaningful; ranges go through DATE_WITHIN / DATE_NEAR.
    if not ast.literal_is_string:
        raise PlanError(f"column {ast.column.text()!r} is date, got an integer literal")
    if ast.op not in ("=", "!="):
        raise PlanError(
            f"ordering comparison on date column {ast.column.text()!r}; "
            "use DATE_WITHIN or DATE_NEAR"
        )
    try:
        return parse_uncertain_date(ast.literal)
    except Exception as e:
        raise PlanError(f"column {ast.column.text()!r} is date, literal does not parse: {e}")


def plan_query(ast: QueryAst, catalogue, pushdown: bool = True) -> Plan:
    binding = Binding(ast, catalogue)
    n_rels = len(binding.relations)

    # Classify WHERE predicates: per-relation scan-level, per-relation
    # central, or cross-relation (post-join).
    scan_preds: list[list[Compare | Contains]] = [[] for _ in range(n_rels)]
    term_filters: list[list[BoundPredicate]] = [[] for _ in range(n_rels)]
    join_filters: list[BoundPredicate] = []

    def local(slot_index: int) -> tuple[int, int]:
        s = binding.slots[slot_index]
        return s.rel_index, s.col_index

    for p in ast.where:
        if isinstance(p, CompareAst):
            si = binding.bind(p.column)
            slot = binding.slots[si]
            literal = _typed_literal(p, slot.column.kind)
            r, c = local(si)
            rel = binding.relations[r].relation
            if slot.column.kind is not ColumnKind.DATE and rel.scannable(slot.column.name):
                scan_preds[r].append(Compare(slot.column.name, p.op, literal))
            else:
                term_filters[r].append(BCompare(c, p.op, literal))
        elif isinstance(p, ContainsAst):
            si = binding.bind(p.column)
            slot = binding.slots[si]
            if slot.column.kind is not ColumnKind.TEXT:
                raise PlanError(
                    f"CONTAINS needs a text column, {p.column.text()!r} is "
                    f"{_kind_name(slot.column.kind)}"
                )
            r, c = local(si)
            rel = binding.relations[r].relation
            if rel.scannable(slot.column.name):
                scan_preds[r].append(Contains(slot.column.name, p.needle))
            else:
                term_filters[r].append(BContains(c, p.needle))
        elif isinstance(p, DateNearAst):
            sa, sb = binding.bind(p.column_a), binding.bind(p.column_b)
            for si, ref in ((sa, p.column_a), (sb, p.column_b)):
                if binding.slots[si].column.kind is not ColumnKind.DATE:
                    raise PlanError(
                        f"DATE_NEAR needs date columns, {ref.text()!r} is "
                        f"{_kind_name(binding.slots[si].column.kind)}"
                    )
            ra, ca = local(sa)
            rb, cb = local(sb)
            if ra == rb:
                term_filters[ra].append(BDateNear(ca, cb, p.k_years))
            else:
                join_filters.append(BDateNear(sa, sb, p.k_years))
        elif isinstance(p, DateWithinAst):
            si = binding.bind(p.column)
            if binding.slots[si].column.kind is not ColumnKind.DATE:
                raise PlanError(
                    f"DATE_WITHIN needs a date column, {p.column.text()!r} is "
                    f"{_kind_name(binding.slots[si].column.kind)}"
                )
            r, c = local(si)
            term_filters[r].append(BDateWithin(c, p.lo, p.hi))
        else:  # pragma: no cover - parser produces no other shapes
            raise PlanError(f"unsupported predicate {p!r}")

    # Join keys, bound and kind-checked.
    join_keys: list[tuple[int, int]] = []
    for j in ast.joins:
        li, ri = binding.bind(j.left), binding.bind(j.right)
        lk = binding.slots[li].column.kind
        rk = binding.slots[ri].column.kind
        if lk is not rk:
            raise PlanError(
                f"join keys {j.left.text()!r} ({_kind_name(lk)}) and "
                f"{j.right.text()!r} ({_kind_name(rk)}) have different kinds"
            )
        join_keys.append((li, ri))

    # One subtree per relation term.
    def term_tree(r: int) -> PlanNode:
        rel = binding.relations[r].relation
        scans: list[PlanNode] = []
        for b in range(len(rel.bases)):
            raw = tuple(rel.rewrite_raw(b, p) for p in scan_preds[r])
            use_conn = bool(raw) and pushdown and rel.connector_supports(b, raw)
            scans.append(ScanNode(rel, b, raw, use_conn))
        node: PlanNode = scans[0] if len(scans) == 1 else UnionAllNode(tuple(scans))
        if term_filters[r]:
            node = FilterNode(node, tuple(term_filters[r]))
        return node

    root = term_tree(0)
    for jn, (li, ri) in enumerate(join_keys, start=1):
        right = term_tree(jn)
        # Slots to the left of this join keep their absolute index; the
        # right side is indexed locally.
        left_slot = li
        first = binding.relations[jn].first_slot
        if not (first <= ri < first + len(binding.relations[jn].relation.schema.columns)):
            # join condition written reversed (right col first): swap sides
            left_slot, ri = ri, li
            if not (first <= ri):
                raise PlanError("join condition must relate the joined relation")
        right_slot = ri - first
        if left_slot >= first:
            raise PlanError("join condition must reference an earlier relation")
        root = HashJoinNode(root, right, left_slot, right_slot)

    if join_filters:
        root = FilterNode(root, tuple(join_filters))

    indices, schema = binding.output()
    root = ProjectNode(root, tuple(indices))
    if ast.limit is not None:
        root = LimitNode(root, ast.limit)
    return Plan(root, schema, binding)
