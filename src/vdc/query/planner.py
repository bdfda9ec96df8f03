"""Query planning: predicate placement and pushdown.

A plan is one left-deep pipeline: a Term per FROM/JOIN relation, in written
order, each the union of its relation's bases, filtered and hash-joined
with the rows joined so far; then cross-relation filters, projection, the
canonical sort and LIMIT.

Every predicate is bound once, to a position in the row it filters.  A
Term's scan predicates are single-relation predicates in the form that
tests raw rows (``CompiledView.raw_form``): positions in the relation's
row, which is also every base's raw row, carrying the one transform
(a translation or a coercion) their column passes through.  They are evaluated either
by the connector (when pushdown is enabled; every connector takes them) or
centrally by the engine on the raw rows.  Both routes see identical values
and run the same evaluator (``vdc.predicates``), so enabling or disabling
pushdown can never change the result — including its coercion warnings,
because mediation runs on exactly the rows that survive the scan
predicates in both modes.

A predicate on a date column is exact only on mediated values: a coercing
scan predicate keeps the texts that do not coerce, so it is a prefilter
and the exact predicate stays among the Term's filters.  Predicates with
no raw form (on twice-transformed columns, or on a coerced column of a
view that coerces two) and DATE_NEAR are filters only; cross-relation
predicates run on the joined rows.

Each Term also names the columns the plan reads from its relation, so the
connector decodes no others: the projection, every predicate's columns
(scan predicates included, which the central route tests on decoded rows),
the join keys, and what mediation reads for its coercion warnings.
"""

from __future__ import annotations

from typing import Union

from ..errors import ParseError, PlanError
from ..model import (
    ColumnKind,
    Record,
    UncertainDate,
    byte_offset,
    parse_uncertain_date,
)
from ..predicates import Compare, Contains, DateWithin
from .binder import Binding
from .parser import (
    CompareAst,
    ContainsAst,
    DateWithinAst,
    QueryAst,
)


# -- bound predicates (relative to the row they filter) ----------------------
# Compare, Contains and DateWithin (``vdc.predicates``) carry one position;
# DATE_NEAR is evaluated only on mediated rows.

class BDateNear(Record):
    __slots__ = ("index_a", "index_b", "k_years")


BoundPredicate = Union[Compare, Contains, DateWithin, BDateNear]


# -- the plan: one left-deep pipeline ---------------------------------------

class Term(Record):
    """One FROM/JOIN relation: the union of its bases, each scanned with
    ``scan_preds`` (run on raw rows, by the connector when the plan pushes
    down), then its own filters (indexed within the relation's row), then
    a hash join with the rows joined so far on ``join_key`` = (left slot,
    local right column); the first term has no join key.  ``columns`` are
    the positions of the relation's row that the plan reads; every other
    cell may be None."""

    __slots__ = ("relation", "scan_preds", "filters", "join_key", "columns")


class Plan(Record):
    """Terms joined left to right, then the cross-relation ``filters`` on
    the joined row, the ``projection``, the canonical sort and ``limit``.
    ``pushdown`` hands every term's scan predicates to the connectors."""

    __slots__ = ("terms", "filters", "projection", "limit", "schema", "pushdown")


def _typed_literal(ast: CompareAst, kind: ColumnKind, text: str) -> int | str | UncertainDate:
    """Check and convert a Compare literal against its column kind; a bad
    date literal is reported at its byte offset in the query ``text``."""
    if kind is ColumnKind.INT:
        if isinstance(ast.literal, str):
            raise PlanError(
                f"column {ast.column.text()!r} is int, got a string literal"
            )
        return ast.literal
    if kind is ColumnKind.TEXT:
        if not isinstance(ast.literal, str):
            raise PlanError(
                f"column {ast.column.text()!r} is text, got an integer literal"
            )
        return ast.literal
    # date column: literal must be a date text, and only exact interval
    # equality is meaningful; ranges go through DATE_WITHIN / DATE_NEAR.
    if not isinstance(ast.literal, str):
        raise PlanError(f"column {ast.column.text()!r} is date, got an integer literal")
    if ast.op not in ("=", "!="):
        raise PlanError(
            f"ordering comparison on date column {ast.column.text()!r}; "
            "use DATE_WITHIN or DATE_NEAR"
        )
    try:
        return parse_uncertain_date(ast.literal)
    except ParseError as e:
        raise PlanError(
            f"column {ast.column.text()!r} is date, literal does not parse: "
            f"{e.message} (byte {byte_offset(text, ast.literal_offset)})"
        ) from e


def _bound(p: CompareAst | ContainsAst | DateWithinAst, c: int, kind: ColumnKind,
           text: str) -> Compare | Contains | DateWithin:
    """``p`` bound to column ``c`` of its relation, kind-checked."""
    if isinstance(p, CompareAst):
        return Compare(c, p.op, _typed_literal(p, kind, text))
    if isinstance(p, ContainsAst):
        if kind is not ColumnKind.TEXT:
            raise PlanError(
                f"CONTAINS needs a text column, {p.column.text()!r} is {kind.value}"
            )
        return Contains(c, p.needle)
    if kind is not ColumnKind.DATE:
        raise PlanError(
            f"DATE_WITHIN needs a date column, {p.column.text()!r} is {kind.value}"
        )
    return DateWithin(c, p.lo, p.hi)


def plan_query(ast: QueryAst, catalogue, pushdown: bool = True) -> Plan:
    binding = Binding(ast, catalogue)
    n_rels = len(binding.relations)

    # Classify WHERE predicates: per-relation scan-level, per-relation
    # central, or cross-relation (post-join).
    scan_preds: list[list[Compare | Contains | DateWithin]] = [[] for _ in range(n_rels)]
    term_filters: list[list[BoundPredicate]] = [[] for _ in range(n_rels)]
    join_filters: list[BoundPredicate] = []

    # Per relation: the columns the plan reads.
    reads = [bound.relation.compiled.mediation_reads() for bound in binding.relations]

    def read(slot_index: int) -> tuple[int, int]:
        """A slot's (relation, column), recorded as read."""
        s = binding.slots[slot_index]
        reads[s.rel_index].add(s.col_index)
        return s.rel_index, s.col_index

    for p in ast.where:
        if isinstance(p, (CompareAst, ContainsAst, DateWithinAst)):
            si = binding.bind(p.column)
            kind = binding.slots[si].column.kind
            r, c = read(si)
            pred = _bound(p, c, kind, ast.text)
            raw = binding.relations[r].relation.compiled.raw_form(pred)
            if raw is not None:
                scan_preds[r].append(raw)
            if raw is None or kind is ColumnKind.DATE:
                term_filters[r].append(pred)
        else:  # DateNearAst: the parser makes no other shape
            sa, sb = binding.bind(p.column_a), binding.bind(p.column_b)
            for si, ref in ((sa, p.column_a), (sb, p.column_b)):
                if binding.slots[si].column.kind is not ColumnKind.DATE:
                    raise PlanError(
                        f"DATE_NEAR needs date columns, {ref.text()!r} is "
                        f"{binding.slots[si].column.kind.value}"
                    )
            ra, ca = read(sa)
            rb, cb = read(sb)
            if ra == rb:
                term_filters[ra].append(BDateNear(ca, cb, p.k_years))
            else:
                join_filters.append(BDateNear(sa, sb, p.k_years))

    indices, schema = binding.output()
    for si in indices:
        read(si)
    for r, (left, right) in enumerate(binding.join_keys, start=1):
        read(left)
        reads[r].add(right)

    terms = tuple(
        Term(
            bound.relation,
            tuple(scan_preds[r]),
            tuple(term_filters[r]),
            binding.join_keys[r - 1] if r else None,
            tuple(sorted(reads[r])),
        )
        for r, bound in enumerate(binding.relations)
    )
    return Plan(terms, tuple(join_filters), tuple(indices), ast.limit, schema, pushdown)
