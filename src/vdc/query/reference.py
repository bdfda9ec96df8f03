"""Independent reference evaluator for desk-scale inputs.

Materializes every relation in full, joins by nested loops, evaluates the
whole WHERE conjunction per combined row, and applies the same canonical
ordering.  It deliberately shares no code with the planner or executor —
no pushdown, no hashing, its own predicate evaluation — so agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

import unicodedata
from typing import TYPE_CHECKING

from ..errors import PlanError
from ..model import (
    ColumnKind,
    UncertainDate,
    date_gap_days,
    parse_uncertain_date,
    row_sort_key,
)
from .binder import Binding
from .executor import ResultSet
from .parser import (
    CompareAst,
    ContainsAst,
    DateNearAst,
    DateWithinAst,
    QueryAst,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..datacentre import Catalogue


def _naive_compare(cell, op, literal) -> bool:
    if cell is None:
        return False
    if isinstance(cell, UncertainDate):
        eq = (
            cell.earliest_day == literal.earliest_day
            and cell.latest_day == literal.latest_day
        )
        return eq if op == "=" else not eq
    ops = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
        "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b,
    }
    return ops[op](cell, literal)


def _naive_contains(cell, needle) -> bool:
    if cell is None:
        return False
    fold = lambda s: unicodedata.normalize("NFC", s).casefold()
    return fold(needle) in fold(cell)


def reference_eval(ast: QueryAst, catalogue: "Catalogue") -> ResultSet:
    binding = Binding(ast, catalogue)

    tables: list[list[tuple]] = []
    warnings = []
    for bound in binding.relations:
        rows = []
        for b in range(len(bound.relation.bases)):
            for row, warns in bound.relation.scan_base(b, (), False, None):
                rows.append(row)
                warnings.extend(warns)
        tables.append(rows)

    # Pre-bind every column reference to its absolute slot, rejecting the
    # same kind mismatches the planner rejects.  The join keys are bound and
    # checked once, by the Binding.
    join_keys = [
        (left, binding.relations[r].first_slot + col)
        for r, (left, col) in enumerate(binding.join_keys, start=1)
    ]
    where = []
    for p in ast.where:
        if isinstance(p, CompareAst):
            si = binding.bind(p.column)
            kind = binding.slots[si].column.kind
            literal = p.literal
            if kind is ColumnKind.INT and isinstance(p.literal, str):
                raise PlanError(f"column {p.column.text()!r} is int, got a string literal")
            if kind is ColumnKind.TEXT and not isinstance(p.literal, str):
                raise PlanError(f"column {p.column.text()!r} is text, got an integer literal")
            if kind is ColumnKind.DATE:
                if not isinstance(p.literal, str) or p.op not in ("=", "!="):
                    raise PlanError(f"bad date comparison on {p.column.text()!r}")
                try:
                    literal = parse_uncertain_date(p.literal)
                except Exception as e:
                    raise PlanError(f"bad date literal on {p.column.text()!r}: {e}")
            where.append(("cmp", si, p.op, literal))
        elif isinstance(p, ContainsAst):
            si = binding.bind(p.column)
            if binding.slots[si].column.kind is not ColumnKind.TEXT:
                raise PlanError(f"CONTAINS needs a text column, not {p.column.text()!r}")
            where.append(("has", si, p.needle))
        elif isinstance(p, DateNearAst):
            sa, sb = binding.bind(p.column_a), binding.bind(p.column_b)
            for si, ref in ((sa, p.column_a), (sb, p.column_b)):
                if binding.slots[si].column.kind is not ColumnKind.DATE:
                    raise PlanError(f"DATE_NEAR needs date columns, not {ref.text()!r}")
            where.append(("near", sa, sb, p.k_years))
        else:
            assert isinstance(p, DateWithinAst)
            si = binding.bind(p.column)
            if binding.slots[si].column.kind is not ColumnKind.DATE:
                raise PlanError(f"DATE_WITHIN needs a date column, not {p.column.text()!r}")
            where.append(("within", si, p.lo, p.hi))

    def keep(combined: tuple) -> bool:
        for li, ri in join_keys:
            a, b = combined[li], combined[ri]
            if a is None or b is None:
                return False
            if isinstance(a, UncertainDate):
                if (a.earliest_day, a.latest_day) != (b.earliest_day, b.latest_day):
                    return False
            elif a != b:
                return False
        for w in where:
            if w[0] == "cmp":
                if not _naive_compare(combined[w[1]], w[2], w[3]):
                    return False
            elif w[0] == "has":
                if not _naive_contains(combined[w[1]], w[2]):
                    return False
            elif w[0] == "near":
                a, b = combined[w[1]], combined[w[2]]
                if a is None or b is None:
                    return False
                if date_gap_days(a, b) > w[3] * 365:
                    return False
            else:
                a = combined[w[1]]
                if a is None:
                    return False
                if not (w[2].earliest_day <= a.earliest_day and a.latest_day <= w[3].latest_day):
                    return False
        return True

    combos: list[tuple] = [()]
    for rows in tables:
        combos = [c + r for c in combos for r in rows]
    kept = [c for c in combos if keep(c)]

    indices, schema = binding.output()
    out = [tuple(c[i] for i in indices) for c in kept]
    out.sort(key=row_sort_key)
    if ast.limit is not None:
        out = out[: ast.limit]
    warnings.sort(key=lambda w: (w.ref, w.column, w.text))
    return ResultSet(schema, out, warnings)
