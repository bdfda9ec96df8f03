"""Semantic analysis shared by the planner and the reference evaluator:
relation resolution, column binding, output naming.

Keeping name resolution in one place means the oracle and the engine can
only diverge on evaluation strategy, which is exactly what the oracle is
meant to check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import PlanError
from ..model import ColumnDescriptor, Record, TableSchema
from .parser import ColumnRef, QueryAst

if TYPE_CHECKING:  # pragma: no cover
    from ..datacentre import Catalogue


class BoundRelation(Record):
    """``alias`` is the display name: the explicit alias or the bare relation name."""

    __slots__ = ("alias", "relation", "first_slot")


class Slot(Record):
    """``col_index`` is the column's position within its relation's schema."""

    __slots__ = ("rel_index", "col_index", "alias", "column")


class Binding:
    """The joined row space of a query: relations in FROM/JOIN order, one
    slot per (relation, column), and one join key per JOIN."""

    def __init__(self, ast: QueryAst, catalogue: "Catalogue"):
        self.ast = ast
        self.relations: list[BoundRelation] = []
        self.slots: list[Slot] = []
        seen_aliases = set()
        for term in (ast.relation, *(j.relation for j in ast.joins)):
            alias = term.display()
            if alias in seen_aliases:
                raise PlanError(f"duplicate relation alias {alias!r}")
            seen_aliases.add(alias)
            relation = catalogue.resolve_relation(term.name)
            self.relations.append(BoundRelation(alias, relation, len(self.slots)))
            for ci, col in enumerate(relation.schema.columns):
                self.slots.append(Slot(len(self.relations) - 1, ci, alias, col))
        self.join_keys = [self._join_key(r, j) for r, j in enumerate(ast.joins, 1)]

    def _join_key(self, r: int, join) -> tuple[int, int]:
        """JOIN ``r``'s ON condition as (slot of an earlier relation, column
        of relation ``r``), in either written order, kind-checked."""
        a, b = self.bind(join.left), self.bind(join.right)
        ka, kb = self.slots[a].column.kind, self.slots[b].column.kind
        if ka is not kb:
            raise PlanError(
                f"join keys {join.left.text()!r} ({ka.value}) and "
                f"{join.right.text()!r} ({kb.value}) have different kinds"
            )
        if self.slots[a].rel_index == r:
            a, b = b, a
        if self.slots[b].rel_index != r or self.slots[a].rel_index >= r:
            raise PlanError(
                f"join condition {join.left.text()} = {join.right.text()} must "
                f"relate {self.relations[r].alias!r} to an earlier relation"
            )
        return a, self.slots[b].col_index

    def bind(self, ref: ColumnRef) -> int:
        """Slot index for a column reference; unknown or ambiguous fails."""
        matches = [
            i
            for i, s in enumerate(self.slots)
            if s.column.name == ref.name
            and (ref.qualifier is None or s.alias == ref.qualifier)
        ]
        if not matches:
            raise PlanError(f"unknown column {ref.text()!r}")
        if len(matches) > 1:
            raise PlanError(f"ambiguous column {ref.text()!r}")
        return matches[0]

    def output(self) -> tuple[list[int], TableSchema]:
        """Projected slot indices and the result schema.

        Single-relation queries keep bare column names; joins qualify every
        output column as ``<alias>_<column>`` to keep names unique.
        """
        if self.ast.select is None:
            indices = list(range(len(self.slots)))
        else:
            indices = [self.bind(c) for c in self.ast.select]
        multi = len(self.relations) > 1
        columns = []
        names = set()
        for i in indices:
            s = self.slots[i]
            name = f"{s.alias}_{s.column.name}" if multi else s.column.name
            if name in names:
                raise PlanError(f"duplicate output column {name!r}")
            names.add(name)
            columns.append(ColumnDescriptor(name, s.column.kind, date_text=s.column.date_text))
        schema = TableSchema("result", tuple(columns))
        return indices, schema
