"""Record classes: plain ``__slots__`` classes rather than dataclasses (the
query AST's root alone stays one), built by one positional constructor in
slot order unless they check their fields, frozen where they are hashed or
shared, equal by class and value but never to a tuple of their cells, and
with the validation errors they always had."""

import os
import subprocess
import sys

import pytest

from vdc.datacentre import AccessMode, ResolvedItem, SourceDescriptor
from vdc.mediation import Coerce, IngestRecipe, RelationRef, Rename, Translate, ViewDefinition
from vdc.model import ColumnDescriptor, ColumnKind, ItemRef, Record, TableSchema, UncertainDate
from vdc.predicates import Compare, Contains, DateWithin
from vdc.query.binder import BoundRelation, Slot
from vdc.query.executor import ResultSet
from vdc.query.parser import (
    ColumnRef,
    CompareAst,
    ContainsAst,
    DateNearAst,
    DateWithinAst,
    JoinSpec,
    RelationTerm,
    Token,
)
from vdc.query.planner import BDateNear, Plan, Term
from vdc.textindex import DocEntry, Document, SearchQuery

RELATION = object()  # stands in for a Relation, which equals only itself


def frozen_records() -> list:
    """One of each frozen record, built afresh on every call."""
    date = UncertainDate(0, 9)
    col = ColumnDescriptor("id", ColumnKind.INT)
    schema = TableSchema("t", (col, ColumnDescriptor("d", ColumnKind.TEXT, date_text=True)))
    ref = RelationRef("s", "t")
    a, b = ColumnRef("a", "x"), ColumnRef(None, "y")
    term = Term(RELATION, (Compare(0, "=", 1),), (BDateNear(0, 1, 5),), None, (0, 1))
    return [
        date, col, schema, ItemRef("s", "t", "k/1"),
        Compare(0, "<", 5), Contains(1, "x", str.upper), DateWithin(1, date, date),
        ref, Rename("Ort", "place"), Coerce("d"), Translate("c", "de_en"),
        ViewDefinition("v", (ref,), (Coerce("d"),)),
        IngestRecipe("r", ref, "id", (("title", "t"),), ("body",), None, ("body",)),
        SourceDescriptor("s", "tabular", "/p", AccessMode.LIVE),
        SearchQuery(("a",), field="body", limit=3),
        Token("ident", "id", 7), a, RelationTerm("s.t", "x"),
        JoinSpec(RelationTerm("v", None), a, b), CompareAst(a, "=", "x", 9),
        ContainsAst(a, "n"), DateNearAst(a, b, 5), DateWithinAst(a, date, date),
        BDateNear(0, 1, 5), term, Plan((term,), (), (0,), None, schema, True),
    ]


def test_no_dataclass_but_the_query_ast():
    """Without site, whose hooks may load other modules first, the only
    vdc dataclass a command's modules define is QueryAst (vdc.cli loads
    the query engine only when ``vdc query`` runs, so it is named here)."""
    code = (
        "import sys, vdc.cli, vdc.query, vdc.textindex, vdc.colimage\n"
        "print(*sorted({f'{c.__module__}.{c.__qualname__}'\n"
        "    for m in list(sys.modules.values()) if m.__name__.split('.')[0] == 'vdc'\n"
        "    for c in vars(m).values()\n"
        "    if isinstance(c, type) and '__dataclass_fields__' in vars(c)}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], check=True, env=env, capture_output=True, text=True
    ).stdout
    assert out.split() == ["vdc.query.parser.QueryAst"]


def test_records_hold_no_dict():
    """Every field of a record is one of its slots."""
    ref = ItemRef("s", "t", "1")
    col = ColumnDescriptor("id", ColumnKind.INT)
    mutable = [
        ResolvedItem(ref, "row", None), DocEntry("d", "s/t/1", None, {}),
        Document("d", ref, {}, "body"), ResultSet(TableSchema("r", (col,)), [], []),
        Slot(0, 0, "t", col), BoundRelation("t", RELATION, 0),
    ]
    for record in frozen_records() + mutable:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_frozen_records_refuse_assignment():
    for record in frozen_records():
        for name in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_equal_values_compare_and_hash_equal():
    for x, y in zip(frozen_records(), frozen_records()):
        assert x is not y
        assert x == y and not x != y and hash(x) == hash(y), x
        assert {x: 1}[y] == 1
        cells = tuple(getattr(x, name) for name in type(x).__slots__)
        assert x.cells() == cells
        assert x != cells and cells != x, x
        assert x != list(cells)


def test_records_rebuild_from_their_cells():
    """Constructor order is slot order: ``CompiledView.raw_form`` rebuilds
    a predicate from its cells."""
    for record in frozen_records():
        assert type(record)(*record.cells()) == record, record


@pytest.mark.parametrize("record", [
    RelationRef("s", "t"), Coerce("d"), SourceDescriptor("s", "tabular", "/p", AccessMode.LIVE),
    Token("ident", "id", 7), BDateNear(0, 1, 5),
])
def test_wrong_cell_count_names_the_class(record):
    cls, cells = type(record), record.cells()
    for wrong in (cells[:-1], cells + (None,)):
        with pytest.raises(TypeError) as e:
            cls(*wrong)
        assert str(e.value) == f"{cls.__name__} takes {len(cells)} fields, got {len(wrong)}"


def test_only_records_with_checks_or_defaults_write_a_constructor():
    records = set(Record.__subclasses__())  # no record derives from another
    assert records == {type(r) for r in frozen_records()}
    writers = {cls.__name__ for cls in records if "__init__" in vars(cls)}
    assert writers == {
        "UncertainDate", "ColumnDescriptor", "TableSchema", "ItemRef",
        "Compare", "Contains", "DateWithin", "SearchQuery",
    }


def test_records_differ_by_value_and_class():
    assert UncertainDate(0, 9) != UncertainDate(0, 8)
    assert ItemRef("s", "t", "1") != ItemRef("s", "t", "2")
    assert Compare(0, "=", 1) != Compare(0, "=", 1, str.upper)
    assert Rename("a", "b") != Translate("a", "b")
    assert RelationRef("s", "t") != ColumnRef("s", "t")
    assert UncertainDate(0, 9) != (0, 9)


def test_repr_spells_every_field():
    assert repr(UncertainDate(3, 4)) == "UncertainDate(earliest_day=3, latest_day=4)"
    assert repr(ItemRef("s", "t", "k")) == "ItemRef(source_id='s', container='t', item_id='k')"


@pytest.mark.parametrize("build,message", [
    (lambda: UncertainDate(5, 4), "reversed interval: 5 > 4"),
    (lambda: ColumnDescriptor("", ColumnKind.INT), "empty column name"),
    (lambda: ColumnDescriptor("d", ColumnKind.INT, date_text=True),
     "date_text applies to text columns only"),
    (lambda: TableSchema("t", ()), "table 't' has no columns"),
    (lambda: TableSchema("t", (ColumnDescriptor("a", ColumnKind.INT),
                               ColumnDescriptor("a", ColumnKind.TEXT))),
     "duplicate column names in 't'"),
    (lambda: ItemRef("", "t", "1"), "empty source_id in item ref"),
    (lambda: ItemRef("s", "t", ""), "empty item_id in item ref"),
    (lambda: ItemRef("s/x", "t", "1"), "source_id and container must not contain '/'"),
    (lambda: ItemRef("s", "t/x", "1"), "source_id and container must not contain '/'"),
    (lambda: ItemRef("s", "t\tx", "1"), "container contains a forbidden character: 't\\tx'"),
    (lambda: ItemRef("s", "t", "1,2"), "item_id contains a forbidden character: '1,2'"),
    (lambda: Compare(0, "~", 1), "bad comparison operator '~'"),
    (lambda: SearchQuery(()), "search needs at least one term or a bbox"),
    (lambda: SearchQuery(("a",), limit=0), "limit must be positive"),
    (lambda: SearchQuery((), bbox=(1.0, 0.0, 0.0, 1.0)), "bbox minimum exceeds maximum"),
])
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message
