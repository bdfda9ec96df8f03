"""Record classes: plain ``__slots__`` classes rather than dataclasses (the
query AST's root alone stays one), built by one positional constructor in
slot order unless they check their fields or give defaults, frozen, equal
by class and value but never to a tuple of their cells, and with the
validation errors they always had."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vdc
from vdc.colimage import ColumnImage
from vdc.datacentre import AccessMode, ResolvedItem, SourceDescriptor, _ViewEntry
from vdc.fixtures import FixtureSpec, ManifestEntry, OverlapManifest, _Planted
from vdc.mediation import (
    Coerce, IngestRecipe, RelationRef, Rename, Translate, ViewDefinition, _CellOp,
)
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
from vdc.textindex import Batch, DocEntry, Document, IndexBuild, SearchQuery

RELATION = object()  # stands in for a Relation, which equals only itself


def frozen_records() -> list:
    """One of each record, built afresh on every call.  Cells that are
    lists or dicts in use are tuples here, so that every record hashes."""
    date = UncertainDate(0, 9)
    col = ColumnDescriptor("id", ColumnKind.INT)
    schema = TableSchema("t", (col, ColumnDescriptor("d", ColumnKind.TEXT, date_text=True)))
    ref = RelationRef("s", "t")
    item = ItemRef("s", "t", "k/1")
    a, b = ColumnRef("a", "x"), ColumnRef(None, "y")
    term = Term(RELATION, (Compare(0, "=", 1),), (BDateNear(0, 1, 5),), None, (0, 1))
    view = ViewDefinition("v", (ref,), (Coerce("d"),))
    homonym = ManifestEntry("homonym", "P. Q", "", "a/t/1", "b/t/1", 365, True)
    return [
        date, col, schema, item,
        Compare(0, "<", 5), Contains(1, "x", str.upper), DateWithin(1, date, date),
        ref, Rename("Ort", "place"), Coerce("d"), Translate("c", "de_en"), view,
        IngestRecipe("r", ref, "id", (("title", "t"),), ("body",), None, ("body",)),
        _CellOp(1, "d", str.upper),
        SourceDescriptor("s", "tabular", "/p", AccessMode.LIVE),
        _ViewEntry("/p/v.view", view), ResolvedItem(item, "row", (schema, (1, date))),
        SearchQuery(("a",), field="body", limit=3),
        Document("d", item, (("title", "T"),), "body", (31.25, -0.5)),
        Batch(("k/1",), ("d",), (("title", ("T",)),), ("body",), None),
        DocEntry("d", "s/t/k/1", None, (("title", "T"),)),
        IndexBuild("s.t", b"s/t/k/1\td\t-\t-\n", (0, 12), (0,), (("body", (("b", 0),)),)),
        ColumnImage("/p/vdc.cols", (("t", None),), (("t", ("/p/t.csv",)),)),
        Token("ident", "id", 7), a, RelationTerm("s.t", "x"),
        JoinSpec(RelationTerm("v", None), a, b), CompareAst(a, "=", "x", 9),
        ContainsAst(a, "n"), DateNearAst(a, b, 5), DateWithinAst(a, date, date),
        BoundRelation("x", RELATION, 0), Slot(0, 1, "x", col),
        BDateNear(0, 1, 5), term, Plan((term,), (), (0,), None, schema, True),
        ResultSet(schema, ((1, date),), ()),
        FixtureSpec(42, "desk", "/out"), homonym, OverlapManifest((homonym,)),
        _Planted("P. Q", "0150-03-01", 151, 365),
    ]


def test_no_dataclass_but_the_query_ast():
    """Without site, whose hooks may load other modules first, the only
    vdc dataclass a command's modules define is QueryAst (vdc.cli loads
    the query engine only when ``vdc query`` runs, and the fixtures only
    when ``vdc fixtures generate`` does, so both are named here)."""
    code = (
        "import sys, vdc.cli, vdc.query, vdc.textindex, vdc.colimage, vdc.colwriter, vdc.fixtures\n"
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
    for record in frozen_records():
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
        "Compare", "Contains", "DateWithin", "SearchQuery", "FixtureSpec",
    }


def _only_copies(init: ast.FunctionDef) -> bool:
    """True when a constructor's every statement but its docstring copies
    a parameter into the attribute of its name (``self.x = x``, or
    ``init_field(self, "x", x)``), or it only hands its parameters, in
    order and with no defaults, to ``Record.__init__``."""
    params = [a.arg for a in init.args.args[1:]]
    body = [s for s in init.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]

    def copies(s: ast.stmt) -> bool:
        if isinstance(s, (ast.Assign, ast.AnnAssign)):
            [target] = s.targets if isinstance(s, ast.Assign) else [s.target]
            return (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                    and target.value.id == "self" and isinstance(s.value, ast.Name)
                    and s.value.id == target.attr and target.attr in params)
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call):
            call = s.value
            names = [a.id if isinstance(a, ast.Name) else None for a in call.args]
            if ast.unparse(call.func) == "Record.__init__":
                return names == ["self", *params] and not init.args.defaults
            return (len(call.args) == 3 and names[0] == "self"
                    and isinstance(call.args[1], ast.Constant)
                    and call.args[1].value == names[2] and names[2] in params)
        return False

    return bool(body) and all(copies(s) for s in body)


def test_no_constructor_only_copies_its_parameters():
    """A class whose fields are its constructor's parameters is a Record
    that declares its slots; a constructor of its own must do more."""
    src = Path(vdc.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__" \
                        and _only_copies(init):
                    found.append(f"{path.relative_to(src)}:{init.lineno} {cls.name}")
    assert found == []


@pytest.mark.parametrize("source,copies", [
    ("def __init__(self, a, b):\n    self.a = a\n    self.b = b", True),
    ("def __init__(self, a):\n    'doc'\n    init_field(self, 'a', a)", True),
    ("def __init__(self, a, b):\n    Record.__init__(self, a, b)", True),
    ("def __init__(self, a, b=None):\n    Record.__init__(self, a, b)", False),
    ("def __init__(self, a, b):\n    self.a = a\n    self.c = b", False),
    ("def __init__(self, a):\n    self.a = a\n    self.n = len(a)", False),
    ("def __init__(self, a):\n    if not a:\n        raise ValueError\n    self.a = a", False),
])
def test_the_copy_check_tells_a_copy(source, copies):
    assert _only_copies(ast.parse(source).body[0]) is copies


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
    (lambda: FixtureSpec(1, "huge", "/out"), "unknown scale 'huge'"),
])
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as e:
        build()
    assert str(e.value) == message
