"""Declarative views over connector tables.

A view names one or more base relations and a sequence of mapping rules:
renames (original, possibly German, column names to clean identifiers),
coercions (date-bearing text columns to real date columns), translations
(cell values through a two-column lookup table) and, implicitly, a union of
all its base relations into one virtual table.

Rules are applied in file order against the evolving schema, on read only:
nothing is ever materialized back into a source.  Coercion failures are
collected per row, never fatal; scholarly data is incomplete and a single
unreadable date must not abort a federated query.
"""

from __future__ import annotations

import csv
import io
import re
import unicodedata
from dataclasses import dataclass

from .errors import CoercionError, LoadError, ParseError, PlanError, VdcError
from .model import (
    ColumnDescriptor,
    ColumnKind,
    Row,
    TableSchema,
    nfc,
    parse_uncertain_date,
)

IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class TranslationError(VdcError):
    """Raised in strict mode when a term has no translation."""


@dataclass(frozen=True)
class RelationRef:
    """A ``source.table`` reference."""

    source_id: str
    table: str

    def text(self) -> str:
        return f"{self.source_id}.{self.table}"

    @classmethod
    def parse(cls, s: str) -> "RelationRef":
        left, sep, right = s.partition(".")
        if not sep or not IDENT_RE.match(left) or not IDENT_RE.match(right):
            raise ValueError(f"malformed relation ref {s!r}")
        return cls(left, right)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text()


# --------------------------------------------------------------------------
# translation tables

def _fold(term: str) -> str:
    return unicodedata.normalize("NFC", term).casefold()


class TranslationTable:
    """Two-column term lookup; key matching is NFC + case folding."""

    def __init__(self, table_id: str, entries: list[tuple[str, str]]):
        self.id = table_id
        self.entries = list(entries)
        self._map: dict[str, str] = {}
        for source_term, target_term in self.entries:
            key = _fold(source_term)
            if key in self._map:
                raise LoadError(
                    f"duplicate source term {source_term!r} in translation table {table_id!r}"
                )
            self._map[key] = nfc(target_term)

    def lookup(self, term: str) -> str | None:
        return self._map.get(_fold(term))


def load_translation_table(table_id: str, path: str) -> TranslationTable:
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            text = f.read()
    except OSError as e:
        raise LoadError(f"cannot read translation table: {e}") from e
    return parse_translation_table(table_id, text)


def parse_translation_table(table_id: str, text: str) -> TranslationTable:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["source_term", "target_term"]:
        raise LoadError(
            f"translation table must start with header source_term,target_term, got {header!r}"
        )
    entries = []
    for record in reader:
        if not record:
            continue
        if len(record) != 2:
            raise LoadError(f"translation row {record!r} does not have 2 fields")
        entries.append((nfc(record[0]), nfc(record[1])))
    return TranslationTable(table_id, entries)


def translate_term(table: TranslationTable, term: str, strict: bool = False) -> str:
    """Mapped target term, or the input unchanged when unmapped.

    ``strict`` upgrades the pass-through to an error for catalogues that
    want translation coverage enforced.
    """
    hit = table.lookup(term)
    if hit is not None:
        return hit
    if strict and term != "":
        raise TranslationError(f"no translation for {term!r} in table {table.id!r}")
    return term


# --------------------------------------------------------------------------
# view definitions

@dataclass(frozen=True)
class Rename:
    original: str
    to: str


@dataclass(frozen=True)
class Coerce:
    column: str


@dataclass(frozen=True)
class Translate:
    column: str
    table_id: str


MappingRule = Rename | Coerce | Translate


@dataclass(frozen=True)
class ViewDefinition:
    name: str
    base: tuple[RelationRef, ...]  # first is primary, the rest are unioned
    rules: tuple[MappingRule, ...]


_QUOTED_RE = re.compile(r'^"((?:[^"]|"")*)"$')


def _unquote(token: str, lineno: int) -> str:
    m = _QUOTED_RE.match(token)
    if not m:
        raise ParseError(f"expected a quoted name, got {token}", line=lineno)
    return nfc(m.group(1).replace('""', '"'))


def _ident(token: str, lineno: int) -> str:
    if not IDENT_RE.match(token):
        raise ParseError(f"expected an identifier, got {token!r}", line=lineno)
    return token


def _rel(token: str, lineno: int) -> RelationRef:
    try:
        return RelationRef.parse(token)
    except ValueError as e:
        raise ParseError(str(e), line=lineno) from e


def parse_view_file(text: str) -> ViewDefinition:
    """Parse the view micro-grammar.

    Line-based, UTF-8, ``#`` comments::

        view <ident>
        from <source>.<table>
        union <source>.<table>          # zero or more
        rename "<original>" -> <ident>  # rules, in any order, applied in
        coerce <ident> date             # file order
        translate <ident> using <ident>
        end
    """
    name: str | None = None
    base: list[RelationRef] = []
    rules: list[MappingRule] = []
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after 'end'", line=lineno)
        words = line.split()
        keyword = words[0]

        if keyword == "view":
            if name is not None:
                raise ParseError("duplicate 'view' line", line=lineno)
            if len(words) != 2:
                raise ParseError("usage: view <name>", line=lineno)
            name = _ident(words[1], lineno)
            continue
        if name is None:
            raise ParseError("view file must start with 'view <name>'", line=lineno)

        if keyword == "from":
            if base:
                raise ParseError("duplicate 'from' (use 'union' for more relations)", line=lineno)
            if len(words) != 2:
                raise ParseError("usage: from <source>.<table>", line=lineno)
            base.append(_rel(words[1], lineno))
        elif keyword == "union":
            if not base:
                raise ParseError("'union' before 'from'", line=lineno)
            if rules:
                raise ParseError("'union' must precede mapping rules", line=lineno)
            if len(words) != 2:
                raise ParseError("usage: union <source>.<table>", line=lineno)
            base.append(_rel(words[1], lineno))
        elif keyword == "rename":
            # rename "<original>" -> <ident>; the original may contain spaces,
            # so re-split on the arrow rather than on whitespace.
            body = line[len("rename"):].strip()
            left, arrow, right = body.rpartition("->")
            if not arrow:
                raise ParseError("usage: rename \"<original>\" -> <ident>", line=lineno)
            if not base:
                raise ParseError("rules must follow 'from'", line=lineno)
            rules.append(
                Rename(_unquote(left.strip(), lineno), _ident(right.strip(), lineno))
            )
        elif keyword == "coerce":
            if len(words) != 3 or words[2] != "date":
                raise ParseError("usage: coerce <column> date", line=lineno)
            if not base:
                raise ParseError("rules must follow 'from'", line=lineno)
            rules.append(Coerce(_ident(words[1], lineno)))
        elif keyword == "translate":
            if len(words) != 4 or words[2] != "using":
                raise ParseError("usage: translate <column> using <table>", line=lineno)
            if not base:
                raise ParseError("rules must follow 'from'", line=lineno)
            rules.append(Translate(_ident(words[1], lineno), _ident(words[3], lineno)))
        elif keyword == "end":
            if not base:
                raise ParseError("'end' before 'from'", line=lineno)
            ended = True
        else:
            raise ParseError(f"unknown rule keyword {keyword!r}", line=lineno)

    if name is None:
        raise ParseError("empty view file")
    if not ended:
        raise ParseError("missing 'end'")
    return ViewDefinition(name, tuple(base), tuple(rules))


# --------------------------------------------------------------------------
# rule resolution and row application

class _CellOp:
    """One value transform bound to a column position of one base."""

    __slots__ = ("kind", "index", "column", "table")

    def __init__(self, kind: str, index: int, column: str, table: TranslationTable | None = None):
        self.kind = kind  # "coerce" | "translate"
        self.index = index
        self.column = column
        self.table = table


class CompiledView:
    """A view resolved against its base schemas, ready to map rows.

    ``schema`` is the resolved output schema; ``apply(base_index, row, ref)``
    maps one base row to a view row, returning collected coercion warnings.
    ``origins[base][view_column]`` is ``(raw column name, transformed)``:
    a predicate on an untransformed column may be evaluated on raw rows.
    """

    def __init__(self, view: ViewDefinition, schema: TableSchema, ops: list[list[_CellOp]],
                 origins: list[dict[str, tuple[str, bool]]], strict_translate: bool):
        self.view = view
        self.schema = schema
        self.origins = origins
        self._ops = ops
        self._strict = strict_translate

    def apply(self, base_index: int, row: Row, ref: str) -> tuple[Row, list[CoercionError]]:
        warnings: list[CoercionError] = []
        cells = list(row)
        for op in self._ops[base_index]:
            cell = cells[op.index]
            if cell is None:
                continue
            if op.kind == "translate":
                cells[op.index] = translate_term(op.table, cell, strict=self._strict)
            else:
                try:
                    cells[op.index] = parse_uncertain_date(cell)
                except ParseError:
                    warnings.append(CoercionError(ref, op.column, cell))
                    cells[op.index] = None
        return tuple(cells), warnings


def compile_view(
    view: ViewDefinition,
    base_schemas: list[TableSchema],
    xlates: dict[str, TranslationTable],
    strict_translate: bool = False,
) -> CompiledView:
    """Resolve a view's rules against its base schemas.

    Raises PlanError when a rule does not apply (unknown column, coercion of
    a non-date_text column, union shape mismatch, duplicate rename target).
    """
    if len(base_schemas) != len(view.base):
        raise ValueError("one schema per base relation required")

    # Per base: the evolving (name, descriptor) list rules operate on, plus
    # each position's raw origin and whether any rule transformed its values.
    states: list[list[ColumnDescriptor]] = [list(s.columns) for s in base_schemas]
    raw_names: list[list[str]] = [[c.name for c in s.columns] for s in base_schemas]
    transformed: list[list[bool]] = [[False] * len(s.columns) for s in base_schemas]
    ops: list[list[_CellOp]] = [[] for _ in base_schemas]

    def find(cols: list[ColumnDescriptor], name: str) -> int | None:
        for i, c in enumerate(cols):
            if c.name == name:
                return i
        return None

    for rule in view.rules:
        if isinstance(rule, Rename):
            hit = False
            for cols in states:
                i = find(cols, rule.original)
                if i is None:
                    continue
                if find(cols, rule.to) is not None:
                    raise PlanError(
                        f"view {view.name!r}: rename target {rule.to!r} already exists"
                    )
                cols[i] = ColumnDescriptor(rule.to, cols[i].kind, date_text=cols[i].date_text)
                hit = True
            if not hit:
                raise PlanError(
                    f"view {view.name!r}: rename of nonexistent column {rule.original!r}"
                )
        elif isinstance(rule, Coerce):
            for b, cols in enumerate(states):
                i = find(cols, rule.column)
                if i is None:
                    raise PlanError(
                        f"view {view.name!r}: coerce of nonexistent column {rule.column!r}"
                    )
                if not cols[i].date_text:
                    raise PlanError(
                        f"view {view.name!r}: coerce of non-date_text column {rule.column!r}"
                    )
                cols[i] = ColumnDescriptor(rule.column, ColumnKind.DATE)
                transformed[b][i] = True
                ops[b].append(_CellOp("coerce", i, rule.column))
        elif isinstance(rule, Translate):
            if rule.table_id not in xlates:
                raise PlanError(
                    f"view {view.name!r}: unknown translation table {rule.table_id!r}"
                )
            for b, cols in enumerate(states):
                i = find(cols, rule.column)
                if i is None:
                    raise PlanError(
                        f"view {view.name!r}: translate of nonexistent column {rule.column!r}"
                    )
                if cols[i].kind is not ColumnKind.TEXT:
                    raise PlanError(
                        f"view {view.name!r}: translate of non-text column {rule.column!r}"
                    )
                transformed[b][i] = True
                ops[b].append(_CellOp("translate", i, rule.column, xlates[rule.table_id]))

    first = states[0]
    for b, cols in enumerate(states[1:], start=1):
        if [(c.name, c.kind) for c in cols] != [(c.name, c.kind) for c in first]:
            raise PlanError(
                f"view {view.name!r}: union base {view.base[b].text()} does not match "
                f"{view.base[0].text()} after renames"
            )

    origins = [
        {
            cols[i].name: (raw_names[b][i], transformed[b][i])
            for i in range(len(cols))
        }
        for b, cols in enumerate(states)
    ]
    schema = TableSchema(view.name, tuple(first))
    return CompiledView(view, schema, ops, origins, strict_translate)

