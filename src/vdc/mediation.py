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
from typing import Collection, Iterator

from .connectors import read_utf8, row_item_key
from .errors import CoercionError, LoadError, ParseError, PlanError, SourceError
from .model import (
    DATE_MEMO,
    IDENT_RE,
    ColumnDescriptor,
    ColumnKind,
    Record,
    Row,
    TableSchema,
    UncertainDate,
    fold,
    nfc,
    parse_uncertain_date,
)
from .predicates import Compare, Contains, DateWithin


class RelationRef(Record):
    """A ``source.table`` reference."""

    __slots__ = ("source_id", "table")

    def text(self) -> str:
        return f"{self.source_id}.{self.table}"

    @classmethod
    def parse(cls, s: str) -> "RelationRef":
        left, sep, right = s.partition(".")
        if not sep or not IDENT_RE.match(left) or not IDENT_RE.match(right):
            raise ValueError(f"malformed relation ref {s!r}")
        return cls(left, right)


# --------------------------------------------------------------------------
# translation tables

class TranslationTable:
    """Two-column term lookup, read from ``path``; key matching is NFC +
    case folding."""

    def __init__(self, table_id: str, entries: list[tuple[str, str]], path: str):
        self.id = table_id
        self.path = path
        self.entries = list(entries)
        self._map: dict[str, str] = {}
        for source_term, target_term in self.entries:
            key = fold(source_term)
            if key in self._map:
                raise LoadError(
                    f"duplicate source term {source_term!r} in translation table {table_id!r}"
                )
            self._map[key] = nfc(target_term)

    def translate(self, term: str) -> str:
        """Mapped target term, or the input unchanged when unmapped."""
        return self._map.get(fold(term), term)


def load_translation_table(table_id: str, path: str) -> TranslationTable:
    try:
        text = read_utf8(path)
    except (OSError, SourceError) as e:
        raise LoadError(f"cannot read translation table: {e}") from e
    return parse_translation_table(table_id, text, path)


def parse_translation_table(table_id: str, text: str, path: str = "-") -> TranslationTable:
    reader = csv.reader(io.StringIO(text))
    try:
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
    except csv.Error as e:
        raise LoadError(f"bad csv in translation table: {e} [{path}:{reader.line_num}]") from e
    return TranslationTable(table_id, entries, path)


# --------------------------------------------------------------------------
# view definitions

class Rename(Record):
    __slots__ = ("original", "to")


class Coerce(Record):
    __slots__ = ("column",)


class Translate(Record):
    __slots__ = ("column", "table_id")


MappingRule = Rename | Coerce | Translate


class ViewDefinition(Record):
    """A view: its ``base`` relations (the first is primary, the rest are
    unioned) and its mapping ``rules``."""

    __slots__ = ("name", "base", "rules")


_QUOTED_RE = re.compile(r'^"((?:[^"]|"")*)"$')


def _unquote(token: str, lineno: int) -> str:
    m = _QUOTED_RE.match(token)
    if not m:
        raise ParseError(f"expected a quoted name, got {token}", line=lineno)
    return nfc(m.group(1).replace('""', '"'))


def _ident_token(token: str, lineno: int) -> str:
    if not IDENT_RE.match(token):
        raise ParseError(f"expected an identifier, got {token!r}", line=lineno)
    return token


def _relation_token(token: str, lineno: int) -> RelationRef:
    try:
        return RelationRef.parse(token)
    except ValueError as e:
        raise ParseError(str(e), line=lineno) from e


def _strip_comment(line: str) -> str:
    """``line`` up to its first ``#`` outside double quotes."""
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _definition_lines(
    text: str, kind: str, keywords: Collection[str], noun: str
) -> tuple[str, Iterator[tuple[int, list[str], str]]]:
    """Read a line-based definition file: its name, from the ``<kind>
    <name>`` header that must be its first line, and its other lines, each
    as ``(line number, words, line)``, up to and including ``end``.

    ``#`` starts a comment outside double quotes, and blank lines are
    skipped.  An empty file or one that does not open with its header
    fails here; a second header, a keyword outside ``keywords`` (an
    unknown ``noun`` keyword), content after ``end`` and a missing ``end``
    fail as the lines are read, so each fault is reported in line order.
    """
    lines = (
        (lineno, line.split(), line)
        for lineno, line in enumerate(
            (_strip_comment(raw).strip() for raw in text.splitlines()), start=1
        )
        if line
    )
    first = next(lines, None)
    if first is None:
        raise ParseError(f"empty {kind} file")
    lineno, words, _ = first
    if words[0] != kind:
        raise ParseError(f"{kind} file must start with '{kind} <name>'", line=lineno)
    (name,) = _match(f"{kind} <name>", words, lineno)
    return name, _body_lines(lines, kind, keywords, noun)


def _body_lines(
    lines: Iterator[tuple[int, list[str], str]], kind: str, keywords: Collection[str], noun: str
) -> Iterator[tuple[int, list[str], str]]:
    ended = False
    for lineno, words, line in lines:
        if ended:
            raise ParseError("content after 'end'", line=lineno)
        keyword = words[0]
        if keyword == kind:
            raise ParseError(f"duplicate '{kind}' line", line=lineno)
        if keyword != "end" and keyword not in keywords:
            raise ParseError(f"unknown {noun} keyword {keyword!r}", line=lineno)
        ended = keyword == "end"
        yield lineno, words, line
    if not ended:
        raise ParseError("missing 'end'")


# how a definition line reads the argument at each word of its usage line;
# any other word in angle brackets is an identifier, and any word without
# them a literal that the line repeats
_ARGUMENTS = {"<source>.<table>": _relation_token, '"<original>"': _unquote}


def _match(usage: str, words: list[str], lineno: int) -> list:
    """The arguments of a line whose words have the shape of ``usage``."""
    shape = usage.split()
    if len(words) != len(shape) or any(w != s for w, s in zip(words, shape) if "<" not in s):
        raise ParseError(f"usage: {usage}", line=lineno)
    return [_ARGUMENTS.get(s, _ident_token)(w, lineno) for w, s in zip(words, shape) if "<" in s]


_VIEW_USAGE = {
    "from": "from <source>.<table>",
    "union": "union <source>.<table>",
    "rename": 'rename "<original>" -> <ident>',
    "coerce": "coerce <column> date",
    "translate": "translate <column> using <table>",
}
_VIEW_RULES = {"rename": Rename, "coerce": Coerce, "translate": Translate}


def parse_view_file(text: str) -> ViewDefinition:
    """Parse the view micro-grammar.

    Line-based, UTF-8, ``#`` comments (outside double quotes)::

        view <ident>
        from <source>.<table>
        union <source>.<table>          # zero or more
        rename "<original>" -> <ident>  # rules, in any order, applied in
        coerce <ident> date             # file order
        translate <ident> using <ident>
        end
    """
    name, lines = _definition_lines(text, "view", _VIEW_USAGE, "rule")
    base: list[RelationRef] = []
    rules: list[MappingRule] = []

    for lineno, words, line in lines:
        keyword = words[0]
        if keyword == "rename":  # the quoted original may hold spaces
            left, arrow, right = line[len(keyword):].rpartition("->")
            words = [keyword, left.strip(), arrow, right.strip()]
        args = [] if keyword == "end" else _match(_VIEW_USAGE[keyword], words, lineno)
        if keyword == "from":
            if base:
                raise ParseError("duplicate 'from' (use 'union' for more relations)", line=lineno)
            base += args
        elif not base:
            if keyword in _VIEW_RULES:
                raise ParseError("rules must follow 'from'", line=lineno)
            raise ParseError(f"'{keyword}' before 'from'", line=lineno)
        elif keyword == "union":
            if rules:
                raise ParseError("'union' must precede mapping rules", line=lineno)
            base += args
        elif keyword != "end":
            rules.append(_VIEW_RULES[keyword](*args))
    return ViewDefinition(name, tuple(base), tuple(rules))


# --------------------------------------------------------------------------
# ingest recipes (run by vdc.textindex)

class IngestRecipe(Record):
    """How rows of ``source`` become documents: ``field_map`` pairs are
    (document field, source column), ``geo`` is (lat column, lon column)
    or None."""

    __slots__ = ("name", "source", "id_column", "field_map", "body_columns", "geo", "indexed")


_RECIPE_USAGE = {
    "from": "from <source>.<table>",
    "id": "id <column>",
    "field": "field <ident> = <column>",
    "body": "body <column>",
    "geo": "geo <latcol> <loncol>",
    "index": "index <field>",
}


def parse_recipe_file(text: str) -> IngestRecipe:
    """Parse the recipe micro-grammar.

    Line-based, UTF-8, ``#`` comments (outside double quotes)::

        recipe <ident>
        from <source>.<table>
        id <column>
        field <ident> = <column>   # zero or more
        body <column>              # one or more
        geo <latcol> <loncol>      # optional
        index <ident>              # zero or more, over fields and "body"
        end
    """
    name, lines = _definition_lines(text, "recipe", _RECIPE_USAGE, "recipe")
    source = None
    id_column = None
    fields: list[tuple[str, str]] = []
    body: list[str] = []
    geo: tuple[str, str] | None = None
    indexed: list[str] = []

    for lineno, words, _ in lines:
        keyword = words[0]
        if keyword == "end":
            continue
        args = _match(_RECIPE_USAGE[keyword], words, lineno)
        if keyword == "from":
            if source is not None:
                raise ParseError("duplicate 'from' line", line=lineno)
            (source,) = args
        elif keyword == "id":
            if id_column is not None:
                raise ParseError("duplicate 'id' line", line=lineno)
            (id_column,) = args
        elif keyword == "field":
            if args[0] == "body" or any(f == args[0] for f, _ in fields):
                raise ParseError(f"duplicate field {args[0]!r}", line=lineno)
            fields.append(tuple(args))
        elif keyword == "body":
            body += args
        elif keyword == "geo":
            if geo is not None:
                raise ParseError("duplicate 'geo' line", line=lineno)
            geo = tuple(args)
        else:  # index
            if args[0] in indexed:
                raise ParseError(f"duplicate index field {args[0]!r}", line=lineno)
            indexed += args

    if source is None or id_column is None:
        raise ParseError("recipe needs 'from' and 'id' lines")
    if not body:
        raise ParseError("recipe needs at least one 'body' column")
    declared = {f for f, _ in fields} | {"body"}
    for f in indexed:
        if f not in declared:
            raise ParseError(f"indexed field {f!r} is not declared")
    return IngestRecipe(
        name, source, id_column, tuple(fields), tuple(body), geo, tuple(indexed)
    )


# --------------------------------------------------------------------------
# rule resolution and row application

def coerce_date(text: str) -> UncertainDate | None:
    """The date of a date text, or None when it does not parse, from the
    process's memo (:data:`vdc.model.DATE_MEMO`): a text is parsed only
    when no earlier coercion and no decoded vault image put it there."""
    try:
        return DATE_MEMO[text]
    except KeyError:
        pass
    try:
        date = parse_uncertain_date(text)
    except ParseError:
        date = None
    DATE_MEMO[text] = date
    return date


class _CellOp(Record):
    """One transform of a raw cell bound to a column position, the same in
    every base of the view: a translation table's ``translate``, or the
    view's memoized date coercion, which maps a text that does not coerce
    to None."""

    __slots__ = ("index", "column", "transform")


class CompiledView:
    """A view resolved against its base schemas, ready to map rows.

    ``schema`` is the resolved output schema; the base schemas it was
    resolved against are those of the handles its relation scans
    (:class:`vdc.datacentre.Relation`).  ``apply(base_index, row)`` maps
    one base row to a view row, returning collected coercion warnings.
    Renames and transforms keep positions and a union's bases agree on
    them, so view column ``i`` is raw column ``i`` of every base and one
    list of cell ops, in rule order, serves every base.  A raw table is
    the identity view over itself: no rules, so ``apply`` returns its rows
    unchanged.  No source table has a date column, so the view's are the
    coerced ones.

    Date coercion (:func:`coerce_date`) is memoized per distinct text in
    the process, one memo for ``apply``, the coercing predicates of
    ``raw_form`` and the vault images that seed it; each row whose text
    fails still gets its own warning.
    """

    def __init__(self, view: ViewDefinition, schema: TableSchema, ops: list[_CellOp]):
        self.view = view
        self.schema = schema
        self._ops = ops
        self._date_columns = {i for i, c in enumerate(schema.columns) if c.kind is ColumnKind.DATE}

    def mediation_reads(self) -> set[int]:
        """Columns that mediation reads on every row whatever a query reads:
        each coerced column, for its warnings, and column 0, the item key
        those warnings name, when there is any coercion."""
        return self._date_columns | {0} if self._date_columns else set()

    def raw_form(
        self, pred: Compare | Contains | DateWithin
    ) -> Compare | Contains | DateWithin | None:
        """``pred`` in the form that tests raw rows, or None when it needs
        mediated values.  Unchanged when no rule transforms its column;
        carrying the transform when one rule does, unless that coerces and
        the view coerces another column too.  On a date column the form
        keeps texts that do not coerce, so it is only a prefilter: the
        exact predicate must still run on mediated rows.  It cuts no row
        that would warn, because a row's only warning can come from the
        column it tests; with a second coerced column it could, so such a
        view gets None."""
        ops = [op for op in self._ops if op.index == pred.index]
        if not ops:
            return pred
        if len(ops) > 1 or (pred.index in self._date_columns and len(self._date_columns) > 1):
            return None
        # a scan predicate's transform is its last field
        return type(pred)(*pred.cells()[:-1], ops[0].transform)

    def apply(self, base_index: int, row: Row) -> tuple[Row, list[CoercionError]]:
        ops = self._ops
        warnings: list[CoercionError] = []
        if not ops:
            return row, warnings
        cells = list(row)
        for op in ops:
            cell = cells[op.index]
            if cell is None:
                continue
            cells[op.index] = op.transform(cell)
            if cells[op.index] is None:  # a date text that does not coerce
                warnings.append(CoercionError(self._ref(base_index, row), op.column, cell))
        return tuple(cells), warnings

    def _ref(self, base_index: int, row: Row) -> str:
        """Item-ref text of a base row, for its coercion warnings; ``?``
        stands in for an empty key."""
        base = self.view.base[base_index]
        return f"{base.source_id}/{base.table}/{row_item_key(row) or '?'}"


def compile_view(
    view: ViewDefinition,
    base_schemas: list[TableSchema],
    xlates: dict[str, TranslationTable],
) -> CompiledView:
    """Resolve a view's rules against its base schemas, one per base, in
    order.

    Raises PlanError when a rule does not apply (unknown column, coercion of
    a non-date_text column, union shape mismatch, duplicate rename target).
    A coerced or translated column must sit at the same position in every
    base, or the bases do not match.
    """
    # Per base: the evolving (name, descriptor) list rules operate on.
    states: list[list[ColumnDescriptor]] = [list(s.columns) for s in base_schemas]
    ops: list[_CellOp] = []

    def find(cols: list[ColumnDescriptor], name: str) -> int | None:
        for i, c in enumerate(cols):
            if c.name == name:
                return i
        return None

    def mismatch(b: int) -> PlanError:
        return PlanError(
            f"view {view.name!r}: union base {view.base[b].text()} does not match "
            f"{view.base[0].text()} after renames"
        )

    def locate(column: str, verb: str, admits, unfit: str) -> int:
        """The one position of ``column`` in every base; in each it must
        exist and pass ``admits`` (else it is an ``unfit`` column)."""
        hits = []
        for cols in states:
            i = find(cols, column)
            if i is None:
                raise PlanError(f"view {view.name!r}: {verb} of nonexistent column {column!r}")
            if not admits(cols[i]):
                raise PlanError(f"view {view.name!r}: {verb} of {unfit} column {column!r}")
            hits.append(i)
        for b, i in enumerate(hits):
            if i != hits[0]:
                raise mismatch(b)
        return hits[0]

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
            i = locate(rule.column, "coerce", lambda c: c.date_text, "non-date_text")
            for cols in states:
                cols[i] = ColumnDescriptor(rule.column, ColumnKind.DATE)
            ops.append(_CellOp(i, rule.column, coerce_date))
        elif isinstance(rule, Translate):
            if rule.table_id not in xlates:
                raise PlanError(
                    f"view {view.name!r}: unknown translation table {rule.table_id!r}"
                )
            i = locate(rule.column, "translate", lambda c: c.kind is ColumnKind.TEXT, "non-text")
            ops.append(_CellOp(i, rule.column, xlates[rule.table_id].translate))

    first = states[0]
    for b, cols in enumerate(states[1:], start=1):
        if [(c.name, c.kind) for c in cols] != [(c.name, c.kind) for c in first]:
            raise mismatch(b)

    schema = TableSchema(view.name, tuple(first))
    return CompiledView(view, schema, ops)
