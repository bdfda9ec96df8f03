"""Source connectors: delimited tabular files and a small XML corpus format.

Each connector opens a source directory read-only and exposes its content
as uniform relational tables.  Tabular sources are RFC-4180-style CSV files
(UTF-8, LF or CRLF, double-quote escaping), one regular file per table,
each with a ``<table>.schema`` sidecar describing column names and kinds;
the first CSV record must repeat the sidecar's column names.  XML corpora
are directories of ``*.xml`` documents in the subset grammar parsed by
:func:`parse_xml_doc` and always surface as a single table named ``docs``.
Opening a source reads its listing (and a table's sidecars) only; a table
or document is read, and checked, by a scan.

Every handle has one shape, :class:`SourceHandle`: its tables, ``scan``,
and ``lookup(table, item_ids)``, which answers the point lookups of
collection refs with each wanted key's first row as a scan gives it, or
the error of the XML document that holds it.  A lookup keeps only the keys
:func:`vdc.model.refable` accepts, in that one place.  Each kind reads only
its own files.

Connectors never open a source file for writing: renaming, coercion and
translation all happen above them, in the mediation layer.

Both connectors accept pushed predicates (Compare/Contains/DateWithin,
each naming its column by position in the table's row) and evaluate them
as given, with the engine's one evaluator, :func:`vdc.predicates.holds`:
the query planner alone makes them, checking each against the table's
schema as it binds it, on the handle it then scans, whose tabular scan
checks each file's header against that schema.  The tabular connector
tests them before it decodes the rest of a row, and decodes only the
columns it is asked for.  A handle of either kind may carry a column
image (:mod:`vdc.colimage`, a vault's, attached by the catalogue); it
then scans and looks up in the image instead of its files, with the same
rows: there a predicate is tested once per distinct cell of each row
group, a coercing date predicate on the cell's stored days.  Connectors
know nothing of trust modes: the catalogue decides which sources may be
read.
"""
from __future__ import annotations

import csv
import os
import re
import xml.parsers.expat
from typing import Callable, Iterable, Iterator, Sequence
from unicodedata import normalize

from .errors import NotFound, ParseError, SourceError
from .model import (
    IDENT_RE,
    ColumnDescriptor,
    ColumnKind,
    Row,
    TableSchema,
    cell_text,
    int64,
    nfc,
    refable,
)
from .predicates import holds, matches

TABULAR = "tabular"
XML_CORPUS = "xml_corpus"

# Fixed relational shape of any XML corpus.  The two date attributes are
# stored as text but flagged eligible for view-level date coercion.
DOCS_TABLE_COLUMNS = (
    ColumnDescriptor("id", ColumnKind.TEXT),
    ColumnDescriptor("title", ColumnKind.TEXT),
    ColumnDescriptor("findspot", ColumnKind.TEXT),
    ColumnDescriptor("not_before", ColumnKind.TEXT, date_text=True),
    ColumnDescriptor("not_after", ColumnKind.TEXT, date_text=True),
    ColumnDescriptor("category", ColumnKind.TEXT),
    ColumnDescriptor("persons", ColumnKind.TEXT),
    ColumnDescriptor("body", ColumnKind.TEXT),
)


def row_item_key(row: Row) -> str:
    """The item key of a tabular row: its first cell's text.

    Tables are addressed by convention through their first column; fixture
    tables put their id column first.
    """
    return cell_text(row[0])


# --------------------------------------------------------------------------
# sidecar schema files

_KIND_MAP = {
    "int": (ColumnKind.INT, False),
    "text": (ColumnKind.TEXT, False),
    "date_text": (ColumnKind.TEXT, True),
}

def parse_sidecar(text: str, table: str, path: str) -> TableSchema:
    columns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, sep, kind_part = line.rpartition(":")
        if not sep:
            raise SourceError("sidecar line has no ':'", path=path, line=lineno)
        name = name_part.strip()
        if name.startswith('"'):
            if not name.endswith('"') or len(name) < 2:
                raise SourceError("unterminated quoted name", path=path, line=lineno)
            name = name[1:-1].replace('""', '"')
        if not name:
            raise SourceError("empty column name", path=path, line=lineno)
        kind_word = kind_part.strip()
        if kind_word not in _KIND_MAP:
            raise SourceError(f"unknown kind {kind_word!r}", path=path, line=lineno)
        kind, date_text = _KIND_MAP[kind_word]
        columns.append(ColumnDescriptor(nfc(name), kind, date_text=date_text))
    if not columns:
        raise SourceError("sidecar defines no columns", path=path)
    try:
        return TableSchema(table, tuple(columns))
    except ValueError as e:
        raise SourceError(str(e), path=path) from e


# --------------------------------------------------------------------------
# tabular sources

_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")


def _utf8_error(path: str, e: UnicodeDecodeError, data: bytes | None = None) -> SourceError:
    """A SourceError for invalid UTF-8 in ``path``, at the line of its first
    bad byte.  The decoder reads ahead in blocks, so the line is found by
    decoding the file's bytes again: ``data`` when given, else read anew."""
    line = None
    try:
        if data is None:
            with open(path, "rb") as f:
                data = f.read()
        data.decode("utf-8")
    except UnicodeDecodeError as again:
        line = data.count(b"\n", 0, again.start) + 1
    except OSError:
        pass
    return SourceError(f"invalid UTF-8 ({e.reason})", path=path, line=line)


def read_utf8(path: str) -> str:
    """The whole text of ``path``, line endings as written.  Invalid UTF-8
    raises SourceError naming the path and the line of the first bad byte;
    OSError passes through."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _utf8_error(path, e, data) from e


class SourceHandle:
    """A source opened read-only: its tables, their scans and the lookups
    of collection refs, the same for every kind.

    ``image`` is None, or the column image of a vault snapshot (see
    :mod:`vdc.colimage`), which the catalogue attaches to the snapshot's
    handle; scans and lookups then read the image in place of the files.
    A kind reads only its own files: ``_scan(schema, preds, columns)``,
    ``_lookup(table, wanted)`` and ``files(table)``, the files the image
    checks a table against.
    """

    image = None

    def __init__(self, source_id: str, path: str):
        self.source_id = source_id
        self.path = path
        self._schemas: dict[str, TableSchema] = {}

    def list_tables(self) -> list[TableSchema]:
        return [self._schemas[n] for n in sorted(self._schemas)]

    def schema(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise NotFound(f"no table {table!r} in source {self.source_id!r}") from None

    def scan(
        self, table: str, pushed: Sequence | None = None, columns: Iterable[int] | None = None
    ) -> Iterator[Row]:
        """The rows of ``table`` that satisfy every ``pushed`` predicate,
        the cells at positions ``columns`` (all, when None) filled; the
        image's rows when there is one, else the kind's read of its files.
        An unknown table raises NotFound here, not at the first row."""
        schema = self.schema(table)
        preds = tuple(pushed or ())
        if self.image is not None:
            return self.image.scan(table, preds, columns)
        return self._scan(schema, preds, columns)

    def lookup(self, table: str, item_ids: Iterable[str]) -> dict[str, Row | SourceError]:
        """The first row, as a scan gives it, of each of ``item_ids`` that
        is a refable key of ``table`` (see :func:`row_item_key`), or the
        error of the XML document that holds it.  Only here are the keys
        that :func:`vdc.model.refable` refuses dropped, for every kind and
        for the image alike."""
        self.schema(table)  # NotFound for an unknown table
        wanted = {key for key in item_ids if refable(key)}
        if self.image is not None:
            return self.image.lookup(table, wanted)
        return self._lookup(table, wanted)


class TabularSource(SourceHandle):
    """Directory of ``<table>.csv`` + ``<table>.schema`` pairs, each a
    regular file; opening it reads the listing and the sidecars only."""

    def __init__(self, source_id: str, path: str):
        super().__init__(source_id, path)
        names = sorted(f.name[:-4] for f in os.scandir(path) if f.is_file() and f.name.endswith(".csv"))
        if not names:
            raise SourceError("tabular source has no .csv tables", path=path)
        for name in names:
            if not IDENT_RE.match(name):
                raise SourceError("table name is not an identifier ([A-Za-z_][A-Za-z0-9_]*)",
                                  path=self.table_path(name))
            sidecar = os.path.join(path, name + ".schema")
            if not os.path.isfile(sidecar):
                raise SourceError("missing schema sidecar", path=sidecar)
            self._schemas[name] = parse_sidecar(read_utf8(sidecar), name, sidecar)

    def table_path(self, table: str) -> str:
        return os.path.join(self.path, table + ".csv")

    def files(self, table: str) -> list[str]:
        return [self.table_path(table)]

    def _lookup(self, table: str, wanted: set[str]) -> dict[str, Row]:
        """The table scanned to its end, so a change on disk during the
        lookup raises as it does for a scan."""
        found: dict[str, Row] = {}
        for row in self.scan(table):
            key = row_item_key(row)
            if key in wanted:
                found.setdefault(key, row)
        return found

    def _scan(self, schema: TableSchema, preds: tuple, columns: Iterable[int] | None) -> Iterator[Row]:
        """The table's typed rows, decoded late.

        Every record is checked in full whatever is read: by
        :func:`_record_check`, and (by the text decoder) the UTF-8 of the
        whole file.  The pushed predicates are tested on their own decoded
        cells first; the cells at positions ``columns`` are decoded only
        for rows that pass, and every other cell is None.  A file that
        changes on disk during the scan (its size, mtime or inode differ at
        the end) raises SourceError: its rows may be cut.
        """
        width = len(schema.columns)
        convert = _converters(schema)
        check = _record_check(schema)
        tests = [(p.index, convert[p.index], p) for p in preds]
        decode = [(i, convert[i]) for i in (range(width) if columns is None else sorted(set(columns)))]
        path = self.table_path(schema.name)
        try:
            f = open(path, "r", encoding="utf-8", newline="")
        except OSError as e:
            raise SourceError(f"cannot read table: {e}", path=path) from e
        with f:
            before = _identity(os.fstat(f.fileno()))
            reader = csv.reader(f)
            try:
                _check_header(next(reader, None), schema, path)
                for record in reader:
                    fault = check(record)
                    if fault is not None:
                        raise SourceError(fault, path=path, line=_first_line(reader, record))
                    for i, conv, p in tests:
                        if not holds(p, conv(record[i])):
                            break
                    else:  # the row passed every pushed predicate
                        cells = [None] * width
                        for i, conv in decode:
                            cells[i] = conv(record[i])
                        yield tuple(cells)
            except UnicodeDecodeError as e:
                raise _utf8_error(path, e) from e
            except csv.Error as e:
                raise SourceError(f"bad csv: {e}", path=path, line=reader.line_num) from e
        try:
            after = _identity(os.stat(path))
        except OSError as e:
            raise SourceError(f"table vanished during the scan: {e}", path=path) from e
        if after != before:
            raise SourceError("table changed on disk during the scan", path=path)


def _check_header(header: list[str] | None, schema: TableSchema, path: str) -> None:
    """The header rule of the one reader of a table file, ``_scan``: the
    file has a header, and it names the sidecar's columns in order.  An
    open reads no table file, so this is checked on each read, and a file
    rewritten since its source was opened is not read by the old column
    positions."""
    if header is None:
        raise SourceError("empty csv (missing header)", path=path, line=1)
    if [nfc(h) for h in header] != schema.column_names():
        raise SourceError(
            f"csv header {header!r} does not match sidecar columns", path=path, line=1
        )


def _record_check(schema: TableSchema) -> Callable[[list[str]], str | None]:
    """The checks every reader of a table file applies to each CSV record,
    as one function: the record's first fault (its arity, then each
    non-empty int cell that is no int64 text, see :func:`vdc.model.int64`),
    or None."""
    width = len(schema.columns)
    ints = [(i, c.name) for i, c in enumerate(schema.columns) if c.kind is ColumnKind.INT]

    def check(record: list[str]) -> str | None:
        if len(record) != width:
            return f"row arity {len(record)} != {width}"
        for i, name in ints:
            text = record[i]
            if text and int64(text) is None:
                return f"bad int {text!r} in column {name!r}: not an int64"
        return None

    return check


def _converters(schema: TableSchema) -> list[Callable[[str], object]]:
    """The decoder of each column's checked cell text."""
    return [_int_cell if c.kind is ColumnKind.INT else _text_cell for c in schema.columns]


def _first_line(reader, record: list[str]) -> int:
    """The line a CSV record starts on: the reader's line, which is the
    record's last, less the line breaks quoted inside its cells."""
    return reader.line_num - sum(len(_LINE_BREAK_RE.findall(cell)) for cell in record)


def _identity(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_mtime_ns, st.st_size, st.st_ino


def _text_cell(text: str) -> str | None:
    return normalize("NFC", text) if text else None


def _int_cell(text: str) -> int | None:
    """An int cell whose syntax :func:`_record_check` has checked."""
    return int(text) if text else None


# --------------------------------------------------------------------------
# xml corpus sources

# the elements each parent may hold outside <text>; all but persName at
# most once
_CHILDREN = {"doc": ("meta", "text"), "meta": ("title", "findspot", "date", "category", "persName")}


class _RootOnly(Exception):
    """Stops a :class:`_DocBuilder` at a root whose id is not wanted."""


class _DocBuilder:
    """Expat handlers collecting one document of the subset grammar."""

    def __init__(self, wanted: set[str] | None):
        self.wanted = wanted
        self.id: str | None = None
        self.meta: dict[str, str | None] = {}
        self.persons: list[str] = []
        self.body: list[str] = []
        self.stack: list[str] = []
        self.seen: set[str] = set()  # the once-only elements met so far
        # the character data of the open metadata element, or the body
        # inside <text>; None where character data is dropped
        self.chars: list[str] | None = None
        self.parser = xml.parsers.expat.ParserCreate()
        self.parser.StartElementHandler = self.start
        self.parser.EndElementHandler = self.end
        self.parser.CharacterDataHandler = self.char_data

    def fail(self, message: str):
        raise ParseError(message, line=self.parser.CurrentLineNumber)

    def start(self, name: str, attrs: dict):
        if not self.stack:
            if name != "doc":
                self.fail(f"root element must be <doc>, got <{name}>")
            if not attrs.get("id"):
                self.fail("<doc> is missing its id attribute")
            self.id = nfc(attrs["id"])
            if self.wanted is not None and self.id not in self.wanted:
                raise _RootOnly
        elif self.chars is not self.body:  # markup inside <text> is stripped
            parent = self.stack[-1]
            if parent not in _CHILDREN:
                self.fail(f"unexpected element <{name}>")
            if name not in _CHILDREN[parent]:
                self.fail(f"unexpected element <{name}> under <{parent}>")
            if name != "persName":
                if name in self.seen:
                    self.fail(f"duplicate <{name}> element")
                self.seen.add(name)
            if name == "text":
                self.chars = self.body
            elif name == "date":
                for attr, key in (("notBefore", "not_before"), ("notAfter", "not_after")):
                    if attrs.get(attr):
                        self.meta[key] = nfc(attrs[attr])
            elif parent == "meta":
                self.chars = []
        self.stack.append(name)

    def end(self, name: str):
        self.stack.pop()
        if self.chars is self.body:
            if len(self.stack) == 1:  # </text>
                self.chars = None
        elif self.chars is not None:
            # an empty element is a null cell, as an empty table cell is
            text = _text_cell("".join(self.chars).strip())
            if name != "persName":
                self.meta[name] = text
            elif text is not None:
                self.persons.append(text)
            self.chars = None

    def char_data(self, data: str):
        if self.chars is not None:
            self.chars.append(data)

    def row(self, data: bytes) -> Row:
        """The row of the document ``data`` (see :func:`parse_xml_doc`)."""
        try:
            self.parser.Parse(data, True)
        except _RootOnly:
            return (self.id,)
        except xml.parsers.expat.ExpatError as e:
            raise ParseError(f"not well-formed: {e}", line=e.lineno) from e
        except (LookupError, ValueError) as e:  # a declared encoding expat cannot read
            raise ParseError(f"not well-formed: {e}", line=1) from e
        meta = self.meta
        if self.persons:
            meta["persons"] = "|".join(self.persons)
        body = nfc(re.sub(r"\s+", " ", "".join(self.body)).strip())
        return (self.id, *(meta.get(c.name) for c in DOCS_TABLE_COLUMNS[1:-1]), body or None)


def parse_xml_doc(data: bytes, wanted: set[str] | None = None) -> Row:
    """Parse one corpus document into its ``docs`` row.

    Grammar: root ``<doc id="...">`` containing an optional ``<meta>``
    (children ``title``, ``findspot``, ``date`` with notBefore/notAfter
    attributes, ``category``, zero or more ``persName``) and an optional
    ``<text>`` whose entire character content, tags stripped and whitespace
    collapsed, becomes the body.  The row follows ``DOCS_TABLE_COLUMNS``:
    absent metadata, a metadata element that is empty or all whitespace, and
    an empty body are null cells; the non-empty persons are joined with
    ``|``.

    With ``wanted``, a document whose id is not in it is parsed only up to
    its root start tag, raising every error met there, and its row is the
    id alone.
    """
    return _DocBuilder(wanted).row(data)


class XmlCorpusSource(SourceHandle):
    """Directory of ``*.xml`` documents, exposed as one table ``docs``."""

    def __init__(self, source_id: str, path: str):
        super().__init__(source_id, path)
        self._files = sorted(f.path for f in os.scandir(path) if f.is_file() and f.name.endswith(".xml"))
        if not self._files:
            raise SourceError("xml corpus has no .xml documents", path=path)
        self._schemas["docs"] = TableSchema("docs", DOCS_TABLE_COLUMNS)

    def files(self, table: str) -> list[str]:
        return list(self._files)

    def documents(self) -> list[Row]:
        """The ``docs`` row of every document, in sorted file order.  No
        scan reads through it; the benchmark's traced run wraps it by
        name, so it stays until that benchmark changes."""
        return [row for _, row in self._parsed()]

    def _lookup(self, table: str, wanted: set[str]) -> dict[str, Row | SourceError]:
        """Every file is parsed up to its root start tag, so the
        duplicate-id check and every error up to there cover every file, as
        a scan's do, and fail the whole lookup; only the wanted documents
        are parsed past it, and an error met there is that document's
        alone."""
        return {doc_id: row for doc_id, row in self._parsed(wanted) if doc_id in wanted}

    def _parsed(self, wanted: set[str] | None = None) -> Iterator[tuple[str, Row | SourceError]]:
        """The id and :func:`parse_xml_doc` row of each file, in sorted
        order.  Any fault, a second file with one id too, is a SourceError
        naming the file; it is raised, except that a wanted document whose
        id was read before the fault yields it in place of its row."""
        seen: dict[str, str] = {}
        for full in self._files:
            try:
                with open(full, "rb") as f:
                    data = f.read()
            except OSError as e:
                raise SourceError(f"cannot read document: {e}", path=full) from e
            builder = _DocBuilder(wanted)
            try:
                row = builder.row(data)
            except ParseError as e:
                error = SourceError(str(e), path=full, line=e.line)
                if wanted is None or builder.id is None:
                    raise error from e
                row = error
            doc_id = builder.id
            if doc_id in seen:
                raise SourceError(f"duplicate doc id {doc_id!r} (also in {seen[doc_id]})", path=full)
            seen[doc_id] = os.path.basename(full)
            yield doc_id, row

    def _scan(self, schema: TableSchema, preds: tuple, columns: Iterable[int] | None) -> Iterator[Row]:
        """The documents' rows, each document read and parsed whole as the
        scan reaches it: the rows that pass the pushed predicates, the
        cells at positions ``columns`` (all, when None) filled and every
        other cell None."""
        wanted = None if columns is None else set(columns)
        for _, row in self._parsed():
            if preds and not matches(preds, row):
                continue
            if wanted is not None:
                cells = [None] * len(row)
                for i in wanted:
                    cells[i] = row[i]
                row = tuple(cells)
            yield row


def open_source(source_id: str, kind: str, path: str) -> SourceHandle:
    """Open a source read-only and list its tables.  Never mutates it."""
    if not os.path.isdir(path):
        raise SourceError("source path is not a readable directory", path=path)
    if kind == TABULAR:
        return TabularSource(source_id, path)
    if kind == XML_CORPUS:
        return XmlCorpusSource(source_id, path)
    raise ValueError(f"unknown source kind {kind!r}")
