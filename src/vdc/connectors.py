"""Source connectors: delimited tabular files and a small XML corpus format.

Each connector opens a source directory read-only and exposes its content
as uniform relational tables.  Tabular sources are RFC-4180-style CSV files
(UTF-8, LF or CRLF, double-quote escaping), one per table, each with a
``<table>.schema`` sidecar describing column names and kinds; the first CSV
record must repeat the sidecar's column names.  XML corpora are directories
of ``*.xml`` documents in the subset grammar parsed by :func:`parse_xml_doc`
and always surface as a single table named ``docs``.

Connectors never open a source file for writing: renaming, coercion and
translation all happen above them, in the mediation layer.

Pushed predicates (Compare/Contains) are checked against the connector's
capabilities here and evaluated with the engine's one evaluator,
:func:`vdc.predicates.matches`.
"""

from __future__ import annotations

import csv
import os
import re
import xml.parsers.expat
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import CapabilityError, NotFound, ParseError, SourceError
from .model import (
    ColumnDescriptor,
    ColumnKind,
    Row,
    TableSchema,
    nfc,
    parse_uncertain_date,
)
from .predicates import Compare, Contains, matches

if TYPE_CHECKING:  # pragma: no cover
    from .datacentre import AccessMode

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

_META_FIELDS = ("title", "findspot", "not_before", "not_after", "category", "persons")


@dataclass(frozen=True)
class SourceDescriptor:
    source_id: str
    kind: str
    path: str
    mode: "AccessMode"

    def __post_init__(self):
        if self.kind not in (TABULAR, XML_CORPUS):
            raise ValueError(f"unknown source kind {self.kind!r}")


@dataclass
class CorpusDoc:
    id: str
    meta: dict[str, str]  # subset of _META_FIELDS, insertion-ordered
    body: str


def row_item_key(row: Row) -> str:
    """The item key of a tabular row: its first cell, stringified.

    Tables are addressed by convention through their first column; fixture
    tables put their id column first.
    """
    v = row[0]
    if v is None:
        return ""
    return v if isinstance(v, str) else str(v)


# --------------------------------------------------------------------------
# sidecar schema files

_KIND_MAP = {
    "int": (ColumnKind.INT, False),
    "text": (ColumnKind.TEXT, False),
    "date_text": (ColumnKind.TEXT, True),
}

_NEEDS_QUOTING = re.compile(r"[^\x21-\x7e]|\"")  # spaces, non-ASCII, quotes


def format_sidecar_name(name: str) -> str:
    if _NEEDS_QUOTING.search(name):
        return '"' + name.replace('"', '""') + '"'
    return name


def format_sidecar(schema: TableSchema) -> str:
    """Render a schema back to sidecar text (used by fixtures and the CLI)."""
    lines = []
    for col in schema.columns:
        kind = "date_text" if col.date_text else col.kind.value
        lines.append(f"{format_sidecar_name(col.name)} : {kind}")
    return "\n".join(lines) + "\n"


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
# pushdown capability checks

_INT_RE = re.compile(r"^-?\d+$")


def _check_pushable(schema: TableSchema, preds: Sequence, supports_contains: bool):
    for p in preds:
        if isinstance(p, Contains):
            if not supports_contains:
                raise CapabilityError("connector does not support Contains pushdown")
            col = _pred_column(schema, p.column)
            if col.kind is not ColumnKind.TEXT:
                raise CapabilityError(f"Contains on non-text column {p.column!r}")
        elif isinstance(p, Compare):
            col = _pred_column(schema, p.column)
            want = int if col.kind is ColumnKind.INT else str
            if col.kind is ColumnKind.DATE or not isinstance(p.literal, want):
                raise CapabilityError(
                    f"cannot push comparison of {p.column!r} against {type(p.literal).__name__}"
                )
        else:
            raise CapabilityError(f"cannot push predicate {type(p).__name__}")


def _pred_column(schema: TableSchema, name: str) -> ColumnDescriptor:
    for col in schema.columns:
        if col.name == name:
            return col
    raise CapabilityError(f"pushed predicate references unknown column {name!r}")


# --------------------------------------------------------------------------
# tabular sources

def _utf8_error(path: str, e: UnicodeDecodeError) -> SourceError:
    """A SourceError for invalid UTF-8 in ``path``, at the line of its first
    bad byte.  The decoder reads ahead in blocks, so the line is found by
    decoding the file's bytes again."""
    line = None
    try:
        with open(path, "rb") as f:
            data = f.read()
        data.decode("utf-8")
    except UnicodeDecodeError as again:
        line = data.count(b"\n", 0, again.start) + 1
    except OSError:
        pass
    return SourceError(f"invalid UTF-8 ({e.reason})", path=path, line=line)


class TabularSource:
    """Directory of ``<table>.csv`` + ``<table>.schema`` pairs."""

    kind = TABULAR
    supports_contains = True

    def __init__(self, source_id: str, path: str):
        self.source_id = source_id
        self.path = path
        self._schemas: dict[str, TableSchema] = {}
        names = sorted(
            f[:-4] for f in os.listdir(path) if f.endswith(".csv")
        )
        if not names:
            raise SourceError("tabular source has no .csv tables", path=path)
        for name in names:
            sidecar = os.path.join(path, name + ".schema")
            if not os.path.exists(sidecar):
                raise SourceError("missing schema sidecar", path=sidecar)
            with open(sidecar, "r", encoding="utf-8") as f:
                schema = parse_sidecar(f.read(), name, sidecar)
            self._validate_header(name, schema)
            self._schemas[name] = schema

    def _csv_path(self, table: str) -> str:
        return os.path.join(self.path, table + ".csv")

    def _validate_header(self, table: str, schema: TableSchema):
        path = self._csv_path(table)
        with open(path, "r", encoding="utf-8", newline="") as f:
            try:
                header = next(csv.reader(f), None)
            except UnicodeDecodeError as e:
                raise _utf8_error(path, e) from e
        if header is None:
            raise SourceError("empty csv (missing header)", path=path, line=1)
        if [nfc(h) for h in header] != schema.column_names():
            raise SourceError(
                f"csv header {header!r} does not match sidecar columns",
                path=path,
                line=1,
            )

    def list_tables(self) -> list[TableSchema]:
        return [self._schemas[n] for n in sorted(self._schemas)]

    def schema(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise NotFound(f"no table {table!r} in source {self.source_id!r}") from None

    def estimate_rows(self, table: str) -> int:
        self.schema(table)
        with open(self._csv_path(table), "r", encoding="utf-8", newline="") as f:
            return sum(1 for _ in csv.reader(f)) - 1

    def scan(self, table: str, pushed: Sequence | None = None) -> Iterator[Row]:
        schema = self.schema(table)
        preds = tuple(pushed or ())
        if preds:
            _check_pushable(schema, preds, self.supports_contains)
        path = self._csv_path(table)
        try:
            f = open(path, "r", encoding="utf-8", newline="")
        except OSError as e:
            raise SourceError(f"cannot read table: {e}", path=path) from e
        with f:
            reader = csv.reader(f)
            try:
                if next(reader, None) is None:  # header, validated at open time
                    raise SourceError("empty csv (missing header)", path=path, line=1)
                for record in reader:
                    if len(record) != len(schema.columns):
                        raise SourceError(
                            f"row arity {len(record)} != {len(schema.columns)}",
                            path=path,
                            line=reader.line_num,
                        )
                    row = tuple(
                        self._cell(col, text, path, reader.line_num)
                        for col, text in zip(schema.columns, record)
                    )
                    if preds and not matches(schema, preds, row):
                        continue
                    yield row
            except UnicodeDecodeError as e:
                raise _utf8_error(path, e) from e

    @staticmethod
    def _cell(col: ColumnDescriptor, text: str, path: str, line: int):
        if text == "":
            return None
        if col.kind is ColumnKind.INT:
            if not _INT_RE.match(text):
                raise SourceError(
                    f"bad int {text!r} in column {col.name!r}", path=path, line=line
                )
            return int(text)
        return nfc(text)


# --------------------------------------------------------------------------
# xml corpus sources

class _DocBuilder:
    """Expat handlers assembling a CorpusDoc from the subset grammar."""

    def __init__(self):
        self.id: str | None = None
        self.meta: dict[str, str] = {}
        self.persons: list[str] = []
        self.body_parts: list[str] = []
        self.stack: list[str] = []
        self.meta_seen = False
        self.text_seen = False
        self.date_seen = False
        self.in_text = False
        self.cur_meta_field: str | None = None
        self.cur_meta_text: list[str] = []
        self.parser = xml.parsers.expat.ParserCreate()
        self.parser.StartElementHandler = self.start
        self.parser.EndElementHandler = self.end
        self.parser.CharacterDataHandler = self.chars

    def fail(self, message: str):
        raise ParseError(message, line=self.parser.CurrentLineNumber)

    def start(self, name: str, attrs: dict):
        depth = len(self.stack)
        if depth == 0:
            if name != "doc":
                self.fail(f"root element must be <doc>, got <{name}>")
            if not attrs.get("id"):
                self.fail("<doc> is missing its id attribute")
            self.id = nfc(attrs["id"])
        elif self.in_text:
            pass  # arbitrary markup inside <text> is stripped
        elif depth == 1:
            if name == "meta":
                if self.meta_seen:
                    self.fail("duplicate <meta> element")
                self.meta_seen = True
            elif name == "text":
                if self.text_seen:
                    self.fail("duplicate <text> element")
                self.text_seen = True
                self.in_text = True
            else:
                self.fail(f"unexpected element <{name}> under <doc>")
        elif depth == 2 and self.stack[-1] == "meta":
            if name == "persName":
                self.cur_meta_field = "persName"
                self.cur_meta_text = []
            elif name == "date":
                if self.date_seen:
                    self.fail("duplicate <date> element")
                self.date_seen = True
                nb, na = attrs.get("notBefore"), attrs.get("notAfter")
                if nb:
                    self.meta["not_before"] = nfc(nb)
                if na:
                    self.meta["not_after"] = nfc(na)
                self.cur_meta_field = "date"
            elif name in ("title", "findspot", "category"):
                if name in self.meta:
                    self.fail(f"duplicate <{name}> element")
                self.cur_meta_field = name
                self.cur_meta_text = []
            else:
                self.fail(f"unexpected element <{name}> under <meta>")
        else:
            self.fail(f"unexpected element <{name}>")
        self.stack.append(name)

    def end(self, name: str):
        self.stack.pop()
        if name == "text" and len(self.stack) == 1:
            self.in_text = False
        elif len(self.stack) == 2 and self.stack[-1] == "meta":
            if name == "persName":
                self.persons.append(nfc("".join(self.cur_meta_text).strip()))
            elif name in ("title", "findspot", "category"):
                self.meta[name] = nfc("".join(self.cur_meta_text).strip())
            self.cur_meta_field = None

    def chars(self, data: str):
        if self.in_text:
            self.body_parts.append(data)
        elif self.cur_meta_field in ("title", "findspot", "category", "persName"):
            self.cur_meta_text.append(data)


def parse_xml_doc(data: bytes) -> CorpusDoc:
    """Parse one corpus document.

    Grammar: root ``<doc id="...">`` containing an optional ``<meta>``
    (children ``title``, ``findspot``, ``date`` with notBefore/notAfter
    attributes, ``category``, zero or more ``persName``) and an optional
    ``<text>`` whose entire character content, tags stripped and whitespace
    collapsed, becomes the body.
    """
    b = _DocBuilder()
    try:
        b.parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as e:
        raise ParseError(f"not well-formed: {e}", line=e.lineno) from e
    if b.id is None:
        raise ParseError("document has no <doc> root")
    meta = {k: b.meta[k] for k in _META_FIELDS if k in b.meta}
    if b.persons:
        meta["persons"] = "|".join(b.persons)
    for key in ("not_before", "not_after"):
        if key in meta:
            try:
                parse_uncertain_date(meta[key])
            except ParseError as e:
                raise ParseError(f"{key}={meta[key]!r} is not a valid date: {e}") from e
    body = nfc(re.sub(r"\s+", " ", "".join(b.body_parts)).strip())
    return CorpusDoc(id=b.id, meta=meta, body=body)


class XmlCorpusSource:
    """Directory of ``*.xml`` documents, exposed as one table ``docs``."""

    kind = XML_CORPUS
    supports_contains = False

    def __init__(self, source_id: str, path: str):
        self.source_id = source_id
        self.path = path
        self._files = sorted(f for f in os.listdir(path) if f.endswith(".xml"))
        if not self._files:
            raise SourceError("xml corpus has no .xml documents", path=path)
        self._docs: list[CorpusDoc] | None = None
        self._schema = TableSchema("docs", DOCS_TABLE_COLUMNS)

    def documents(self) -> list[CorpusDoc]:
        """All corpus docs, in sorted file order; parsed once and cached."""
        if self._docs is None:
            docs = []
            seen: dict[str, str] = {}
            for name in self._files:
                full = os.path.join(self.path, name)
                try:
                    with open(full, "rb") as f:
                        doc = parse_xml_doc(f.read())
                except ParseError as e:
                    raise SourceError(str(e), path=full, line=e.line) from e
                except OSError as e:
                    raise SourceError(f"cannot read document: {e}", path=full) from e
                if doc.id in seen:
                    raise SourceError(
                        f"duplicate doc id {doc.id!r} (also in {seen[doc.id]})",
                        path=full,
                    )
                seen[doc.id] = name
                docs.append(doc)
            self._docs = docs
        return self._docs

    def list_tables(self) -> list[TableSchema]:
        return [self._schema]

    def schema(self, table: str) -> TableSchema:
        if table != "docs":
            raise NotFound(f"no table {table!r} in source {self.source_id!r}")
        return self._schema

    def estimate_rows(self, table: str) -> int:
        self.schema(table)
        return len(self._files)

    def scan(self, table: str, pushed: Sequence | None = None) -> Iterator[Row]:
        schema = self.schema(table)
        if pushed:
            raise CapabilityError("xml corpus connector does not support pushdown")
        for doc in self.documents():
            meta = doc.meta
            yield (
                doc.id,
                meta.get("title"),
                meta.get("findspot"),
                meta.get("not_before"),
                meta.get("not_after"),
                meta.get("category"),
                meta.get("persons"),
                doc.body or None,
            )


SourceHandle = TabularSource | XmlCorpusSource


def open_source(desc: SourceDescriptor) -> SourceHandle:
    """Open a source read-only and list its tables.  Never mutates it."""
    if not os.path.isdir(desc.path):
        raise SourceError("source path is not a readable directory", path=desc.path)
    if desc.kind == TABULAR:
        return TabularSource(desc.source_id, desc.path)
    return XmlCorpusSource(desc.source_id, desc.path)

