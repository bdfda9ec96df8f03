"""Text-centric virtualization: ingestion recipes, inverted indexes, search,
and virtual collections.

Rows and corpus documents are mapped into a generic document model by small
declarative recipes, indexed into per-field postings lists, and searched by
keyword conjunctions, optionally restricted to one field or a geographic
bounding box.  Virtual collections assemble item references across sources
without copying any content.

Index files are deterministic: the same document set always produces the
same bytes, regardless of input order, so a published index can be compared,
cached and shipped without its source.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .atomic import write_atomic
from .errors import (
    CollectionError,
    IndexFormatError,
    IngestError,
    NotFound,
    ParseError,
    VdcError,
)
from .connectors import SourceHandle, row_item_key
from .mediation import IDENT_RE, RelationRef
from .model import ItemRef

if TYPE_CHECKING:  # pragma: no cover
    from .datacentre import Catalogue

INDEX_MAGIC = "VDCIDX 1"


# --------------------------------------------------------------------------
# tokenization

class _SeparatorMap(dict):
    """str.translate mapping that classifies code points lazily.

    Letters and decimal digits pass through; everything else becomes a
    space.  Caching per code point keeps tokenization fast over large
    corpora without precomputing a table for all of Unicode.
    """

    def __missing__(self, cp: int) -> str:
        ch = chr(cp)
        cat = unicodedata.category(ch)
        out = ch if (cat.startswith("L") or cat == "Nd") else " "
        self[cp] = out
        return out


_SEPARATORS = _SeparatorMap()


def tokenize(text: str) -> list[str]:
    """NFC-normalize, lowercase, and split on every non letter/digit.

    Lowercasing is the simple, locale-independent Unicode mapping (so Greek
    final sigma survives: "Λόγος" tokenizes to "λόγος").
    """
    folded = unicodedata.normalize("NFC", text).lower()
    return folded.translate(_SEPARATORS).split()


# --------------------------------------------------------------------------
# recipes

@dataclass(frozen=True)
class IngestRecipe:
    name: str
    source: RelationRef
    id_column: str
    field_map: tuple[tuple[str, str], ...]  # (document field, source column)
    body_columns: tuple[str, ...]
    geo: tuple[str, str] | None  # (lat column, lon column)
    indexed: tuple[str, ...]

    def field_names(self) -> list[str]:
        return [f for f, _ in self.field_map]


def parse_recipe_file(text: str) -> IngestRecipe:
    """Parse the recipe micro-grammar.

    Line-based, UTF-8, ``#`` comments::

        recipe <ident>
        from <source>.<table>
        id <column>
        field <ident> = <column>   # zero or more
        body <column>              # one or more
        geo <latcol> <loncol>      # optional
        index <ident>              # zero or more, over fields and "body"
        end
    """
    name = None
    source = None
    id_column = None
    fields: list[tuple[str, str]] = []
    body: list[str] = []
    geo: tuple[str, str] | None = None
    indexed: list[str] = []
    ended = False

    def ident(tok: str, lineno: int) -> str:
        if not IDENT_RE.match(tok):
            raise ParseError(f"expected an identifier, got {tok!r}", line=lineno)
        return tok

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after 'end'", line=lineno)
        words = line.split()
        keyword = words[0]
        if keyword == "recipe":
            if name is not None:
                raise ParseError("duplicate 'recipe' line", line=lineno)
            if len(words) != 2:
                raise ParseError("usage: recipe <name>", line=lineno)
            name = ident(words[1], lineno)
            continue
        if name is None:
            raise ParseError("recipe file must start with 'recipe <name>'", line=lineno)
        if keyword == "from":
            if source is not None:
                raise ParseError("duplicate 'from' line", line=lineno)
            if len(words) != 2:
                raise ParseError("usage: from <source>.<table>", line=lineno)
            try:
                source = RelationRef.parse(words[1])
            except ValueError as e:
                raise ParseError(str(e), line=lineno) from e
        elif keyword == "id":
            if id_column is not None:
                raise ParseError("duplicate 'id' line", line=lineno)
            if len(words) != 2:
                raise ParseError("usage: id <column>", line=lineno)
            id_column = ident(words[1], lineno)
        elif keyword == "field":
            if len(words) != 4 or words[2] != "=":
                raise ParseError("usage: field <ident> = <column>", line=lineno)
            fname = ident(words[1], lineno)
            if fname == "body" or any(f == fname for f, _ in fields):
                raise ParseError(f"duplicate field {fname!r}", line=lineno)
            fields.append((fname, ident(words[3], lineno)))
        elif keyword == "body":
            if len(words) != 2:
                raise ParseError("usage: body <column>", line=lineno)
            body.append(ident(words[1], lineno))
        elif keyword == "geo":
            if geo is not None:
                raise ParseError("duplicate 'geo' line", line=lineno)
            if len(words) != 3:
                raise ParseError("usage: geo <latcol> <loncol>", line=lineno)
            geo = (ident(words[1], lineno), ident(words[2], lineno))
        elif keyword == "index":
            if len(words) != 2:
                raise ParseError("usage: index <field>", line=lineno)
            f = ident(words[1], lineno)
            if f in indexed:
                raise ParseError(f"duplicate index field {f!r}", line=lineno)
            indexed.append(f)
        elif keyword == "end":
            ended = True
        else:
            raise ParseError(f"unknown recipe keyword {keyword!r}", line=lineno)

    if name is None:
        raise ParseError("empty recipe file")
    if not ended:
        raise ParseError("missing 'end'")
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
# documents and ingestion

@dataclass
class Document:
    doc_id: str
    ref: ItemRef
    fields: dict[str, str]  # insertion-ordered, recipe declaration order
    body: str
    geo: tuple[float, float] | None = None


def _as_text(v) -> str | None:
    if v is None:
        return None
    return v if isinstance(v, str) else str(v)


def ingest_documents(
    handle: SourceHandle, recipe: IngestRecipe
) -> tuple[list[Document], list[str]]:
    """Map every row of the recipe's table to a Document.

    Returns (documents, warnings); warnings report rows whose geo
    coordinates were present but unusable.
    """
    schema = handle.schema(recipe.source.table)
    names = schema.column_names()

    def col(c: str) -> int:
        if c not in names:
            raise IngestError(
                f"recipe {recipe.name!r}: column {c!r} not in {recipe.source.text()}"
            )
        return names.index(c)

    id_i = col(recipe.id_column)
    field_is = [(f, col(c)) for f, c in recipe.field_map]
    body_is = [col(c) for c in recipe.body_columns]
    geo_is = (col(recipe.geo[0]), col(recipe.geo[1])) if recipe.geo else None

    docs: list[Document] = []
    warnings: list[str] = []
    seen: dict[str, str] = {}
    for n, row in enumerate(handle.scan(recipe.source.table), start=1):
        id_cell = _as_text(row[id_i])
        if id_cell is None:
            raise IngestError(
                f"recipe {recipe.name!r}: null id in column {recipe.id_column!r}"
            )
        try:
            ref = ItemRef(recipe.source.source_id, recipe.source.table, row_item_key(row))
        except ValueError as e:  # the item key (first cell) is empty or unusable
            raise IngestError(
                f"recipe {recipe.name!r}: row {n} of {recipe.source.text()} "
                f"(id {id_cell!r}): {e}"
            ) from e
        if id_cell in seen:
            raise IngestError(
                f"duplicate doc id {id_cell!r}: {seen[id_cell]} and {ref.text()}"
            )
        seen[id_cell] = ref.text()

        fields = {}
        for f, i in field_is:
            v = _as_text(row[i])
            if v is not None:
                fields[f] = v
        body = " ".join(v for v in (_as_text(row[i]) for i in body_is) if v)

        geo = None
        if geo_is is not None:
            lat_t, lon_t = _as_text(row[geo_is[0]]), _as_text(row[geo_is[1]])
            if lat_t is not None or lon_t is not None:
                geo = _parse_geo(lat_t, lon_t)
                if geo is None:
                    warnings.append(
                        f"{ref.text()}: unusable coordinates ({lat_t!r}, {lon_t!r})"
                    )
        docs.append(Document(id_cell, ref, fields, body, geo))
    return docs, warnings


def _parse_geo(lat_t: str | None, lon_t: str | None) -> tuple[float, float] | None:
    if lat_t is None or lon_t is None:
        return None
    try:
        lat, lon = float(lat_t), float(lon_t)
    except ValueError:
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None
    return (lat, lon)


# --------------------------------------------------------------------------
# the inverted index

@dataclass
class DocEntry:
    ordinal: int
    doc_id: str
    ref: str  # ItemRef text form
    geo: tuple[float, float] | None
    stored: dict[str, str]


class InvertedIndex:
    """Per-field postings over a fixed document set.

    ``postings[field][term]`` is a list of (ordinal, term frequency) with
    strictly ascending ordinals; ``docs`` is the ordinal-ordered manifest.
    """

    def __init__(self, docs: list[DocEntry], postings: dict[str, dict[str, list[tuple[int, int]]]]):
        self.docs = docs
        self.postings = postings

    def indexed_fields(self) -> list[str]:
        return sorted(self.postings)


def build_index(
    docs: Sequence[Document],
    recipe: IngestRecipe,
    stored_whitelist: Iterable[str] | None = None,
) -> InvertedIndex:
    """Index documents deterministically: ordinals follow ascending doc_id.

    ``stored_whitelist`` masks manifest field values for sources that only
    publish their index: non-whitelisted fields keep their name but store
    ``-``.  Postings are unaffected (published terms are the point).
    """
    ids = [d.doc_id for d in docs]
    if len(set(ids)) != len(ids):
        dup = sorted(i for i in set(ids) if ids.count(i) > 1)[0]
        raise IngestError(f"duplicate doc id {dup!r} in index input")
    ordered = sorted(docs, key=lambda d: d.doc_id)

    allow = None if stored_whitelist is None else set(stored_whitelist)
    entries = []
    for ordinal, doc in enumerate(ordered):
        stored = {}
        for f, v in doc.fields.items():
            if allow is None or f in allow:
                stored[f] = v
            else:
                stored[f] = "-"
        entries.append(DocEntry(ordinal, doc.doc_id, doc.ref.text(), doc.geo, stored))

    postings: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for f in recipe.indexed:
        field_postings: dict[str, list[tuple[int, int]]] = {}
        for ordinal, doc in enumerate(ordered):
            text = doc.body if f == "body" else doc.fields.get(f, "")
            for term, tf in sorted(Counter(tokenize(text)).items()):
                field_postings.setdefault(term, []).append((ordinal, tf))
        postings[f] = field_postings
    return InvertedIndex(entries, postings)


# --------------------------------------------------------------------------
# index file format

_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), (";", "\\;"), ("\n", "\\n"), ("\r", "\\r")]


def _escape(v: str) -> str:
    for ch, rep in _ESCAPES:
        v = v.replace(ch, rep)
    return v


_UNESCAPES = {"\\": "\\", "t": "\t", ";": ";", "n": "\n", "r": "\r"}


def _unescape(v: str) -> str:
    out = []
    i = 0
    while i < len(v):
        ch = v[i]
        if ch == "\\":
            if i + 1 >= len(v) or v[i + 1] not in _UNESCAPES:
                raise IndexFormatError(f"bad escape in {v!r}")
            out.append(_UNESCAPES[v[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _fmt_coord(x: float | None) -> str:
    return "-" if x is None else repr(x)


def write_index(index: InvertedIndex, path: str) -> None:
    lines = [INDEX_MAGIC, "DOCS"]
    for e in index.docs:
        lat = _fmt_coord(e.geo[0] if e.geo else None)
        lon = _fmt_coord(e.geo[1] if e.geo else None)
        stored = ";".join(f"{k}={_escape(v)}" for k, v in e.stored.items())
        lines.append(f"{e.ordinal}\t{_escape(e.doc_id)}\t{_escape(e.ref)}\t{lat}\t{lon}\t{stored}")
    for field in sorted(index.postings):
        lines.append(f"FIELD {field}")
        for term in sorted(index.postings[field]):
            plist = ",".join(f"{o}:{tf}" for o, tf in index.postings[field][term])
            lines.append(f"{term}\t{plist}")
    write_atomic(path, "\n".join(lines) + "\n")


def read_index(path: str) -> InvertedIndex:
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            text = f.read()
    except OSError as e:
        raise IndexFormatError(f"cannot read index: {e}") from e
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise IndexFormatError("index file is truncated (no final newline)")
    lines.pop()
    if not lines or lines[0] != INDEX_MAGIC:
        raise IndexFormatError(
            f"bad index header {lines[0]!r}" if lines else "empty index file"
        )
    if len(lines) < 2 or lines[1] != "DOCS":
        raise IndexFormatError("missing DOCS section")

    docs: list[DocEntry] = []
    i = 2
    while i < len(lines) and not lines[i].startswith("FIELD "):
        parts = lines[i].split("\t")
        if len(parts) != 6:
            raise IndexFormatError(f"bad DOCS line {i + 1}")
        ordinal = _parse_int(parts[0], i)
        if ordinal != len(docs):
            raise IndexFormatError(f"non-monotonic ordinal at line {i + 1}")
        geo = None
        if parts[3] != "-" or parts[4] != "-":
            try:
                geo = (float(parts[3]), float(parts[4]))
            except ValueError as e:
                raise IndexFormatError(f"bad coordinates at line {i + 1}") from e
        stored: dict[str, str] = {}
        if parts[5]:
            for pair in _split_unescaped(parts[5], ";"):
                k, sep, v = pair.partition("=")
                if not sep:
                    raise IndexFormatError(f"bad stored field at line {i + 1}")
                stored[k] = _unescape(v)
        docs.append(DocEntry(ordinal, _unescape(parts[1]), _unescape(parts[2]), geo, stored))
        i += 1

    postings: dict[str, dict[str, list[tuple[int, int]]]] = {}
    current: dict[str, list[tuple[int, int]]] | None = None
    prev_term: str | None = None
    while i < len(lines):
        line = lines[i]
        if line.startswith("FIELD "):
            fname = line[len("FIELD "):]
            if not IDENT_RE.match(fname) or fname in postings:
                raise IndexFormatError(f"bad FIELD section {fname!r} at line {i + 1}")
            current = {}
            postings[fname] = current
            prev_term = None
        else:
            if current is None:
                raise IndexFormatError(f"postings outside FIELD section at line {i + 1}")
            term, sep, plist = line.partition("\t")
            if not sep or not term:
                raise IndexFormatError(f"bad postings line {i + 1}")
            if prev_term is not None and not (prev_term < term):
                raise IndexFormatError(f"terms out of order at line {i + 1}")
            prev_term = term
            entries = []
            last_ord = -1
            for item in plist.split(","):
                o_s, sep2, tf_s = item.partition(":")
                if not sep2:
                    raise IndexFormatError(f"bad posting {item!r} at line {i + 1}")
                o, tf = _parse_int(o_s, i), _parse_int(tf_s, i)
                if o <= last_ord:
                    raise IndexFormatError(f"ordinals out of order at line {i + 1}")
                if not 0 <= o < len(docs) or tf < 1:
                    raise IndexFormatError(f"posting out of range at line {i + 1}")
                last_ord = o
                entries.append((o, tf))
            current[term] = entries
        i += 1
    return InvertedIndex(docs, postings)


def _parse_int(s: str, line_i: int) -> int:
    if not s.isdigit():
        raise IndexFormatError(f"bad integer {s!r} at line {line_i + 1}")
    return int(s)


def _split_unescaped(s: str, sep: str) -> list[str]:
    parts = []
    buf = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "\\" and i + 1 < len(s):
            buf.append(s[i : i + 2])
            i += 2
        elif ch == sep:
            parts.append("".join(buf))
            buf = []
            i += 1
        else:
            buf.append(ch)
            i += 1
    parts.append("".join(buf))
    return parts


# --------------------------------------------------------------------------
# search

@dataclass(frozen=True)
class SearchQuery:
    terms: tuple[str, ...]
    field: str | None = None
    bbox: tuple[float, float, float, float] | None = None  # min lat, min lon, max lat, max lon
    limit: int | None = None

    def __post_init__(self):
        if not self.terms and self.bbox is None:
            raise ValueError("search needs at least one term or a bbox")
        if self.bbox is not None:
            min_lat, min_lon, max_lat, max_lon = self.bbox
            if min_lat > max_lat or min_lon > max_lon:
                raise ValueError("bbox minimum exceeds maximum")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive")


class Hit(NamedTuple):
    doc_id: str
    ref: str
    score: int


def search(index: InvertedIndex, q: SearchQuery) -> list[Hit]:
    """Conjunctive term search with tf-sum ranking.

    A document is a candidate when it contains every query term — in the
    restricted field if one is given, in any indexed field otherwise — and
    lies inside the bbox when one is given (boundary inclusive).  Hits are
    ordered by score descending, then doc_id ascending.
    """
    fields = [q.field] if q.field is not None else index.indexed_fields()
    fields = [f for f in fields if f in index.postings]

    scores: dict[int, int] | None = None
    if q.terms:
        if not fields:
            return []
        for term in q.terms:
            tf_by_doc: dict[int, int] = {}
            for f in fields:
                for o, tf in index.postings[f].get(term, ()):
                    tf_by_doc[o] = tf_by_doc.get(o, 0) + tf
            if scores is None:
                scores = tf_by_doc
            else:
                scores = {
                    o: s + tf_by_doc[o] for o, s in scores.items() if o in tf_by_doc
                }
            if not scores:
                return []
    else:
        scores = dict.fromkeys(range(len(index.docs)), 0)

    if q.bbox is not None:
        min_lat, min_lon, max_lat, max_lon = q.bbox
        scores = {
            o: s
            for o, s in scores.items()
            if index.docs[o].geo is not None
            and min_lat <= index.docs[o].geo[0] <= max_lat
            and min_lon <= index.docs[o].geo[1] <= max_lon
        }

    docs = index.docs
    # tuple order (-score, doc_id) sorts without a key function
    ranked = sorted((-s, docs[o].doc_id, docs[o].ref) for o, s in scores.items())
    if q.limit is not None:
        ranked = ranked[: q.limit]
    return [Hit(doc_id, ref, -neg) for neg, doc_id, ref in ranked]


# --------------------------------------------------------------------------
# virtual collections

@dataclass
class VirtualCollection:
    name: str
    refs: list[ItemRef]


@dataclass
class ResolvedItem:
    ref: ItemRef
    kind: str  # "row" | "doc" | "stub" | "error"
    payload: object


def collection_update(catalogue: "Catalogue", name: str, add: Sequence[ItemRef]) -> VirtualCollection:
    """Add refs to a (possibly new) collection; duplicates are skipped.

    Every added ref must resolve under its source's access mode at add
    time; refs into index-only sources are allowed (they are metadata).
    """
    if not IDENT_RE.match(name):
        raise CollectionError(f"bad collection name {name!r}")
    if not add and name not in catalogue.collections:
        raise CollectionError("a new collection needs at least one ref")
    for ref in add:
        try:
            catalogue.check_ref(ref)
        except VdcError as e:
            raise CollectionError(f"unresolvable ref {ref.text()}: {e}") from e
    coll = catalogue.collections.get(name)
    if coll is None:
        coll = VirtualCollection(name, [])
        catalogue.collections[name] = coll
    seen = {r.text() for r in coll.refs}
    for ref in add:
        if ref.text() not in seen:
            coll.refs.append(ref)
            seen.add(ref.text())
    return coll


def collection_resolve(catalogue: "Catalogue", name: str) -> list[ResolvedItem]:
    """Resolve each ref to its record under the owning source's mode.

    Index-only sources yield stubs (doc id plus stored manifest fields);
    dangling refs are reported per item and resolution continues.
    """
    coll = catalogue.collections.get(name)
    if coll is None:
        raise NotFound(f"no collection {name!r}")
    out = []
    for ref in coll.refs:
        try:
            out.append(catalogue.resolve_ref(ref))
        except VdcError as e:
            out.append(ResolvedItem(ref, "error", str(e)))
    return out
