"""Text-centric virtualization: ingestion, inverted indexes and search.

Rows and corpus documents are mapped into a generic document model by small
declarative recipes (their grammar is in ``vdc.mediation``), a batch of rows
at a time, indexed into per-field postings lists, and searched by keyword
conjunctions, optionally restricted to one field or a geographic bounding
box.  A build reads its rows once into a compact pass-one state, then
encodes the index image and writes it to the file as it is encoded, a
block at a time, so the whole image is never held.

Index files are deterministic: the same document set always produces the
same bytes, regardless of input order, so a published index can be compared,
cached and shipped without its source.
"""

from __future__ import annotations

import heapq
import math
import re
import unicodedata
import zlib
from array import array
from collections import Counter
from itertools import accumulate, chain, count, islice
from operator import gt
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .atomic import write_atomic
from .errors import IndexFormatError, IngestError, NotFound
from .connectors import SourceHandle
# perfbench/oracle.py imports parse_recipe_file from this module
from .mediation import IngestRecipe, RelationRef, parse_recipe_file
from .model import IDENT_RE, REF_FORBIDDEN_RE, ItemRef, Record, Row, cell_text, little_endian

if TYPE_CHECKING:  # only an index build maps a file
    import mmap


# --------------------------------------------------------------------------
# tokenization

class _SeparatorMap(dict):
    """str.translate mapping that classifies code points lazily.

    Letters and decimal digits pass through; everything else becomes a
    space.  ``tokenize`` translates only the words that hold some other
    code point; caching per code point keeps that fast over large corpora
    without precomputing a table for all of Unicode.
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
    final sigma survives: "Λόγος" tokenizes to "λόγος").  The whole text is
    folded at once and then split at white space, which the separator map
    would turn into spaces anyway.  A word of letters (the categories L*)
    or of ASCII letters and digits is one token as it stands; only the
    other words are translated.
    """
    folded = unicodedata.normalize("NFC", text).lower()
    tokens = []
    for word in folded.split():
        if word.isalpha() or (word.isascii() and word.isalnum()):
            tokens.append(word)
        else:
            tokens += word.translate(_SEPARATORS).split()
    return tokens


# --------------------------------------------------------------------------
# documents and ingestion

class Document(Record):
    """One ingested row, its ``fields`` in recipe declaration order."""

    __slots__ = ("doc_id", "ref", "fields", "body", "geo")


class Batch(Record):
    """Consecutive rows of a recipe's table, by column: the item keys, the
    doc ids, each recipe field's cells as (field, column) pairs in
    declaration order (None where a cell is null), the bodies and, for a
    recipe with geo columns, each row's usable coordinates or None."""

    __slots__ = ("keys", "ids", "fields", "body", "geo")


# Rows per batch.  A paper-scale hgv build takes the same time at 64 as at
# 4,096 rows a batch; a larger batch only holds more of the input at once
# (at 4,096 rows, the traced peak of a 5,000-row build is 1.8 times that
# at 256).
BATCH_ROWS = 256


def _texts(col: Sequence) -> Sequence[str | None]:
    """Each cell as its text, None for null."""
    types = set(map(type, col))
    if types <= {str, type(None)}:
        return col
    if types <= {str, int}:
        return list(map(str, col))
    return [None if v is None else cell_text(v) for v in col]


def ingest_documents(
    handle: SourceHandle, recipe: IngestRecipe
) -> tuple[list[Document], list[str]]:
    """Map every row of the recipe's table to a Document: (documents,
    warnings), built from the batches ``iter_batches`` yields.  Once the
    scan has ended, a repeated doc id raises the IngestError that an index
    build of the same rows raises (see ``_doc_order``)."""
    warnings: list[str] = []
    source_id, table = recipe.source.source_id, recipe.source.table
    docs = []
    for batch in iter_batches(handle, recipe, warnings):
        names = [f for f, _ in batch.fields]
        geo = batch.geo or [None] * len(batch.ids)
        for key, doc_id, body, g, *cells in zip(
            batch.keys, batch.ids, batch.body, geo, *(col for _, col in batch.fields)
        ):
            fields = {f: v for f, v in zip(names, cells) if v is not None}
            docs.append(Document(doc_id, ItemRef(source_id, table, key), fields, body, g))
    _doc_order([d.doc_id for d in docs], lambda p: docs[p].ref.text())
    return docs, warnings


def iter_batches(
    handle: SourceHandle, recipe: IngestRecipe, warnings: list[str]
) -> Iterator[Batch]:
    """Map the rows of the recipe's table to Batches of up to
    ``BATCH_ROWS`` rows, in scan order.

    Rows whose geo coordinates are present but unusable are reported by
    appending to ``warnings`` as their batch is made.  Only the cells the
    recipe reads are decoded (the item key, id, field, body and geo
    columns); the scan still checks every record in full.  A null id or
    an unusable item key raises IngestError at its row, before any fault
    of the scan after it.  Cells are taken as their text; the body joins
    the non-empty body cells with a space.  Repeated doc ids are left to
    the consumer, which sees every id (``_doc_order``).

    The ids and keys are checked a batch at a time; a batch that fails is
    checked again row by row, which names the first faulty row.
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

    source_id, table = recipe.source.source_id, recipe.source.table
    try:
        ItemRef(source_id, table, "-")
        refable_relation = True
    except ValueError:  # every ref fails: the row check names the first
        refable_relation = False
    reads = {0, id_i, *(i for _, i in field_is), *body_is, *(geo_is or ())}
    first = 1  # the row number of the batch's first row
    for group in _groups(handle.scan(table, columns=reads)):
        cols = list(zip(*group))
        ids = _texts(cols[id_i])
        keys = ids if id_i == 0 else _texts(cols[0])
        if not (
            refable_relation and None not in ids and all(keys)
            and REF_FORBIDDEN_RE.search("".join(keys)) is None
        ):
            _check_rows(recipe, first, ids, keys)
        first += len(group)

        geo = None
        if geo_is is not None:
            lats, lons = _texts(cols[geo_is[0]]), _texts(cols[geo_is[1]])
            geo = list(map(_parse_geo, lats, lons))
            for key, g, lat_t, lon_t in zip(keys, geo, lats, lons):
                if g is None and (lat_t is not None or lon_t is not None):
                    warnings.append(
                        f"{source_id}/{table}/{key}: unusable coordinates ({lat_t!r}, {lon_t!r})"
                    )
        body = [" ".join(filter(None, vs)) for vs in zip(*(_texts(cols[i]) for i in body_is))]
        yield Batch(keys, ids, [(f, _texts(cols[i])) for f, i in field_is], body, geo)


def _groups(rows: Iterator[Row]) -> Iterator[list[Row]]:
    """``rows`` in lists of ``BATCH_ROWS``.  A fault of the scan is raised
    after the list of the rows read before it has been taken."""
    while True:
        group: list[Row] = []
        try:
            group.extend(islice(rows, BATCH_ROWS))
        except Exception:
            if group:
                yield group
            raise
        if not group:
            return
        yield group


def _check_rows(recipe: IngestRecipe, first: int, ids: Sequence[str | None],
                keys: Sequence[str | None]) -> None:
    """Check a batch one row at a time, from row number ``first``: raise
    the IngestError of its first row with a null id or an item key that
    makes no ref."""
    source_id, table = recipe.source.source_id, recipe.source.table
    for n, id_cell, key in zip(count(first), ids, keys):
        if id_cell is None:
            raise IngestError(
                f"recipe {recipe.name!r}: null id in column {recipe.id_column!r}"
            )
        try:
            ItemRef(source_id, table, key or "")
        except ValueError as e:  # the item key (first cell) is empty or unusable
            raise IngestError(
                f"recipe {recipe.name!r}: row {n} of {recipe.source.text()} "
                f"(id {id_cell!r}): {e}"
            ) from e


def _doc_order(ids: Sequence[str], ref: Callable[[int], str]) -> array:
    """The input positions of ``ids`` by ascending id.  Equal ids stay in
    input order, so the first equal neighbours hold the smallest repeated
    id at its first two rows: they raise ``duplicate doc id '<id>': <ref>
    and <ref>``, ``ref`` giving the ref text of an input position."""
    order = array("I", sorted(range(len(ids)), key=ids.__getitem__))
    for p, q in zip(order, islice(order, 1, None)):
        if ids[p] == ids[q]:
            raise IngestError(f"duplicate doc id {ids[p]!r}: {ref(p)} and {ref(q)}")
    return order


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
# the inverted index and its file format
#
# An index is one VDCIDX 3 image: UTF-8 text lines with LF line ends,
# but for the postings runs, which are binary,
#
#   VDCIDX 3 <source relation>
#   DOCS <n>
#   <ref>TAB<doc_id>TAB<lat>TAB<lon>[TAB<name>=<value>]...   n lines, by ordinal
#   POSTINGS <field>                      then, per indexed field in name order:
#   <run><run>...<run>LF                  one run per term, in term order
#   TERMS <field> <count>
#   <term>TAB<offset>TAB<length>          byte span of the term's run
#   DOCOFFSETS <width>
#   <byte offset of each DOCS line, zero-padded to width digits, unseparated>
#   TOC <byte offset of each section header line>...
#   END <doc count> <term count> <crc32 of all preceding bytes, 8 hex digits>
#
# A run holds the ordinals of the documents that hold its term, ascending,
# each as many times as the document holds the term (its tf), as
# little-endian uint32: 4 bytes per occurrence, so a field that repeats one
# word N times costs 4N bytes.  The runs tile their section up to its LF.
# Values escape backslash, tab, LF and CR as \\ \t \n \r.  The encoder
# writes an image in file order as it encodes it.  Opening an image checks
# the footer, the checksum and the section table; the rest is decoded on
# demand, by the same code whether the file was just written or read.

INDEX_MAGIC = "VDCIDX 3"
_RETIRED_MAGICS = ("VDCIDX 1", "VDCIDX 2")

_FOOTER_RE = re.compile(rb"END (\d+) (\d+) ([0-9a-f]{8})\n")
_TOC_RE = re.compile(rb"TOC((?: \d+)+)\n")
_ESCAPE_RE = re.compile(r"\\(.?)", re.S)
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _escape(v: str) -> str:
    if v.isprintable() and "\\" not in v:  # tab, LF and CR are not printable
        return v
    return v.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


def _unescape(v: str) -> str:
    if "\\" not in v:
        return v

    def one(m: re.Match) -> str:
        try:
            return _UNESCAPES[m.group(1)]
        except KeyError:
            raise IndexFormatError(f"bad escape in {v!r}") from None

    return _ESCAPE_RE.sub(one, v)


def _nat(s: str | bytes) -> int:
    """A non-negative decimal of at most 19 ASCII digits."""
    if not (s.isascii() and s.isdigit()):
        raise IndexFormatError(f"bad number {s!r} in index")
    if len(s) > 19:
        raise IndexFormatError(f"number of {len(s)} digits in index")
    return int(s)


def _text(b: bytes) -> str:
    try:
        return b.decode("utf-8")
    except UnicodeDecodeError as e:
        raise IndexFormatError(f"invalid UTF-8 in index: {e}") from e


# An image's CRC-32 is computed in blocks of this many bytes, a multiple of
# the page size.
_CRC_BLOCK = 1 << 18


def _crc32(data: bytes | mmap.mmap, end: int) -> int:
    """The CRC-32 of ``data[:end]``, computed a block at a time.  Where
    ``data`` maps a file (the check of a just-written index), each block's
    pages are let go once the CRC has passed them, so that check never
    holds all of the file."""
    release = getattr(data, "madvise", None)
    if release is not None:
        from mmap import MADV_DONTNEED  # here: only an index build maps its file
    crc = 0
    with memoryview(data) as view:
        for at in range(0, end, _CRC_BLOCK):
            n = min(_CRC_BLOCK, end - at)
            crc = zlib.crc32(view[at : at + n], crc)
            if release is not None:
                release(MADV_DONTNEED, at, n)
    return crc


def _geo(lat: str, lon: str, ordinal: int) -> tuple[float, float] | None:
    if lat == "-" and lon == "-":
        return None
    try:
        return (float(lat), float(lon))
    except ValueError as e:
        raise IndexFormatError(f"bad coordinates for document {ordinal}") from e


def _header_relation(line: bytes) -> str:
    """The source relation that an index's first line (without LF) names."""
    text = line.decode("utf-8", "replace")
    for magic in _RETIRED_MAGICS:
        if text == magic or text.startswith(magic + " "):
            raise IndexFormatError(
                f"index has format v{magic[-1]}, which is no longer read: "
                "rebuild it with `vdc index build`"
            )
    prefix = INDEX_MAGIC + " "
    if text.startswith(prefix):
        try:
            return RelationRef.parse(text[len(prefix):]).text()
        except ValueError:
            pass
    raise IndexFormatError(f"bad index header {text!r}")


def index_relation(path: str) -> str:
    """The source relation of an index file, from its first line alone."""
    try:
        with open(path, "rb") as f:
            line = f.readline(4096)
    except OSError as e:
        raise IndexFormatError(f"cannot read index: {e}") from e
    return _header_relation(line.removesuffix(b"\n"))


class DocEntry(Record):
    """One decoded DOCS line; ``ref`` is an ItemRef's text form."""

    __slots__ = ("doc_id", "ref", "geo", "stored")


class InvertedIndex:
    """Per-field postings over a fixed document set, held as one VDCIDX 3
    image and decoded on demand.

    Ordinals follow ascending doc_id.  A search finds each of its terms by
    bisecting the field's sorted TERMS section in place, reading a few of
    its lines.  A term's postings are a binary run of ordinals, decoded
    when the term is searched; a document's tf is the multiplicity of its
    ordinal in the run.  A DOCS line is decoded when its document is
    returned or filtered by location.  Decoded postings and DOCS lines are
    kept, so an index held in memory decodes each once.  Only ``terms``,
    which ``verify`` calls, decodes a whole dictionary.  Structural faults
    surface as ``IndexFormatError`` when the faulty part is decoded.  The
    image is a file's bytes (``read_index``) or a just-written file mapped
    for its check (``write_index``); nothing writes to it afterwards.
    """

    def __init__(self, data: bytes | mmap.mmap):
        self.data = data
        first = data.find(b"\n")
        self.relation = _header_relation(data[:first] if first >= 0 else data)
        if data[-1:] != b"\n":
            raise IndexFormatError("index file is truncated (no final newline)")
        foot = data.rfind(b"\n", 0, len(data) - 1) + 1
        m = _FOOTER_RE.fullmatch(data, foot)
        if m is None:
            raise IndexFormatError("index file is truncated (no END footer)")
        n_docs, n_terms = _nat(m[1]), _nat(m[2])
        if _crc32(data, foot) != int(m[3], 16):
            raise IndexFormatError("index checksum mismatch: the file is damaged")

        toc = data.rfind(b"\n", 0, foot - 1) + 1
        m = _TOC_RE.fullmatch(data, toc, foot)
        if m is None:
            raise IndexFormatError("bad TOC line")
        starts = [_nat(s) for s in m[1].split()]
        if starts[0] != first + 1:
            raise IndexFormatError("DOCS section does not follow the header")
        sections = []  # (header words, first byte after the header, end)
        for start, end in zip(starts, starts[1:] + [toc]):
            head_end = data.find(b"\n", start, end)
            if head_end < 0 or data[start - 1] != 0x0A:
                raise IndexFormatError(f"bad section offset {start}")
            words = data[start:head_end].decode("utf-8", "replace").split(" ")
            sections.append((words, head_end + 1, end))

        words, self._docs_start, self._docs_end = sections[0]
        if words != ["DOCS", str(n_docs)]:
            raise IndexFormatError("DOCS section disagrees with the footer's doc count")
        self.n_docs = n_docs
        self._postings_spans: dict[str, tuple[int, int]] = {}  # field -> its runs and LF
        self._terms_spans: dict[str, tuple[int, int, int]] = {}  # + term count
        pairs = sections[1:-1]
        if len(pairs) % 2:
            raise IndexFormatError("unpaired POSTINGS/TERMS sections")
        for (p_words, p_start, p_end), (t_words, t_start, t_end) in zip(pairs[0::2], pairs[1::2]):
            field = p_words[-1]
            if (
                len(p_words) != 2 or p_words[0] != "POSTINGS" or not IDENT_RE.match(field)
                or len(t_words) != 3 or t_words[:2] != ["TERMS", field]
                or any(field <= f for f in self._postings_spans)
            ):
                raise IndexFormatError(f"bad sections for field {field!r}")
            self._postings_spans[field] = (p_start, p_end)
            self._terms_spans[field] = (t_start, t_end, _nat(t_words[2]))
        if sum(count for _, _, count in self._terms_spans.values()) != n_terms:
            raise IndexFormatError("TERMS sections disagree with the footer's term count")

        words, self._table, table_end = sections[-1]
        self._width = _nat(words[-1]) if words[0] == "DOCOFFSETS" and len(words) == 2 else 0
        if (
            not self._width
            or table_end - self._table != n_docs * self._width + 1
            or (n_docs and _nat(data[self._table : self._table + self._width]) != self._docs_start)
        ):
            raise IndexFormatError("bad DOCOFFSETS section")
        # kept once checked or decoded: the fields whose TERMS sections
        # were counted, postings by (field, term), and all DOCS lines
        self._counted: set[str] = set()
        self._decoded_postings: dict[tuple[str, str], dict[int, int]] = {}
        self._lines: list[str] | None = None

    def indexed_fields(self) -> list[str]:
        return list(self._postings_spans)

    def terms(self, field: str) -> dict[str, tuple[str, str]]:
        """A field's whole term dictionary, decoded and checked in full:
        term -> the (offset, length) digits of its postings run.  A
        search never calls it; see ``term_span``."""
        start, end, count = self._terms_spans[field]
        cells = _text(self.data[start:end]).replace("\n", "\t").split("\t")
        if len(cells) != 3 * count + 1:
            raise IndexFormatError(f"bad TERMS section for field {field!r}")
        names = cells[0:-1:3]
        if (names and not names[0]) or not all(map(str.__lt__, names, names[1:])):
            raise IndexFormatError(f"terms out of order in field {field!r}")
        return dict(zip(names, zip(cells[1::3], cells[2::3])))

    def term_span(self, field: str, term: str) -> tuple[str, str] | None:
        """``terms(field).get(term)``, found by bisecting the field's
        TERMS section in place.

        The section's lines are sorted by name, and UTF-8 byte order is
        code point order, so the bisection compares encoded names.  It
        reads one line per step: the line that holds the middle byte of
        the span left.  Its checks: the section holds as many newlines as
        the header counts terms and twice as many tabs; every name read is
        UTF-8, is not empty, and sorts strictly between the names already
        read on either side of it; the line where the bisection ends (the
        term's line, the first after it or, past the end, the last) sorts
        strictly between its two neighbours; and the term's line has three
        cells."""
        start, end, count = self._terms_spans[field]
        data = self.data
        if field not in self._counted:
            if data.count(b"\n", start, end) != count or data.count(b"\t", start, end) != 2 * count:
                raise IndexFormatError(f"bad TERMS section for field {field!r}")
            self._counted.add(field)
        if not count:
            return None
        key = term.encode("utf-8")
        # lines before lo sort before the term, lines from hi on do not;
        # low and high are the names of the lines just before lo and at hi
        lo, hi, low, high = start, end, None, None
        while lo < hi:
            at = self._line_start(lo, (lo + hi) // 2)
            line_end = data.find(b"\n", at, hi)
            name = self._term_name(field, at, line_end)
            if (low is not None and name <= low) or (high is not None and name >= high):
                raise IndexFormatError(f"terms out of order in field {field!r}")
            if name < key:
                lo, low = line_end + 1, name
            else:
                hi, high = at, name
        if lo == end:  # past the last line: check the last
            lo = self._line_start(start, end - 1)
        line_end = data.find(b"\n", lo, end)
        name = self._term_name(field, lo, line_end)
        if lo > start and self._term_name(field, self._line_start(start, lo - 1), lo - 1) >= name:
            raise IndexFormatError(f"terms out of order in field {field!r}")
        after = line_end + 1
        if after < end and name >= self._term_name(field, after, data.find(b"\n", after, end)):
            raise IndexFormatError(f"terms out of order in field {field!r}")
        if name != key:
            return None
        cells = _text(data[lo:line_end]).split("\t")
        if len(cells) != 3:
            raise IndexFormatError(f"bad TERMS section for field {field!r}")
        return cells[1], cells[2]

    def _line_start(self, lo: int, at: int) -> int:
        """Where the line holding byte ``at`` starts, given that a line
        starts at ``lo``, no later than ``at``."""
        return max(lo, self.data.rfind(b"\n", lo, at) + 1)

    def _term_name(self, field: str, start: int, end: int) -> bytes:
        """The name of the TERMS line ``data[start:end]``, checked to be
        UTF-8 and not empty."""
        tab = self.data.find(b"\t", start, end)
        if tab < 0:
            raise IndexFormatError(f"bad TERMS section for field {field!r}")
        name = self.data[start:tab]
        _text(name)
        if not name:
            raise IndexFormatError(f"terms out of order in field {field!r}")
        return name

    def postings(self, field: str, term: str) -> dict[int, int]:
        """Term frequency of ``term`` in ``field`` by ordinal, in ascending
        ordinal order; empty when the term does not occur.  The dict is
        kept for later calls, so callers must not modify it."""
        key = (field, term)
        if key not in self._decoded_postings:
            span = self.term_span(field, term)
            self._decoded_postings[key] = {} if span is None else self._postings_run(
                field, term, span)
        return self._decoded_postings[key]

    def _postings_run(self, field: str, term: str, span: tuple[str, str]) -> dict[int, int]:
        """The postings run of ``term`` in ``field``, at the ``span`` its
        TERMS line gives, decoded and checked: the span lies inside the
        field's runs (its POSTINGS section up to the final LF) and its
        length is a positive multiple of 4; the ordinals never descend and
        stay below the doc count."""
        start, size = _nat(span[0]), _nat(span[1])
        lo, hi = self._postings_spans[field]
        if not (lo <= start and start + size < hi and size and not size % 4):
            raise IndexFormatError(f"bad postings span for {term!r} in field {field!r}")
        ordinals = little_endian(array("I", self.data[start : start + size]))
        if ordinals[-1] >= self.n_docs or any(map(gt, ordinals, islice(ordinals, 1, None))):
            raise IndexFormatError(
                f"ordinals out of order or range for {term!r} in field {field!r}"
            )
        return Counter(ordinals)

    def verify(self) -> str:
        """Decode every part of the index, each checked as a read checks
        it, and say what was checked: every field's whole dictionary (its
        order and UTF-8), every postings run and that the runs tile their
        section in term order, the DOCS section whole, each offset of the
        DOCOFFSETS table against the line it should point at, and every
        DOCS line with its stored fields and coordinates.  The first fault
        raises."""
        n_terms = n_postings = 0
        for field in self.indexed_fields():
            terms = self.terms(field)
            at, hi = self._postings_spans[field]
            for term, span in terms.items():
                n_postings += len(self._postings_run(field, term, span))
                if int(span[0]) != at:
                    raise IndexFormatError(f"postings runs do not tile field {field!r}")
                at += int(span[1])
            if at != hi - 1:
                raise IndexFormatError(f"postings runs do not tile field {field!r}")
            n_terms += len(terms)
        self._doc_lines(range(self.n_docs))  # the section splits into its doc count
        data, w, at = self.data, self._width, self._docs_start
        for o in range(self.n_docs):
            if _nat(data[self._table + o * w : self._table + (o + 1) * w]) != at:
                raise IndexFormatError(f"bad DOCS offset for document {o}")
            at = data.index(b"\n", at) + 1
        for o in range(self.n_docs):
            self.doc(o)
        return f"{self.n_docs} documents, {n_terms} terms, {n_postings} postings"

    def _doc_line(self, o: int) -> str:
        """The DOCS line of ordinal ``o``, found through the offset table."""
        data, w = self.data, self._width
        at = self._table + o * w
        start = _nat(data[at : at + w])
        end = _nat(data[at + w : at + 2 * w]) if o + 1 < self.n_docs else self._docs_end
        if (
            not self._docs_start <= start < end <= self._docs_end
            or data[start - 1] != 0x0A
            or data.find(b"\n", start, end) != end - 1
        ):
            raise IndexFormatError(f"bad DOCS offset for document {o}")
        return _text(data[start : end - 1])

    def _doc_lines(self, ordinals: Sequence[int]) -> list[str]:
        """The DOCS lines of ``ordinals``: ref, doc_id, lat, lon, then the
        stored fields, tab-separated.  Lines are sought one by one through
        the offset table; for more than one document in sixteen, decoding
        the whole section in one pass is cheaper, and it is kept.  An
        ordinal outside the index raises on either path."""
        for o in ordinals:
            if not 0 <= o < self.n_docs:
                raise IndexFormatError(f"ordinal {o} out of range")
        if self._lines is None:
            if len(ordinals) * 16 <= self.n_docs:
                return [self._doc_line(o) for o in ordinals]
            lines = _text(self.data[self._docs_start : self._docs_end]).split("\n")
            if len(lines) != self.n_docs + 1:
                raise IndexFormatError("DOCS section disagrees with its doc count")
            self._lines = lines
        return [self._lines[o] for o in ordinals]

    def _doc_cells(
        self, ordinals: Sequence[int], split: int = -1, fault: str = "bad DOCS line"
    ) -> list[list[str]]:
        """The cells of the DOCS lines of ``ordinals``, each line split at
        its first ``split`` tabs (all by default).  A line has at least four
        cells, or all ``split + 1`` when fewer; a shorter one raises ``fault``."""
        rows = [line.split("\t", split) for line in self._doc_lines(ordinals)]
        least = 4 if split < 0 else min(4, split + 1)
        if any(len(cells) < least for cells in rows):
            raise IndexFormatError(fault)
        return rows

    def doc(self, o: int) -> DocEntry:
        fault = f"bad DOCS line for document {o}"
        [[ref, doc_id, lat, lon, *stored_cells]] = self._doc_cells([o], fault=fault)
        stored = {}
        for cell in stored_cells:
            name, sep, value = cell.partition("=")
            if not sep:
                raise IndexFormatError(f"bad stored field for document {o}")
            stored[name] = _unescape(value)
        return DocEntry(_unescape(doc_id), _unescape(ref), _geo(lat, lon, o), stored)

    def hits(self, ordinals: Sequence[int]) -> list[tuple[str, str]]:
        """(doc_id, ref) of each ordinal."""
        return [(_unescape(c[1]), _unescape(c[0])) for c in self._doc_cells(ordinals, 2)]

    def geos(self, ordinals: Sequence[int]) -> list[tuple[float, float] | None]:
        return [_geo(c[2], c[3], o) for o, c in zip(ordinals, self._doc_cells(ordinals, 4))]

    def find_ref(self, ref: str) -> DocEntry | None:
        """The first document whose ref is ``ref``: a byte search of the
        DOCS lines, which each start with their escaped ref."""
        needle = b"\n" + _escape(ref).encode("utf-8") + b"\t"
        at = self.data.find(needle, self._docs_start - 1, self._docs_end)
        if at < 0:
            return None
        return self.doc(self.data.count(b"\n", self._docs_start, at + 1))


class IndexBuild(Record):
    """What pass one of an index build keeps, for the encoder to write.

    ``relation`` is the source relation's text.  ``lines`` holds the DOCS
    lines in input order, one after the other, and ``starts`` where each
    begins, then where the last ends.  ``order`` lists the input positions
    by ordinal.  ``fields`` pairs each indexed field, in name order, with
    its raw words: each maps to the input position of its one occurrence,
    or to an ``array("I")`` of the position of each of its occurrences.
    Encoding empties the containers as it writes them, so a build is
    encoded once."""

    __slots__ = ("relation", "lines", "starts", "order", "fields")


def build_index(
    batches: Iterable[Batch],
    recipe: IngestRecipe,
    stored_whitelist: Iterable[str] | None = None,
) -> IndexBuild:
    """Pass one of an index build: read ``batches`` once into an
    ``IndexBuild``, whose ordinals follow ascending doc_id.

    Each row leaves only its encoded DOCS line and, per indexed field, its
    input position on the entry of each raw (white-space separated) word
    of the field, once per occurrence; words are folded into terms and
    term frequencies counted as the postings are encoded.  That gives the
    terms of ``tokenize`` because white space splits a text the same
    before folding as after: no white space code point is cased,
    case-ignorable or composes under NFC.  Ordinals are assigned after the
    pass, so the input may be in any order and is never held whole; a
    repeated doc id is found where they are assigned and raises
    IngestError here, before anything is written, naming the refs its
    first two rows' DOCS lines hold (``_doc_order``).  The refs are the
    item keys under the recipe's relation.
    ``stored_whitelist`` masks manifest field values for sources that only
    publish their index: non-whitelisted fields keep their name but store
    ``-``.  Postings are unaffected (published terms are the point).
    """
    allow = None if stored_whitelist is None else set(stored_whitelist)
    head = _escape(f"{recipe.source.source_id}/{recipe.source.table}/")
    fields = sorted(recipe.indexed)
    words: list[dict[str, int | array]] = [{} for _ in fields]  # raw word -> input position(s)
    ids: list[str] = []
    lines = bytearray()  # DOCS lines by input position
    starts = array("Q", [0])  # where each line starts, then the end of the last
    for batch in batches:
        first = len(ids)
        ids += batch.ids
        for line in _docs_lines(batch, head, allow):
            lines += line
            starts.append(len(lines))
        columns = dict(batch.fields, body=batch.body)
        for field, found in zip(fields, words):
            for pos, text in zip(count(first), columns.get(field, ())):
                if text:
                    for word in text.split():
                        at = found.get(word)
                        if at is None:
                            found[word] = pos
                        else:
                            try:
                                at.append(pos)
                            except AttributeError:  # the word's second occurrence
                                found[word] = array("I", (at, pos))

    def ref(p: int) -> str:
        return _unescape(lines[starts[p] : starts[p + 1]].partition(b"\t")[0].decode("utf-8"))

    order = _doc_order(ids, ref)
    return IndexBuild(recipe.source.text(), lines, starts, order, list(zip(fields, words)))


def _escape_column(col: Sequence[str | None]) -> Sequence[str | None]:
    """``_escape`` of each cell (None stays None).  One test of the
    joined cells finds whether any needs escaping; when none does, the
    column itself is returned."""
    joined = "".join(filter(None, col))
    if joined.isprintable() and "\\" not in joined:
        return col
    return [None if v is None else _escape(v) for v in col]


def _docs_lines(batch: Batch, head: str, allow: set[str] | None) -> list[bytes]:
    """The DOCS line of each row of a batch: ref (``head``, the escaped
    ref prefix, then the key), doc_id, lat, lon and the stored fields
    present (``-`` for a value ``allow`` masks), all made by one format."""
    fmt = [head.replace("%", "%%"), "%s\t%s\t"]
    cols = [_escape_column(batch.keys), _escape_column(batch.ids)]
    if batch.geo is None:
        fmt.append("-\t-")
    else:
        fmt.append("%s")
        cols.append(["-\t-" if g is None else "%r\t%r" % g for g in batch.geo])
    for name, col in batch.fields:
        if allow is not None and name not in allow:
            col = [None if v is None else "-" for v in col]
        tag = f"\t{name}="
        fmt.append("%s")
        cols.append(["" if v is None else tag + v for v in _escape_column(col)])
    fmt.append("\n")
    return list(map(str.encode, map("".join(fmt).__mod__, zip(*cols))))


# The encoder passes an image on in blocks of about this many bytes.
_BLOCK = 1 << 16


class _Blocks:
    """The bytes of an image as they are encoded.  ``buf`` takes them;
    ``spill`` passes what it holds to ``write`` and empties it, keeping
    the CRC-32 and the count of the bytes passed on.  The encoder spills
    once ``buf`` holds ``_BLOCK`` bytes, so ``write`` must copy what it
    keeps."""

    def __init__(self, write: Callable[[bytearray], object]):
        self.buf = bytearray()
        self.write = write
        self.crc = 0
        self.passed = 0

    def offset(self) -> int:
        return self.passed + len(self.buf)

    def spill(self) -> None:
        self.crc = zlib.crc32(self.buf, self.crc)
        self.passed += len(self.buf)
        self.write(self.buf)
        self.buf.clear()


def _encode(build: IndexBuild, write: Callable[[bytearray], object]) -> None:
    """Encode a build's image, passing it to ``write`` block by block in
    file order; each part of the build is released once it is written.
    The byte offsets that the DOCOFFSETS, TERMS and TOC sections record
    and the CRC-32 that the END line ends with are kept as the bytes go,
    so no block is held once it is passed on."""
    lines, starts, order = build.lines, build.starts, build.order
    n_docs = len(order)
    out = _Blocks(write)
    buf = out.buf
    buf += f"{INDEX_MAGIC} {build.relation}\n".encode("utf-8")
    sections = [out.offset()]
    buf += f"DOCS {n_docs}\n".encode("utf-8")
    at = out.offset()  # of the next DOCS line
    doc_offsets = array("Q")
    for p in order:
        doc_offsets.append(at)
        line = lines[starts[p] : starts[p + 1]]
        at += len(line)
        buf += line
        if len(buf) >= _BLOCK:
            out.spill()
    lines.clear()
    del starts[:]

    ordinal = [0] * n_docs  # input position -> ordinal
    for o, p in enumerate(order):
        ordinal[p] = o
    del order[:]
    n_terms = 0
    for field, words in build.fields:
        n_terms += _field_sections(out, sections, field, words, ordinal)

    width = len(str(at))  # at is the end of the DOCS lines
    sections.append(out.offset())
    buf += f"DOCOFFSETS {width}\n".encode("utf-8")
    buf += "".join([str(o).zfill(width) for o in doc_offsets]).encode("ascii") + b"\n"
    buf += ("TOC " + " ".join(map(str, sections)) + "\n").encode("ascii")
    out.spill()
    buf += f"END {n_docs} {n_terms} {out.crc:08x}\n".encode("ascii")
    out.spill()


def _field_sections(
    out: _Blocks, sections: list[int], field: str, words: dict[str, int | array],
    ordinal: list[int],
) -> int:
    """Encode a field's POSTINGS section (one run per term, in term order:
    its ordinals, ascending, each repeated tf times) and its TERMS section
    (the byte span of each run, from the lengths kept as the runs are
    written) into ``out``; records both header offsets in ``sections`` and
    returns the term count.

    ``words`` maps each raw word of the field to the input position of its
    occurrence or positions of its occurrences; it is emptied word by word
    as each is tokenized, once.  A term's occurrences are the positions of
    every word that yields it, as many times as it does, so its run is the
    sorted ordinals of those positions.  Each term keeps one slot: its
    word's own int or array while one word yields it, a list of them once a
    second does; the slot is let go as its run is written.  Runs go into
    ``out`` whole, gathered until a few thousand ordinals wait, and TERMS
    lines a few thousand at a time (``_RUN_CELLS``)."""
    pooled: dict[str, int | array | list[int | array]] = {}  # term -> its slot
    while words:
        word, at = words.popitem()
        for term in tokenize(word):
            slot = pooled.get(term)
            if slot is None:
                pooled[term] = at
            elif type(slot) is list:
                slot.append(at)
            else:  # the term's second word, or its word's second token of it
                pooled[term] = [slot, at]

    buf = out.buf
    sections.append(out.offset())
    buf += f"POSTINGS {field}\n".encode("utf-8")
    first = out.offset()  # of the first run
    sizes = array("Q")  # of each run, in bytes
    runs = array("I")  # ordinals of the runs not yet passed to ``buf``
    terms = sorted(pooled)
    for term in terms:
        slot = pooled.pop(term)
        if type(slot) is int:  # a single occurrence
            runs.append(ordinal[slot])
            sizes.append(4)
        else:
            parts = slot if type(slot) is list else (slot,)
            positions = chain.from_iterable((p,) if type(p) is int else p for p in parts)
            ords = sorted(map(ordinal.__getitem__, positions))
            runs.fromlist(ords)
            sizes.append(4 * len(ords))
        if len(runs) >= _RUN_CELLS:
            _pass_runs(out, runs)
    _pass_runs(out, runs)
    buf += b"\n"
    sections.append(out.offset())
    buf += f"TERMS {field} {len(terms)}\n".encode("utf-8")
    lines = map("%s\t%d\t%d\n".__mod__, zip(terms, accumulate(sizes, initial=first), sizes))
    while part := "".join(islice(lines, _RUN_CELLS)):
        buf += part.encode("utf-8")
        if len(buf) >= _BLOCK:
            out.spill()
    return len(terms)


# Runs go into the encoder's buffer, each whole, once this many ordinals
# wait; TERMS lines go in this many at a time.  So the runs and lines of
# the many terms found once go in a few thousand at a time, not one by
# one, and no dictionary is held whole as text.
_RUN_CELLS = 4096


def _pass_runs(out: _Blocks, runs: array) -> None:
    """Pass ``runs`` into ``out`` as little-endian bytes, and empty it."""
    out.buf += little_endian(runs)
    del runs[:]
    if len(out.buf) >= _BLOCK:
        out.spill()


def write_index(build: IndexBuild, path: str) -> None:
    """Publish a build's index at ``path`` atomically.  The image is
    written to the temp file as it is encoded, a block at a time; the
    written file is then checked as ``InvertedIndex`` checks an image
    (footer, checksum, section table and headers) before it replaces
    ``path``, and a fault raises IndexFormatError with ``path`` as it was."""
    import mmap  # here: only an index build maps its file

    def write(f: BinaryIO) -> None:
        _encode(build, f.write)
        f.flush()
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as written:
            InvertedIndex(written)

    write_atomic(path, write)


def read_index(path: str) -> InvertedIndex:
    """Open an index file.  Its bytes are read whole and checked against
    the footer and the checksum; the rest is decoded on demand."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise IndexFormatError(f"cannot read index: {e}") from e
    return InvertedIndex(data)

# --------------------------------------------------------------------------
# search

class SearchQuery(Record):
    __slots__ = ("terms", "field", "bbox", "limit")

    # bbox: (min lat, min lon, max lat, max lon)
    def __init__(self, terms: tuple[str, ...], field: str | None = None,
                 bbox: tuple[float, float, float, float] | None = None, limit: int | None = None):
        if not terms and bbox is None:
            raise ValueError("search needs at least one term or a bbox")
        if bbox is not None:
            if not all(math.isfinite(v) for v in bbox):
                raise ValueError(f"bbox values must be finite numbers, got {bbox!r}")
            min_lat, min_lon, max_lat, max_lon = bbox
            if min_lat > max_lat or min_lon > max_lon:
                raise ValueError("bbox minimum exceeds maximum")
        if limit is not None and limit < 1:
            raise ValueError("limit must be positive")
        Record.__init__(self, terms, field, bbox, limit)


class Hit(NamedTuple):
    doc_id: str
    ref: str
    score: int


def search(index: InvertedIndex, q: SearchQuery) -> list[Hit]:
    """Conjunctive term search with tf-sum ranking.

    A document is a candidate when it contains every query term — in the
    restricted field if one is given, in any indexed field otherwise — and
    lies inside the bbox when one is given (boundary inclusive).  Hits are
    ordered by score descending, then doc_id ascending.  Postings are
    decoded for the query terms only, and DOCS lines for the returned hits
    and, with a bbox, the candidates.  A restriction to a field the index
    does not have raises NotFound naming the indexed fields.
    """
    fields = index.indexed_fields()
    if q.field is not None:
        if q.field not in fields:
            raise NotFound(
                f"index has no field {q.field!r}; indexed fields: {', '.join(fields)}"
            )
        fields = [q.field]

    scores: dict[int, int] | None = None
    if q.terms:
        if not fields:
            return []
        for term in q.terms:
            tf_by_doc: Counter[int] = Counter()
            for f in fields:
                tf_by_doc.update(index.postings(f, term))
            if scores is None:
                scores = tf_by_doc
            else:
                scores = {
                    o: s + tf_by_doc[o] for o, s in scores.items() if o in tf_by_doc
                }
            if not scores:
                return []
    else:
        scores = dict.fromkeys(range(index.n_docs), 0)

    if q.bbox is not None:
        min_lat, min_lon, max_lat, max_lon = q.bbox
        candidates = list(scores)
        scores = {
            o: scores[o]
            for o, geo in zip(candidates, index.geos(candidates))
            if geo is not None and min_lat <= geo[0] <= max_lat and min_lon <= geo[1] <= max_lon
        }

    # Ordinals ascend with doc_id, so ranking by (-score, ordinal) orders
    # hits by score, then doc_id.  The full sort is stable: ordinals sorted
    # first keep their order among equal scores.
    if q.limit is None:
        ranked = sorted(sorted(scores), key=scores.__getitem__, reverse=True)
    else:
        ranked = heapq.nsmallest(q.limit, scores, key=lambda o: (-scores[o], o))
    return [
        Hit(doc_id, ref, scores[o])
        for o, (doc_id, ref) in zip(ranked, index.hits(ranked))
    ]
