"""The column image of a vault snapshot: every table's checked, decoded
cells, written once at registration (by :mod:`vdc.colwriter`), from which
the vault's scans and lookups read.

The image is one file, ``vdc.cols``, beside the snapshot's files; a table's
files are those its handle's ``files(table)`` lists, a tabular table's
``.csv`` file or a corpus's documents in sorted order.  Its layout is PAX
(Ailamaki et al., VLDB 2001): after one directory, each table's rows are
cut into row groups of ``GROUP_ROWS`` rows, and each row group stores its
columns one after the other as chunks.  Every chunk is dictionary coded
(Abadi, Madden and Ferreira, SIGMOD 2006): the chunk's distinct cells, null
among them, then one uint16 code per row.  A scan therefore tests a pushed
predicate once per dictionary entry, not once per row, and decodes the
other columns only for the rows that pass.  A date text chunk also stores
its entries' days, parsed at registration; decoding it seeds the process's
coercion memo (:data:`vdc.model.DATE_MEMO`), so no query parses them.

All integers are little-endian.  The file is::

    "VDCCOLS\\n"  version u32  directory length u32
    directory
    crc32 u32 of every byte above
    chunks, in directory order

The directory holds a table count (u32) and, for each table: its name (u32
length, then UTF-8 bytes), its file count (u32), each file's size (u64),
each file's CRC-32 (u32), its row count (u64), its column count (u32) and
each column's kind (u8: 0 text, 1 int, 2 date text) and name (u32 length,
UTF-8), then each of its chunks' length and CRC-32 (two u32), group by
group and column by column.  The chunks lie in that order, table by table, so each chunk's
offset is the sum of the lengths before it and the file ends at the last
one.

A chunk is its encoding (u8: 0 text, 1 int64, as its column's kind), its
entry count (u16), the code of its null entry (u16, 0xFFFF when it has
none), the entries, and the group's codes (uint16 each).  Int64 entries
are int64s; text entries are the code-point offsets (u32, entry count + 1)
of each entry in a UTF-8 text that follows them.  The null entry is an
empty text, or the int 0.  A date text chunk's text is followed by two
int64 arrays, each entry's earliest day, then each entry's latest day; the
reversed pair ``NO_DATE`` marks a text that does not parse.  Every cell
int and every date's days are int64s (see :mod:`vdc.model`), so an image
holds every value it is given.

A vault is checked where it is read.  Opening the image checks its
directory (CRC-32, version, the file's size, and each table's schema
against its source's); a scan checks the CRC-32 of each chunk it reads; a
lookup checks each of the table's files against its size and CRC-32 and
every chunk of the table.  A fault is an IntegrityError naming the file (a
changed file, or the snapshot directory of a corpus that gained or lost a
document), and so is a snapshot without an image or with an image of
another version: a vault is read from its image or not at all.
"""

from __future__ import annotations

import operator
import os
import struct
import zlib
from array import array
from itertools import accumulate, compress, pairwise, repeat
from typing import Iterable, Iterator, Sequence

from .connectors import SourceHandle
from .errors import IntegrityError
from .model import (
    DATE_MEMO,
    ColumnDescriptor,
    ColumnKind,
    Record,
    Row,
    TableSchema,
    UncertainDate,
    int64,
    little_endian,
)
from .predicates import holds

IMAGE = "vdc.cols"
GROUP_ROWS = 4096
VERSION = 3
# a date text entry's stored days when the text does not parse; a valid
# interval never has earliest > latest
NO_DATE = (1, 0)

# the layout, shared with vdc.colwriter
_MAGIC = b"VDCCOLS\n"
_HEAD = struct.Struct("<8sII")  # magic, version, directory length
_TABLE = struct.Struct("<QI")  # rows, columns
_CHUNK = struct.Struct("<BHH")  # encoding, entries, null code
_NO_NULL = 0xFFFF
_TEXT, _INT64 = 0, 1
# a column's kind byte: text, int, date text
_KINDS = (
    (ColumnKind.TEXT, False),
    (ColumnKind.INT, False),
    (ColumnKind.TEXT, True),
)


def _array(typecode: str, data: bytes) -> array:
    """A little-endian array of ``typecode`` read from ``data``."""
    return little_endian(array(typecode, data))


def _file_crc(path: str) -> tuple[int, int]:
    """(size, CRC-32) of a file."""
    size = crc = 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            size += len(block)
            crc = zlib.crc32(block, crc)
    return size, crc


# --------------------------------------------------------------------------
# reading


class _Table:
    """One table's entry in the directory."""

    def __init__(self, schema: TableSchema, files: list[tuple[int, int]], rows: int,
                 chunks: array, start: int):
        self.schema = schema
        self.files = files  # each file's (size, CRC-32)
        self.rows = rows
        self.width = len(schema.columns)
        self.groups = -(-rows // GROUP_ROWS)
        if len(chunks) != 2 * self.groups * self.width:
            raise ValueError("chunk count does not match the row count")
        self.lengths = chunks[0::2]
        self.crcs = chunks[1::2]
        self.offsets = list(accumulate(self.lengths, initial=start))

    def group_rows(self, g: int) -> int:
        return min(GROUP_ROWS, self.rows - g * GROUP_ROWS)


class ColumnImage(Record):
    """A vault's column image, its directory read and checked, and each table's files."""

    __slots__ = ("path", "tables", "files")

    def _fail(self, what: str) -> IntegrityError:
        return IntegrityError(f"column image is damaged: {what} [{self.path}]")

    def _chunk(self, f, t: _Table, g: int, column: int) -> bytes:
        """The bytes of one chunk, checked against its CRC-32."""
        i = g * t.width + column
        f.seek(t.offsets[i])
        data = f.read(t.lengths[i])
        if len(data) != t.lengths[i] or zlib.crc32(data) != t.crcs[i]:
            raise self._fail(f"chunk {column} of row group {g} of table {t.schema.name!r}")
        return data

    def _decode(
        self, data: bytes, t: _Table, g: int, column: int, rows: Iterable[int] | None = None
    ) -> tuple[list | dict, array]:
        """(dictionary, codes) of a checked chunk; with ``rows``, positions
        in the group, the dictionary is a dict of just their entries.  A
        chunk whose structure does not hold raises, though its CRC-32
        matched.  The stored days of a date text chunk's decoded entries
        seed :data:`vdc.model.DATE_MEMO`, so a view's coercion of them
        parses nothing."""
        size = t.group_rows(g)
        try:
            encoding, n, null = _CHUNK.unpack_from(data)
            at = _CHUNK.size
            end = len(data) - 2 * size
            codes = _array("H", data[end:])
            if end < at or len(codes) != size or (size and max(codes) >= n) \
                    or (null != _NO_NULL and null >= n):
                raise ValueError("bad codes")
            col = t.schema.columns[column]
            kind = col.kind
            if encoding != (_INT64 if kind is ColumnKind.INT else _TEXT):
                raise ValueError(f"encoding {encoding} in a column of kind {kind}")
            if encoding == _INT64:
                if at + 8 * n != end:
                    raise ValueError("bad int64 entries")
                values = _array("q", data[at:end]).tolist()
                if null != _NO_NULL and values[null] != 0:
                    raise ValueError("the null entry is not 0")
            else:
                text_at, days_at = at + 4 * (n + 1), end - 16 * n if col.date_text else end
                if days_at < text_at:
                    raise ValueError("bad date arrays")
                offsets = _array("I", data[at:text_at]).tolist()
                text = data[text_at:days_at].decode("utf-8")
                if len(offsets) != n + 1 or offsets[0] != 0 or offsets[-1] != len(text) \
                        or offsets != sorted(offsets):
                    raise ValueError("bad text offsets")
                if null != _NO_NULL and offsets[null] != offsets[null + 1]:
                    raise ValueError("the null entry is not empty")
                only = range(n) if rows is None else {codes[r] for r in rows}
                if rows is None:
                    values = [text[a:b] for a, b in pairwise(offsets)]
                else:
                    values = {c: text[offsets[c]:offsets[c + 1]] for c in only}
                if col.date_text:
                    _seed_dates(values, only, _array("q", data[days_at:end]), n)
            if null != _NO_NULL:
                values[null] = None
        except (ValueError, IndexError, struct.error) as e:
            raise self._fail(f"chunk {column} of row group {g} of table {t.schema.name!r}: {e}") from e
        return values, codes

    def _read(self, f, t: _Table, g: int, column: int) -> tuple[list, array]:
        return self._decode(self._chunk(f, t, g, column), t, g, column)

    def _open(self):
        try:
            return open(self.path, "rb")
        except OSError as e:
            raise IntegrityError(f"cannot read column image: {e} [{self.path}]") from e

    def scan(self, table: str, pushed: Sequence, columns: Iterable[int] | None) -> Iterator[Row]:
        """The rows of ``table`` that satisfy every ``pushed`` predicate, in
        file order, as a scan of the files gives them: the cells at
        positions ``columns`` (all, when None) are filled and every other
        cell is None.  Row group by row group, each predicate is tested
        once per entry of its column's dictionary, and only the chunks of
        the predicates' columns and, where a row passes, of ``columns`` are
        read."""
        t = self.tables[table]
        wanted = range(t.width) if columns is None else sorted(set(columns))
        with self._open() as f:
            for g in range(t.groups):
                read: dict[int, tuple[list, array]] = {}
                passing: list[int] | None = None  # None: every row
                for p in pushed:
                    if p.index not in read:
                        read[p.index] = self._read(f, t, g, p.index)
                    values, codes = read[p.index]
                    ok = [holds(p, v) for v in values]
                    if passing is None:
                        passing = list(compress(range(len(codes)), map(ok.__getitem__, codes)))
                    else:
                        passing = list(compress(passing, [ok[codes[r]] for r in passing]))
                    if not passing:
                        break
                if passing == []:
                    continue
                count = t.group_rows(g) if passing is None else len(passing)
                if not wanted:
                    yield from repeat((None,) * t.width, count)
                    continue
                cells: list = [repeat(None)] * t.width
                for i in wanted:
                    if i in read:
                        values, codes = read[i]
                    else:  # the entries of the passing rows alone
                        values, codes = self._decode(self._chunk(f, t, g, i), t, g, i, passing)
                    if passing is None:
                        cells[i] = map(values.__getitem__, codes)
                    else:
                        cells[i] = [values[codes[r]] for r in passing]
                yield from zip(*cells)

    def _groups(self, f, t: _Table) -> Iterator[list[bytes]]:
        """Every row group's chunks, each checked against its CRC-32."""
        for g in range(t.groups):
            yield [self._chunk(f, t, g, c) for c in range(t.width)]

    def _check_files(self, t: _Table) -> None:
        """Each of the table's files against its size and CRC-32 in the
        directory; a fault names the file, or the snapshot directory when
        the table has another number of files."""
        files = self.files[t.schema.name]
        if len(files) != len(t.files):
            raise IntegrityError(f"table {t.schema.name!r} has {len(files)} files, not "
                                 f"{len(t.files)} as in the column image {self.path} "
                                 f"[{os.path.dirname(self.path)}]")
        for path, expected in zip(files, t.files):
            try:
                found = _file_crc(path)
            except OSError as e:
                raise IntegrityError(f"cannot read table: {e} [{path}]") from e
            if found != expected:
                raise IntegrityError(f"table file differs from the column image {self.path} [{path}]")

    def lookup(self, table: str, item_ids: Iterable[str]) -> dict[str, Row]:
        """The first row of each of ``item_ids`` that is a key of ``table``
        (see :func:`vdc.connectors.row_item_key`); the handle has already
        kept only the refable keys.

        Each of the table's files is checked against its size and CRC-32
        in the directory, and every chunk of the table against its CRC-32,
        so a lookup fails on any change to the vault's copy of the table."""
        t = self.tables[table]
        self._check_files(t)
        int_keys = t.schema.columns[0].kind is ColumnKind.INT
        targets = {}  # key cell -> key
        for key in item_ids:
            cell = _key_cell(key, int_keys)
            if cell is not None:
                targets[cell] = key
        found: dict[str, Row] = {}
        with self._open() as f:
            for g, chunks in enumerate(self._groups(f, t)):
                if len(found) == len(targets):
                    continue  # the rest is read for its checks alone
                keys, key_codes = self._decode(chunks[0], t, g, 0)
                hits = {}  # key -> its first row in the group
                for cell in targets.keys() & set(keys):
                    if targets[cell] not in found:
                        hits[targets[cell]] = key_codes.index(keys.index(cell))
                if hits:
                    rows = sorted(hits.values())
                    group = [self._decode(data, t, g, i, rows) for i, data in enumerate(chunks)]
                    for key, r in hits.items():
                        found[key] = tuple(values[codes[r]] for values, codes in group)
        return found

    def verify(self) -> int:
        """Check every table file against the directory's size and CRC-32
        and every chunk against its CRC-32, table by table; the first that
        differs raises, naming its file.  Returns the number of chunks."""
        n = 0
        with self._open() as f:
            for t in self.tables.values():
                self._check_files(t)
                for chunks in self._groups(f, t):
                    n += len(chunks)
        return n


def _seed_dates(values: list | dict, only: Iterable[int], days: array, n: int) -> None:
    """Check a date text chunk's stored days (each entry's earliest, then
    each entry's latest) and put the dates of the ``only`` entries of
    ``values`` into :data:`vdc.model.DATE_MEMO`, where it has none."""
    earliest, latest = days[:n], days[n:]
    for c in compress(range(n), map(operator.gt, earliest, latest)):
        if (earliest[c], latest[c]) != NO_DATE:
            raise ValueError(f"entry {c} has reversed days that are not NO_DATE")
    memo = DATE_MEMO
    for c in only:
        text = values[c]
        if text not in memo:
            lo, hi = earliest[c], latest[c]
            memo[text] = UncertainDate(lo, hi) if lo <= hi else None


def _key_cell(key: str, int_column: bool) -> int | str | None:
    """The key cell whose text (see :func:`vdc.model.cell_text`) is
    ``key``, or None when no cell prints as it."""
    if not int_column:
        return key
    cell = int64(key)
    return cell if cell is not None and str(cell) == key else None


def open_image(handle: SourceHandle) -> ColumnImage:
    """The column image of the vault snapshot ``handle`` reads, with its
    directory checked.  A snapshot without one (a vault registered before
    images were written, or an image since deleted) is refused: the source
    is to be added again."""
    path = os.path.join(handle.path, IMAGE)
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(_HEAD.size)
            magic, version, length = _HEAD.unpack(head) if len(head) == _HEAD.size else (b"", 0, 0)
            body = f.read(length + 4) if magic == _MAGIC else b""
    except FileNotFoundError:
        raise IntegrityError(
            f"vault snapshot has no column image; add the source again [{path}]"
        ) from None
    except OSError as e:
        raise IntegrityError(f"cannot read column image: {e} [{path}]") from e
    if magic != _MAGIC or len(body) != length + 4:
        raise IntegrityError(f"column image is damaged: bad header [{path}]")
    if zlib.crc32(head + body[:length]) != struct.unpack("<I", body[length:])[0]:
        raise IntegrityError(f"column image is damaged: directory checksum [{path}]")
    if version != VERSION:
        raise IntegrityError(
            f"column image has version {version}, not {VERSION}; add the source again [{path}]"
        )
    try:
        tables = _directory(body[:length], len(head) + len(body))
        end = max(t.offsets[-1] for t in tables.values()) if tables else len(head) + len(body)
    except (ValueError, IndexError, struct.error) as e:
        raise IntegrityError(f"column image is damaged: directory: {e} [{path}]") from e
    if end != size:
        raise IntegrityError(f"column image is damaged: {size} bytes, not {end} [{path}]")
    schemas = {s.name: s for s in handle.list_tables()}
    if {name: t.schema for name, t in tables.items()} != schemas:
        raise IntegrityError(f"column image does not match the tables' sidecars [{path}]")
    return ColumnImage(path, tables, {name: handle.files(name) for name in tables})


def _directory(data: bytes, start: int) -> dict[str, _Table]:
    """The tables of a directory whose CRC-32 matched; chunks start at
    ``start``."""
    at = 0

    def name() -> str:
        nonlocal at
        (n,) = struct.unpack_from("<I", data, at)
        at += 4 + n
        if at > len(data):
            raise ValueError("a name runs past the directory")
        return data[at - n:at].decode("utf-8")

    (count,) = struct.unpack_from("<I", data)
    at = 4
    tables: dict[str, _Table] = {}
    for _ in range(count):
        table = name()
        (n_files,) = struct.unpack_from("<I", data, at)
        at += 4 + 12 * n_files
        if at > len(data):
            raise ValueError("a file list runs past the directory")
        sizes = _array("Q", data[at - 12 * n_files:at - 4 * n_files])
        crcs = _array("I", data[at - 4 * n_files:at])
        rows, width = _TABLE.unpack_from(data, at)
        at += _TABLE.size
        columns = []
        for _ in range(width):
            kind, date_text = _KINDS[data[at]]
            at += 1
            columns.append(ColumnDescriptor(name(), kind, date_text))
        n = 2 * -(-rows // GROUP_ROWS) * width
        chunks = _array("I", data[at:at + 4 * n])
        at += 4 * n
        t = _Table(TableSchema(table, tuple(columns)), list(zip(sizes, crcs)), rows, chunks, start)
        tables[table] = t
        start = t.offsets[-1]
    if at != len(data):
        raise ValueError("the directory does not end where its tables do")
    return tables
