"""The column image of a vault snapshot: every table's checked, decoded
cells, written once at registration, from which the vault's scans and
lookups read.

The image is one file, ``vdc.cols``, beside the snapshot's files; a table's
files are those its handle's ``files(table)`` lists, a tabular table's
``.csv`` file or a corpus's documents in sorted order.  Its layout is PAX
(Ailamaki et al., VLDB 2001): after one directory, each table's rows are
cut into row groups of ``GROUP_ROWS`` rows, and each row group stores its
columns one after the other as chunks.  Every chunk is dictionary coded
(Abadi, Madden and Ferreira, SIGMOD 2006): the chunk's distinct cells, null
among them, then one uint16 code per row.  A scan therefore tests a pushed
predicate once per dictionary entry, not once per row, and decodes the
other columns only for the rows that pass.

All integers are little-endian.  The file is::

    "VDCCOLS\\n"  version u32  directory length u32
    directory
    crc32 u32 of every byte above
    chunks, in directory order

The directory holds a table count (u32) and, for each table: its name (u32
length, then UTF-8 bytes, with the undecodable bytes of a file name as they
were), the size (u64) and CRC-32 (u32) of its files read one after another,
its row count (u64), its column count (u32) and each column's kind (u8: 0
text, 1 int, 2 date text) and name (u32 length, UTF-8), then each of its
chunks' length and CRC-32 (two u32), group by group and column by column.
The chunks lie in that order, table by table, so each chunk's offset is the
sum of the lengths before it and the file ends at the last one.

A chunk is its encoding (u8: 0 text, 1 int64, 2 decimal text, for an int
chunk with a value outside int64), its entry count (u16), the code of its
null entry (u16, 0xFFFF when it has none), the entries, and the group's
codes (uint16 each).  Int64 entries are int64s; text and decimal entries
are the code-point offsets (u32, entry count + 1) of each entry in a UTF-8
text that follows them.  The null entry is an empty text, or the int 0.

A vault is checked where it is read.  Opening the image checks its
directory (CRC-32, version, the file's size, and each table's schema
against its source's); a scan checks the CRC-32 of each chunk it reads; a
lookup checks the table's files against the directory's size and CRC-32
and every chunk of the table.  A fault is an IntegrityError naming the
file (a table's one file, or else the snapshot directory), and so is a
snapshot without an image: a vault is read from its image or not at all.
An image written under a higher int-string limit than the reading
process's may hold a decimal entry of more digits than ``int()`` then
converts; decoding it raises the SourceError a scan of the table raises
for such a cell, naming the table's file, not a fault of the image.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from array import array
from functools import reduce
from itertools import accumulate, compress, islice, pairwise, repeat
from typing import Iterable, Iterator, Sequence

from .connectors import SourceHandle
from .errors import IntegrityError, SourceError
from .model import (
    ColumnDescriptor,
    ColumnKind,
    Record,
    Row,
    TableSchema,
    int_digit_limit,
    over_digit_limit,
)
from .predicates import holds

IMAGE = "vdc.cols"
GROUP_ROWS = 4096
VERSION = 1

_MAGIC = b"VDCCOLS\n"
_HEAD = struct.Struct("<8sII")  # magic, version, directory length
_TABLE = struct.Struct("<QIQI")  # file size, file crc32, rows, columns
_CHUNK = struct.Struct("<BHH")  # encoding, entries, null code
_NO_NULL = 0xFFFF
_TEXT, _INT64, _DECIMAL = 0, 1, 2
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
# a column's kind byte: text, int, date text
_KINDS = (
    (ColumnKind.TEXT, False),
    (ColumnKind.INT, False),
    (ColumnKind.TEXT, True),
)


def _array(typecode: str, data=b"") -> array:
    """A little-endian array of ``typecode`` read from ``data``."""
    a = array(typecode, data)
    if sys.byteorder == "big":
        a.byteswap()
    return a


def _le(a: array) -> bytes:
    if sys.byteorder == "big":
        a = array(a.typecode, a)
        a.byteswap()
    return a.tobytes()


def _name(text: str) -> bytes:
    data = text.encode("utf-8", "surrogateescape")
    return struct.pack("<I", len(data)) + data


# --------------------------------------------------------------------------
# writing


def write(snapshot: SourceHandle, original: str) -> None:
    """Scan every table of ``snapshot`` (a full, checked decode) and write
    its image beside them; a fault of a table names the original's file."""
    schemas = snapshot.list_tables()
    directory = [struct.pack("<I", len(schemas))]
    chunks: list[bytes] = []
    for schema in schemas:
        kinds = [c.kind for c in schema.columns]
        table_chunks = array("I")
        rows = 0
        scan = snapshot.scan(schema.name)
        try:
            for group in iter(lambda: list(islice(scan, GROUP_ROWS)), []):
                for kind, cells in zip(kinds, zip(*group)):
                    chunk = _encode(cells, kind)
                    chunks.append(chunk)
                    table_chunks += array("I", (len(chunk), zlib.crc32(chunk)))
                rows += len(group)
        except SourceError as e:
            named = os.path.join(original, os.path.basename(e.path))
            raise SourceError(e.message, path=named, line=e.line) from e
        size, crc = _files_crc(snapshot.files(schema.name))
        directory += [_name(schema.name), _TABLE.pack(size, crc, rows, len(schema.columns))]
        for c in schema.columns:
            directory += [bytes((_KINDS.index((c.kind, c.date_text)),)), _name(c.name)]
        directory.append(_le(table_chunks))
    body = b"".join(directory)
    head = _HEAD.pack(_MAGIC, VERSION, len(body)) + body
    with open(os.path.join(snapshot.path, IMAGE), "wb") as f:
        f.write(head + struct.pack("<I", zlib.crc32(head)))
        f.writelines(chunks)


def _encode(cells: Sequence, kind: ColumnKind) -> bytes:
    """One chunk: the dictionary of ``cells`` and each cell's code."""
    index: dict = {}
    codes = array("H", [index.setdefault(v, len(index)) for v in cells])
    entries = list(index)
    null = index.get(None, _NO_NULL)
    if kind is ColumnKind.INT and all(_INT64_MIN <= v <= _INT64_MAX for v in entries if v is not None):
        encoding = _INT64
        values = _le(array("q", [0 if v is None else v for v in entries]))
    else:
        encoding = _DECIMAL if kind is ColumnKind.INT else _TEXT
        texts = ["" if v is None else str(v) for v in entries]
        offsets = array("I", accumulate(map(len, texts), initial=0))
        values = _le(offsets) + "".join(texts).encode("utf-8")
    return _CHUNK.pack(encoding, len(entries), null) + values + _le(codes)


def _file_crc(path: str, size: int = 0, crc: int = 0) -> tuple[int, int]:
    """(size, CRC-32) of ``size`` bytes of CRC-32 ``crc``, then a file."""
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            size += len(block)
            crc = zlib.crc32(block, crc)
    return size, crc


def _files_crc(paths: Sequence[str]) -> tuple[int, int]:
    """(size, CRC-32) of files read one after another."""
    return reduce(lambda running, path: _file_crc(path, *running), paths, (0, 0))


# --------------------------------------------------------------------------
# reading


class _Table:
    """One table's entry in the directory."""

    def __init__(self, schema: TableSchema, size: int, crc: int, rows: int, chunks: array, start: int):
        self.schema = schema
        self.size = size
        self.crc = crc
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
        matched."""
        size = t.group_rows(g)
        try:
            encoding, n, null = _CHUNK.unpack_from(data)
            at = _CHUNK.size
            end = len(data) - 2 * size
            codes = _array("H", data[end:])
            if end < at or len(codes) != size or (size and max(codes) >= n) \
                    or (null != _NO_NULL and null >= n):
                raise ValueError("bad codes")
            kind = t.schema.columns[column].kind
            if encoding not in ((_INT64, _DECIMAL) if kind is ColumnKind.INT else (_TEXT,)):
                raise ValueError(f"encoding {encoding} in a column of kind {kind}")
            if encoding == _INT64:
                if at + 8 * n != end:
                    raise ValueError("bad int64 entries")
                values = _array("q", data[at:end]).tolist()
                if null != _NO_NULL and values[null] != 0:
                    raise ValueError("the null entry is not 0")
            else:
                offsets = _array("I", data[at:at + 4 * (n + 1)]).tolist()
                text = data[at + 4 * (n + 1):end].decode("utf-8")
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
                if encoding == _DECIMAL:
                    limit = int_digit_limit()
                    for c in only:
                        v = values[c]
                        if len(v) > limit and len(v.lstrip("-")) > limit:
                            # written under a higher limit: the scan's fault, not damage
                            name = t.schema.columns[column].name
                            raise SourceError(f"{over_digit_limit('int', v)} in column {name!r}",
                                              path=self.files[t.schema.name][0])
                        values[c] = int(v) if v else None
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

    def _check_file(self, t: _Table) -> None:
        files = self.files[t.schema.name]
        path = files[0] if len(files) == 1 else os.path.dirname(self.path)
        try:
            size, crc = _files_crc(files)
        except OSError as e:
            raise IntegrityError(f"cannot read table: {e} [{path}]") from e
        if (size, crc) != (t.size, t.crc):
            raise IntegrityError(f"table file differs from the column image {self.path} [{path}]")

    def lookup(self, table: str, item_ids: Iterable[str]) -> dict[str, Row]:
        """The first row of each of ``item_ids`` that is a key of ``table``
        (see :func:`vdc.connectors.row_item_key`); the handle has already
        kept only the refable keys.

        The table's file is checked against the directory's size and
        CRC-32, and every chunk of the table against its CRC-32, so a
        lookup fails on any change to the vault's copy of the table."""
        t = self.tables[table]
        self._check_file(t)
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
                self._check_file(t)
                for chunks in self._groups(f, t):
                    n += len(chunks)
        return n


def _key_cell(key: str, int_column: bool) -> int | str | None:
    """The key cell whose text (see :func:`vdc.model.cell_text`) is
    ``key``, or None when no cell prints as it.  A key of more digits than
    ``int()`` converts stays text: it matches no int cell, but the key
    chunks are decoded, so an image that holds such a cell fails the
    lookup as a scan fails."""
    if not int_column:
        return key
    try:
        cell = int(key)
    except ValueError:
        return key if len(key) > int_digit_limit() else None
    return cell if str(cell) == key else None


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
        raise IntegrityError(f"column image has unsupported version {version} [{path}]")
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
        return data[at - n:at].decode("utf-8", "surrogateescape")

    (count,) = struct.unpack_from("<I", data)
    at = 4
    tables: dict[str, _Table] = {}
    for _ in range(count):
        table = name()
        size, crc, rows, width = _TABLE.unpack_from(data, at)
        at += _TABLE.size
        columns = []
        for _ in range(width):
            kind, date_text = _KINDS[data[at]]
            at += 1
            columns.append(ColumnDescriptor(name(), kind, date_text))
        n = 2 * -(-rows // GROUP_ROWS) * width
        chunks = _array("I", data[at:at + 4 * n])
        at += 4 * n
        t = _Table(TableSchema(table, tuple(columns)), size, crc, rows, chunks, start)
        tables[table] = t
        start = t.offsets[-1]
    if at != len(data):
        raise ValueError("the directory does not end where its tables do")
    return tables
