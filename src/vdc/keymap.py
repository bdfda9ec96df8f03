"""The key map of a tabular vault snapshot, which lets a lookup read only
the records it returns.

For each table whose name can be a ref's container, the map holds the size
and CRC-32 of the table's file and the byte span of the first record of
each key a ref can name (the record's ``row_item_key``).  It is written
once, into the snapshot before the rename that publishes it, and never
changed.  The file is LF lines::

    VDCKEYS 1
    TABLE<TAB><table><TAB><file size><TAB><file crc32><TAB><bytes of its key lines>
    <key><TAB><record offset><TAB><record length>    (one per key, in file order)
    ...                                            (the next TABLE line and its keys)
    END <crc32 of all preceding bytes>

Each crc32 is 8 lowercase hex digits.  A key holds no tab or line break (as
a ref cannot), so a key's line is found by a byte search of its table's
lines, as ``InvertedIndex.find_ref`` finds a DOCS line.
"""

from __future__ import annotations

import os
import re
import zlib
from typing import Sequence

from .connectors import TabularSource, read_record, record_spans, row_item_key
from .errors import IntegrityError, SourceError
from .model import Row, TableSchema, refable

KEY_MAP = "vdc.keymap"

_MAGIC = b"VDCKEYS 1\n"
_TABLE_RE = re.compile(rb"TABLE\t([^\t\n]+)\t([0-9]+)\t([0-9a-f]{8})\t([0-9]+)\n")
_SPAN_RE = re.compile(rb"([0-9]+)\t([0-9]+)")
_FOOTER_RE = re.compile(rb"END ([0-9a-f]{8})\n")
_FOOTER_LEN = len(b"END 00000000\n")


def write(snapshot: TabularSource, original: str) -> None:
    """Check every record of the snapshot's tables as a scan does, and
    write their key map beside them; a fault names the original's file."""
    out = bytearray(_MAGIC)
    for schema in snapshot.list_tables():
        data = snapshot.read_table(schema.name)
        named = os.path.join(original, os.path.basename(snapshot.table_path(schema.name)))
        first: dict[str, str] = {}
        for key, offset, length in record_spans(data, schema, named):
            if key not in first and refable(key):
                first[key] = f"{key}\t{offset}\t{length}\n"
        if refable(schema.name):
            lines = "".join(first.values()).encode("utf-8")
            head = f"TABLE\t{schema.name}\t{len(data)}\t{zlib.crc32(data):08x}\t{len(lines)}\n"
            out += _encode(head) + lines
    out += b"END %08x\n" % zlib.crc32(out)
    with open(os.path.join(snapshot.path, KEY_MAP), "wb") as f:
        f.write(out)


def lookup(
    vault: str, handle: TabularSource, schema: TableSchema, item_ids: Sequence[str]
) -> dict[str, Row] | None:
    """The row of each item id of ``schema``'s table that has a key line,
    or None for a vault without a key map (one registered before them).

    The map's footer and checksum are checked, and the table's file is read
    once and checked against the map's size and CRC-32; each record read
    is checked as a scan checks it, and against its key.  Any failure is an
    IntegrityError naming the file.
    """
    path = os.path.join(vault, KEY_MAP)
    try:
        with open(path, "rb") as f:
            key_map = f.read()
    except FileNotFoundError:
        return None
    except OSError as e:
        raise IntegrityError(f"cannot read key map: {e} [{path}]") from e
    foot = len(key_map) - _FOOTER_LEN
    m = _FOOTER_RE.fullmatch(key_map, foot) if foot >= len(_MAGIC) else None
    if not m or not key_map.startswith(_MAGIC) or zlib.crc32(key_map[:foot]) != int(m[1], 16):
        raise IntegrityError(f"key map is damaged (bad header, footer or checksum) [{path}]")
    size, crc, start, end = _section(key_map, foot, schema.name, path)
    table_path = handle.table_path(schema.name)
    data = handle.read_table(schema.name)
    if len(data) != size or zlib.crc32(data) != crc:
        raise IntegrityError(f"table file differs from the key map {path} [{table_path}]")
    found: dict[str, Row] = {}
    for key in item_ids:
        if key in found or not refable(key):
            continue
        needle = b"\n" + _encode(key) + b"\t"
        at = key_map.find(needle, start - 1, end)
        if at < 0:
            continue
        span = _SPAN_RE.fullmatch(key_map, at + len(needle), key_map.find(b"\n", at + 1, end))
        try:
            if not span:
                raise SourceError("bad key line", path=path)
            row = read_record(data, int(span[1]), int(span[2]), schema, table_path)
            if row_item_key(row) != key:
                raise SourceError(f"the record is not the one of key {key!r}", path=table_path)
        except SourceError as e:
            raise IntegrityError(f"table file does not match its key map {path}: {e}") from e
        found[key] = row
    return found


def _section(key_map: bytes, foot: int, table: str, path: str) -> tuple[int, int, int, int]:
    """(file size, file crc32, start, end) of ``table``'s key lines."""
    name = _encode(table)
    at = len(_MAGIC)
    while at < foot:
        m = _TABLE_RE.match(key_map, at, foot)
        if not m:
            break
        at = m.end() + int(m[4])
        if m[1] == name and at <= foot:
            return int(m[2]), int(m[3], 16), m.end(), at
    raise IntegrityError(f"key map has no table {table!r} [{path}]")


def _encode(text: str) -> bytes:
    """UTF-8, with the undecodable bytes of a file name (or of a command
    line argument) as they were: such a table name keeps its line, and such
    a key matches no key line, since every key is decoded UTF-8."""
    return text.encode("utf-8", "surrogateescape")
