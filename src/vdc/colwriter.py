"""Writing a vault snapshot's column image (:mod:`vdc.colimage` gives its
layout and reads it).  Only a vault registration writes one, so a query
process compiles none of this.

A date text column's chunks store each entry's days, parsed here through
the process's one coercion memo (:func:`vdc.mediation.coerce_date`), so
once per distinct text (the dictionary-coded image's rule: do the
expensive work once per entry, as it is written), and so that no query
parses a vault's date text.
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from itertools import accumulate, islice
from typing import Sequence

from .colimage import (
    GROUP_ROWS, IMAGE, NO_DATE, VERSION, _CHUNK, _HEAD, _INT64, _KINDS, _MAGIC, _NO_NULL,
    _TABLE, _TEXT, _file_crc,
)
from .connectors import SourceHandle
from .errors import SourceError
from .mediation import coerce_date
from .model import ColumnKind, little_endian


def _name(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def write(snapshot: SourceHandle, original: str) -> None:
    """Scan every table of ``snapshot`` (a full, checked decode) and write
    its image beside them; a fault of a table names the original's file."""
    schemas = snapshot.list_tables()
    directory = [struct.pack("<I", len(schemas))]
    chunks: list[bytes] = []
    for schema in schemas:
        table_chunks = array("I")
        rows = 0
        scan = snapshot.scan(schema.name)
        try:
            for group in iter(lambda: list(islice(scan, GROUP_ROWS)), []):
                for c, cells in zip(schema.columns, zip(*group)):
                    chunk = _encode(cells, c.kind, c.date_text)
                    chunks.append(chunk)
                    table_chunks += array("I", (len(chunk), zlib.crc32(chunk)))
                rows += len(group)
        except SourceError as e:
            named = os.path.join(original, os.path.basename(e.path))
            raise SourceError(e.message, path=named, line=e.line) from e
        files = [_file_crc(path) for path in snapshot.files(schema.name)]
        directory += [_name(schema.name), struct.pack("<I", len(files)),
                      little_endian(array("Q", [size for size, _ in files])).tobytes(),
                      little_endian(array("I", [crc for _, crc in files])).tobytes(),
                      _TABLE.pack(rows, len(schema.columns))]
        for c in schema.columns:
            directory += [bytes((_KINDS.index((c.kind, c.date_text)),)), _name(c.name)]
        directory.append(little_endian(table_chunks).tobytes())
    body = b"".join(directory)
    head = _HEAD.pack(_MAGIC, VERSION, len(body)) + body
    with open(os.path.join(snapshot.path, IMAGE), "wb") as f:
        f.write(head + struct.pack("<I", zlib.crc32(head)))
        f.writelines(chunks)


def _encode(cells: Sequence, kind: ColumnKind, date_text: bool) -> bytes:
    """One chunk: the dictionary of ``cells``, with each entry's stored
    days when they are a ``date_text`` column's, and each cell's code."""
    index: dict = {}
    codes = array("H", [index.setdefault(v, len(index)) for v in cells])
    entries = list(index)
    null = index.get(None, _NO_NULL)
    if kind is ColumnKind.INT:
        encoding = _INT64
        values = little_endian(array("q", [0 if v is None else v for v in entries])).tobytes()
    else:
        encoding = _TEXT
        texts = ["" if v is None else v for v in entries]
        offsets = array("I", accumulate(map(len, texts), initial=0))
        values = little_endian(offsets).tobytes() + "".join(texts).encode("utf-8")
        if date_text:
            pairs = [stored_days(t) for t in texts]
            days = array("q", [lo for lo, _ in pairs] + [hi for _, hi in pairs])
            values += little_endian(days).tobytes()
    return _CHUNK.pack(encoding, len(entries), null) + values + little_endian(codes).tobytes()


def stored_days(text: str) -> tuple[int, int]:
    """The (earliest, latest) day an image stores for a date text: its
    interval, or ``NO_DATE`` when it does not parse."""
    d = coerce_date(text)
    return NO_DATE if d is None else (d.earliest_day, d.latest_day)
