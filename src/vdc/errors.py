"""Error types shared across the data centre.

Every error raised by this package derives from VdcError so callers (and the
CLI) can map failures to a small set of outcomes.  Exceptions carry the
context needed to locate the problem: byte offsets for text grammars, file
and line for source data, item references for row-level failures.
"""

from __future__ import annotations


class VdcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(VdcError):
    """Malformed text in one of the grammars (dates, queries, views, XML).

    ``offset`` is a byte offset into the parsed text where known; ``line``
    is a 1-based line number for line-oriented grammars.  ``message`` is
    the text without either.
    """

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        self.message = message
        self.offset = offset
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif offset is not None:
            where = f" (byte {offset})"
        super().__init__(message + where)


class SourceError(VdcError):
    """A data source is missing, unreadable, or malformed on disk.

    ``message`` is the text without the path and line.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class LoadError(VdcError):
    """A translation table or other auxiliary file failed to load."""


class CoercionError(VdcError):
    """A row-level date coercion failed; collected, not fatal.

    ``ref`` is the text form of the ItemRef of the offending row.
    """

    def __init__(self, ref: str, column: str, text: str):
        self.ref = ref
        self.column = column
        self.text = text
        super().__init__(f"cannot coerce {column}={text!r} to date at {ref}")


class PlanError(VdcError):
    """Query planning failed: unknown relation/column or a kind mismatch."""


class ExecutionError(VdcError):
    """Query execution failed (e.g. hash build exceeded the memory cap)."""


class IngestError(VdcError):
    """Document ingestion failed (missing id column, duplicate ids)."""


class IndexFormatError(VdcError):
    """An index file is corrupt, truncated, or of an unsupported version."""


class CollectionError(VdcError):
    """A virtual-collection update referenced an unresolvable item."""


class AccessDenied(VdcError):
    """The source's trust mode forbids this operation."""


class NotFound(VdcError):
    """A referenced source, table, or item does not exist."""


class IntegrityError(VdcError):
    """The centre's own state is, or would become, inconsistent: an
    unreadable, malformed or unresolvable catalogue; a damaged column
    image, or a vault table file that differs from its image; a duplicate
    id, a bad name or a line feed in a catalogue record."""


class LockedError(VdcError):
    """Another process holds the catalogue lock."""
