"""Atomic publication of the files the centre owns (catalogue, indexes)."""

from __future__ import annotations

import os
from typing import BinaryIO, Callable


def write_atomic(path: str, data: bytes | Callable[[BinaryIO], object]) -> None:
    """Write ``data`` to ``path`` all at once.

    ``data`` is the bytes, or a function that writes them, in as many
    calls as it likes, to the binary file it is given; the file is open
    for reading too, so the function may check what it wrote.  The bytes
    go to a temp file in the same directory, which then replaces ``path``
    with ``os.replace``: a concurrent reader sees the old file or the new
    one, never a partial write.  On failure, of the write or of the
    function, the temp file is removed and ``path`` is left as it was.

    A replaced file keeps its mode; a new one gets ``0o666`` less the
    umask, as ``open`` would give it, not the temp file's private 0600.
    """
    import tempfile  # here: a command that writes nothing never loads it

    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix="." + os.path.basename(path) + ".", dir=d)
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "wb") as f:
            if callable(data):
                data(f)
            else:
                f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
