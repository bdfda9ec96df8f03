"""Atomic publication of the files the centre owns (catalogue, indexes)."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, data: str) -> None:
    """Write ``data`` (UTF-8, LF line ends) to ``path`` all at once.

    The bytes go to a temp file in the same directory, which then replaces
    ``path`` with ``os.replace``: a concurrent reader sees the old file or
    the new one, never a partial write.  On failure the temp file is
    removed and ``path`` is left as it was.
    """
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix="." + os.path.basename(path) + ".", dir=d)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
