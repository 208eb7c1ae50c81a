"""Whole-or-nothing file writes."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Yield a file open on a temporary sibling of `path` and move it onto
    `path` once the block finishes. If the block raises, the temporary file
    is removed and `path` keeps what it held before."""
    # same directory, so os.replace is a rename on one file system
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
