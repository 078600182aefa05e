"""Reading and writing text files with transparent gzip support.

Trace files (the SWF of :mod:`repro.traces.swf`) go through these helpers,
so the gzip handling -- including the fixed mtime/filename that keeps
compressed output byte-reproducible -- lives in exactly one place.
"""
from __future__ import annotations

import gzip
import io
import zlib
from pathlib import Path
from typing import Union

from .errors import WorkloadError

__all__ = [
    "READ_ERRORS",
    "is_gzip_path",
    "read_text_file",
    "read_trace_text",
    "write_text_file",
]

#: Everything :func:`read_text_file` can raise on a missing, truncated,
#: corrupt or mis-encoded input -- truncated gzip streams raise EOFError and
#: corrupt ones zlib.error, neither of which is an OSError.
READ_ERRORS = (OSError, EOFError, zlib.error, UnicodeDecodeError)


def is_gzip_path(path: Path) -> bool:
    """Whether *path* names a gzip-compressed file (by suffix)."""
    return path.suffix == ".gz"


def read_text_file(path: Path) -> str:
    """Read a UTF-8 text file, transparently gunzipping ``*.gz`` paths."""
    if is_gzip_path(path):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return fh.read()
    return path.read_text(encoding="utf-8")


def read_trace_text(path: Union[str, Path]) -> str:
    """Like :func:`read_text_file`, wrapping every read failure.

    Trace loaders promise a :class:`WorkloadError` naming the file for any
    unreadable input, so the wrapping lives here with the reading.
    """
    path = Path(path)
    try:
        return read_text_file(path)
    except READ_ERRORS as exc:
        raise WorkloadError(f"{path}: cannot read trace: {exc}") from exc


def write_text_file(path: Path, text: str) -> None:
    """Write a UTF-8 text file, gzip-compressing ``*.gz`` paths."""
    if is_gzip_path(path):
        # Fixed mtime/filename keep compressed output byte-reproducible.
        with open(path, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", filename="", mtime=0) as fh:
                with io.TextIOWrapper(fh, encoding="utf-8") as text_fh:
                    text_fh.write(text)
        return
    path.write_text(text, encoding="utf-8")
