"""Binary codec shared by every mfpod file format.

All integers are little-endian u32 (u64 for container block sizes) and all
floats little-endian f64. ``Reader`` walks one block of a buffer: every read
is bounds-checked against the bytes actually present before anything is
allocated, sizes are computed with Python integers, and ``done`` rejects
trailing bytes. A truncated, forged or otherwise corrupt block therefore
raises ``FormatError`` and nothing else.

On the write side, ``dump_f64`` exposes an array's little-endian f64 bytes
without copying when the array already has that layout, and ``write_atomic``
streams the parts of a file to a temporary sibling and renames it over the
target, so a reader never sees a half-written artifact.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, StorageError


class Reader:
    """Bounds-checked sequential reader over one block of bytes."""

    def __init__(self, buf, what: str):
        self.buf = memoryview(buf)
        self.pos = 0
        self.what = what

    def take(self, count: int) -> memoryview:
        """The next ``count`` bytes, as a view into the buffer."""
        if count > len(self.buf) - self.pos:
            raise FormatError(f"truncated {self.what} block")
        out = self.buf[self.pos : self.pos + count]
        self.pos += count
        return out

    def _unpack(self, code: str, size: int, count: int):
        vals = struct.unpack(f"<{count}{code}", self.take(size * count))
        return vals[0] if count == 1 else vals

    def u32(self, count: int = 1):
        return self._unpack("I", 4, count)

    def u64(self, count: int = 1):
        return self._unpack("Q", 8, count)

    def f64(self, count: int = 1):
        return self._unpack("d", 8, count)

    def f64_array(self, shape, order: str = "C") -> np.ndarray:
        """A fresh, aligned, writable float64 array read in ``order``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        raw = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8")
        return raw.reshape(shape, order=order).copy(order="K")

    def utf8(self) -> str:
        """A u32 byte length followed by that many bytes of UTF-8 text."""
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid UTF-8 text in {self.what} block: {exc}") from exc

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise FormatError(f"trailing bytes after {self.what} block")


def dump_f64(arr: np.ndarray, order: str = "C") -> memoryview:
    """Little-endian f64 bytes of ``arr`` in ``order``; no copy when already laid out so."""
    return memoryview(np.asarray(arr, dtype="<f8").ravel(order=order)).cast("B")


def utf8_bytes(text: str) -> bytes:
    """``text`` as a u32 byte length followed by its UTF-8 bytes."""
    encoded = text.encode("utf-8")
    return struct.pack("<I", len(encoded)) + encoded


def write_atomic(path: str | Path, parts, what: str) -> None:
    """Write ``parts`` in order to a temporary file beside ``path``, then rename it there.

    On any failure the temporary file is removed and ``path`` keeps its old
    content; an ``OSError`` comes back as ``StorageError``.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except OSError as exc:
        raise StorageError(f"cannot write {what} to {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)
