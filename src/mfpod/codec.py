"""Binary codec shared by every mfpod file format, and the one owner of file checks.

All integers are little-endian u32 (u64 for container block sizes) and all
floats little-endian f64. ``Reader`` checks a block's magic, bounds-checks
every read against the bytes present before anything is allocated, with
sizes in Python integers, and ``done`` rejects trailing bytes. Every file is
read through ``open_file``, which hands out the file's size and sized reads
and turns an ``OSError`` into ``StorageError``; ``read_file`` reads a whole
file and, given the size it must have, makes any other size a ``ShapeError``
before reading; ``read_text`` (configs, report CSVs) and ``Reader.utf8``
make text that is not UTF-8 a ``FormatError``; ``stored`` makes a
``ValidationError`` from building a type out of stored values a
``FormatError`` with the type's message, and leaves a ``DataError`` as it
is. So a missing, truncated, forged or otherwise corrupt file raises a
``StorageError`` or ``FormatError`` and nothing else.

On the write side, ``dump_f64`` exposes an array's little-endian f64 bytes
without copying when the array already has that layout, and ``write_atomic``
streams the parts of a file to a temporary sibling and renames it over the
target, so a reader never sees a half-written artifact.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ShapeError, StorageError, ValidationError


class Reader:
    """Bounds-checked sequential reader over one block of bytes that starts with ``magic``."""

    def __init__(self, buf, what: str, magic: bytes = b""):
        self.buf = memoryview(buf)
        self.pos = 0
        self.what = what
        if self.take(len(magic)) != magic:
            raise FormatError(f"bad {what} magic, expected {magic!r}")

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
        return _utf8(self.take(self.u32()), f"{self.what} block")

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise FormatError(f"trailing bytes after {self.what} block")


def _utf8(raw, where: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"invalid UTF-8 text in {where}: {exc}") from exc


@contextmanager
def open_file(path: str | Path, what: str):
    """The file at ``path``, open for reading, as (size in bytes, read).

    ``read(count)`` returns the next ``count`` bytes, or fewer at the end of
    the file; ``read()`` returns the rest. An ``OSError`` from opening, from
    ``fstat`` or from a read comes back as ``StorageError``.
    """
    try:
        with open(path, "rb") as fh:
            yield os.fstat(fh.fileno()).st_size, fh.read
    except OSError as exc:
        raise StorageError(f"cannot read {what} from {path}: {exc}") from exc


def read_file(path: str | Path, what: str, size: int | None = None) -> bytes:
    """The bytes of the file at ``path``; an ``OSError`` comes back as ``StorageError``.

    A file whose size is not ``size``, when given, is a ``ShapeError`` before
    any of it is read.
    """
    with open_file(path, what) as (held, read):
        if size is not None and held != size:
            raise ShapeError(f"{what} {path} holds {held} bytes, expected {size}")
        return read()


def read_text(path: str | Path, what: str) -> str:
    """The file at ``path`` as UTF-8 text; other bytes are a ``FormatError``."""
    return _utf8(read_file(path, what), f"{what} {path}")


@contextmanager
def stored(what: str):
    """A type rejecting values read from a file is a ``FormatError``; a ``DataError`` stays."""
    try:
        yield
    except DataError:
        raise
    except ValidationError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def decode_name(code: int, names: tuple[str, ...], what: str) -> str:
    """The name a file's ``code`` stands for, its index in ``names``; ``FormatError`` if none."""
    if code >= len(names):
        raise FormatError(f"unknown {what} code {code}")
    return names[code]


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
