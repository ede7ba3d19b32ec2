"""Sequential reader for the package's little-endian binary files.

Every loader reads its fields in order through one :class:`Reader`, so a
bad magic, a short file, a non-finite float or trailing junk fails with a
:class:`ParseError` that names the path and the byte where it was found.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ParseError


class Reader:
    """Reads a file's fields in order, from just past its magic; ``pos`` is
    the offset of the next byte to read."""

    def __init__(self, path, magic: bytes):
        self.path = path
        self.raw = memoryview(Path(path).read_bytes())
        if self.raw[:len(magic)] != magic:
            self.fail(f"expected magic {magic!r}", 0)
        self.pos = len(magic)

    @property
    def left(self) -> int:
        return len(self.raw) - self.pos

    def fail(self, msg: str, at: int) -> NoReturn:
        raise ParseError(f"{self.path}: {msg} at byte {at}") from None

    def take(self, n: int, what: str) -> memoryview:
        """The next n bytes, without copying."""
        if n > self.left:
            self.fail(f"{what} truncated ({n} bytes needed, {self.left} left)", self.pos)
        self.pos += n
        return self.raw[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """A read-only view of the next count items; float items must be finite."""
        dtype = np.dtype(dtype)
        start = self.pos
        values = np.frombuffer(self.take(count * dtype.itemsize, what), dtype)
        if dtype.kind == "f":
            self.check_finite(values, start, what)
        return values

    def check_finite(self, values: np.ndarray, start: int, what: str) -> None:
        """Fail unless every float of ``values``, items read from byte
        ``start``, is finite, naming the byte of the first that is not, and
        for structured items its record and field."""
        bad = []
        for name in values.dtype.names or (None,):
            column = values if name is None else values[name]
            if column.dtype.kind != "f":
                continue
            finite = np.isfinite(column)
            if not finite.all():
                k, i = divmod(int(np.argmin(finite)), finite.size // len(values))
                offset = 0 if name is None else values.dtype.fields[name][1]
                bad.append((start + k * values.dtype.itemsize + offset
                            + column.dtype.itemsize * i, k, name))
        if bad:
            at, k, name = min(bad)
            self.fail(f"{what} has a non-finite value" if name is None else
                      f"{what}: record {k} has a non-finite {name} value", at)

    def end(self) -> None:
        if self.left:
            self.fail(f"{self.left} unexpected trailing bytes", self.pos)
