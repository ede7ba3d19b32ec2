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
            finite = np.isfinite(values)
            if not finite.all():
                bad = start + dtype.itemsize * int(np.argmin(finite))
                self.fail(f"{what} has a non-finite value", bad)
        return values

    def end(self) -> None:
        if self.left:
            self.fail(f"{self.left} unexpected trailing bytes", self.pos)
