"""Reading and writing fields in the KSF1 binary format.

Layout, bit-exact: bytes 0-3 are the ASCII magic ``KSF1``; then four
little-endian uint32 values d, M, N, reserved (must be 0); then N**d
IEEE-754 little-endian float64 samples in row-major order, last axis
fastest.  The header carries the full grid geometry, so a file can be
loaded without any side channel.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .spectral import Field, make_grid

MAGIC = b"KSF1"
_HEADER = struct.Struct("<IIII")


def write_field(path, field: Field) -> None:
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(g.d, g.M, g.N, 0))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path) -> Field:
    """Load a field onto the grid its header names."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + _HEADER.size)
        if len(head) < len(MAGIC) + _HEADER.size or head[: len(MAGIC)] != MAGIC:
            raise ValueError(f"{path}: not a KSF1 file")
        d, m, n, reserved = _HEADER.unpack_from(head, len(MAGIC))
        if reserved != 0:
            raise ValueError(f"{path}: reserved header word must be 0")
        try:
            file_grid = make_grid(d, m, n)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid geometry d={d} M={m} N={n}: {exc}") from None
        size = os.fstat(fh.fileno()).st_size - len(head)
        expected = n**d * 8
        if size != expected:
            raise ValueError(f"{path}: payload holds {size} bytes, expected {expected}")
        vals = np.fromfile(fh, dtype="<f8", count=n**d)
    try:
        return Field(file_grid, vals.reshape(file_grid.shape))
    except ValueError as exc:  # a non-finite sample
        raise ValueError(f"{path}: {exc}") from None
