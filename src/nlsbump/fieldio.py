"""Binary persistence for box fields.

Layout, all little-endian: magic ``NLSB``, format version (u32), dim (u32),
per-axis node counts (dim u32 values), box corners lo then hi (dim f64
each), eps (f64), p (f64), then the row-major float64 payload holding
exactly the product of the counts.  Reading back reproduces every byte of
the payload, so written fields round-trip bit-exactly.
"""

import math
import struct
from typing import Tuple

import numpy as np

from .errors import FormatError, GridMismatchError, NlsbumpError
from .grid import ScalarField, make_grid

MAGIC = b"NLSB"
FORMAT_VERSION = 1

_HEAD = struct.Struct("<4sII")
_TAIL = struct.Struct("<dd")


def write_field(path, field: ScalarField, eps: float, p: float) -> None:
    grid = field.grid
    if tuple(field.values.shape) != tuple(grid.counts):
        raise GridMismatchError("field values do not match their grid")
    parts = [
        _HEAD.pack(MAGIC, FORMAT_VERSION, grid.dim),
        np.asarray(grid.counts, dtype="<u4").tobytes(),
        np.asarray(grid.lo, dtype="<f8").tobytes(),
        np.asarray(grid.hi, dtype="<f8").tobytes(),
        _TAIL.pack(float(eps), float(p)),
        np.ascontiguousarray(field.values, dtype="<f8").tobytes(),
    ]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _take(buf: bytes, offset: int, size: int, what: str) -> Tuple[bytes, int]:
    if offset + size > len(buf):
        raise FormatError(f"field file truncated inside {what}")
    return buf[offset:offset + size], offset + size


def read_field(path) -> Tuple[ScalarField, float, float]:
    """Read a field file back as (field, eps, p).

    Raises FormatError for anything structurally wrong: bad magic, an
    unsupported version, truncation, or a payload whose length disagrees
    with the header counts.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    raw, off = _take(buf, 0, _HEAD.size, "the fixed header")
    magic, version, dim = _HEAD.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"not a field file (magic {magic!r})")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if dim not in (1, 2, 3):
        raise FormatError(f"dim must be 1, 2, or 3, got {dim}")
    raw, off = _take(buf, off, 4 * dim, "the axis counts")
    counts = np.frombuffer(raw, dtype="<u4").astype(int)
    if np.any(counts < 2):
        raise FormatError(f"axis counts must be at least 2, got {counts}")
    raw, off = _take(buf, off, 8 * dim, "the lower corner")
    lo = np.frombuffer(raw, dtype="<f8").astype(float)
    raw, off = _take(buf, off, 8 * dim, "the upper corner")
    hi = np.frombuffer(raw, dtype="<f8").astype(float)
    raw, off = _take(buf, off, _TAIL.size, "eps and p")
    eps, p = _TAIL.unpack(raw)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
            and np.isfinite(eps) and np.isfinite(p)):
        raise FormatError("header contains non-finite numbers")
    if np.any(hi <= lo):
        raise FormatError("box corners must satisfy lo < hi")
    n = math.prod(counts.tolist())  # exact: an int64 product can wrap to 0
    raw, off = _take(buf, off, 8 * n, "the payload")
    if off != len(buf):
        raise FormatError(
            f"{len(buf) - off} trailing bytes after the payload")
    values = np.frombuffer(raw, dtype="<f8").astype(float).reshape(counts)
    if not np.all(np.isfinite(values)):
        raise FormatError("payload contains non-finite values")
    try:
        grid = make_grid(lo=lo, hi=hi, counts=counts)
    except NlsbumpError as exc:
        raise FormatError(f"header describes an unusable grid: {exc}") \
            from exc
    return ScalarField(grid=grid, values=values), float(eps), float(p)
