"""Dense float64 tensors: coercion, finiteness check, DST1 file I/O.

Tensors are plain C-contiguous float64 numpy arrays of rank 1 to 8.
`as_tensor` copies only when it must; `read_tensor` returns a fresh array.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .exceptions import FormatError, NumericError, ShapeError

MAX_RANK = 8

_MAGIC = b"DST1"
_HEADER = struct.Struct("<4sI")  # magic, rank


def _check_rank(rank: int) -> None:
    if not 1 <= rank <= MAX_RANK:
        raise ShapeError(f"rank must be between 1 and {MAX_RANK}, got {rank}")


def as_tensor(t) -> np.ndarray:
    """Coerce to a C-contiguous float64 array of rank 1..8, copying only if needed."""
    arr = np.asarray(t, dtype=np.float64)
    _check_rank(arr.ndim)
    if any(n <= 0 for n in arr.shape):
        raise ShapeError(f"all extents must be positive, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def require_finite(arr: np.ndarray, name: str = "tensor") -> None:
    """Reject NaN/Inf entries; sign-of-NaN would silently corrupt mismatch counts."""
    # Any NaN or infinity makes the sum non-finite, so a finite sum settles it
    # without an input-sized mask; only a sum that overflowed (numpy warns of
    # it) needs the exact scan.
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite values")


def write_tensor(t, path) -> None:
    """Write a tensor to `path` in the DST1 format.

    Layout: 4-byte magic "DST1", uint32 little-endian rank, rank uint64
    little-endian extents, then the values as little-endian IEEE-754 doubles
    in row-major order. No padding, no checksum.
    """
    arr = as_tensor(t)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a DST1 file back into a tensor; round trip with write_tensor is bit-exact."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than the DST1 header")
    magic, rank = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    _check_rank(rank)
    offset = _HEADER.size
    if len(raw) < offset + 8 * rank:
        raise FormatError(f"{path}: truncated extent table")
    extents = struct.unpack_from(f"<{rank}Q", raw, offset)
    if any(n == 0 for n in extents):
        raise ShapeError(f"{path}: zero extent in {extents}")
    offset += 8 * rank
    count = 1
    for n in extents:
        count *= n
    expected = offset + 8 * count
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload length {len(raw) - offset} bytes, expected {8 * count}"
        )
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return values.astype(np.float64).reshape(extents)
