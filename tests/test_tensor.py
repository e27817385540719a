import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dsltopo import (
    MAX_RANK,
    FormatError,
    NumericError,
    ShapeError,
    as_tensor,
    read_tensor,
    write_tensor,
)
from dsltopo.tensor import require_finite


def small_shapes(max_rank=4, max_side=6):
    return hnp.array_shapes(min_dims=1, max_dims=max_rank, min_side=1, max_side=max_side)


def finite_arrays(shapes=None):
    return hnp.arrays(
        dtype=np.float64,
        shape=shapes or small_shapes(),
        elements=st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
    )


class TestCreate:
    def test_as_tensor_rejects_empty(self):
        with pytest.raises(ShapeError):
            as_tensor(np.zeros((2, 0)))

    def test_as_tensor_rank_cap(self):
        assert as_tensor(np.ones((1,) * MAX_RANK)).ndim == MAX_RANK
        with pytest.raises(ShapeError):
            as_tensor(np.ones((1,) * (MAX_RANK + 1)))
        with pytest.raises(ShapeError):
            as_tensor(3.0)

    def test_as_tensor_copies_only_when_needed(self):
        arr = np.arange(6.0).reshape(2, 3)
        assert as_tensor(arr) is arr
        strided = as_tensor(arr.T)
        assert strided.flags.c_contiguous and np.array_equal(strided, arr.T)
        ints = np.arange(3)
        t = as_tensor(ints)
        assert t.dtype == np.float64
        ints[0] = 99
        assert t[0] == 0.0

    def test_require_finite(self):
        with pytest.raises(NumericError):
            require_finite(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            require_finite(np.array([np.inf]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflowing sum
    def test_require_finite_accepts_an_overflowing_sum(self):
        huge = np.full(1000, 1e308)
        huge[1::2] = -1e308
        require_finite(huge)
        require_finite(np.full(1000, 1e308))
        require_finite(np.full(1000, -1e308))

    def test_require_finite_allocates_no_mask(self):
        arr = np.random.default_rng(5).standard_normal(1 << 21)
        tracemalloc.start()
        try:
            require_finite(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # an isfinite mask alone is 2 MiB

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, -1])
    @pytest.mark.parametrize("fill", [1.0, 1e308])
    def test_require_finite_rejects_at_either_end(self, bad, at, fill):
        arr = np.full(1000, fill)
        arr[at] = bad
        with pytest.raises(NumericError):
            require_finite(arr)


class TestFileFormat:
    @given(arr=finite_arrays())
    @settings(max_examples=50)
    def test_round_trip_bit_exact(self, arr, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "t.dst"
        write_tensor(arr, path)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_exact_file_layout(self, tmp_path):
        path = tmp_path / "t.dst"
        write_tensor(np.array([1.0, 2.0]), path)
        blob = path.read_bytes()
        assert len(blob) == 32
        expect = b"DST1" + struct.pack("<I", 1) + struct.pack("<Q", 2)
        expect += struct.pack("<2d", 1.0, 2.0)
        assert blob == expect

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dst"
        path.write_bytes(b"XXXX" + bytes(28))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.dst"
        write_tensor(np.array([1.0, 2.0]), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.dst"
        write_tensor(np.array([1.0, 2.0]), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_header_too_short(self, tmp_path):
        path = tmp_path / "stub.dst"
        path.write_bytes(b"DST")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_zero_extent_rejected(self, tmp_path):
        path = tmp_path / "zero.dst"
        path.write_bytes(b"DST1" + struct.pack("<I", 1) + struct.pack("<Q", 0))
        with pytest.raises(ShapeError):
            read_tensor(path)

    def test_rank_out_of_range(self, tmp_path):
        path = tmp_path / "rank.dst"
        path.write_bytes(b"DST1" + struct.pack("<I", 9) + struct.pack("<9Q", *([1] * 9)) + struct.pack("<d", 0.0))
        with pytest.raises(ShapeError):
            read_tensor(path)
