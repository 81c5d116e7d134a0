"""ByteStore: real byte storage with vectored scatter/gather."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PFSError
from repro.pfs import ByteStore


def test_write_read_roundtrip():
    s = ByteStore()
    data = np.arange(100, dtype=np.uint8)
    s.write(10, data)
    np.testing.assert_array_equal(s.read(10, 100), data)
    assert s.size == 110


def test_read_unwritten_returns_zeros():
    s = ByteStore()
    s.write(0, np.ones(10, dtype=np.uint8))
    out = s.read(5, 20)
    np.testing.assert_array_equal(out[:5], np.ones(5, dtype=np.uint8))
    np.testing.assert_array_equal(out[5:], np.zeros(15, dtype=np.uint8))


def test_growth_beyond_initial_capacity_preserves_data():
    s = ByteStore(initial_capacity=16)
    first = np.full(10, 7, dtype=np.uint8)
    s.write(0, first)
    s.write(100_000, np.full(10, 9, dtype=np.uint8))
    np.testing.assert_array_equal(s.read(0, 10), first)
    np.testing.assert_array_equal(s.read(100_000, 10), np.full(10, 9))
    assert s.size == 100_010


def test_write_accepts_typed_arrays():
    s = ByteStore()
    vals = np.array([1.5, -2.25, 3.0], dtype=np.float64)
    s.write(8, vals)
    got = s.read(8, 24).view(np.float64)
    np.testing.assert_array_equal(got, vals)


def test_writev_readv_scattered_runs():
    s = ByteStore()
    offsets = np.array([0, 100, 50], dtype=np.int64)
    lengths = np.array([4, 4, 4], dtype=np.int64)
    data = np.arange(12, dtype=np.uint8)
    s.writev(offsets, lengths, data)
    got = s.readv(offsets, lengths)
    np.testing.assert_array_equal(got, data)
    # Each run landed at its own offset.
    np.testing.assert_array_equal(s.read(100, 4), data[4:8])
    np.testing.assert_array_equal(s.read(50, 4), data[8:12])


def test_writev_many_runs_vectorized_path():
    s = ByteStore()
    n = 1000  # far past the move kernels' slice-loop cut
    offsets = np.arange(n, dtype=np.int64) * 16
    lengths = np.full(n, 8, dtype=np.int64)
    data = np.arange(n * 8, dtype=np.uint8)
    s.writev(offsets, lengths, data)
    got = s.readv(offsets, lengths)
    np.testing.assert_array_equal(got, data)
    # Gaps stay zero.
    assert s.read(8, 8).sum() == 0


def test_writev_size_mismatch_rejected():
    s = ByteStore()
    with pytest.raises(PFSError):
        s.writev([0], [4], np.zeros(5, dtype=np.uint8))


def test_negative_offsets_rejected():
    s = ByteStore()
    with pytest.raises(PFSError):
        s.write(-1, np.zeros(1, dtype=np.uint8))
    with pytest.raises(PFSError):
        s.read(-1, 4)
    with pytest.raises(PFSError):
        s.writev([-5], [1], np.zeros(1, dtype=np.uint8))


def test_readv_past_eof_zero_fills():
    s = ByteStore()
    s.write(0, np.full(4, 3, dtype=np.uint8))
    out = s.readv([0, 2], [4, 6])
    np.testing.assert_array_equal(out[:4], np.full(4, 3, dtype=np.uint8))
    np.testing.assert_array_equal(out[4:6], np.full(2, 3, dtype=np.uint8))
    np.testing.assert_array_equal(out[6:], np.zeros(4, dtype=np.uint8))


def test_zero_length_run_neither_writes_nor_extends():
    """POSIX ``pwritev`` with an empty iov is a no-op wherever it points;
    so is an empty run, alone or next to real ones."""
    s = ByteStore()
    tracemalloc.start()
    try:
        s.writev([0, 1_000_000], [4, 0], np.full(4, 7, dtype=np.uint8))
        assert s.size == 4
        s.writev([2_000_000], [0], np.empty(0, dtype=np.uint8))
        assert s.size == 4
        # nothing allocated for the empty runs: no buffer grown to reach them
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()
    # ... and an empty run past EOF reads as no bytes, not as a miss
    assert s.readv([0, 1_000_000], [4, 0]).tolist() == [7, 7, 7, 7]


def test_truncate_shrinks_and_zeroes():
    s = ByteStore()
    s.write(0, np.full(20, 5, dtype=np.uint8))
    s.truncate(10)
    assert s.size == 10
    s.write(0, np.zeros(0, dtype=np.uint8))  # no-op write
    np.testing.assert_array_equal(s.read(0, 20)[10:], np.zeros(10, dtype=np.uint8))


def test_overlapping_writes_last_wins():
    s = ByteStore()
    s.write(0, np.full(10, 1, dtype=np.uint8))
    s.write(5, np.full(10, 2, dtype=np.uint8))
    out = s.read(0, 15)
    np.testing.assert_array_equal(out[:5], np.full(5, 1, dtype=np.uint8))
    np.testing.assert_array_equal(out[5:], np.full(10, 2, dtype=np.uint8))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 32)),
        min_size=1,
        max_size=20,
    )
)
def test_writev_readv_roundtrip_property(runs):
    """For non-overlapping runs, readv(writev(x)) == x."""
    # Make runs non-overlapping by spacing them out deterministically.
    offsets, lengths = [], []
    cursor = 0
    for gap, ln in runs:
        cursor += gap
        offsets.append(cursor)
        lengths.append(ln)
        cursor += ln
    offsets = np.array(offsets, dtype=np.int64)
    lengths = np.array(lengths, dtype=np.int64)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=int(lengths.sum()), dtype=np.uint8)
    s = ByteStore()
    s.writev(offsets, lengths, data)
    np.testing.assert_array_equal(s.readv(offsets, lengths), data)
