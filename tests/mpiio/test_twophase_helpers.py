"""Unit tests for the two-phase building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpiio.twophase import (
    file_domain_bounds,
    split_runs_by_bounds,
)
from repro.pfs.scheduler import size_batches


# ---------------------------------------------------------------------------
# file_domain_bounds
# ---------------------------------------------------------------------------

def test_domain_bounds_cover_range_exactly():
    b = file_domain_bounds(100, 1000, naggs=4, align=64)
    assert b[0] == 100 and b[-1] == 1000
    assert (np.diff(b) >= 0).all()
    assert len(b) == 5


def test_domain_bounds_interior_aligned():
    b = file_domain_bounds(0, 1_000_000, naggs=7, align=4096)
    for x in b[1:-1]:
        assert x % 4096 == 0


def test_domain_bounds_empty_range_rejected():
    with pytest.raises(ValueError):
        file_domain_bounds(10, 10, naggs=2, align=8)


def test_domain_bounds_single_aggregator():
    b = file_domain_bounds(5, 50, naggs=1, align=1024)
    assert b.tolist() == [5, 50]


# ---------------------------------------------------------------------------
# split_runs_by_bounds
# ---------------------------------------------------------------------------

def test_split_simple_runs_into_domains():
    off = np.array([0, 100, 200], dtype=np.int64)
    ln = np.array([50, 50, 50], dtype=np.int64)
    bounds = np.array([0, 150, 250], dtype=np.int64)
    parts = split_runs_by_bounds(off, ln, bounds)
    assert [p[0].tolist() for p in parts] == [[0, 100], [200]]
    assert [p[1].tolist() for p in parts] == [[50, 50], [50]]


def test_split_crossing_run_clipped_both_sides():
    off = np.array([90], dtype=np.int64)
    ln = np.array([40], dtype=np.int64)
    bounds = np.array([0, 100, 200], dtype=np.int64)
    parts = split_runs_by_bounds(off, ln, bounds)
    assert parts[0][0].tolist() == [90] and parts[0][1].tolist() == [10]
    assert parts[1][0].tolist() == [100] and parts[1][1].tolist() == [30]


def test_split_empty_domain():
    off = np.array([500], dtype=np.int64)
    ln = np.array([10], dtype=np.int64)
    bounds = np.array([0, 100, 600], dtype=np.int64)
    parts = split_runs_by_bounds(off, ln, bounds)
    assert len(parts[0][0]) == 0
    assert parts[1][0].tolist() == [500]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 50), st.integers(1, 30)), min_size=1, max_size=20),
    st.integers(1, 6),
)
def test_split_conserves_bytes_and_order_property(spec, naggs):
    offsets, lengths = [], []
    cursor = 0
    for gap, ln in spec:
        cursor += gap
        offsets.append(cursor)
        cursor += ln
        lengths.append(ln)
    off = np.array(offsets, dtype=np.int64)
    ln = np.array(lengths, dtype=np.int64)
    lo, hi = int(off[0]), int(off[-1] + ln[-1])
    bounds = file_domain_bounds(lo, hi, naggs, align=1)
    parts = split_runs_by_bounds(off, ln, bounds)
    # Bytes conserved.
    assert sum(int(p[1].sum()) for p in parts) == int(ln.sum())
    # Concatenation in domain order reproduces a sorted, non-overlapping
    # cover of the original byte set.
    all_off = np.concatenate([p[0] for p in parts])
    all_len = np.concatenate([p[1] for p in parts])
    orig_bytes = set()
    for o, l in zip(off.tolist(), ln.tolist()):
        orig_bytes.update(range(o, o + l))
    split_bytes = set()
    for o, l in zip(all_off.tolist(), all_len.tolist()):
        split_bytes.update(range(o, o + l))
    assert split_bytes == orig_bytes
    assert (all_off[1:] >= all_off[:-1] + all_len[:-1]).all()


# ---------------------------------------------------------------------------
# size_batches (repro.pfs.scheduler)
# ---------------------------------------------------------------------------

def test_batches_split_large_runs():
    uo = np.array([0], dtype=np.int64)
    ul = np.array([100], dtype=np.int64)
    batches = size_batches(uo, ul, max_bytes=30)
    sizes = [int(l.sum()) for _, l in batches]
    assert sizes == [30, 30, 30, 10]
    assert batches[0][0].tolist() == [0]
    assert batches[1][0].tolist() == [30]


def test_batches_group_small_runs():
    uo = np.array([0, 100, 200, 300], dtype=np.int64)
    ul = np.array([10, 10, 10, 10], dtype=np.int64)
    batches = size_batches(uo, ul, max_bytes=25)
    sizes = [int(l.sum()) for _, l in batches]
    assert sum(sizes) == 40
    assert all(s <= 25 for s in sizes)
    assert len(batches) == 2


def _reference_size_batches(uo, ul, cb_buffer_size):
    """The pre-vectorization per-run while-loop, kept as the oracle."""
    batches = []
    cur_off, cur_len, cur_bytes = [], [], 0
    for o, l in zip(uo.tolist(), ul.tolist()):
        while l > 0:
            room = cb_buffer_size - cur_bytes
            if room == 0:
                batches.append((np.array(cur_off, dtype=np.int64),
                                np.array(cur_len, dtype=np.int64)))
                cur_off, cur_len, cur_bytes = [], [], 0
                room = cb_buffer_size
            take = min(l, room)
            cur_off.append(o)
            cur_len.append(take)
            cur_bytes += take
            o += take
            l -= take
    if cur_off:
        batches.append((np.array(cur_off, dtype=np.int64),
                        np.array(cur_len, dtype=np.int64)))
    return batches


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 100), st.integers(0, 120)),
             min_size=0, max_size=30),
    st.integers(1, 257),
)
def test_vectorized_batches_match_reference_property(spec, cap):
    """The cumulative-sum split produces the reference walk's batches
    exactly — offsets, lengths, and batch boundaries — for any run list
    (zero-length runs included) and any buffer size."""
    offsets, lengths = [], []
    cursor = 0
    for hole, ln in spec:
        cursor += hole
        offsets.append(cursor)
        lengths.append(ln)
        cursor += ln
    uo = np.array(offsets, dtype=np.int64)
    ul = np.array(lengths, dtype=np.int64)
    got = size_batches(uo, ul, cap)
    want = _reference_size_batches(uo, ul, cap)
    assert len(got) == len(want)
    for (go, gl), (wo, wl) in zip(got, want):
        assert go.tolist() == wo.tolist()
        assert gl.tolist() == wl.tolist()
