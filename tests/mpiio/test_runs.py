"""Unit and property tests for the run list's merge and expansion
kernels and the coalesced-read helpers built on them (the move pair has
its own file, ``tests/pfs/test_move_kernels.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpiio.runs import (
    _run_owner, coalesce_runs, expand_runs, extract_runs,
)


def arr(*vals):
    return np.array(vals, dtype=np.int64)


def merged(off, ln, gap=0):
    """``coalesce_runs`` plus the owner ``extract_runs`` derives from its
    result: the index of the merged run holding each input run."""
    coff, clen = coalesce_runs(off, ln, gap=gap)
    return coff, clen, _run_owner(coff, off)


def positions(pos, width):
    """Uniform-width run list: one ``width``-byte run per position (the
    chunked read path's shape)."""
    pos = np.asarray(pos, dtype=np.int64)
    return pos, np.full(len(pos), width, dtype=np.int64)


# ---------------------------------------------------------------------------
# coalesce_runs
# ---------------------------------------------------------------------------

def test_empty_runs_coalesce_to_nothing():
    coff, clen, owner = merged(arr(), arr())
    assert len(coff) == len(clen) == len(owner) == 0


def test_single_run_passes_through():
    coff, clen, owner = merged(arr(40), arr(8))
    assert coff.tolist() == [40] and clen.tolist() == [8]
    assert owner.tolist() == [0]


def test_all_adjacent_runs_become_one():
    coff, clen, owner = merged(arr(0, 8, 16, 24), arr(8, 8, 8, 8))
    assert coff.tolist() == [0] and clen.tolist() == [32]
    assert owner.tolist() == [0, 0, 0, 0]


def test_all_sparse_runs_stay_separate():
    coff, clen, owner = merged(arr(0, 100, 200), arr(8, 8, 8))
    assert coff.tolist() == [0, 100, 200]
    assert clen.tolist() == [8, 8, 8]
    assert owner.tolist() == [0, 1, 2]


def test_overlapping_runs_union():
    coff, clen, owner = merged(arr(0, 4, 30), arr(10, 10, 5))
    assert coff.tolist() == [0, 30]
    assert clen.tolist() == [14, 5]
    assert owner.tolist() == [0, 0, 1]


def test_contained_run_does_not_shrink_reach():
    # A short run inside a long one must not re-open the interval.
    coff, clen, owner = merged(arr(0, 2, 10), arr(20, 2, 4))
    assert coff.tolist() == [0] and clen.tolist() == [20]
    assert owner.tolist() == [0, 0, 0]


def test_small_gap_bridged_large_gap_not():
    coff, clen = coalesce_runs(arr(0, 12, 100), arr(8, 8, 8), gap=4)
    assert coff.tolist() == [0, 100]
    assert clen.tolist() == [20, 8]  # the 4-byte hole is inside the run


def test_huge_gap_merges_everything():
    coff, clen, owner = merged(arr(0, 500, 9000), arr(8, 8, 8),
                                      gap=1 << 30)
    assert coff.tolist() == [0] and clen.tolist() == [9008]
    assert owner.tolist() == [0, 0, 0]


def test_zero_gap_merge_of_disjoint_runs_is_lossless():
    off, ln = arr(0, 8, 40, 48, 56), arr(8, 8, 8, 8, 8)
    coff, clen = coalesce_runs(off, ln)
    assert int(clen.sum()) == int(ln.sum())


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 30)),
             min_size=0, max_size=30),
    st.sampled_from([0, 1, 8, 64]),
)
def test_derived_owner_is_the_merge_group(spec, gap):
    """The owner ``extract_runs`` derives from the merged runs is the
    group a running-reach walk puts each run in — abutting, overlapping,
    contained and empty runs included."""
    off = np.cumsum(arr(*[step for step, _ in spec]))
    ln = arr(*[l for _, l in spec])
    expected, group, reach = [], -1, None
    for o, l in zip(off.tolist(), ln.tolist()):
        if reach is None or o > reach + gap:
            group, reach = group + 1, o + l
        else:
            reach = max(reach, o + l)
        expected.append(group)
    coff, clen, owner = merged(off, ln, gap=gap)
    assert owner.tolist() == expected
    assert len(coff) == group + 1


# ---------------------------------------------------------------------------
# uniform-width lengths (element positions)
# ---------------------------------------------------------------------------

def test_positions_empty():
    coff, clen, owner = merged(*positions(arr(), 8))
    assert len(coff) == len(owner) == 0


def test_positions_single():
    coff, clen, owner = merged(*positions(arr(72), 8))
    assert coff.tolist() == [72] and clen.tolist() == [8]


def test_positions_adjacent_elements_merge():
    coff, clen, owner = merged(*positions(arr(0, 8, 16, 40, 48), 8))
    assert coff.tolist() == [0, 40]
    assert clen.tolist() == [24, 16]
    assert owner.tolist() == [0, 0, 0, 1, 1]


def test_positions_gap_bridging():
    # Holes of exactly one element (8 bytes) bridge at gap=8, not gap=0.
    pos, ln = positions(arr(0, 16, 32), 8)
    coff0, clen0 = coalesce_runs(pos, ln, gap=0)
    assert coff0.tolist() == [0, 16, 32]
    coff8, clen8 = coalesce_runs(pos, ln, gap=8)
    assert coff8.tolist() == [0] and clen8.tolist() == [40]


# ---------------------------------------------------------------------------
# unsorted overlapping runs after a sort (the aggregators' union)
# ---------------------------------------------------------------------------

def union(off, ln):
    order = np.argsort(off, kind="stable")
    uo, ul = coalesce_runs(off[order], ln[order])
    return uo, ul


def test_union_merges_overlaps_and_adjacency():
    uo, ul = union(arr(0, 10, 5, 30), arr(10, 5, 10, 5))
    assert uo.tolist() == [0, 30]
    assert ul.tolist() == [15, 5]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 200), st.integers(1, 40)), min_size=1, max_size=30)
)
def test_union_runs_property(spec):
    off = np.array([o for o, _ in spec], dtype=np.int64)
    ln = np.array([l for _, l in spec], dtype=np.int64)
    uo, ul = union(off, ln)
    covered = set()
    for o, l in zip(off.tolist(), ln.tolist()):
        covered.update(range(o, o + l))
    union_set = set()
    for o, l in zip(uo.tolist(), ul.tolist()):
        union_set.update(range(o, o + l))
    assert union_set == covered
    # Maximal: strictly separated intervals.
    assert (uo[1:] > uo[:-1] + ul[:-1]).all() if len(uo) > 1 else True


# ---------------------------------------------------------------------------
# expand_runs
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 500), st.integers(0, 25)),
             min_size=0, max_size=25)
)
def test_expand_runs_equals_per_run_arange(spec):
    """Any run list — unsorted, overlapping, zero-length runs included."""
    off = np.array([o for o, _ in spec], dtype=np.int64)
    ln = np.array([l for _, l in spec], dtype=np.int64)
    got = expand_runs(off, ln)
    expected = np.concatenate(
        [np.arange(o, o + l, dtype=np.int64) for o, l in spec]
        + [np.empty(0, dtype=np.int64)]
    )
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# extraction round-trips
# ---------------------------------------------------------------------------

def _file_bytes(n=10_000, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=n, dtype=np.uint8
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 25)),
             min_size=0, max_size=25),
    st.sampled_from([0, 1, 7, 64, 1 << 20]),
)
def test_coalesce_extract_roundtrip_property(spec, gap):
    """coalesce + read-span + extract returns exactly the requested bytes
    for any sorted non-overlapping run list and any gap."""
    data = _file_bytes()
    offsets, lengths = [], []
    cursor = 0
    for hole, ln in spec:
        cursor += hole
        offsets.append(cursor)
        lengths.append(ln)
        cursor += ln
    off, ln = arr(*offsets), arr(*lengths)
    coff, clen = coalesce_runs(off, ln, gap=gap)
    # Simulate the coalesced read: concatenated coalesced runs.
    blob = (
        np.concatenate([data[o : o + l] for o, l in zip(coff, clen)])
        if len(coff) else np.empty(0, dtype=np.uint8)
    )
    got = extract_runs(blob, coff, clen, off, ln)
    expected = (
        np.concatenate([data[o : o + l] for o, l in zip(off, ln)])
        if len(off) else np.empty(0, dtype=np.uint8)
    )
    np.testing.assert_array_equal(got, expected)
    # Coalesced runs are sorted, non-overlapping, and separated by more
    # than the gap.
    if len(coff) > 1:
        assert (coff[1:] > coff[:-1] + clen[:-1] + gap).all()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 500), min_size=0, max_size=40, unique=True),
    st.sampled_from([1, 4, 8]),
    st.sampled_from([0, 8, 1 << 20]),
)
def test_positions_gather_roundtrip_property(raw_pos, width, gap):
    """coalesce + extract over uniform-width runs == per-element direct
    reads."""
    data = _file_bytes()
    pos, ln = positions(np.sort(np.array(raw_pos, dtype=np.int64)) * width,
                        width)
    coff, clen = coalesce_runs(pos, ln, gap=gap)
    blob = (
        np.concatenate([data[o : o + l] for o, l in zip(coff, clen)])
        if len(coff) else np.empty(0, dtype=np.uint8)
    )
    got = extract_runs(blob, coff, clen, pos, ln)
    expected = (
        np.concatenate([data[p : p + width] for p in pos])
        if len(pos) else np.empty(0, dtype=np.uint8)
    )
    np.testing.assert_array_equal(got, expected)


def test_extract_elements_with_bridged_holes():
    data = _file_bytes()
    # hole of 16 bytes between first and second
    pos, ln = positions(arr(0, 24, 32), 8)
    coff, clen = coalesce_runs(pos, ln, gap=16)
    assert len(coff) == 1  # everything bridged
    blob = data[: int(clen[0])]
    got = extract_runs(blob, coff, clen, pos, ln)
    np.testing.assert_array_equal(
        got, np.concatenate([data[0:8], data[24:32], data[32:40]])
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 60), st.integers(1, 25)),
             min_size=2, max_size=25)
)
def test_extract_after_coalesce_roundtrips_through_bridged_holes(spec):
    """Bridging every hole reads one covering run whose discarded bytes
    are exactly the holes; extraction still returns the requested bytes."""
    data = _file_bytes()
    holes = arr(*[h for h, _ in spec])
    ln = arr(*[l for _, l in spec])
    off = np.cumsum(holes + ln) - ln
    coff, clen, owner = merged(off, ln, gap=int(holes.max()))
    assert len(coff) == 1 and not owner.any()
    assert int(clen[0]) - int(ln.sum()) == int(holes[1:].sum())
    blob = data[int(coff[0]) : int(coff[0] + clen[0])]
    np.testing.assert_array_equal(
        extract_runs(blob, coff, clen, off, ln),
        data[expand_runs(off, ln)],
    )
