"""Unit tests for the two-phase building blocks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fast_test
from repro.mpiio import twophase
from repro.mpiio.twophase import (
    _Aggregation,
    file_domain_bounds,
    split_runs_by_bounds,
)
from repro.pfs import FileSystem, StripeLayout
from repro.pfs.file import RDWR
from repro.pfs.scheduler import controller_batches
from repro.simt import Simulator, Trace


def _runs(spec):
    """Sorted non-overlapping runs from ``(hole, length)`` pairs."""
    offsets, lengths, cursor = [], [], 0
    for hole, ln in spec:
        cursor += hole
        offsets.append(cursor)
        lengths.append(ln)
        cursor += ln
    return (np.array(offsets, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


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
    off, ln = _runs(spec)
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


def _reference_split_runs_by_bounds(offsets, lengths, bounds):
    """The per-domain searchsorted/copy loop the vectorized split
    replaced, kept as the oracle."""
    ends = offsets + lengths
    out = []
    for d in range(len(bounds) - 1):
        lo, hi = int(bounds[d]), int(bounds[d + 1])
        i0 = int(np.searchsorted(ends, lo, side="right"))
        i1 = int(np.searchsorted(offsets, hi, side="left"))
        if i0 >= i1:
            out.append(([], []))
            continue
        o = offsets[i0:i1].copy()
        l = lengths[i0:i1].copy()
        if o[0] < lo:
            l[0] -= lo - o[0]
            o[0] = lo
        if o[-1] + l[-1] > hi:
            l[-1] = hi - o[-1]
        out.append((o.tolist(), l.tolist()))
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(1, 90)),
             min_size=0, max_size=20),
    st.lists(st.integers(0, 60), min_size=1, max_size=12),
    st.integers(0, 30),
)
def test_split_matches_per_domain_loop_property(spec, steps, first):
    """Same pieces as the per-domain loop for runs straddling two or more
    bounds, empty domains, duplicate bounds (``maximum.accumulate`` makes
    them when domains are narrower than a stripe), bounds narrower or
    wider than the runs, and a rank with no runs — and the caller's
    arrays are left as they were."""
    off, ln = _runs(spec)
    bounds = first + np.concatenate(([0], np.cumsum(steps))).astype(np.int64)
    off0, ln0 = off.copy(), ln.copy()
    got = split_runs_by_bounds(off, ln, bounds)
    want = _reference_split_runs_by_bounds(off0, ln0, bounds)
    assert [(o.tolist(), l.tolist()) for o, l in got] == want
    assert off.tolist() == off0.tolist() and ln.tolist() == ln0.tolist()
    for o, l in got:
        assert o.dtype == np.int64 and l.dtype == np.int64


def test_split_run_straddling_three_domains():
    off = np.array([10, 95], dtype=np.int64)
    ln = np.array([5, 250], dtype=np.int64)
    bounds = np.array([0, 100, 100, 200, 300, 400], dtype=np.int64)
    parts = split_runs_by_bounds(off, ln, bounds)
    assert [(o.tolist(), l.tolist()) for o, l in parts] == [
        ([10, 95], [5, 5]),
        ([100], [0]),  # a degenerate domain inside a run: zero bytes of it
        ([100], [100]), ([200], [100]), ([300], [45]),
    ]
    assert ln.tolist() == [5, 250]  # clipping worked on copies


def test_split_no_runs_gives_every_domain_an_empty_piece():
    empty = np.empty(0, dtype=np.int64)
    parts = split_runs_by_bounds(empty, empty, np.array([0, 50, 100]))
    assert [(len(o), len(l)) for o, l in parts] == [(0, 0), (0, 0)]


# ---------------------------------------------------------------------------
# _Aggregation.access: the charged plan and the scratch layout
# ---------------------------------------------------------------------------

def _segment(offsets, lengths):
    return (np.array(offsets, dtype=np.int64),
            np.array(lengths, dtype=np.int64))


def _byte_index(offsets, lengths):
    """Every byte the runs cover, per-run aranges (not the kernel)."""
    return np.concatenate(
        [np.arange(o, o + l) for o, l in zip(offsets, lengths)]
    )


@pytest.mark.parametrize("rank", [0, 1, 5])
@pytest.mark.parametrize("cap", [7, 64, 10_000])
def test_aggregation_batches_address_every_scratch_byte_once(rank, cap):
    """Overlapping segments from three sources, written from and read
    back into scratch, each way of finding the union (``_DENSE`` forced:
    0 sorts and merges, infinity reads it off the segments' own move —
    this aggregation, 370 bytes across for 235 received, is naturally
    dense, with holes, so its segments are placed packed either way):
    the charged requests — (controller, bytes, runs) per batch,
    in order — are ``controller_batches``' flat plan; each batch lies on
    its controller within ``cap``; the access phase moves the union
    runs' bytes end to end, so every one lands on exactly its file byte
    and nowhere else; and ``put`` / ``take`` address each segment's
    bytes of it, the highest source winning an overlap."""
    for dense in (0, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(twophase, "_DENSE", dense)
            _address_every_scratch_byte_once(rank, cap)


def _address_every_scratch_byte_once(rank, cap):
    agg = _Aggregation([
        _segment([0, 40, 100], [30, 20, 50]),
        _segment([20, 55, 300], [25, 10, 70]),  # overlaps source 0 twice
        _segment([140, 360], [20, 10]),         # overlaps, then abuts
    ])
    assert agg.offsets.tolist() == [0, 100, 300]
    assert agg.lengths.tolist() == [65, 60, 70]
    machine = fast_test().with_storage(stripe_size=16, n_controllers=3)
    layout = StripeLayout(stripe_size=16, n_controllers=3)
    ctls, off, ln, bounds = controller_batches(
        layout, agg.offsets, agg.lengths, cap, start=rank % 3
    )
    plan = []
    for ctl, a, b in zip(ctls.tolist(), bounds[:-1], bounds[1:]):
        want = _byte_index(off[a:b], ln[a:b])
        assert len(want) <= cap
        assert {layout.controller_of(int(x)) for x in want} == {ctl}
        plan.append((ctl, int(ln[a:b].sum()), int(b - a)))
    scratch = (np.arange(agg.nbytes) + 1).astype(np.uint8)  # no zero byte
    comm = SimpleNamespace(rank=rank)
    hints = SimpleNamespace(cb_buffer_size=cap)

    def fn(proc, fs):
        h = fs.open(proc, "agg.dat", RDWR, create=True)
        assert agg.access(comm, proc, fs, h, hints, scratch) is None
        return agg.access(comm, proc, fs, h, hints)

    sim = Simulator(trace=Trace(enabled=True))
    fs = FileSystem(sim, machine)
    p = sim.spawn(fn, fs)
    sim.run()
    for label in ("pfs.write", "pfs.read"):
        charged = [(r.data["ctl"], r.data["bytes"], r.data["runs"])
                   for r in sim.trace.by_label(label)]
        assert charged == plan
    assert fs.n_requests == 2 * len(plan)
    assert fs.runs_serviced == 2 * len(ln)
    # scratch holds the union runs end to end: scratch[i] = file byte
    file_byte = _byte_index(agg.offsets, agg.lengths)
    stored = fs.lookup("agg.dat").store.read(0, 400)
    assert stored[file_byte].tolist() == scratch.tolist()
    assert np.count_nonzero(stored) == agg.nbytes  # and nothing else
    assert p.result.tolist() == scratch.tolist()
    # the segments address the same bytes: 3 sources, overlaps included
    data = (np.arange(int(agg.seg_len.sum())) % 251 + 1).astype(np.uint8)
    image = np.zeros(400, dtype=np.uint8)
    pos = 0
    for o, l in zip(agg.seg_off.tolist(), agg.seg_len.tolist()):
        image[o:o + l] = data[pos:pos + l]  # source order: later wins
        pos += l
    union = agg.put(data)
    assert union.tolist() == image[file_byte].tolist()
    assert agg.take(union).tolist() == \
        image[_byte_index(agg.seg_off, agg.seg_len)].tolist()


# ---------------------------------------------------------------------------
# size batching (repro.pfs.scheduler.controller_batches on one controller)
# ---------------------------------------------------------------------------

def _size_batches(uo, ul, max_bytes):
    """Requests of at most ``max_bytes`` from the scheduler: with one
    controller its plan is pure size batching (the stripe cut, at an
    awkward 7 bytes, is undone by the re-merge)."""
    layout = StripeLayout(stripe_size=7, n_controllers=1)
    ctls, off, ln, bounds = controller_batches(layout, uo, ul, max_bytes)
    assert not ctls.any()
    return [(off[a:b], ln[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def test_batches_split_large_runs():
    uo = np.array([0], dtype=np.int64)
    ul = np.array([100], dtype=np.int64)
    batches = _size_batches(uo, ul, max_bytes=30)
    sizes = [int(l.sum()) for _, l in batches]
    assert sizes == [30, 30, 30, 10]
    assert batches[0][0].tolist() == [0]
    assert batches[1][0].tolist() == [30]


def test_batches_group_small_runs():
    uo = np.array([0, 100, 200, 300], dtype=np.int64)
    ul = np.array([10, 10, 10, 10], dtype=np.int64)
    batches = _size_batches(uo, ul, max_bytes=25)
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


def _merge_abutting(off, ln):
    """The walk emits one piece per input run; the scheduler hands the
    file system maximal runs.  Same bytes, same batch."""
    out = []
    for o, l in zip(off.tolist(), ln.tolist()):
        if out and out[-1][0] + out[-1][1] == o:
            out[-1][1] += l
        else:
            out.append([o, l])
    return [o for o, _ in out], [l for _, l in out]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 100), st.integers(0, 120)),
             min_size=0, max_size=30),
    st.integers(1, 257),
)
def test_vectorized_batches_match_reference_property(spec, cap):
    """The scheduler's byte-stream cut produces the reference walk's
    batches exactly — offsets, lengths, and batch boundaries — for any
    run list (zero-length runs included) and any buffer size."""
    uo, ul = _runs(spec)
    got = _size_batches(uo, ul, cap)
    want = _reference_size_batches(uo, ul, cap)
    assert len(got) == len(want)
    for (go, gl), (wo, wl) in zip(got, want):
        assert (go.tolist(), gl.tolist()) == _merge_abutting(wo, wl)
