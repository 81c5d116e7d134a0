"""A two-phase aggregation's two scratch layouts give the same everything.

``_Aggregation`` reads its union runs off the segments' own move when
it is dense (span at most ``_DENSE`` times its segment bytes), and then
addresses its scratch by file offset if the union is one run; otherwise
it sorts and merges, and places segments in the union runs packed end
to end.  The layout is host-side bookkeeping only, so forcing either
one on every aggregation — ``_DENSE`` patched to
0 (always packed) and to infinity (always span) — and leaving the rule
alone must give the same union runs, access plan, bytes handed to the
file system, per-source bytes returned, file contents, clock, events
pushed and ``FileSystem.stats()``.  Shapes: 1-8 sources, each sending
sorted disjoint pieces that overlap other sources' (the highest rank
wins), holes from none to far sparser than the threshold, odd file
displacements, reads past the end of the file, one-segment and
one-source aggregations; and, on the aggregation alone, densities on
both sides of the threshold and exactly at it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fast_test
from repro.mpi import mpirun
from repro.mpiio import MODE_CREATE, MODE_RDWR, File, twophase
from repro.mpiio.twophase import _Aggregation
from repro.pfs import FileSystem
from repro.pfs.runlist import coalesce_runs, gather_runs

LAYOUTS = {"rule": twophase._DENSE, "packed": 0, "span": math.inf}


def _pieces(rng, n, start, unit, hole_max, len_max):
    """``n`` sorted disjoint non-empty runs from ``start``, in ``unit``s."""
    holes = rng.integers(0, hole_max + 1, n)
    lengths = rng.integers(1, len_max + 1, n)
    offsets = start + np.cumsum(holes) + np.cumsum(lengths) - lengths
    return (offsets * unit).astype(np.int64), (lengths * unit).astype(np.int64)


def _oracle_image(entries, data, size):
    """Segments applied in source order: the later (higher) source wins."""
    image = np.zeros(size, dtype=np.uint8)
    pos = 0
    for off, ln in entries:
        for o, l in zip(off.tolist(), ln.tolist()):
            image[o:o + l] = data[pos:pos + l]
            pos += l
    return image


# ---------------------------------------------------------------------------
# the aggregation alone
# ---------------------------------------------------------------------------

@st.composite
def aggregations(draw):
    """Entries of one aggregation: 1-8 sources of 1-40 sorted disjoint
    segments each, overlapping across sources, in 1- or 8-byte units at
    a displacement of 0-9 bytes, holes from none to sparse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    nsources = draw(st.integers(1, 8))
    unit = draw(st.sampled_from([1, 8]))
    disp = draw(st.integers(0, 9))
    hole_max = draw(st.sampled_from([0, 2, 8, 60]))
    len_max = draw(st.sampled_from([1, 4, 300]))
    entries = []
    for _ in range(nsources):
        n = int(rng.integers(1, 41)) if draw(st.booleans()) else 1
        off, ln = _pieces(rng, n, int(rng.integers(0, 50)), unit,
                          hole_max, len_max)
        entries.append((off + disp, ln))
    return entries


def _moves(entries, dense, monkeypatch):
    monkeypatch.setattr(twophase, "_DENSE", dense)
    agg = _Aggregation(entries)
    total = int(agg.seg_len.sum())
    data = (np.arange(total) * 7 % 251 + 1).astype(np.uint8)
    union = agg.put(data)
    return agg, data, union, agg.take(union)


@settings(max_examples=300, deadline=None)
@given(aggregations())
def test_span_and_packed_move_the_same_bytes_property(entries):
    with pytest.MonkeyPatch.context() as mp:
        packed = _moves(entries, 0, mp)
        span = _moves(entries, math.inf, mp)
    for agg, data, union, taken in (packed, span):
        # the union runs are exactly the bytes some segment covers
        ends = agg.seg_off + agg.seg_len
        covered = np.zeros(int(ends.max()) + 1, dtype=bool)
        for o, l in zip(agg.seg_off.tolist(), agg.seg_len.tolist()):
            covered[o:o + l] = True
        edges = np.flatnonzero(np.diff(covered, prepend=False, append=False))
        assert agg.offsets.tolist() == edges[0::2].tolist()
        assert (agg.offsets + agg.lengths).tolist() == edges[1::2].tolist()
        # put lays the union runs end to end, the highest source winning;
        # take returns every segment's bytes of it, source order
        image = _oracle_image(entries, data, len(covered))
        assert union.tolist() == gather_runs(image, agg.offsets,
                                             agg.lengths).tolist()
        assert taken.tolist() == gather_runs(image, agg.seg_off,
                                             agg.seg_len).tolist()
    assert packed[2].tolist() == span[2].tolist()


@pytest.mark.parametrize("gap, dense", [(0, True), (32, True), (33, False)])
def test_density_threshold_is_inclusive(monkeypatch, gap, dense):
    """Two 16-byte segments ``gap`` bytes apart: span ``32 + gap`` against
    ``2 x 32`` received bytes.  At the threshold (a 32-byte hole) the
    aggregation is still dense — its union comes off the segments' own
    move, never through the aggregation's sort and merge; one byte past
    it, it is sparse.  Either way the same union, and the scratch is its
    bytes end to end."""
    merges = []

    def counted(*args):
        merges.append(args)
        return coalesce_runs(*args)

    monkeypatch.setattr(twophase, "coalesce_runs", counted)
    entries = [(np.array([5], dtype=np.int64), np.array([16], dtype=np.int64)),
               (np.array([21 + gap], dtype=np.int64),
                np.array([16], dtype=np.int64))]
    agg = _Aggregation(entries)
    assert len(merges) == (0 if dense else 1)
    want = [[5], [32]] if gap == 0 else [[5, 21 + gap], [16, 16]]
    assert [agg.offsets.tolist(), agg.lengths.tolist()] == want
    data = np.arange(1, 33, dtype=np.uint8)
    assert agg.put(data).tolist() == data.tolist()
    assert agg.take(data).tolist() == data.tolist()


# ---------------------------------------------------------------------------
# whole collectives
# ---------------------------------------------------------------------------

def run_case(case, dense):
    """One job shape under one layout rule: everything it leaves."""
    nprocs, stripe, nctl, cap, unit, disp, hole_max, len_max, seed = case
    rng = np.random.default_rng(seed)
    writes = []
    for _ in range(nprocs):  # ranks overlap each other, never themselves
        n = int(rng.integers(0, 60))
        off, ln = _pieces(rng, n, int(rng.integers(0, 80)), unit,
                          hole_max, len_max)
        writes.append((off + disp, ln,
                       rng.integers(1, 256, int(ln.sum()), dtype=np.uint8)))
    end = max([int(o[-1] + l[-1]) for o, l, _ in writes if len(o)],
              default=0)
    reads = []
    for _ in range(nprocs):  # up to past the end of the file
        off, ln = _pieces(rng, int(rng.integers(0, 60)),
                          int(rng.integers(0, end // unit + 40)), unit,
                          hole_max, len_max)
        reads.append((off + disp, ln))
    machine = fast_test().with_storage(stripe_size=stripe, n_controllers=nctl)
    served, taken = [], []
    serve_plan, take = FileSystem.serve_plan, _Aggregation.take

    def spy_serve(self, proc, handle, plan, offsets, lengths, scratch=None):
        out = serve_plan(self, proc, handle, plan, offsets, lengths, scratch)
        served.append((
            [a.tolist() for a in plan], offsets.tolist(), lengths.tolist(),
            (scratch if out is None else out).tolist(),
        ))
        return out

    def spy_take(self, union):
        out = take(self, union)
        taken.append(out.tolist())
        return out

    def program(ctx):
        f = File.open(ctx.comm, ctx.service("fs"), "col.dat",
                      MODE_CREATE | MODE_RDWR,
                      hints={"cb_buffer_size": cap})
        twophase.collective_write(ctx.comm, ctx.proc, f.fs, f._handle,
                                  *writes[ctx.rank], f.hints)
        back = f.read_runs_at_all(*reads[ctx.rank])
        f.close()
        return back

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twophase, "_DENSE", dense)
        mp.setattr(FileSystem, "serve_plan", spy_serve)
        mp.setattr(_Aggregation, "take", spy_take)
        job = mpirun(program, nprocs, machine=machine,
                     services=lambda sim, m: {"fs": FileSystem(sim, m)})
    fs = job.services["fs"]
    col = fs.lookup("col.dat")
    return {
        "now": job.sim.now, "seq": job.sim._seq, "stats": fs.stats(),
        "size": col.size, "mtime": col.mtime,
        "file": col.store.read(0, col.size).tolist(),
        "values": [v.tolist() for v in job.values],
        "served": served, "taken": taken,
    }


def check_case(case):
    got = {name: run_case(case, dense) for name, dense in LAYOUTS.items()}
    assert got["span"] == got["packed"]
    assert got["rule"] == got["packed"]
    return got["rule"]


@settings(max_examples=60, deadline=None)
@given(st.tuples(
    st.integers(1, 8),                          # ranks (sources)
    st.sampled_from([8, 64, 256]),              # stripe size
    st.integers(1, 3),                          # controllers
    st.sampled_from([40, 1000, 1 << 20]),       # cb_buffer_size
    st.sampled_from([1, 8]),                    # unit (byte / DOUBLE)
    st.sampled_from([0, 1, 3, 8]),              # file displacement
    st.sampled_from([0, 1, 4, 40, 200]),        # widest hole, in units
    st.sampled_from([1, 3, 50]),                # longest piece, in units
    st.integers(0, 2**31 - 1),                  # runs and data
))
def test_layouts_agree_on_whole_collectives_property(case):
    check_case(case)


@pytest.mark.parametrize("case", [
    (1, 64, 2, 1000, 8, 0, 0, 1, 3),    # one rank: one source each
    (4, 256, 3, 40, 8, 1, 0, 1, 5),     # DOUBLEs at an odd displacement
    (6, 64, 3, 1000, 1, 3, 40, 50, 7),  # bytes, holes up to 40 wide
])
def test_layouts_agree_on_whole_collectives(case):
    got = check_case(case)
    assert got["stats"]["n_requests"] > 0
