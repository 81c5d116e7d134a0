"""Data-sieving internals: grouping policy and the RMW/fallback paths."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fast_test, origin2000
from repro.mpi import mpirun
from repro.mpiio import MODE_CREATE, MODE_RDWR, MODE_WRONLY, File
from repro.mpiio.sieving import independent_read, independent_write, sieve_groups
from repro.pfs import FileSystem
from repro.pfs.file import RD, RDWR, WR
from repro.simt import Simulator


def hints(gap=100, buf=1000):
    return replace(fast_test().collective_io, ds_threshold_gap=gap,
                   ds_buffer_size=buf)


def groups_of(offsets, lengths, **kw):
    off = np.array(offsets, dtype=np.int64)
    ln = np.array(lengths, dtype=np.int64)
    return list(sieve_groups(off, ln, hints(**kw)))


# ---------------------------------------------------------------------------
# sieve_groups
# ---------------------------------------------------------------------------

def test_adjacent_runs_group_together():
    assert groups_of([0, 10, 20], [10, 10, 10]) == [(0, 3)]


def test_big_gap_splits_groups():
    assert groups_of([0, 500], [10, 10], gap=100) == [(0, 1), (1, 2)]


def test_span_limit_splits_groups():
    # First two runs span 610 <= 700 and group; the third would stretch the
    # span to 1210 > 700 and starts a new group.
    assert groups_of([0, 600, 1200], [10, 10, 10], gap=10_000, buf=700) == [
        (0, 2), (2, 3),
    ]


def test_single_run_single_group():
    assert groups_of([42], [8]) == [(0, 1)]


def test_empty_runs_no_groups():
    assert groups_of([], []) == []


def _reference_sieve_groups(offsets, lengths, hints):
    """The pre-vectorization per-run walk, kept as the grouping oracle."""
    n = len(offsets)
    if n == 0:
        return
    group_start = 0
    span_start = int(offsets[0])
    for i in range(1, n):
        prev_end = int(offsets[i - 1] + lengths[i - 1])
        gap = int(offsets[i]) - prev_end
        span = int(offsets[i] + lengths[i]) - span_start
        if gap > hints.ds_threshold_gap or span > hints.ds_buffer_size:
            yield group_start, i
            group_start = i
            span_start = int(offsets[i])
    yield group_start, n


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 400), st.integers(1, 200)),
             min_size=0, max_size=40),
    st.integers(0, 300),
    st.integers(1, 600),
)
def test_vectorized_groups_match_reference_property(spec, gap, buf):
    """The np.diff/searchsorted boundary computation yields exactly the
    groups of the per-run reference walk, for any runs and any hints."""
    offsets, lengths = [], []
    cursor = 0
    for hole, ln in spec:
        cursor += hole
        offsets.append(cursor)
        lengths.append(ln)
        cursor += ln
    off = np.array(offsets, dtype=np.int64)
    ln = np.array(lengths, dtype=np.int64)
    h = hints(gap=gap, buf=buf)
    assert list(sieve_groups(off, ln, h)) == list(
        _reference_sieve_groups(off, ln, h)
    )


# ---------------------------------------------------------------------------
# independent read/write paths
# ---------------------------------------------------------------------------

def machine_hints(fs):
    return fs.machine.collective_io


def run_one(fn, machine=None):
    sim = Simulator()
    fs = FileSystem(sim, machine or fast_test())
    p = sim.spawn(fn, fs)
    sim.run()
    return p.result, fs


def test_rmw_preserves_hole_bytes():
    """Sieved writes must not clobber data living in the holes."""

    def fn(proc, fs):
        h = fs.open(proc, "f", RDWR, create=True)
        fs.write_at(proc, h, 0, np.full(64, 7, dtype=np.uint8))
        # Write runs at 0..8 and 16..24, leaving 8..16 as a hole.
        off = np.array([0, 16], dtype=np.int64)
        ln = np.array([8, 8], dtype=np.int64)
        independent_write(fs, proc, h, off, ln,
                          np.full(16, 1, dtype=np.uint8), machine_hints(fs))
        return fs.read(proc, h, [0], [24])

    result, _ = run_one(fn)
    np.testing.assert_array_equal(result[:8], np.full(8, 1, dtype=np.uint8))
    np.testing.assert_array_equal(result[8:16], np.full(8, 7, dtype=np.uint8))
    np.testing.assert_array_equal(result[16:], np.full(8, 1, dtype=np.uint8))


def test_wronly_fallback_writes_per_run():
    def fn(proc, fs):
        h = fs.open(proc, "f", WR, create=True)
        off = np.array([0, 100, 200], dtype=np.int64)
        ln = np.array([4, 4, 4], dtype=np.int64)
        n0 = fs.n_requests
        independent_write(fs, proc, h, off, ln,
                          np.arange(12, dtype=np.uint8), machine_hints(fs))
        return fs.n_requests - n0

    n_requests, fs = run_one(fn)
    assert n_requests == 3  # one per run, no sieving possible
    np.testing.assert_array_equal(
        fs.lookup("f").store.read(100, 4), np.array([4, 5, 6, 7], dtype=np.uint8)
    )


@pytest.mark.parametrize("mode", [MODE_WRONLY, MODE_RDWR],
                         ids=["wronly", "rdwr"])
def test_zero_length_runs_are_never_billed(mode):
    """An empty run moves no bytes, so it costs no request and no
    virtual time on either write path — the write-only fallback's
    per-run loop included — and is never written."""
    def run(offsets, lengths):
        def program(ctx):
            fs, proc = ctx.service("fs"), ctx.comm.proc
            f = File.open(ctx.comm, fs, "z.dat", MODE_CREATE | mode)
            t0, n0 = proc.now, fs.n_requests
            f.write_runs(offsets, lengths, np.arange(16, dtype=np.uint8))
            return proc.now - t0, fs.n_requests - n0

        job = mpirun(program, 1, machine=fast_test(),
                     services=lambda sim, m: {"fs": FileSystem(sim, m)})
        return job.values[0], job.services["fs"].lookup("z.dat").size

    with_empty = run([0, 64, 1_000_000], [8, 8, 0])
    assert with_empty == run([0, 64], [8, 8])
    (_, n_requests), size = with_empty
    assert n_requests == 2 and size == 72


def test_sieved_read_gathers_run_order():
    def fn(proc, fs):
        h = fs.open(proc, "f", RDWR, create=True)
        fs.write_at(proc, h, 0, np.arange(64, dtype=np.uint8))
        off = np.array([8, 32, 40], dtype=np.int64)
        ln = np.array([4, 4, 4], dtype=np.int64)
        return independent_read(fs, proc, h, off, ln, machine_hints(fs))

    result, _ = run_one(fn)
    np.testing.assert_array_equal(
        result, np.concatenate([np.arange(8, 12), np.arange(32, 36),
                                np.arange(40, 44)]).astype(np.uint8)
    )


def test_sieving_issues_fewer_requests_than_runs():
    """50 nearby runs collapse into O(1) covering requests."""

    def fn(proc, fs):
        h = fs.open(proc, "f", RDWR, create=True)
        fs.write_at(proc, h, 0, np.zeros(1000, dtype=np.uint8))
        off = (np.arange(50, dtype=np.int64) * 16)
        ln = np.full(50, 8, dtype=np.int64)
        n0 = fs.n_requests
        independent_read(fs, proc, h, off, ln, machine_hints(fs))
        return fs.n_requests - n0

    n_requests, _ = run_one(fn, machine=origin2000())
    assert n_requests <= 3
