"""End-to-end MPI-IO File tests under mpirun: correctness of independent and
collective paths against numpy references."""

import numpy as np
import pytest

from repro.config import fast_test, origin2000
from repro.dtypes import FLOAT64, IndexedBlock
from repro.errors import FileExists, FileNotFound, MPIIOError, SimProcessCrashed
from repro.mpiio import (
    File,
    MODE_CREATE,
    MODE_EXCL,
    MODE_RDONLY,
    MODE_RDWR,
    MODE_WRONLY,
    twophase,
)
from repro.mpiio.view import check_runs
from repro.mpi import mpirun
from repro.pfs import FileSystem


def fs_services(sim, machine):
    return {"fs": FileSystem(sim, machine)}


def run(fn, nprocs, machine=None):
    return mpirun(fn, nprocs, machine=machine or fast_test(), services=fs_services)


def test_collective_contiguous_write_then_read():
    """Each rank writes its block; file equals the concatenation."""
    n = 100

    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "blocks.dat", MODE_CREATE | MODE_WRONLY)
        data = np.full(n, ctx.rank, dtype=np.float64)
        f.write_at_all(ctx.rank * n * 8, data)
        f.close()
        f = File.open(ctx.comm, fs, "blocks.dat", MODE_RDONLY)
        out = np.empty(n, dtype=np.float64)
        f.read_at_all(ctx.rank * n * 8, out)
        f.close()
        return out

    job = run(program, 4)
    for r, out in enumerate(job.values):
        np.testing.assert_array_equal(out, np.full(n, r, dtype=np.float64))
    fs = job.services["fs"]
    whole = fs.lookup("blocks.dat").store.read(0, 4 * n * 8).view(np.float64)
    np.testing.assert_array_equal(whole, np.repeat([0.0, 1.0, 2.0, 3.0], n))


def test_collective_interleaved_write_via_vector_view():
    """Round-robin element interleaving: rank r owns elements r, r+P, ..."""
    per_rank = 50

    def program(ctx):
        fs = ctx.service("fs")
        P = ctx.size
        f = File.open(ctx.comm, fs, "inter.dat", MODE_CREATE | MODE_WRONLY)
        ft = FLOAT64.with_extent(8 * P)
        f.set_view(disp=8 * ctx.rank, etype=FLOAT64, filetype=ft)
        data = np.arange(per_rank, dtype=np.float64) * 10 + ctx.rank
        f.write_at_all(0, data)
        f.close()
        return None

    job = run(program, 4)
    fs = job.services["fs"]
    whole = fs.lookup("inter.dat").store.read(0, 4 * per_rank * 8).view(np.float64)
    expect = np.empty(4 * per_rank)
    for r in range(4):
        expect[r::4] = np.arange(per_rank) * 10 + r
    np.testing.assert_array_equal(whole, expect)


def test_collective_irregular_map_array_roundtrip():
    """IndexedBlock views: each rank reads an arbitrary subset of a global
    array written earlier — the SDM import pattern."""
    n_global = 1000

    def program(ctx):
        fs = ctx.service("fs")
        rng = np.random.default_rng(100 + ctx.rank)
        mine = np.sort(
            rng.choice(n_global, size=120, replace=False)
        ).astype(np.int64)
        if ctx.rank == 0:
            # Rank 0 seeds the file independently first.
            f0 = File.open(ctx.comm, fs, "glob.dat", MODE_CREATE | MODE_RDWR)
        else:
            f0 = File.open(ctx.comm, fs, "glob.dat", MODE_CREATE | MODE_RDWR)
        if ctx.rank == 0:
            f0.write_at(0, np.arange(n_global, dtype=np.float64))
        f0.close()
        f = File.open(ctx.comm, fs, "glob.dat", MODE_RDONLY)
        f.set_view(etype=FLOAT64, filetype=IndexedBlock(1, mine, FLOAT64))
        out = np.empty(len(mine), dtype=np.float64)
        f.read_at_all(0, out)
        f.close()
        return (mine, out)

    job = run(program, 4)
    for mine, out in job.values:
        np.testing.assert_array_equal(out, mine.astype(np.float64))


def test_collective_overlapping_writes_deterministic():
    """Ghost-style overlap: every rank writes element 0; highest rank wins."""

    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "ov.dat", MODE_CREATE | MODE_WRONLY)
        data = np.array([float(ctx.rank + 1)])
        f.write_at_all(0, data)
        f.close()
        return None

    job = run(program, 4)
    fs = job.services["fs"]
    val = fs.lookup("ov.dat").store.read(0, 8).view(np.float64)[0]
    assert val == 4.0


def test_independent_write_read_with_sieving():
    """Per-rank interleaved independent access (data sieving path): writes
    through a strided view read back as the view's runs."""

    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "ind.dat", MODE_CREATE | MODE_RDWR)
        # Every rank owns every size-th double, offset by its rank.
        ft = FLOAT64.with_extent(8 * ctx.size)
        f.set_view(disp=8 * ctx.rank, etype=FLOAT64, filetype=ft)
        data = np.arange(20, dtype=np.float64) + 100 * ctx.rank
        f.write_at(0, data)
        ctx.comm.barrier()
        out = f.read_runs(8 * ctx.rank + 8 * ctx.size * np.arange(20),
                          np.full(20, 8)).view(np.float64)
        f.close()
        return out

    job = run(program, 2)
    for r, out in enumerate(job.values):
        np.testing.assert_array_equal(out, np.arange(20, dtype=np.float64) + 100 * r)


def test_open_missing_without_create_fails_on_all_ranks():
    def program(ctx):
        fs = ctx.service("fs")
        File.open(ctx.comm, fs, "nope.dat", MODE_RDONLY)

    with pytest.raises(SimProcessCrashed) as ei:
        run(program, 2)
    assert isinstance(ei.value.__cause__, FileNotFound)


def test_open_excl_on_existing_fails():
    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "x.dat", MODE_CREATE | MODE_WRONLY)
        f.close()
        File.open(ctx.comm, fs, "x.dat", MODE_CREATE | MODE_EXCL | MODE_WRONLY)

    with pytest.raises(SimProcessCrashed) as ei:
        run(program, 2)
    assert isinstance(ei.value.__cause__, FileExists)


def test_write_on_rdonly_rejected():
    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "ro.dat", MODE_CREATE | MODE_RDONLY)
        f.write_at(0, np.zeros(1))

    with pytest.raises(SimProcessCrashed):
        run(program, 2)


def test_operations_on_closed_file_rejected():
    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "c.dat", MODE_CREATE | MODE_WRONLY)
        f.close()
        f.write_at(0, np.zeros(1))

    with pytest.raises(SimProcessCrashed) as ei:
        run(program, 2)
    assert isinstance(ei.value.__cause__, MPIIOError)


def test_collective_beats_independent_for_interleaved_pattern():
    """The paper's core claim: collective I/O >> per-process I/O for
    interleaved irregular access."""
    per_rank = 2000
    P = 8

    def collective(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "c.dat", MODE_CREATE | MODE_WRONLY)
        ft = FLOAT64.with_extent(8 * ctx.size)
        f.set_view(disp=8 * ctx.rank, etype=FLOAT64, filetype=ft)
        t0 = ctx.now
        f.write_at_all(0, np.zeros(per_rank, dtype=np.float64))
        dt = ctx.now - t0
        f.close()
        return dt

    def independent(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "i.dat", MODE_CREATE | MODE_WRONLY)
        ft = FLOAT64.with_extent(8 * ctx.size)
        f.set_view(disp=8 * ctx.rank, etype=FLOAT64, filetype=ft)
        t0 = ctx.now
        f.write_at(0, np.zeros(per_rank, dtype=np.float64))
        dt = ctx.now - t0
        f.close()
        return dt

    m = origin2000()
    t_coll = max(mpirun(collective, P, machine=m, services=fs_services).values)
    t_ind = max(mpirun(independent, P, machine=m, services=fs_services).values)
    assert t_coll < t_ind


def test_cb_buffer_size_hint_controls_request_count():
    def make_program(cb):
        def program(ctx):
            fs = ctx.service("fs")
            f = File.open(
                ctx.comm, fs, "h.dat", MODE_CREATE | MODE_WRONLY,
                hints={"cb_buffer_size": cb, "cb_nodes": 1},
            )
            f.write_at_all(ctx.rank * 8000, np.zeros(1000, dtype=np.float64))
            f.close()
            return None
        return program

    job_small = run(make_program(4096), 2)
    n_small = job_small.services["fs"].n_requests
    job_big = run(make_program(1 << 20), 2)
    n_big = job_big.services["fs"].n_requests
    assert n_small > n_big


def test_adjacent_runs_coalesce_at_source_by_default():
    """Exactly-adjacent runs merge before the collective exchange even at
    the default coalesce_gap of 0 (the lossless merge), and gap-tolerant
    merging bridges holes when hinted — bytes identical in every case."""
    n = 64

    def make_program(hints):
        def program(ctx):
            fs = ctx.service("fs")
            f = File.open(ctx.comm, fs, "runs.dat",
                          MODE_CREATE | MODE_RDWR, hints=hints)
            whole = np.arange(n * ctx.size, dtype=np.uint8)
            if ctx.rank == 0:
                f.write_runs([0], [len(whole)], whole)
            ctx.comm.barrier()
            # n exactly-adjacent 1-byte runs per rank.
            off = np.arange(n, dtype=np.int64) + ctx.rank * n
            ln = np.ones(n, dtype=np.int64)
            before = fs.runs_submitted
            ctx.comm.barrier()  # every rank snapshots before any read starts
            got = f.read_runs_at_all(off, ln)
            ctx.comm.barrier()  # every rank's runs are counted
            submitted = fs.runs_submitted - before
            f.close()
            return got, submitted

        return program

    for hints in (None, {"coalesce_gap": 8}):
        job = run(make_program(hints), 2)
        for r, (got, _s) in enumerate(job.values):
            np.testing.assert_array_equal(
                got, np.arange(n, dtype=np.uint8) + r * n
            )
        # Each rank submitted one merged run, not n per-byte runs.
        assert job.values[0][1] == 2, job.values[0][1]


def test_canonical_read_at_all_merges_nothing_at_gap_zero(monkeypatch):
    """A view's runs reach the read pipeline already maximal
    (``FileView.runs_for`` merged them), so at the default
    ``coalesce_gap`` of 0 a collective read through an irregular view —
    one tile, and a window across tiles — calls the merge kernel zero
    times; under a positive gap it is called once per read."""
    from repro.mpiio import runs as runs_mod

    calls = []
    real = runs_mod.coalesce_runs

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(runs_mod, "coalesce_runs", counted)
    disp = np.array([0, 1, 2, 5, 7, 8, 11], dtype=np.int64)  # abutting + holes

    def make_program(hints):
        def program(ctx):
            fs = ctx.service("fs")
            f = File.open(ctx.comm, fs, "view.dat", MODE_CREATE | MODE_RDWR,
                          hints=hints)
            if ctx.rank == 0:
                f.write_at(0, np.arange(64, dtype=np.float64))
            ctx.comm.barrier()
            f.set_view(ctx.rank * 8 * 32, FLOAT64,
                       IndexedBlock(1, disp, FLOAT64).with_extent(16 * 8))
            got = []
            for count in (len(disp), 2 * len(disp)):  # one tile, two
                ctx.comm.barrier()
                before = len(calls)
                ctx.comm.barrier()
                out = np.empty(count, dtype=np.float64)
                f.read_at_all(0, out)
                ctx.comm.barrier()
                got.append((out, len(calls) - before))
                ctx.comm.barrier()
            f.close()
            return got

        return program

    for hints, merges in ((None, 0), ({"coalesce_gap": 64}, 2)):
        job = run(make_program(hints), 2)
        for r, got in enumerate(job.values):
            for t, (out, n) in enumerate(got):
                tiles = np.concatenate([disp + 16 * k for k in range(t + 1)])
                np.testing.assert_array_equal(out, tiles + 32 * r)
                assert n == merges, (hints, t, n)


def test_gap_hint_bridges_holes_in_collective_read():
    """With coalesce_gap, sparse runs merge into one covering request and
    the hole bytes are discarded before the caller sees them."""

    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "sparse.dat", MODE_CREATE | MODE_RDWR,
                      hints={"coalesce_gap": 1024})
        whole = np.arange(256, dtype=np.uint8)
        if ctx.rank == 0:
            f.write_runs([0], [len(whole)], whole)
        ctx.comm.barrier()
        off = np.array([8, 64, 200], dtype=np.int64) + ctx.rank
        ln = np.array([4, 4, 4], dtype=np.int64)
        before = fs.runs_submitted
        ctx.comm.barrier()  # every rank snapshots before any read starts
        got = f.read_runs_at_all(off, ln)
        ctx.comm.barrier()  # every rank's runs are counted
        submitted = fs.runs_submitted - before
        f.close()
        return got, submitted, off

    job = run(program, 2)
    whole = np.arange(256, dtype=np.uint8)
    for got, _s, off in job.values:
        np.testing.assert_array_equal(
            got, np.concatenate([whole[o : o + 4] for o in off])
        )
    assert job.values[0][1] == 2  # one bridged run per rank


def test_per_file_sieving_hints_reach_independent_io():
    """A file's own ``ds_*`` hints govern its data sieving: with the
    machine default a two-run holey ``read_runs`` is one covering request;
    ``ds_threshold_gap=0`` on the open makes it one request per run."""

    def make_program(hints):
        def program(ctx):
            fs = ctx.service("fs")
            f = File.open(ctx.comm, fs, "holey.dat",
                          MODE_CREATE | MODE_RDWR, hints=hints)
            f.write_at(0, np.arange(4, dtype=np.float64))
            before = fs.n_requests
            # Elements 0 and 2: two 8-byte runs, one 8-byte hole.
            out = f.read_runs([0, 16], [8, 8]).view(np.float64)
            requests = fs.n_requests - before
            f.close()
            return out, requests

        return program

    for hints, expected in ((None, 1), ({"ds_threshold_gap": 0}, 2)):
        out, requests = run(make_program(hints), 1).values[0]
        np.testing.assert_array_equal(out, [0.0, 2.0])
        assert requests == expected, (hints, requests)


@pytest.mark.parametrize("mode", [MODE_WRONLY, MODE_RDWR],
                         ids=["per-run", "sieved"])
@pytest.mark.parametrize("collective", [False, True],
                         ids=["write_runs", "collective_write"])
def test_zero_length_run_does_not_extend_the_file(mode, collective):
    """``check_runs`` admits empty runs; one far past the data, or one in
    a hole a sieving group would bridge, must leave file size and
    ``bytes_written`` those of the non-empty run, and reading the same
    runs back must read only its bytes."""
    fars = (1000, 1_000_000)

    def program(ctx):
        fs = ctx.service("fs")
        out = []
        for far in fars:
            f = File.open(ctx.comm, fs, f"z{far}.dat", MODE_CREATE | mode)
            read = f.read_runs_at_all if collective else f.read_runs
            if ctx.rank == 0:
                runs, payload = ([0, far], [4, 0]), np.full(4, 5, np.uint8)
            else:
                runs, payload = ([], []), np.empty(0, np.uint8)
            n = 0
            if collective:
                n = twophase.collective_write(
                    ctx.comm, ctx.proc, fs, f._handle, *check_runs(*runs),
                    payload, f.hints)
            elif ctx.rank == 0:
                n = f.write_runs(*runs, payload)
            if ctx.rank == 0 or collective:
                if mode == MODE_RDWR:
                    np.testing.assert_array_equal(read(*runs), payload)
            out.append(n)
            f.close()
        return out

    job = run(program, 2)
    fs = job.services["fs"]
    assert job.values == [[4, 4], [0, 0]]
    assert [fs.lookup(f"z{far}.dat").size for far in fars] == [4, 4]
    assert fs.bytes_written == 8
    assert fs.bytes_read == (8 if mode == MODE_RDWR else 0)


def test_zero_length_run_does_not_stretch_the_two_phase_domains():
    """4 ranks, 8 stripe-sized runs each, interleaved: one extra empty run
    at 1e9 on rank 0 must not widen the range the file domains split —
    same requests, same clock, same bytes as without it."""
    def job(empty):
        def program(ctx):
            stripe = ctx.machine.storage.stripe_size
            off = (np.arange(8) * 4 + ctx.rank) * stripe
            ln = np.full(8, stripe)
            if empty and ctx.rank == 0:
                off, ln = np.append(off, 10**9), np.append(ln, 0)
            f = File.open(ctx.comm, ctx.service("fs"), "e.dat",
                          MODE_CREATE | MODE_RDWR)
            twophase.collective_write(
                ctx.comm, ctx.proc, f.fs, f._handle, *check_runs(off, ln),
                np.full(8 * stripe, ctx.rank + 1, dtype=np.uint8), f.hints)
            back = f.read_runs_at_all(off, ln)
            f.close()
            return back.tolist()

        result = run(program, 4)
        fs = result.services["fs"]
        return (result.sim.now, fs.n_requests, fs.lookup("e.dat").size,
                result.values)

    plain = job(empty=False)
    assert plain[1] == 2 * 4 * 4  # (write + read) x 4 aggregators x 4 ctls
    assert job(empty=True) == plain


def test_collective_write_scratch_is_covered_by_its_segments(monkeypatch):
    """The aggregator's scratch buffer is allocated uninitialised: the
    union runs are the union of the segments, so every scratch byte is
    overwritten.  Poison every uninitialised byte buffer with 0xAA and
    three sources' overlapping segments still land as the right file
    bytes (highest rank wins an overlap), holes still read as zeros."""
    real_empty = np.empty

    def poisoned(shape, dtype=float, **kwargs):
        out = real_empty(shape, dtype, **kwargs)
        if out.dtype == np.uint8:
            out.fill(0xAA)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    segments = [  # the layout of test_twophase_helpers' aggregation test
        ([0, 40, 100], [30, 20, 50]),
        ([20, 55, 300], [25, 10, 70]),  # overlaps rank 0 twice
        ([140, 360], [20, 10]),         # overlaps, then abuts
    ]

    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "ov3.dat", MODE_CREATE | MODE_RDWR)
        off, ln = segments[ctx.rank]
        twophase.collective_write(
            ctx.comm, ctx.proc, fs, f._handle, *check_runs(off, ln),
            np.full(sum(ln), ctx.rank + 1, dtype=np.uint8), f.hints)
        back = f.read_runs_at_all([0], [370])
        f.close()
        return back

    job = run(program, 3)
    want = np.zeros(370, dtype=np.uint8)
    for rank, (off, ln) in enumerate(segments):
        for o, l in zip(off, ln):
            want[o:o + l] = rank + 1
    stored = job.services["fs"].lookup("ov3.dat").store.read(0, 370)
    assert stored.tolist() == want.tolist()
    for back in job.values:
        assert back.tolist() == want.tolist()
