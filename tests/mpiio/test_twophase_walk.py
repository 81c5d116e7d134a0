"""One walk per aggregation: ``FileSystem.serve_plan`` against the
per-request loop it replaced.

``reference_serve_plan`` issues each of the scheduler's batches as a
one-visit request of its own and lands (or reads) that batch's bytes as
the request ends — how a two-phase aggregator accessed the file system
before its access phase became one walk.  Swapped in for ``serve_plan``, it must give
the same clock, the same events pushed, every counter and the same bytes,
whatever the job's shape: rank count, stripe size, controller count,
``cb_buffer_size``, ``cb_nodes``, overlapping writes, reads past EOF, and
an independent reader contending for the controllers meanwhile.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fast_test
from repro.mpi import mpirun
from repro.mpiio import MODE_CREATE, MODE_RDWR, File, twophase
from repro.pfs import FileSystem
from repro.pfs.file import RDWR
from repro.pfs.runlist import gather_runs
from serve_plan_reference import reference_serve_plan


def _runs(rng, n, reach):
    """``n`` sorted disjoint non-empty runs starting below ``reach``."""
    holes = rng.integers(0, 60, n)
    lengths = rng.integers(1, 80, n)
    offsets = int(rng.integers(0, reach)) + np.cumsum(holes) + \
        np.cumsum(lengths) - lengths
    return offsets.astype(np.int64), lengths.astype(np.int64)


def run_case(case, reference):
    """Run one job shape; everything either path must agree on."""
    nprocs, stripe, nctl, cap, nodes, seed, side = case
    rng = np.random.default_rng(seed)
    writes = []
    for _ in range(nprocs):  # ranks overlap each other, never themselves
        off, ln = _runs(rng, int(rng.integers(0, 8)), 400)
        writes.append((off, ln, rng.integers(1, 256, int(ln.sum()),
                                             dtype=np.uint8)))
    end = max([int(o[-1] + l[-1]) for o, l, _ in writes if len(o)],
              default=0)
    reads = [_runs(rng, int(rng.integers(0, 8)), end + 100)
             for _ in range(nprocs)]
    machine = fast_test().with_storage(stripe_size=stripe, n_controllers=nctl)
    side_log = []

    def reader(proc, fs):
        """Independent reads of another file, across every controller,
        while the collectives run."""
        h = fs.open(proc, "side.dat", RDWR, create=True)
        span = 3 * stripe * nctl
        fs.write_at(proc, h, 0, np.arange(span, dtype=np.uint8))
        for _ in range(6):
            got = fs.read(proc, h, [1, stripe + 2], [stripe, span - stripe - 2])
            side_log.append((proc.now, int(got.sum())))

    def services(sim, machine):
        fs = FileSystem(sim, machine)
        if side:
            sim.spawn(reader, fs, name="side")
        return {"fs": fs}

    def program(ctx):
        f = File.open(ctx.comm, ctx.service("fs"), "col.dat",
                      MODE_CREATE | MODE_RDWR,
                      hints={"cb_buffer_size": cap, "cb_nodes": nodes})
        twophase.collective_write(ctx.comm, ctx.proc, f.fs, f._handle,
                                  *writes[ctx.rank], f.hints)
        back = f.read_runs_at_all(*reads[ctx.rank])
        f.close()
        return back

    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(FileSystem, "serve_plan", reference_serve_plan)
        job = mpirun(program, nprocs, machine=machine, services=services)
    fs = job.services["fs"]
    col = fs.lookup("col.dat")
    return {
        "now": job.sim.now, "seq": job.sim._seq, "stats": fs.stats(),
        "size": col.size, "mtime": col.mtime,
        "file": col.store.read(0, col.size).tolist(),
        "values": [v.tolist() for v in job.values], "side": side_log,
    }, writes, reads


def check_case(case):
    got, writes, reads = run_case(case, reference=False)
    want, _, _ = run_case(case, reference=True)
    assert got == want
    # and both are right: the highest rank wins an overlap, bytes past
    # the end of the file read as zeros
    image = np.zeros(got["size"] + 2000, dtype=np.uint8)
    for off, ln, data in writes:
        pos = 0
        for o, l in zip(off.tolist(), ln.tolist()):
            image[o:o + l] = data[pos:pos + l]
            pos += l
    assert got["file"] == image[:got["size"]].tolist()
    for (off, ln), back in zip(reads, got["values"]):
        assert back == gather_runs(image, off, ln).tolist()
    return got


@settings(max_examples=60, deadline=None)
@given(st.tuples(
    st.integers(1, 6),                             # ranks
    st.sampled_from([8, 16, 64, 256]),             # stripe size
    st.integers(1, 4),                             # controllers
    st.sampled_from([8, 40, 100, 1000, 1 << 20]),  # cb_buffer_size
    st.integers(0, 6),                             # cb_nodes (0: auto)
    st.integers(0, 2**31 - 1),                     # runs and data
    st.booleans(),                                 # independent reader
))
def test_one_walk_is_the_per_request_loop_property(case):
    check_case(case)


def test_one_walk_is_the_per_request_loop_under_contention():
    """A fixed shape where the reader and four aggregators do queue for
    the same controllers, batch after batch."""
    got = check_case((5, 16, 3, 40, 0, 7, True))
    assert got["stats"]["queue_wait_s"] > 0
    assert got["stats"]["n_requests"] > 2 * 5 * 3
