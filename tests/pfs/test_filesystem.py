"""FileSystem service: namespace, permissions, contention timing."""

import numpy as np
import pytest

from repro.config import fast_test, origin2000
from repro.errors import (
    AccessModeError,
    FileExists,
    FileNotFound,
    InvalidFileHandle,
    SimProcessCrashed,
)
from repro.pfs import FileSystem
from repro.pfs.file import RD, RDWR, WR
from repro.simt import Simulator


def run_one(fn, machine=None):
    """Run fn(proc, fs) in a one-process simulation, return (result, time)."""
    sim = Simulator()
    fs = FileSystem(sim, machine or fast_test())
    p = sim.spawn(fn, fs)
    t = sim.run()
    return p.result, t, fs


def test_create_open_write_read_roundtrip():
    data = np.arange(64, dtype=np.uint8)

    def fn(proc, fs):
        h = fs.open(proc, "a.dat", WR, create=True)
        fs.write_at(proc, h, 0, data)
        fs.close(proc, h)
        h = fs.open(proc, "a.dat", RD)
        out = fs.read_at(proc, h, 0, 64)
        fs.close(proc, h)
        return out

    result, _, fs = run_one(fn)
    np.testing.assert_array_equal(result, data)
    assert fs.lookup("a.dat").size == 64


def test_open_missing_raises():
    def fn(proc, fs):
        fs.open(proc, "ghost", RD)

    with pytest.raises(SimProcessCrashed) as ei:
        run_one(fn)
    assert isinstance(ei.value.__cause__, FileNotFound)


def test_create_exclusive_semantics():
    def fn(proc, fs):
        fs.create(proc, "f")
        fs.create(proc, "f")  # exist_ok defaults to False

    with pytest.raises(SimProcessCrashed) as ei:
        run_one(fn)
    assert isinstance(ei.value.__cause__, FileExists)


def test_write_on_readonly_handle_rejected():
    def fn(proc, fs):
        h = fs.open(proc, "f", RD, create=True)
        fs.write_at(proc, h, 0, np.zeros(4, dtype=np.uint8))

    with pytest.raises(SimProcessCrashed) as ei:
        run_one(fn)
    assert isinstance(ei.value.__cause__, AccessModeError)


def test_read_on_writeonly_handle_rejected():
    def fn(proc, fs):
        h = fs.open(proc, "f", WR, create=True)
        fs.read_at(proc, h, 0, 4)

    with pytest.raises(SimProcessCrashed) as ei:
        run_one(fn)
    assert isinstance(ei.value.__cause__, AccessModeError)


def test_closed_handle_rejected():
    def fn(proc, fs):
        h = fs.open(proc, "f", RDWR, create=True)
        fs.close(proc, h)
        fs.read_at(proc, h, 0, 1)

    with pytest.raises(SimProcessCrashed) as ei:
        run_one(fn)
    assert isinstance(ei.value.__cause__, InvalidFileHandle)


def test_file_records_size_and_times():
    def fn(proc, fs):
        h = fs.open(proc, "s.dat", WR, create=True)
        proc.hold(5.0)
        fs.write_at(proc, h, 0, np.zeros(100, dtype=np.uint8))
        fs.close(proc, h)
        return fs.lookup("s.dat")

    f, _, _ = run_one(fn)
    assert f.size == 100
    assert f.mtime > f.ctime


def test_write_time_scales_with_bytes():
    machine = origin2000()

    def fn(proc, fs):
        h = fs.open(proc, "t.dat", WR, create=True)
        t0 = proc.now
        fs.write_at(proc, h, 0, np.zeros(1_000, dtype=np.uint8))
        t_small = proc.now - t0
        t0 = proc.now
        fs.write_at(proc, h, 0, np.zeros(10_000_000, dtype=np.uint8))
        t_big = proc.now - t0
        return t_small, t_big

    (t_small, t_big), _, _ = run_one(fn, machine)
    assert t_big > 50 * t_small


def test_reads_faster_than_writes_per_stream():
    machine = origin2000()
    n = 10_000_000

    def fn(proc, fs):
        h = fs.open(proc, "rw.dat", RDWR, create=True)
        t0 = proc.now
        fs.write_at(proc, h, 0, np.zeros(n, dtype=np.uint8))
        t_w = proc.now - t0
        t0 = proc.now
        fs.read_at(proc, h, 0, n)
        t_r = proc.now - t0
        return t_w, t_r

    (t_w, t_r), _, _ = run_one(fn, machine)
    assert t_r < t_w


def test_controller_contention_saturates_aggregate_bandwidth():
    """2x controllers of jobs: second wave queues, total time doubles."""
    machine = origin2000()
    nc = machine.storage.n_controllers
    nbytes = 5_000_000

    def writer(proc, fs, i):
        h = fs.open(proc, f"c{i}.dat", WR, create=True)
        fs.write_at(proc, h, 0, np.zeros(nbytes, dtype=np.uint8))
        return proc.now

    def run_jobs(njobs):
        sim = Simulator()
        fs = FileSystem(sim, machine)
        procs = [sim.spawn(writer, fs, i, name=f"w{i}") for i in range(njobs)]
        sim.run()
        return max(p.result for p in procs)

    t_fill = run_jobs(nc)        # exactly saturates: one wave
    t_double = run_jobs(2 * nc)  # two waves
    assert t_double > 1.7 * t_fill


def test_noncontiguous_runs_cost_more_than_contiguous():
    machine = origin2000()
    n_runs = 500

    def fn(proc, fs):
        h = fs.open(proc, "runs.dat", WR, create=True)
        data = np.zeros(n_runs * 8, dtype=np.uint8)
        t0 = proc.now
        fs.write_at(proc, h, 0, data)
        t_contig = proc.now - t0
        offsets = np.arange(n_runs, dtype=np.int64) * 64
        lengths = np.full(n_runs, 8, dtype=np.int64)
        t0 = proc.now
        fs.write(proc, h, offsets, lengths, data)
        t_scattered = proc.now - t0
        return t_contig, t_scattered

    (t_contig, t_scattered), _, _ = run_one(fn, machine)
    assert t_scattered > 2 * t_contig


def test_fs_counters_track_traffic():
    def fn(proc, fs):
        h = fs.open(proc, "cnt.dat", RDWR, create=True)
        fs.write_at(proc, h, 0, np.zeros(100, dtype=np.uint8))
        fs.read_at(proc, h, 0, 50)
        return None

    _, _, fs = run_one(fn)
    assert fs.bytes_written == 100
    assert fs.bytes_read == 50
    assert fs.n_requests == 2
    assert fs.n_opens == 1


def counting_parks(proc):
    """Count ``proc``'s parks (holds included) in the returned list."""
    parks = [0]
    park = proc._park

    def counted(reason):
        parks[0] += 1
        return park(reason)

    proc._park = counted
    return parks


@pytest.mark.parametrize("k", [1, 3, 10])
def test_unscheduled_read_over_k_controllers_parks_once(k):
    """One park for the whole stripe walk, and — uncontended — exactly
    the clock of one hold for the request overhead and one per visit."""
    machine = origin2000()
    storage = machine.storage
    stripe = storage.stripe_size
    offsets = [i * stripe + 100 for i in range(k)]
    lengths = [stripe - 300] * k

    def fn(proc, fs):
        h = fs.open(proc, "k.dat", RDWR, create=True)
        fs.write_at(proc, h, 0, np.zeros(k * stripe, dtype=np.uint8))
        proc.hold(0.1)
        before, t0 = parks[0], proc.now
        out = fs.read(proc, h, offsets, lengths)
        return parks[0] - before, t0, proc.now, out.size

    sim = Simulator()
    fs = FileSystem(sim, machine)
    p = sim.spawn(fn, fs)
    parks = counting_parks(p)
    sim.run()
    n_parks, t0, t1, size = p.result
    assert (n_parks, size) == (1, sum(lengths))
    expected = t0 + storage.stream_time(0, write=False, runs=k)
    for length in lengths:  # one visit per run: each on its own controller
        expected += float(length) / storage.stream_read_bandwidth
    assert t1 == expected
    assert fs.queue_wait_s == 0.0


def test_queue_wait_has_the_closed_form_of_three_on_one_controller():
    """Three equal requests reach controller 0 at once: they wait 0, s and
    2s.  Three truncates reach the two-way MDS at once: the third waits
    one metadata op."""
    machine = origin2000()
    storage = machine.storage
    n = storage.stripe_size  # one stripe: the whole write on controller 0
    s = storage.stream_time(n, write=True, runs=1)
    op = storage.metadata_op_cost
    marks = {}

    def fn(proc, fs, i):
        h = fs.open(proc, f"q{i}.dat", WR, create=True)
        proc.hold(1.0 - proc.now)
        marks.setdefault("truncate", fs.stats()["queue_wait_s"])
        fs.truncate(proc, f"q{i}.dat", 0)
        proc.hold(2.0 - proc.now)
        marks.setdefault("write", fs.stats()["queue_wait_s"])
        # one batch on controller 0: one scheduled request of n bytes
        fs.serve_plan(proc, h, np.array([0]), np.array([n]), n, 0,
                      np.zeros(n, dtype=np.uint8))

    sim = Simulator()
    fs = FileSystem(sim, machine)
    for i in range(3):
        sim.spawn(fn, fs, i, name=f"w{i}")
    sim.run()
    assert marks["write"] - marks["truncate"] == pytest.approx(op, rel=1e-12)
    total = fs.stats()["queue_wait_s"]
    assert total - marks["write"] == pytest.approx(3 * s, rel=1e-12)


def test_zero_length_run_does_not_extend_the_file():
    """``FileSystem.write`` of ``[(0, 4), (1_000_000, 0)]``: file size
    and traffic are those of the non-empty run."""
    def fn(proc, fs):
        h = fs.open(proc, "z.dat", RDWR, create=True)
        n = fs.write(proc, h, [0, 1_000_000], [4, 0],
                     np.full(4, 9, dtype=np.uint8))
        return n, fs.lookup("z.dat").size

    (written, size), _, fs = run_one(fn)
    assert (written, size) == (4, 4)
    assert fs.bytes_written == 4
