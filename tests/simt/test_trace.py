"""Trace recording: kernel-level log plus PFS instrumentation."""

import numpy as np

from repro.config import fast_test
from repro.mpi import mpirun
from repro.mpiio import File, MODE_CREATE, MODE_RDWR
from repro.pfs import FileSystem
from repro.simt import Trace, TraceRecord


def test_trace_disabled_records_nothing():
    t = Trace(enabled=False)
    t.record(1.0, "a", "label")
    assert len(t) == 0
    assert t.last() is None


def test_trace_enabled_records_and_filters():
    t = Trace(enabled=True)
    t.record(1.0, "rank0", "open", {"file": "x"})
    t.record(2.0, "rank1", "write", {"bytes": 10})
    t.record(3.0, "rank0", "write", {"bytes": 20})
    assert len(t) == 3
    assert [r.time for r in t] == [1.0, 2.0, 3.0]
    assert len(t.by_actor("rank0")) == 2
    assert len(t.by_label("write")) == 2
    assert t.last("open") == TraceRecord(1.0, "rank0", "open", {"file": "x"})
    assert t.last().data == {"bytes": 20}
    t.clear()
    assert len(t) == 0


def test_mpirun_trace_captures_pfs_activity():
    def services(sim, machine):
        return {"fs": FileSystem(sim, machine)}

    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "t.dat", MODE_CREATE | MODE_RDWR)
        f.write_at_all(ctx.rank * 80, np.arange(10, dtype=np.float64))
        f.close()
        return None

    job = mpirun(program, 2, machine=fast_test(), services=services,
                 trace=True)
    trace = job.sim.trace
    opens = trace.by_label("pfs.open")
    writes = trace.by_label("pfs.write")
    assert len(opens) == 2  # one per rank
    assert all(r.data["file"] == "t.dat" for r in opens)
    assert sum(r.data["bytes"] for r in writes) == 160
    # Timestamps are monotone within the log.
    times = [r.time for r in trace]
    assert times == sorted(times)


def test_mpirun_without_trace_stays_empty(monkeypatch):
    # SPMD_VERIFY implies recording (signatures ride the trace), so pin
    # it off: this test is about the default-quiet path.
    monkeypatch.delenv("SPMD_VERIFY", raising=False)

    def services(sim, machine):
        return {"fs": FileSystem(sim, machine)}

    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "t.dat", MODE_CREATE | MODE_RDWR)
        f.close()
        return None

    job = mpirun(program, 2, machine=fast_test(), services=services)
    assert len(job.sim.trace) == 0


def _strided_job(monkeypatch, trace):
    """Two ranks, independent and collective I/O over two controllers;
    every ``Trace.record`` call the job makes is counted."""
    monkeypatch.delenv("SPMD_VERIFY", raising=False)
    calls = []

    class SpyTrace(Trace):
        def record(self, time, actor, label, data=None):
            calls.append((label, data))
            super().record(time, actor, label, data)

    monkeypatch.setattr("repro.mpi.job.Trace", SpyTrace)

    def services(sim, machine):
        return {"fs": FileSystem(sim, machine)}

    def program(ctx):
        fs = ctx.service("fs")
        stripe = ctx.machine.storage.stripe_size
        f = File.open(ctx.comm, fs, "t.dat", MODE_CREATE | MODE_RDWR)
        f.write_at_all(ctx.rank * 3 * stripe,
                       np.zeros(3 * stripe, dtype=np.uint8))
        # unscheduled: walks the stripes it covers
        f.read_at(stripe // 2, np.empty(2 * stripe, dtype=np.uint8))
        f.close()
        return None

    job = mpirun(program, 2, machine=fast_test(), services=services,
                 trace=trace)
    return job, calls


def test_disabled_trace_costs_pfs_no_record_payload(monkeypatch):
    """Off means free: with the default trace the file system never
    reaches ``Trace.record``, so no per-request dict is ever built."""
    job, calls = _strided_job(monkeypatch, trace=False)
    assert job.services["fs"].n_requests > 2
    assert calls == [] and len(job.sim.trace) == 0


def test_enabled_trace_carries_every_pfs_request(monkeypatch):
    job, calls = _strided_job(monkeypatch, trace=True)
    fs = job.services["fs"]
    trace = job.sim.trace
    requests = trace.by_label("pfs.read") + trace.by_label("pfs.write")
    assert len(requests) == fs.n_requests == len(
        [c for c in calls if c[0] in ("pfs.read", "pfs.write")])
    nctl = len(fs.controllers)
    for r in requests:
        assert set(r.data) == {"file", "bytes", "runs", "ctl", "nctl"}
        assert r.data["file"] == "t.dat" and r.data["runs"] >= 1
        assert 0 <= r.data["ctl"] < nctl
    # scheduled collective batches sit on one controller each; the
    # independent read crossed two stripe boundaries
    assert {r.data["nctl"] for r in trace.by_label("pfs.write")} == {1}
    assert [r.data["nctl"] for r in trace.by_label("pfs.read")] == \
        [min(3, nctl)] * 2
    assert sum(r.data["bytes"] for r in trace.by_label("pfs.write")) == \
        fs.bytes_written
    assert len(trace.by_label("pfs.open")) == fs.n_opens == 2
