"""The SPMD_VERIFY runtime sanitizer: seeded mismatches, deadlock
reports, the shared trace schema, and the flag-off zero-overhead
guarantee."""

import numpy as np
import pytest

from repro.analysis import SPMDVerifier, format_runtime_mismatch
from repro.analysis.report import format_trace_collectives
from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services
from repro.core.layout import CHUNKED
from repro.dtypes import DOUBLE
from repro.errors import (
    SimDeadlockError,
    SimProcessCrashed,
    SPMDVerificationError,
)
from repro.mpi import mpirun
from repro.simt.trace import CollectiveSignature, Trace


def sig(op="barrier", ctx="0", seq=1, rank=0, root=None, dtype="", count=-1):
    return CollectiveSignature(
        op=op, ctx=ctx, seq=seq, rank=rank, root=root,
        dtype=dtype, count=count, site=f"prog.py:{10 + rank} in main",
    )


# ---------------------------------------------------------------------------
# Seeded collective mismatches (fail fast, both call sites named)
# ---------------------------------------------------------------------------


def test_allreduce_shape_mismatch_is_caught(spmd_verify):
    def program(ctx):
        if ctx.rank == 0:  # spmdlint: ok(rank-branch) deliberately divergent: this test seeds the bug
            return ctx.comm.allreduce([0] * 4)
        return ctx.comm.allreduce([0] * 3)

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test())
    cause = ei.value.__cause__
    assert isinstance(cause, SPMDVerificationError)
    msg = str(cause)
    assert "payload shape mismatch" in msg
    assert "rank 0" in msg and "rank 1" in msg
    # Both ranks' call sites point into this test.
    assert msg.count("test_verify_runtime.py") == 2


def test_shape_mismatch_is_silent_corruption_without_the_flag(no_spmd_verify):
    # The motivating hazard: unverified, the 4-vs-3 allreduce "succeeds"
    # by list concatenation and every rank gets a 7-element result.
    def program(ctx):
        if ctx.rank == 0:  # spmdlint: ok(rank-branch) deliberately divergent: this test seeds the bug
            return ctx.comm.allreduce([0] * 4)
        return ctx.comm.allreduce([0] * 3)

    job = mpirun(program, 2, machine=fast_test())
    assert [len(v) for v in job.values] == [7, 7]


def test_op_kind_mismatch_is_caught(spmd_verify):
    def program(ctx):
        if ctx.rank == 0:  # spmdlint: ok(rank-branch) deliberately divergent: this test seeds the bug
            ctx.comm.barrier()
        else:
            ctx.comm.allgather(1)

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test())
    msg = str(ei.value.__cause__)
    assert "op mismatch" in msg
    assert "'barrier'" in msg and "'allgather'" in msg


def test_root_mismatch_is_caught(spmd_verify):
    def program(ctx):
        root = 0 if ctx.rank == 0 else 1
        # spmdlint: ok(comm-mismatch) deliberately divergent: this test seeds the bug
        return ctx.comm.bcast("x", root=root)

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test())
    assert "root mismatch" in str(ei.value.__cause__)


def test_matching_job_passes_clean(spmd_verify):
    def program(ctx):
        total = ctx.comm.allreduce(ctx.rank)
        parts = ctx.comm.allgather(total)
        ctx.comm.barrier()
        return parts

    job = mpirun(program, 4, machine=fast_test())
    assert all(v == [6, 6, 6, 6] for v in job.values)


# ---------------------------------------------------------------------------
# Deadlock reporting (missing collective, divergent enqueue)
# ---------------------------------------------------------------------------


def test_missing_collective_deadlock_names_the_waiter(spmd_verify):
    def program(ctx):
        if ctx.rank == 0:  # spmdlint: ok(rank-branch) deliberately divergent: this test seeds the deadlock
            ctx.comm.barrier()

    with pytest.raises(SimDeadlockError) as ei:
        mpirun(program, 2, machine=fast_test())
    msg = str(ei.value)
    assert "rank0 waiting in barrier()" in msg
    assert "not in any collective: rank1" in msg
    assert "skipped a collective" in msg


def test_divergent_maintenance_enqueue_deadlocks_with_diagnostics(spmd_verify):
    """Only rank 0 enqueues a background reorganize: its worker enters
    the job's collectives alone (on the job-unique ``("maint", jobid)``
    context) and blocks; the deadlock report must name the stuck worker
    and its pending op."""
    from repro.core.maintenance import REORGANIZE

    n = 16
    maps = [np.arange(r, n, 4, dtype=np.int64) for r in range(4)]

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED, reorganize_mode="background")
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps[ctx.rank])
        sdm.write(handle, "d", 0, maps[ctx.rank] * 1.0)
        # Seed the bug below the SDM API (sdm.reorganize's own metadata
        # probe is a world-context bcast the verifier would flag first):
        # a bare per-rank enqueue that rank 0 alone performs.
        if ctx.rank == 0:  # spmdlint: ok(rank-branch) deliberately divergent: this test seeds the deadlock
            sdm.maintenance.enqueue(
                ctx, REORGANIZE,
                application=sdm.application,
                organization=int(sdm.organization),
                group_id=handle.group_id,
                runid=sdm.runid,
                dataset="d",
                timestep=0,
                data_type="FLOAT64",
                global_size=n,
            )

    with pytest.raises(SimDeadlockError) as ei:
        mpirun(program, 4, machine=fast_test(), services=sdm_services())
    msg = str(ei.value)
    assert "maint-w0" in msg
    assert "waiting in" in msg
    assert "('maint'," in msg  # the pending op names the job context


# ---------------------------------------------------------------------------
# End-of-job sequence check (SPMDVerifier unit level)
# ---------------------------------------------------------------------------


def test_final_check_passes_on_matching_sequences():
    v = SPMDVerifier(2)
    v.enter(sig(rank=0), "rank0", 2, 0.0)
    v.enter(sig(rank=1), "rank1", 2, 0.0)
    v.final_check()
    assert v.checked == 2


def test_final_check_flags_unmatched_site():
    v = SPMDVerifier(2)
    v.enter(sig(rank=0), "rank0", 2, 0.0)
    with pytest.raises(SPMDVerificationError) as ei:
        v.final_check()
    msg = str(ei.value)
    assert "unmatched-collective" in msg
    assert "barrier" in msg and "rank 0" in msg


def test_final_check_flags_diverged_counts_on_nonblocking_contexts():
    # Size-1 communicators never rendezvous, so a count divergence can
    # only be seen by the end-of-job series comparison.
    v = SPMDVerifier(2)
    v.enter(sig(ctx="m", seq=1, rank=0), "rank0", 1, 0.0)
    v.enter(sig(ctx="m", seq=1, rank=1), "rank1", 1, 0.0)
    v.enter(sig(ctx="m", seq=2, rank=1), "rank1", 1, 0.0)
    with pytest.raises(SPMDVerificationError) as ei:
        v.final_check()
    msg = str(ei.value)
    assert "sequence-mismatch" in msg
    assert "rank 0: 1 collective(s)" in msg
    assert "rank 1: 2 collective(s)" in msg


def test_deadlock_report_lists_pending_and_recent():
    v = SPMDVerifier(2)
    v.enter(sig(op="allgather", seq=1, rank=0), "rank0", 2, 0.0)
    v.enter(sig(op="allgather", seq=1, rank=1), "rank1", 2, 0.0)
    v.leave("rank0")
    v.leave("rank1")
    v.enter(sig(op="barrier", seq=2, rank=0), "rank0", 2, 1.0)
    report = v.deadlock_report()
    assert "rank0 waiting in barrier()" in report
    assert "recent: allgather()" in report
    assert "not in any collective: rank1" in report


def test_mismatch_message_has_both_sites():
    a = sig(op="allreduce", dtype="list[int]", count=4, rank=0)
    b = sig(op="allreduce", dtype="list[int]", count=3, rank=1)
    msg = format_runtime_mismatch(a, b, "payload shape mismatch")
    assert "prog.py:10 in main" in msg
    assert "prog.py:11 in main" in msg
    assert "allreduce(dtype=list[int], count=4)" in msg


# ---------------------------------------------------------------------------
# Trace schema unification + pretty-printer
# ---------------------------------------------------------------------------


def test_signatures_ride_the_trace(spmd_verify):
    def program(ctx):
        ctx.comm.allreduce([1.0, 2.0])
        ctx.comm.barrier()

    job = mpirun(program, 2, machine=fast_test())
    sigs = job.sim.trace.collectives()
    assert len(sigs) == 4  # 2 ranks x 2 collectives
    assert {s.op for s in sigs} == {"allreduce", "barrier"}
    assert all(s.ctx == "0" for s in sigs)
    reduces = [s for s in sigs if s.op == "allreduce"]
    assert all(s.count == 2 and s.dtype == "list[float]" for s in reduces)
    assert all("test_verify_runtime.py" in s.site for s in sigs)
    # Per-rank sequence numbers advance in program order.
    for r in (0, 1):
        seqs = [s.seq for s in sigs if s.rank == r]
        assert seqs == sorted(seqs)


def test_trace_pretty_printer_renders_timeline(spmd_verify):
    def program(ctx):
        ctx.comm.barrier()

    job = mpirun(program, 2, machine=fast_test())
    text = format_trace_collectives(job.sim.trace)
    assert "rank0  #1 ctx=0 barrier()" in text
    assert "rank1  #1 ctx=0 barrier()" in text

    empty = format_trace_collectives(Trace(enabled=True))
    assert "no collective records" in empty


# ---------------------------------------------------------------------------
# Flag off: zero overhead, no state
# ---------------------------------------------------------------------------


def _counter_program(ctx):
    ctx.comm.allreduce(ctx.rank)
    ctx.comm.allgather([1, 2])
    ctx.comm.send(0, dest=(ctx.rank + 1) % ctx.size, tag=9)
    ctx.comm.recv((ctx.rank - 1) % ctx.size, tag=9)
    ctx.comm.barrier()
    t = ctx.comm.transport
    return (
        dict(t.coll_counts), dict(t.coll_bytes),
        t.n_p2p_messages, t.p2p_bytes, t.verifier is not None,
    )


def test_flag_off_means_no_verifier_and_identical_counters(
    no_spmd_verify, monkeypatch
):
    off = mpirun(_counter_program, 4, machine=fast_test())
    assert all(v[4] is False for v in off.values)
    assert len(off.sim.trace) == 0  # nothing recorded

    monkeypatch.setenv("SPMD_VERIFY", "1")
    on = mpirun(_counter_program, 4, machine=fast_test())
    assert all(v[4] is True for v in on.values)

    # The sanitizer observes; it must not perturb the modelled run:
    # identical traffic counters and identical virtual elapsed time.
    assert [v[:4] for v in off.values] == [v[:4] for v in on.values]
    assert off.elapsed == on.elapsed
