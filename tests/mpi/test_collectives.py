"""Collective semantics and cost-model sanity across process counts."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.errors import SimProcessCrashed
from repro.mpi import MAX, SUM, mpirun

SIZES = [1, 2, 3, 4, 7, 8]


def run(fn, nprocs, **kw):
    kw.setdefault("machine", fast_test())
    return mpirun(fn, nprocs, **kw)


@pytest.mark.parametrize("p", SIZES)
def test_bcast_delivers_root_object(p):
    def program(ctx):
        return ctx.comm.bcast({"n": 42} if ctx.rank == 0 else None, root=0)

    job = run(program, p)
    assert all(v == {"n": 42} for v in job.values)


def test_bcast_nonzero_root():
    def program(ctx):
        return ctx.comm.bcast("payload" if ctx.rank == 2 else None, root=2)

    job = run(program, 4)
    assert job.values == ["payload"] * 4


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_sum_scalar(p):
    def program(ctx):
        return ctx.comm.allreduce(ctx.rank + 1, op=SUM)

    job = run(program, p)
    expected = p * (p + 1) // 2
    assert job.values == [expected] * p


def test_allreduce_numpy_elementwise():
    def program(ctx):
        arr = np.full(5, float(ctx.rank))
        return ctx.comm.allreduce(arr, op=MAX)

    job = run(program, 4)
    for v in job.values:
        np.testing.assert_array_equal(v, np.full(5, 3.0))


@pytest.mark.parametrize("p", SIZES)
def test_gather_collects_in_rank_order(p):
    def program(ctx):
        return ctx.comm.gather(ctx.rank * 10, root=0)

    job = run(program, p)
    assert job.values[0] == [r * 10 for r in range(p)]
    assert all(v is None for v in job.values[1:])


@pytest.mark.parametrize("p", SIZES)
def test_allgather_everyone_gets_everything(p):
    def program(ctx):
        return ctx.comm.allgather(chr(ord("a") + ctx.rank))

    job = run(program, p)
    expected = [chr(ord("a") + r) for r in range(p)]
    assert job.values == [expected] * p


@pytest.mark.parametrize("p", SIZES)
def test_alltoallv_personalized_exchange(p):
    def program(ctx):
        sends = [(ctx.rank, d) for d in range(ctx.size)]
        return ctx.comm.alltoallv(sends)

    job = run(program, p)
    for r, got in enumerate(job.values):
        assert got == [(src, r) for src in range(p)]


def test_alltoallv_with_numpy_payloads():
    def program(ctx):
        sends = [np.full(3, ctx.rank * 10 + d) for d in range(ctx.size)]
        got = ctx.comm.alltoallv(sends)
        return np.concatenate(got)

    job = run(program, 3)
    for r, v in enumerate(job.values):
        np.testing.assert_array_equal(v, np.repeat([r, 10 + r, 20 + r], 3))


def test_barrier_synchronizes_completion_times():
    def program(ctx):
        ctx.proc.hold(float(ctx.rank))  # stagger arrivals 0..3
        ctx.comm.barrier()
        return ctx.now

    job = run(program, 4)
    # Everyone leaves at (essentially) the same instant >= slowest arrival.
    assert max(job.values) - min(job.values) < 1e-9
    assert min(job.values) >= 3.0


def test_collective_op_mismatch_detected():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.bcast("x", root=0)
        else:
            ctx.comm.barrier()

    with pytest.raises(SimProcessCrashed) as ei:
        run(program, 2)
    assert "bcast" in str(ei.value.__cause__) or "barrier" in str(ei.value.__cause__)


def test_collective_root_mismatch_detected():
    def program(ctx):
        ctx.comm.bcast("x", root=ctx.rank)  # different roots

    with pytest.raises(SimProcessCrashed):
        run(program, 2)


def test_consecutive_collectives_keep_order():
    def program(ctx):
        a = ctx.comm.allreduce(1, op=SUM)
        b = ctx.comm.allgather(ctx.rank)
        c = ctx.comm.bcast("end" if ctx.rank == 1 else None, root=1)
        return (a, b, c)

    job = run(program, 4)
    assert job.values == [(4, [0, 1, 2, 3], "end")] * 4


def test_bigger_payload_costs_more_time():
    def program(ctx):
        t0 = ctx.now
        ctx.comm.allreduce(np.zeros(10, dtype=np.float64))
        t_small = ctx.now - t0
        t0 = ctx.now
        ctx.comm.allreduce(np.zeros(1_000_000, dtype=np.float64))
        t_big = ctx.now - t0
        return t_small, t_big

    job = mpirun(program, 4)  # default origin2000 model
    t_small, t_big = job.values[0]
    assert t_big > 10 * t_small


def test_alltoallv_cost_grows_with_process_count():
    def program(ctx):
        t0 = ctx.now
        ctx.comm.alltoallv([np.zeros(1000)] * ctx.size)
        return ctx.now - t0

    t4 = mpirun(program, 4).values[0]
    t16 = mpirun(program, 16).values[0]
    assert t16 > t4  # more rounds, more data


@pytest.mark.parametrize("p", [1, 2, 5, 8])
def test_alltoallv_measures_each_payload_once_and_sums_in_round_order(
    p, monkeypatch
):
    """Every ``(src, dst)`` payload is sized exactly once (deposit keeps
    the per-destination sizes for the byte matrix), the recorded
    collective bytes are still each rank's whole list, and the duration
    is the round-by-round sequential sum, to the last bit."""
    from repro.mpi import collectives
    from repro.mpi.nbytes import payload_nbytes

    rng = np.random.default_rng(p)
    sizes = rng.integers(0, 5000, size=(p, p))
    top_level = []

    def counting(obj):
        top_level.append(obj)
        return payload_nbytes(obj)

    monkeypatch.setattr(collectives, "payload_nbytes", counting)

    def program(ctx):
        sends = [
            (np.zeros(sizes[ctx.rank, d], dtype=np.uint8), "tag", d)
            if (ctx.rank + d) % 3 else None
            for d in range(ctx.size)
        ]
        nbytes = payload_nbytes(sends)
        t0 = ctx.now
        ctx.comm.alltoallv(sends)
        return nbytes, ctx.now - t0, ctx.comm.transport.stats()

    machine = fast_test()
    job = run(program, p, machine=machine)
    assert len(top_level) == p * p
    assert job.values[0][2]["coll_bytes"]["alltoallv"] == \
        sum(v[0] for v in job.values)
    cell = np.array([
        [payload_nbytes((np.zeros(sizes[s, d], dtype=np.uint8), "tag", d))
         if (s + d) % 3 else payload_nbytes(None) for d in range(p)]
        for s in range(p)
    ], dtype=np.float64)
    want = 0.0
    for s in range(1, p):
        want += machine.network.latency + max(
            cell[i, (i + s) % p] for i in range(p)
        ) / machine.network.bandwidth
    if p > 1:
        assert {v[1] for v in job.values} == {want}


def test_phase_timer_records_collective_time():
    def program(ctx):
        with ctx.phase("sync"):
            ctx.proc.hold(1.0 * ctx.rank)
            ctx.comm.barrier()
        with ctx.phase("work"):
            ctx.proc.hold(2.0)
        return None

    job = run(program, 3)
    assert job.phase_max("sync") >= 2.0  # rank 0 waited for rank 2
    assert job.phase_max("work") == pytest.approx(2.0)
    assert all(set(t) == {"sync", "work"} for t in job.phase_totals)
