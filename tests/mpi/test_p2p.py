"""Point-to-point semantics: exact matching, ordering, nonblocking sends."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.errors import MPIInvalidRank, SimDeadlockError, SimProcessCrashed
from repro.mpi import mpirun


def run(fn, nprocs, **kw):
    kw.setdefault("machine", fast_test())
    return mpirun(fn, nprocs, **kw)


def test_send_recv_value():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send({"a": 7}, dest=1, tag=11)
            return None
        return ctx.comm.recv(source=0, tag=11)

    job = run(program, 2)
    assert job.values[1] == {"a": 7}


def test_send_recv_numpy_array_by_reference():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.arange(10, dtype=np.int64), dest=1)
            return None
        arr = ctx.comm.recv(source=0)
        return arr.sum()

    job = run(program, 2)
    assert job.values[1] == 45


def test_tag_matching_selects_correct_message():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send("tag1", dest=1, tag=1)
            ctx.comm.send("tag2", dest=1, tag=2)
            return None
        second = ctx.comm.recv(source=0, tag=2)
        first = ctx.comm.recv(source=0, tag=1)
        return (first, second)

    job = run(program, 2)
    assert job.values[1] == ("tag1", "tag2")


def test_non_overtaking_same_source_same_tag():
    """A big message sent first must be received first, despite a small
    message being injected right after it."""

    def program(ctx):
        if ctx.rank == 0:
            big = np.zeros(1_000_000, dtype=np.float64)
            r1 = ctx.comm.isend(big, dest=1, tag=0)
            r2 = ctx.comm.isend("small", dest=1, tag=0)
            r1.wait(ctx.proc)
            r2.wait(ctx.proc)
            return None
        first = ctx.comm.recv(source=0, tag=0)
        second = ctx.comm.recv(source=0, tag=0)
        return (isinstance(first, np.ndarray), second)

    job = run(program, 2)
    assert job.values[1] == (True, "small")


def test_isend_recv_roundtrip():
    def program(ctx):
        if ctx.rank == 0:
            req = ctx.comm.isend([1, 2, 3], dest=1)
            req.wait(ctx.proc)
            return ctx.now
        return ctx.comm.recv(source=0)

    job = run(program, 2)
    # The send request completes at delivery, not at injection.
    assert job.values[0] > 0.0
    assert job.values[1] == [1, 2, 3]


def test_recv_posted_before_send_arrives():
    """A receive that parks before its message exists is woken by the
    delivery itself, at the delivery time."""

    def program(ctx):
        if ctx.rank == 1:
            return ctx.comm.recv(source=0, tag=9), ctx.now
        ctx.proc.hold(1.0)
        t0 = ctx.now
        ctx.comm.send("late", dest=1, tag=9)
        return ctx.now - t0

    job = run(program, 2)
    val, t_recv = job.values[1]
    assert val == "late"
    # Blocking send charges exactly the wire time the message takes.
    assert t_recv == pytest.approx(1.0 + job.values[0])
    assert t_recv > 1.0


def test_sendrecv_exchanges_without_deadlock():
    def program(ctx):
        partner = 1 - ctx.rank
        return ctx.comm.sendrecv(f"from{ctx.rank}", dest=partner, source=partner)

    job = run(program, 2)
    assert job.values == ["from1", "from0"]


def test_ring_shift_full_cycle():
    def program(ctx):
        item = ctx.rank
        seen = []
        for _ in range(ctx.size):
            seen.append(item)
            item = ctx.comm.ring_shift(item)
        return seen

    job = run(program, 4)
    # Rank r sees r, r-1, r-2, ... (mod size): everything exactly once.
    for r, seen in enumerate(job.values):
        assert sorted(seen) == [0, 1, 2, 3]
        assert seen[0] == r
        assert seen[1] == (r - 1) % 4


def test_ring_shift_single_rank_identity():
    def program(ctx):
        return ctx.comm.ring_shift("me")

    job = run(program, 1)
    assert job.values == ["me"]


def test_invalid_rank_raises():
    def program(ctx):
        ctx.comm.send("x", dest=99)

    with pytest.raises(SimProcessCrashed) as ei:
        run(program, 2)
    assert isinstance(ei.value.__cause__, MPIInvalidRank)


def test_unmatched_recv_deadlocks():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.recv(source=1, tag=42)

    with pytest.raises(SimDeadlockError):
        run(program, 2)


def test_transfer_time_scales_with_message_size():
    def program(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            ctx.comm.send(np.zeros(1000, dtype=np.float64), dest=1)
            t_small = ctx.now - t0
            t0 = ctx.now
            ctx.comm.send(np.zeros(1_000_000, dtype=np.float64), dest=1)
            t_big = ctx.now - t0
            return t_small, t_big
        ctx.comm.recv(source=0)
        ctx.comm.recv(source=0)
        return None

    job = run(program, 2)
    t_small, t_big = job.values[0]
    assert t_big > t_small * 100  # 1000x the bytes, bandwidth-dominated
