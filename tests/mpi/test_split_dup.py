"""Communicator split: grouping, isolation, collectives on subgroups."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.mpi import mpirun


def run(fn, nprocs, **kw):
    kw.setdefault("machine", fast_test())
    return mpirun(fn, nprocs, **kw)


def test_split_by_parity_groups_and_ranks():
    def program(ctx):
        sub = ctx.comm.split(color=ctx.rank % 2, key=ctx.rank)
        return (sub.rank, sub.size)

    job = run(program, 6)
    # Evens: world 0,2,4 -> sub ranks 0,1,2; odds likewise.
    assert job.values == [(0, 3), (0, 3), (1, 3), (1, 3), (2, 3), (2, 3)]


def test_split_key_reorders_ranks():
    def program(ctx):
        sub = ctx.comm.split(color=0, key=-ctx.rank)  # reverse order
        return sub.rank

    job = run(program, 4)
    assert job.values == [3, 2, 1, 0]


def test_split_undefined_color_opts_out():
    def program(ctx):
        sub = ctx.comm.split(color=None if ctx.rank == 0 else 1)
        return None if sub is None else sub.size

    job = run(program, 4)
    assert job.values == [None, 3, 3, 3]


def test_subgroup_collectives_stay_in_group():
    def program(ctx):
        sub = ctx.comm.split(color=ctx.rank % 2)
        total = sub.allreduce(ctx.rank)
        gathered = sub.allgather(ctx.rank)
        return total, gathered

    job = run(program, 6)
    for r, (total, gathered) in enumerate(job.values):
        expect = [0, 2, 4] if r % 2 == 0 else [1, 3, 5]
        assert total == sum(expect)
        assert gathered == expect


def test_subgroup_p2p_uses_group_ranks():
    def program(ctx):
        sub = ctx.comm.split(color=ctx.rank // 2)  # pairs (0,1), (2,3)
        partner = 1 - sub.rank
        return ctx.rank, sub.sendrecv(f"w{ctx.rank}", dest=partner, source=partner)

    job = run(program, 4)
    assert job.values == [(0, "w1"), (1, "w0"), (2, "w3"), (3, "w2")]


def test_split_isolates_message_contexts():
    """A message on the world comm must not match a subcomm receive."""

    def program(ctx):
        sub = ctx.comm.split(color=0, key=ctx.rank)
        if ctx.rank == 0:
            ctx.comm.send("world-msg", dest=1, tag=7)
            sub.send("sub-msg", dest=1, tag=7)
            return None
        if ctx.rank == 1:
            got_sub = sub.recv(source=0, tag=7)
            got_world = ctx.comm.recv(source=0, tag=7)
            return got_sub, got_world
        return None

    job = run(program, 2)
    assert job.values[1] == ("sub-msg", "world-msg")


def test_nested_split_of_split():
    def program(ctx):
        half = ctx.comm.split(color=ctx.rank // 4)       # two halves of 4
        quarter = half.split(color=half.rank // 2)       # pairs
        return quarter.allgather(ctx.rank)

    job = run(program, 8)
    assert job.values[0] == [0, 1]
    assert job.values[2] == [2, 3]
    assert job.values[5] == [4, 5]
    assert job.values[7] == [6, 7]


def test_split_ring_shift_within_group():
    def program(ctx):
        sub = ctx.comm.split(color=ctx.rank % 2)
        return sub.ring_shift(ctx.rank)

    job = run(program, 6)
    # Evens ring: 0<-4, 2<-0, 4<-2; odds ring: 1<-5, 3<-1, 5<-3.
    assert job.values == [4, 5, 0, 1, 2, 3]
