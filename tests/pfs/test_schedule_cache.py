"""The file system's access-phase schedules, kept per stripe-relative shape.

``FileSystem.serve_plan`` plans a two-phase aggregator's union runs with
``controller_batches`` once per shape — the runs relative to the
``stripe_size x n_controllers`` period below their first offset,
``max_bytes`` and the starting controller — and serves every later
access of that shape from the schedule it kept.  Two layers of
evidence: (i) a plan-served access is a cold one — the same visits, in
the same order and for the same seconds, the same counters, clock,
events and bytes — across shifted bases, stripe phases, starting
controllers and ``cb_buffer_size``, while a shift that is not a
multiple of the period never hits; (ii) a contract on counts — a T-step
write-then-read loop on one layout plans each distinct shape once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fast_test
from repro.mpi import mpirun
from repro.mpiio import twophase
from repro.pfs import FileSystem, filesystem
from repro.pfs.file import RDWR
from repro.simt import Simulator


def _spy(mp):
    """Count ``controller_batches`` calls and log every walk ``serve``
    gets from the file system, as ``(resource name, seconds)``."""
    log = {"plans": 0, "walks": []}
    plan, serve = filesystem.controller_batches, filesystem.serve

    def counted(*args):
        log["plans"] += 1
        return plan(*args)

    def logged(proc, visits, *args, **kwargs):
        log["walks"].append([(r.name, s) for r, s in visits])
        return serve(proc, visits, *args, **kwargs)

    mp.setattr(filesystem, "controller_batches", counted)
    mp.setattr(filesystem, "serve", logged)
    return log


def accesses(stripe, nctl, cap, start, spec, shifts, side, cold):
    """Write then read the ``(hole, length)`` runs of ``spec`` at each of
    ``shifts`` through ``serve_plan`` on one file system; ``cold`` forgets
    every schedule before each access.  Returns what either way must
    agree on, and the ``controller_batches`` calls made."""
    period = stripe * nctl
    lengths = np.array([ln for _, ln in spec], dtype=np.int64)
    offsets = np.cumsum([hole for hole, _ in spec]) + np.cumsum(lengths) - \
        lengths
    machine = fast_test().with_storage(stripe_size=stripe, n_controllers=nctl)
    sim = Simulator()
    fs = FileSystem(sim, machine)
    got = []

    def aggregator(proc):
        h = fs.open(proc, "s.dat", RDWR, create=True)
        for i, shift in enumerate(shifts):
            data = np.full(int(lengths.sum()), i + 1, dtype=np.uint8)
            for scratch in (data, None):
                if cold:
                    fs._schedules.clear()
                    fs._batches.clear()
                out = fs.serve_plan(proc, h, offsets + shift, lengths, cap,
                                    start, scratch)
                got.append((sim.now, sim._seq, fs.stats(),
                            None if out is None else out.tolist()))

    def contender(proc):
        """Independent reads across every controller meanwhile."""
        h = fs.open(proc, "side.dat", RDWR, create=True)
        fs.write_at(proc, h, 0, np.ones(3 * period, dtype=np.uint8))
        for _ in range(4):
            fs.read(proc, h, [1, stripe + 2], [stripe, 2 * period])

    with pytest.MonkeyPatch.context() as mp:
        log = _spy(mp)
        sim.spawn(aggregator, name="agg")
        if side:
            sim.spawn(contender, name="side")
        sim.run()
    store = fs.lookup("s.dat").store
    got.append(store.read(0, store.size).tolist())
    return {"accesses": got, "walks": log["walks"]}, log["plans"]


@settings(max_examples=80, deadline=None)
@given(st.tuples(
    st.sampled_from([8, 16, 64]),                    # stripe size
    st.integers(1, 4),                               # controllers
    st.sampled_from([8, 40, 100, 1000, 1 << 20]),    # cb_buffer_size
    st.integers(0, 3),                               # start (mod controllers)
    st.integers(0, 300),                             # stripe phase
    st.lists(st.integers(1, 5), min_size=1, max_size=3),  # shifts, periods
    st.integers(1, 10_000),                          # any other shift
    st.lists(st.tuples(st.integers(0, 60), st.integers(1, 150)),
             min_size=1, max_size=12),               # (hole, length) runs
    st.booleans(),                                   # independent reader
))
def test_plan_served_access_is_the_cold_one_property(case):
    stripe, nctl, cap, start, phase, periods, odd, spec, side = case
    period = stripe * nctl
    if odd % period == 0:
        odd += 1
    shifts = [phase] + [phase + k * period for k in periods] + [phase + odd]
    args = (stripe, nctl, cap, start % nctl, spec, shifts, side)
    served, served_plans = accesses(*args, cold=False)
    cold, cold_plans = accesses(*args, cold=True)
    assert served == cold
    # every access of the cold run planned; the served run planned the
    # first shape (every multiple of the period hit it) and the odd shift
    assert cold_plans == 2 * (len(periods) + 2)
    assert served_plans == 2


def test_odd_shift_misses_even_when_its_runs_look_alike():
    """One stripe-sized run shifted by one stripe lands on the next
    controller: not the same schedule, so it must be planned again."""
    served, plans = accesses(16, 3, 1000, 0, [(0, 16)], [0, 48, 96, 16],
                             False, cold=False)
    assert plans == 2
    walks = [w for w in served["walks"] if w[0][0] != "pfs-mds"]
    first, odd = walks[0], walks[-1]
    assert [c for c, _ in first] == ["pfs-ctl0"]
    assert [c for c, _ in odd] == ["pfs-ctl1"]


def test_a_full_cache_starts_afresh(monkeypatch):
    """Two one-batch shapes taking turns, each schedule holding a run and
    a batch: room for two words keeps one schedule, so every turn plans
    again — and serves what a cold access serves."""
    args = (16, 3, 1000, 0, [(0, 16)], [0, 16, 0, 16], False)
    _, plans = accesses(*args, cold=False)
    assert plans == 2
    monkeypatch.setattr(filesystem, "_SCHEDULE_CAPACITY", 2)
    served, plans = accesses(*args, cold=False)
    assert plans == 4
    assert served == accesses(*args, cold=True)[0]


def test_t_step_loop_plans_each_distinct_shape_once(monkeypatch):
    """T timesteps of one irregular layout, each written then read back
    one period-multiple further into the file: ``controller_batches``
    runs once per distinct aggregator shape — the first step's — however
    many steps follow."""
    nprocs, stripe, nctl = 4, 16, 3
    machine = fast_test().with_storage(stripe_size=stripe, n_controllers=nctl)
    step = 20 * stripe * nctl  # past the layout's end, a period multiple
    rng = np.random.default_rng(5)
    layout = []
    for _ in range(nprocs):
        ln = rng.integers(1, 30, 12).astype(np.int64)
        off = np.cumsum(rng.integers(0, 40, 12)) + np.cumsum(ln) - ln
        layout.append((off.astype(np.int64), ln))

    def run(steps):
        log = {"plans": 0, "shapes": set(), "accesses": 0}
        plan, serve_plan = filesystem.controller_batches, FileSystem.serve_plan

        def counted(*args):
            log["plans"] += 1
            return plan(*args)

        def shaped(self, proc, handle, offsets, lengths, max_bytes, start,
                   scratch=None):
            period = stripe * nctl
            rel = offsets - offsets[0] // period * period
            log["shapes"].add((tuple(rel.tolist()), tuple(lengths.tolist()),
                               max_bytes, start))
            log["accesses"] += 1
            return serve_plan(self, proc, handle, offsets, lengths,
                              max_bytes, start, scratch)

        def program(ctx):
            f = ctx.service("fs").open(ctx.proc, "ts.dat", RDWR, create=True)
            off, ln = layout[ctx.rank]
            hints = machine.collective_io
            for t in range(steps):
                data = np.full(int(ln.sum()), t + 1, dtype=np.uint8)
                twophase.collective_write(ctx.comm, ctx.proc, ctx.service("fs"),
                                          f, off + t * step, ln, data, hints)
                back = twophase.collective_read(
                    ctx.comm, ctx.proc, ctx.service("fs"), f, off + t * step,
                    ln, hints)
                assert back.tolist() == data.tolist()

        with monkeypatch.context() as mp:
            mp.setattr(filesystem, "controller_batches", counted)
            mp.setattr(FileSystem, "serve_plan", shaped)
            mpirun(program, nprocs, machine=machine,
                   services=lambda sim, m: {"fs": FileSystem(sim, m)})
        return log

    one, many = run(1), run(6)
    assert many["accesses"] == 6 * one["accesses"] > 0
    assert many["plans"] == len(many["shapes"]) == one["plans"]
