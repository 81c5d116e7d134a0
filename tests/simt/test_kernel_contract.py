"""The baton-passing contract of the simt kernel, pinned on counts.

Exactly one thread holds the baton; a parking thread dispatches the next
event itself.  These tests hold the kernel to what that promises — how
many cross-thread wake-ups a run costs (:attr:`Simulator.handoffs`), how
many parks a file-system request or a two-phase aggregator's whole access
phase costs its caller, the resume order of a scenario recorded before
the scheduler thread was removed, and where a raising callback ends up —
never to a clock.
"""

import sys
import threading
from collections import deque

import numpy as np
import pytest

from repro.config import origin2000
from repro.pfs import FileSystem
from repro.pfs.file import RDWR, WR
from repro.pfs.scheduler import controller_batches
from repro.simt import Resource, Simulator
from serve_plan_reference import reference_serve_plan


def reaped(sim):
    """Join every process thread of ``sim``; True if all of them ended."""
    for proc in sim._procs:
        proc._thread.join(timeout=10.0)
    return not any(proc._thread.is_alive() for proc in sim._procs)


def test_lone_process_holds_without_any_handoff():
    seen = {}

    def fn(proc):
        seen["start"] = proc.sim.handoffs
        for _ in range(200):
            proc.hold(0.5)
        seen["end"] = proc.sim.handoffs

    sim = Simulator()
    sim.spawn(fn)
    sim.run()
    assert sim.now == 100.0
    assert seen == {"start": 1, "end": 1}  # main -> process, then nothing
    assert sim.handoffs == 2  # ... and process -> main at the end


def test_ping_pong_costs_one_handoff_per_switch():
    counts = []

    def fn(proc):
        for _ in range(50):
            proc.hold(1.0)
            counts.append((proc.name, proc.sim.handoffs))

    sim = Simulator()
    sim.spawn(fn, name="ping")
    sim.spawn(fn, name="pong", delay=0.5)
    sim.run()
    assert [name for name, _n in counts] == ["ping", "pong"] * 50
    handoffs = [n for _name, n in counts]
    assert {b - a for a, b in zip(handoffs, handoffs[1:])} == {1}


# (now, name) at every resume of mixed_scenario(), recorded on the commit
# before this kernel (central scheduler thread, Event handshakes) with a
# straight run().
GOLDEN_RESUMES = [
    (0.25, "disk-a"), (0.5, "send"), (0.5, "tick"),
    (1.0, "hold-a"), (1.0, "hold-b"), (1.0, "disk-a"), (1.0, "send"),
    (1.0, "tick"), (1.0, "disk-b"),
    (1.5, "send"), (1.5, "tick"),
    (1.75, "disk-b"), (1.75, "recv"), (1.75, "disk-c"),
    (2.0, "hold-a"), (2.0, "hold-b"), (2.0, "tick"),
    (2.25, "recv"),
    (2.5, "disk-c"), (2.5, "tick"), (2.5, "disk-a"),
    (2.75, "recv"),
    (3.0, "hold-a"), (3.0, "hold-b"), (3.0, "tick"),
    (3.25, "disk-a"), (3.25, "disk-b"),
    (3.5, "tick"),
    (4.0, "disk-b"), (4.0, "tick"), (4.0, "disk-c"),
    (4.5, "tick"),
    (4.75, "disk-c"),
]


class Mailbox:
    """FIFO items delivered after a delay: each delivery is a ``call``
    event, and a getter parks until one reaches it."""

    def __init__(self, sim):
        self.sim = sim
        self.items = deque()
        self.getters = deque()

    def put(self, item, delay):
        self.sim.call_at(self.sim.now + delay, lambda: self._deliver(item))

    def _deliver(self, item):
        if self.getters:
            self.sim.schedule_resume(self.getters.popleft(), value=item)
        else:
            self.items.append(item)

    def get(self, proc):
        if self.items:
            return self.items.popleft()
        self.getters.append(proc)
        return proc.park(reason="mail")


def mixed_scenario():
    """Tied holds, FIFO queueing on a Resource, delayed mailbox deliveries
    (``call`` events) and a daemon; every time is a binary fraction, so
    the log compares exactly."""
    log = []
    sim = Simulator()
    disk = Resource(sim, 1, "disk")
    mail = Mailbox(sim)

    def mark(proc):
        log.append((proc.now, proc.name))

    def holder(proc):
        for _ in range(3):
            proc.hold(1.0)
            mark(proc)

    def disk_user(proc, think):
        for _ in range(2):
            proc.hold(think)
            with disk.request(proc):
                mark(proc)
                proc.hold(0.75)
            mark(proc)

    def sender(proc):
        for i in range(3):
            proc.hold(0.5)
            mail.put(i, delay=1.25)
            mark(proc)

    def receiver(proc):
        for _ in range(3):
            mail.get(proc)
            mark(proc)

    def ticker(proc):
        while True:
            proc.hold(0.5)
            mark(proc)

    sim.spawn(holder, name="hold-a")
    sim.spawn(holder, name="hold-b")
    sim.spawn(disk_user, 0.25, name="disk-a")
    sim.spawn(disk_user, 0.25, name="disk-b")
    sim.spawn(disk_user, 0.5, name="disk-c")
    sim.spawn(sender, name="send")
    sim.spawn(receiver, name="recv")
    sim.spawn(ticker, name="tick", daemon=True)
    sim.run()
    assert reaped(sim)
    return log, sim.now


def test_mixed_scenario_resumes_in_the_recorded_order():
    log, end = mixed_scenario()
    assert log == GOLDEN_RESUMES
    assert end == 4.75


def test_file_system_request_parks_its_caller_once():
    """16 ranks each write run lists that span all 10 controllers, on their
    own: every request is one park, however long its walk through the
    controller queues, and the wake-ups follow from the parks."""
    machine = origin2000()
    stripe = machine.storage.stripe_size
    n_ctl = machine.storage.n_controllers
    parks, per_request = {}, []

    def writer(proc, fs, idx):
        h = fs.open(proc, f"f{idx}.dat", WR, create=True)
        for req in range(4):
            base = req * n_ctl * stripe
            offsets = [base + c * stripe + 64 * idx for c in range(n_ctl)]
            lengths = [4096 + 512 * (idx % 3)] * n_ctl
            data = np.full(sum(lengths), idx, dtype=np.uint8)
            before = parks[proc.name]
            fs.write(proc, h, offsets, lengths, data)
            per_request.append(parks[proc.name] - before)

    sim = Simulator()
    fs = FileSystem(sim, machine)
    procs = [sim.spawn(writer, fs, i, name=f"rank{i}") for i in range(16)]
    for proc in procs:
        inner = proc._park

        def counted(reason, inner=inner, name=proc.name):
            parks[name] += 1
            return inner(reason)

        parks[proc.name] = 0
        proc._park = counted
    sim.run()
    assert per_request == [1] * (16 * 4)
    assert fs.n_requests == 16 * 4
    assert fs.queue_wait_s > 0  # they did contend
    # A wake-up is main's first, or one per park or process exit at most.
    assert sim.handoffs <= 1 + sum(parks.values()) + len(procs)
    assert reaped(sim)


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("serve_plan, parks_per_access", [
    (FileSystem.serve_plan, lambda k: 1),
    (reference_serve_plan, lambda k: k),
], ids=["one-walk", "per-request"])
def test_aggregation_of_k_batches_parks_its_caller_once(
        k, serve_plan, parks_per_access):
    """An aggregator's write and read of ``k`` single-stripe batches, each
    on its own controller: one park each, however many batches — the
    per-request loop it replaced parks once per batch — for the same
    requests and the same clock."""
    machine = origin2000()
    stripe = machine.storage.stripe_size
    offsets = np.array([0], dtype=np.int64)  # one union run, k stripes
    lengths = np.array([k * stripe], dtype=np.int64)
    parks = {"agg": 0}

    def aggregator(proc, fs):
        h = fs.open(proc, "agg.dat", RDWR, create=True)
        plan = controller_batches(h.file.layout, offsets, lengths, stripe)
        assert len(plan[0]) == k
        scratch = np.full(k * stripe, 7, dtype=np.uint8)
        before = parks["agg"]
        serve_plan(fs, proc, h, plan, offsets, lengths, scratch)
        wrote = parks["agg"] - before
        back = serve_plan(fs, proc, h, plan, offsets, lengths)
        assert back.tolist() == scratch.tolist()
        return wrote, parks["agg"] - before - wrote, proc.now

    sim = Simulator()
    fs = FileSystem(sim, machine)
    proc = sim.spawn(aggregator, fs, name="agg")
    inner = proc._park

    def counted(reason):
        parks["agg"] += 1
        return inner(reason)

    proc._park = counted
    sim.run()
    wrote, read, end = proc.result
    assert (wrote, read) == (parks_per_access(k),) * 2
    assert fs.n_requests == 2 * k
    storage = machine.storage
    expected = storage.metadata_op_cost + storage.file_open_cost  # MDS
    for write in (True, False):
        for _ in range(k):
            expected += storage.stream_time(stripe, write=write)
    assert end == expected
    assert reaped(sim)


def test_one_runner_at_a_time_under_a_hostile_switch_interval():
    """More threads than cores and an interpreter that preempts every few
    bytecodes: still only the baton holder ever executes simulation code,
    and callbacks only run while every process is parked."""
    active = [0]
    violations = []
    fired = []

    def callback():
        if active[0] != 0:
            violations.append(("callback", active[0]))
        fired.append(None)

    def fn(proc, idx):
        for step in range(40):
            active[0] += 1
            if active[0] != 1:
                violations.append((proc.name, active[0]))
            sum(range(200))  # long enough to be preempted mid-section
            proc.sim.call_at(proc.now + 0.03125, callback)
            active[0] -= 1
            proc.hold(((idx * 7 + step * 3) % 11) / 16.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sim = Simulator()
        for i in range(48):
            sim.spawn(fn, i, name=f"p{i}")
        sim.run()
    finally:
        sys.setswitchinterval(interval)
    assert violations == []
    assert len(fired) == 48 * 40
    assert reaped(sim)


def test_raising_callback_surfaces_from_run_on_the_calling_thread():
    where = []

    def boom():
        where.append(threading.current_thread().name)
        raise KeyError("callback failed")

    def sleeper(proc):
        proc.hold(10.0)

    sim = Simulator()
    procs = [sim.spawn(sleeper, name=f"p{i}") for i in range(3)]
    sim.call_at(1.0, boom)
    with pytest.raises(KeyError, match="callback failed"):
        sim.run()
    # It ran on the thread that was parking — a process thread — and is
    # nevertheless the simulation's failure, not that process's crash.
    assert where == ["simt:p2"]
    assert all(p.error is None and not p.alive for p in procs)
    assert sim.now == 1.0
    assert reaped(sim)
    with pytest.raises(Exception, match="already finished"):
        sim.run()


def test_callback_that_parks_is_refused_on_any_thread():
    """Callbacks must not block.  One may find itself on the very thread of
    the process it tries to park, where the foreign-thread check is blind."""

    def sleeper(proc):
        proc.hold(10.0)

    sim = Simulator()
    p = sim.spawn(sleeper, name="p")
    sim.call_at(1.0, lambda: p.park("from-callback"))
    with pytest.raises(RuntimeError, match="parked from inside a callback"):
        sim.run()
    assert reaped(sim)
