"""The baton-passing contract of the simt kernel, pinned on counts.

Exactly one thread holds the baton; a parking thread dispatches the next
event itself.  These tests hold the kernel to what that promises — how
many cross-thread wake-ups a run costs (:attr:`Simulator.handoffs`), the
resume order of a scenario recorded before the scheduler thread was
removed, and where a raising callback ends up — never to a clock.
"""

import sys
import threading

import pytest

from repro.simt import Channel, Resource, Simulator


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


def mixed_scenario(pauses=()):
    """Tied holds, FIFO queueing on a Resource, delayed Channel deliveries
    (``call`` events), a daemon, and ``run(until)`` pauses; every time is
    a binary fraction, so the log compares exactly."""
    log = []
    sim = Simulator()
    disk = Resource(sim, 1, "disk")
    mail = Channel(sim, "mail")

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
    for until in pauses:
        assert sim.run(until=until) == until
    sim.run()
    assert reaped(sim)
    return log, sim.now


# The last pause list gave this order on the old kernel too; the others
# pause where the event past ``until`` is tied with queued ones, which its
# pop-and-repush reordered.
@pytest.mark.parametrize("pauses", [(), (0.6,), (0.9, 2.2), (0.3, 1.1, 2.6)])
def test_mixed_scenario_resumes_in_the_recorded_order(pauses):
    log, end = mixed_scenario(pauses)
    assert log == GOLDEN_RESUMES
    assert end == 4.75


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
            proc.sim.call_after(0.03125, callback)
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
