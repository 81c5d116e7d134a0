"""Process threads run as batch threads, and no thread outlives its run.

A woken ``SCHED_OTHER`` thread preempts the thread that woke it, so a
baton pass between two of them costs three context switches on one CPU;
every process thread marks itself ``SCHED_BATCH`` so a pass costs one
(``repro.simt.process``).  The policy is a host-side detail: these tests
hold that it is set where the platform has it, that it stays off the
thread calling ``run()``, that a refused call changes nothing a run
computes, and that ``run()`` joins every process thread however the run
ends.  (Without the join a thread that has passed the baton for the last
time is alive only until it ends a few lines later, so the last four
tests pin the guarantee rather than catch a frequent race.)
"""

import os
import threading

import pytest

from repro.errors import (
    SimDeadlockError, SimParticipantLost, SimProcessCrashed,
)
from repro.simt import FaultPlan, Resource, SimEvent, Simulator

needs_batch = pytest.mark.skipif(
    not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH on this platform")


def scenario():
    """Tied holds, a FIFO Resource and a daemon ticker; returns the
    resume log, the end time and the handoff count."""
    log = []
    sim = Simulator()
    disk = Resource(sim, 1, "disk")

    def holder(proc):
        for _ in range(3):
            proc.hold(1.0)
            log.append((proc.now, proc.name))

    def disk_user(proc, think):
        for _ in range(2):
            proc.hold(think)
            with disk.request(proc):
                log.append((proc.now, proc.name))
                proc.hold(0.75)

    def ticker(proc):
        while True:
            proc.hold(0.5)
            log.append((proc.now, proc.name))

    sim.spawn(holder, name="hold-a")
    sim.spawn(holder, name="hold-b")
    sim.spawn(disk_user, 0.25, name="disk-a")
    sim.spawn(disk_user, 0.5, name="disk-b")
    sim.spawn(ticker, name="tick", daemon=True)
    sim.run()
    return log, sim.now, sim.handoffs


def alive_threads(sim):
    """Names of ``sim``'s process threads still alive, without joining."""
    return [p.name for p in sim._procs if p._thread.is_alive()]


@needs_batch
def test_process_threads_run_as_batch_and_the_caller_keeps_its_policy():
    seen = []
    caller = os.sched_getscheduler(0)

    def fn(proc):
        seen.append(os.sched_getscheduler(0))
        proc.hold(1.0)
        seen.append(os.sched_getscheduler(0))

    sim = Simulator()
    for i in range(3):
        sim.spawn(fn, name=f"p{i}")
    sim.run()
    assert seen == [os.SCHED_BATCH] * 6
    assert os.sched_getscheduler(0) == caller


def test_refused_policy_changes_no_event_order_clock_or_handoffs(monkeypatch):
    expected = scenario()
    calls = []

    def refuse(*args):
        calls.append(threading.current_thread().name)
        raise PermissionError("refused")

    monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
    assert scenario() == expected
    assert len(calls) == 5  # every process thread asked, once


def test_missing_policy_changes_nothing(monkeypatch):
    expected = scenario()
    monkeypatch.delattr(os, "SCHED_BATCH", raising=False)
    assert scenario() == expected


def test_no_process_thread_outlives_a_normal_end():
    def fn(proc):
        proc.hold(1.0)

    sim = Simulator()
    for i in range(16):
        sim.spawn(fn, name=f"p{i}")
    sim.spawn(fn, name="daemon", daemon=True, delay=5.0)  # killed at the end
    assert sim.run() == 1.0
    assert alive_threads(sim) == []


def test_no_process_thread_outlives_a_crash():
    def fn(proc, fail):
        proc.hold(1.0)
        if fail:
            raise ValueError("boom")
        proc.hold(1.0)

    sim = Simulator()
    for i in range(16):
        sim.spawn(fn, i == 3, name=f"p{i}")
    with pytest.raises(SimProcessCrashed):
        sim.run()
    assert alive_threads(sim) == []


def test_no_process_thread_outlives_a_deadlock():
    never = None

    def fn(proc):
        proc.hold(1.0)
        never.wait(proc)

    sim = Simulator()
    never = SimEvent(sim)
    for i in range(16):
        sim.spawn(fn, name=f"p{i}")
    with pytest.raises(SimDeadlockError):
        sim.run()
    assert alive_threads(sim) == []


def test_no_process_thread_outlives_an_injected_fault():
    done = None

    def fn(proc):
        proc.hold(1.0)
        proc.fault_point("step")
        done.wait(proc)

    def closer(proc):
        proc.hold(2.0)
        proc.fault_point("close")
        done.set()

    sim = Simulator()
    done = SimEvent(sim)
    sim.fault_plan = FaultPlan("close", victim="closer")
    for i in range(16):
        sim.spawn(fn, name=f"p{i}")
    sim.spawn(closer, name="closer")
    with pytest.raises(SimParticipantLost):
        sim.run()
    assert alive_threads(sim) == []
