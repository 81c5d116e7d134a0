"""Unit tests for the discrete-event kernel: clock, processes, determinism."""

import pytest

from repro.errors import SimDeadlockError, SimError, SimProcessCrashed
from repro.simt import Simulator


def test_single_process_runs_and_returns_result():
    def fn(proc, x):
        proc.hold(2.5)
        return x + 1

    sim = Simulator()
    p = sim.spawn(fn, 41)
    end = sim.run()
    assert p.result == 42
    assert p.error is None
    assert end == pytest.approx(2.5)
    assert sim.now == pytest.approx(2.5)


def test_clock_starts_at_zero_and_only_advances():
    times = []

    def fn(proc):
        times.append(proc.now)
        proc.hold(1.0)
        times.append(proc.now)
        proc.hold(0.0)
        times.append(proc.now)

    sim = Simulator()
    sim.spawn(fn)
    sim.run()
    assert times == [0.0, 1.0, 1.0]


def test_two_processes_interleave_by_virtual_time():
    order = []

    def fn(proc, label, dt):
        for i in range(3):
            proc.hold(dt)
            order.append((label, i, proc.now))

    sim = Simulator()
    sim.spawn(fn, "fast", 1.0)
    sim.spawn(fn, "slow", 2.5)
    sim.run()
    assert order == [
        ("fast", 0, 1.0),
        ("fast", 1, 2.0),
        ("slow", 0, 2.5),
        ("fast", 2, 3.0),
        ("slow", 1, 5.0),
        ("slow", 2, 7.5),
    ]
    assert sim.now == pytest.approx(7.5)


def test_simultaneous_events_fire_in_spawn_order():
    order = []

    def fn(proc, label):
        proc.hold(1.0)
        order.append(label)

    sim = Simulator()
    for i in range(8):
        sim.spawn(fn, i)
    sim.run()
    assert order == list(range(8))


def test_spawn_delay_offsets_start_time():
    seen = {}

    def fn(proc, key):
        seen[key] = proc.now

    sim = Simulator()
    sim.spawn(fn, "a", delay=0.0)
    sim.spawn(fn, "b", delay=3.0)
    sim.run()
    assert seen == {"a": 0.0, "b": 3.0}


def test_negative_hold_rejected():
    def fn(proc):
        proc.hold(-1.0)

    sim = Simulator()
    sim.spawn(fn)
    with pytest.raises(SimProcessCrashed):
        sim.run()


def test_process_exception_propagates_with_cause():
    def fn(proc):
        proc.hold(1.0)
        raise ValueError("boom")

    sim = Simulator()
    sim.spawn(fn, name="bad")
    with pytest.raises(SimProcessCrashed) as ei:
        sim.run()
    assert "bad" in str(ei.value)
    assert isinstance(ei.value.__cause__, ValueError)


def test_crash_kills_other_processes_cleanly():
    reached = []

    def victim(proc):
        proc.hold(100.0)
        reached.append("victim-late")  # must never run

    def bomber(proc):
        proc.hold(1.0)
        raise RuntimeError("die")

    sim = Simulator()
    v = sim.spawn(victim)
    sim.spawn(bomber)
    with pytest.raises(SimProcessCrashed):
        sim.run()
    assert reached == []
    assert not v.alive


def test_deadlock_detected_when_process_parks_forever():
    def fn(proc):
        proc.park(reason="never-signalled")

    sim = Simulator()
    sim.spawn(fn, name="stuck")
    with pytest.raises(SimDeadlockError) as ei:
        sim.run()
    assert "stuck" in str(ei.value)
    assert "never-signalled" in str(ei.value)


def test_daemon_does_not_keep_simulation_alive():
    ticks = []

    def daemon(proc):
        while True:
            proc.hold(1.0)
            ticks.append(proc.now)

    def worker(proc):
        proc.hold(3.5)

    sim = Simulator()
    sim.spawn(daemon, daemon=True)
    sim.spawn(worker)
    end = sim.run()
    assert end == pytest.approx(3.5)
    # Daemon ticked up to (and possibly at) the end time, then was killed.
    assert all(t <= 3.5 for t in ticks)


def test_run_after_finish_is_an_error():
    sim = Simulator()
    sim.spawn(lambda proc: None)
    sim.run()
    with pytest.raises(SimError):
        sim.run()
    with pytest.raises(SimError):
        sim.spawn(lambda proc: None)


def test_call_at_runs_callbacks_in_time_order():
    calls = []
    sim = Simulator()
    sim.call_at(2.0, lambda: calls.append(("b", sim.now)))
    sim.call_at(1.0, lambda: calls.append(("a", sim.now)))

    def fn(proc):
        proc.hold(3.0)

    sim.spawn(fn)
    sim.run()
    assert calls == [("a", 1.0), ("b", 2.0)]


def test_call_at_into_the_past_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_at(-1.0, lambda: None)


NAN = float("nan")


def test_nan_hold_is_rejected_in_the_holding_process():
    """A NaN time compares false both ways: let into the heap it resumed at
    0.0 or at the next event's time depending on spawn order."""

    def nan_holder(proc):
        proc.hold(NAN)

    def sleeper(proc):
        proc.hold(5.0)

    for order in ((nan_holder, sleeper), (sleeper, nan_holder)):
        sim = Simulator()
        for fn in order:
            sim.spawn(fn, name=fn.__name__)
        with pytest.raises(SimProcessCrashed, match="nan_holder") as ei:
            sim.run()
        assert isinstance(ei.value.__cause__, ValueError)
        assert sim.now == 0.0


@pytest.mark.parametrize("schedule", [
    lambda sim, p: sim.call_at(NAN, lambda: None),
    lambda sim, p: sim.schedule_resume(p, delay=NAN),
    lambda sim, p: sim.spawn(lambda proc: None, delay=NAN),
], ids=["call_at", "schedule_resume", "spawn"])
def test_nan_time_is_rejected_before_it_reaches_the_heap(schedule):
    sim = Simulator()
    p = sim.spawn(lambda proc: proc.park("parked"), name="p")
    seq = sim._seq
    with pytest.raises(ValueError, match="nan"):
        schedule(sim, p)
    assert sim._seq == seq
    assert sim._procs == [p]
    with pytest.raises(SimDeadlockError):
        sim.run()


def test_schedule_resume_passes_value():
    def waiter(proc):
        return proc.park(reason="value")

    sim = Simulator()
    p = sim.spawn(waiter)
    sim.call_at(5.0, lambda: sim.schedule_resume(p, value="payload"))
    sim.run()
    assert p.result == "payload"
    assert sim.now == pytest.approx(5.0)


def test_many_processes_determinism():
    """Two identical runs produce identical event orderings."""

    def fn(proc, idx, log):
        for step in range(5):
            proc.hold(((idx * 7 + step * 3) % 11) / 10.0 + 0.01)
            log.append((proc.now, idx, step))

    def one_run():
        log = []
        sim = Simulator()
        for i in range(16):
            sim.spawn(fn, i, log)
        sim.run()
        return log, sim.now

    log1, t1 = one_run()
    log2, t2 = one_run()
    assert log1 == log2
    assert t1 == t2
