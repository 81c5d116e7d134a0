"""Unit tests for Signal, SimEvent, Resource, serve, and Channel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimDeadlockError, SimError, SimProcessCrashed
from repro.simt import (
    Channel, FaultPlan, Resource, Signal, SimEvent, Simulator, serve,
)


# ---------------------------------------------------------------------------
# Signal
# ---------------------------------------------------------------------------

def test_signal_wakes_all_waiters_with_value():
    got = []

    def waiter(proc, sig):
        got.append((proc.name, sig.wait(proc), proc.now))

    def firer(proc, sig):
        proc.hold(2.0)
        assert sig.n_waiting == 3
        n = sig.fire("go")
        assert n == 3

    sim = Simulator()
    sig = Signal(sim)
    for i in range(3):
        sim.spawn(waiter, sig, name=f"w{i}")
    sim.spawn(firer, sig)
    sim.run()
    assert sorted(got) == [("w0", "go", 2.0), ("w1", "go", 2.0), ("w2", "go", 2.0)]


def test_signal_fire_with_no_waiters_returns_zero():
    def fn(proc, sig):
        assert sig.fire() == 0

    sim = Simulator()
    sig = Signal(sim)
    sim.spawn(fn, sig)
    sim.run()


def test_signal_wait_after_fire_blocks_until_next_fire():
    def late_waiter(proc, sig):
        proc.hold(5.0)  # miss the first fire
        sig.wait(proc)

    def firer(proc, sig):
        proc.hold(1.0)
        sig.fire()

    sim = Simulator()
    sig = Signal(sim)
    sim.spawn(late_waiter, sig)
    sim.spawn(firer, sig)
    with pytest.raises(SimDeadlockError):
        sim.run()


# ---------------------------------------------------------------------------
# SimEvent
# ---------------------------------------------------------------------------

def test_simevent_wait_before_and_after_set():
    order = []

    def early(proc, evt):
        order.append(("early", evt.wait(proc), proc.now))

    def setter(proc, evt):
        proc.hold(3.0)
        evt.set(99)

    def late(proc, evt):
        proc.hold(7.0)
        order.append(("late", evt.wait(proc), proc.now))

    sim = Simulator()
    evt = SimEvent(sim)
    sim.spawn(early, evt)
    sim.spawn(setter, evt)
    sim.spawn(late, evt)
    sim.run()
    assert order == [("early", 99, 3.0), ("late", 99, 7.0)]
    assert evt.is_set and evt.value == 99


def test_simevent_double_set_is_error():
    def fn(proc, evt):
        evt.set(1)
        evt.set(2)

    sim = Simulator()
    evt = SimEvent(sim)
    sim.spawn(fn, evt)
    with pytest.raises(SimProcessCrashed) as ei:
        sim.run()
    assert isinstance(ei.value.__cause__, SimError)


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_serializes_beyond_capacity():
    """4 jobs of 1s on a capacity-2 server finish at 1,1,2,2."""
    finish = []

    def job(proc, res):
        with res.request(proc):
            proc.hold(1.0)
        finish.append((proc.name, proc.now))

    sim = Simulator()
    res = Resource(sim, capacity=2)
    for i in range(4):
        sim.spawn(job, res, name=f"j{i}")
    sim.run()
    assert finish == [("j0", 1.0), ("j1", 1.0), ("j2", 2.0), ("j3", 2.0)]


def test_resource_fifo_order_under_contention():
    grants = []

    def job(proc, res, dt):
        res.acquire(proc)
        grants.append(proc.name)
        proc.hold(dt)
        res.release()

    sim = Simulator()
    res = Resource(sim, capacity=1)
    for i in range(5):
        sim.spawn(job, res, 1.0, name=f"j{i}")
    sim.run()
    assert grants == [f"j{i}" for i in range(5)]


def test_resource_invalid_capacity_and_over_release():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)

    res = Resource(sim, capacity=1)

    def fn(proc):
        res.release()  # never acquired

    sim.spawn(fn)
    with pytest.raises(SimProcessCrashed) as ei:
        sim.run()
    assert isinstance(ei.value.__cause__, SimError)


def test_resource_counts_available_and_waiting():
    observed = {}

    def holder(proc, res, sig):
        res.acquire(proc)
        sig.wait(proc)
        res.release()

    def prober(proc, res, sig):
        proc.hold(1.0)
        observed["available"] = res.available
        observed["waiting"] = res.n_waiting
        sig.fire()

    sim = Simulator()
    res = Resource(sim, capacity=2)
    sig = Signal(sim)
    for i in range(3):
        sim.spawn(holder, res, sig, name=f"h{i}")
    sim.spawn(prober, res, sig)
    # h2 waits; after fire, h0/h1 release and h2 acquires, then a second
    # fire is needed for h2 — fire again from a late process.
    def second_fire(proc):
        proc.hold(2.0)
        sig.fire()

    sim.spawn(second_fire)
    sim.run()
    assert observed == {"available": 0, "waiting": 1}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def reference_walk(proc, visits, lead=None):
    """What :func:`serve` replaces, one park per queue and hold; returns
    the virtual seconds queued, measured around each acquire."""
    waited = 0.0
    if lead is not None:
        proc.hold(lead)
    for res, seconds in visits:
        t0 = proc.now
        with res.request(proc):
            waited += proc.now - t0
            proc.hold(seconds)
    return waited


def count_parks(proc, counts):
    """Count every park of ``proc`` (holds included) in ``counts``."""
    park = proc._park
    counts[proc.name] = 0

    def counted(reason):
        counts[proc.name] += 1
        return park(reason)

    proc._park = counted


def run_walks(walk, capacities, programs, pauses=()):
    """Run one scenario with ``walk`` as the walk primitive.

    ``programs`` is a list of ``(daemon, steps)``; a step is ``("think",
    dt)`` or ``("walk", lead, [(resource index, seconds), ...])``.  A
    daemon repeats its steps forever (with a quarter-second hold between
    laps, so the clock always moves).  Returns the ``(now, name)`` log of
    every resume, ``sim.now``, ``sim._seq``, each walk's queue wait and
    each walk's park count."""
    log, waits, parks, counts = [], [], [], {}
    sim = Simulator()
    res = [Resource(sim, cap, f"r{i}") for i, cap in enumerate(capacities)]

    def program(proc, daemon, steps):
        while True:
            for step in steps:
                if step[0] == "think":
                    proc.hold(step[1])
                else:
                    _, lead, visits = step
                    before = counts[proc.name]
                    waits.append(walk(proc, [
                        (res[i % len(res)], seconds) for i, seconds in visits
                    ], lead))
                    parks.append(counts[proc.name] - before)
                log.append((proc.now, proc.name))
            if not daemon:
                return
            proc.hold(0.25)

    for k, (daemon, steps) in enumerate(programs):
        proc = sim.spawn(program, daemon, steps, name=f"p{k}", daemon=daemon)
        count_parks(proc, counts)
    for until in pauses:
        sim.run(until=until)
        if sim._finished:
            break
    if not sim._finished:
        sim.run()
    return log, sim.now, sim._seq, waits, parks


quarters = st.integers(0, 8).map(lambda k: k / 4)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("think"), quarters),
        st.tuples(
            st.just("walk"), st.one_of(st.none(), quarters),
            st.lists(st.tuples(st.integers(0, 2), quarters),
                     min_size=1, max_size=4),
        ),
    ),
    min_size=1, max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(
    capacities=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    programs=st.lists(st.tuples(st.booleans(), steps),
                      min_size=2, max_size=6),
    pauses=st.lists(st.integers(1, 24).map(lambda k: k / 4),
                    max_size=3, unique=True).map(sorted),
)
def test_serve_is_the_request_hold_loop_for_one_park(
    capacities, programs, pauses
):
    """Same resumes at the same times, same clock, same events pushed and
    same queue waits as the loop it replaces — and one park per walk."""
    programs = [(daemon and k > 0, s) for k, (daemon, s) in
                enumerate(programs)]  # someone must keep the run alive
    log, now, seq, waits, parks = run_walks(
        serve, capacities, programs, pauses
    )
    ref_log, ref_now, ref_seq, ref_waits, _ = run_walks(
        reference_walk, capacities, programs, pauses
    )
    assert log == ref_log
    assert now == ref_now
    assert seq == ref_seq
    assert waits == ref_waits
    assert set(parks) <= {1}


def serve_visit_waits(proc, visits, lead=None):
    """:func:`serve` reporting through ``on_wait``: ``(time, seconds)``
    of each visit's queue wait, taken when it is reported."""
    got = []
    serve(proc, visits, lead,
          on_wait=lambda seconds: got.append((proc.sim.now, seconds)))
    return got


def reference_visit_waits(proc, visits, lead=None):
    """The loop's ``(time, seconds)`` per visit, at the end of its hold."""
    got = []
    if lead is not None:
        proc.hold(lead)
    for res, seconds in visits:
        t0 = proc.now
        with res.request(proc):
            waited = proc.now - t0
            proc.hold(seconds)
        got.append((proc.now, waited))
    return got


@settings(max_examples=40, deadline=None)
@given(
    capacities=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    programs=st.lists(st.tuples(st.booleans(), steps),
                      min_size=2, max_size=6),
)
def test_serve_reports_each_visit_wait_as_the_visit_ends(
    capacities, programs
):
    """``on_wait`` gets every visit's queue wait at the instant the loop
    would have it — the end of that visit — and the walk is unchanged."""
    programs = [(daemon and k > 0, s) for k, (daemon, s) in
                enumerate(programs)]
    log, now, seq, waits, parks = run_walks(
        serve_visit_waits, capacities, programs
    )
    ref_log, ref_now, ref_seq, ref_waits, _ = run_walks(
        reference_visit_waits, capacities, programs
    )
    assert (log, now, seq, waits) == (ref_log, ref_now, ref_seq, ref_waits)
    assert set(parks) <= {1}


@pytest.mark.parametrize("walk", [serve, reference_walk])
def test_daemon_mid_walk_dies_when_the_last_process_ends(walk):
    """The daemon is between two visits at 1.5, when ``p1`` ends: its walk
    steps are its own events, so the run stops there as it always did."""
    programs = [
        (False, [("think", 1.5)]),
        (True, [("walk", None, [(0, 1.0), (1, 1.0), (0, 1.0)])]),
    ]
    programs.reverse()  # spawn the daemon first: it walks from t=0
    log, now, seq, waits, parks = run_walks(walk, [1, 1], programs)
    assert log == [(1.5, "p1")]
    assert now == 1.5
    # two spawns, the daemon's first two holds, p1's hold
    assert seq == 5
    assert waits == []


@pytest.mark.parametrize("walk", [serve, reference_walk])
def test_walk_begun_by_a_crashed_process_goes_nowhere(walk):
    """A crashed process's cleanup may start a walk; its park refuses, and
    the lead it scheduled is dropped like any resume of a dead process —
    no grant is taken later on its behalf."""
    log = []
    sim = Simulator()
    sim.fault_plan = FaultPlan("boom", victim="victim")
    res = Resource(sim, 1, "r")

    def victim(proc):
        try:
            proc.fault_point("boom")
        finally:
            walk(proc, [(res, 1.0), (res, 1.0)], 0.5)

    def other(proc):
        proc.hold(1.0)
        log.append(walk(proc, [(res, 1.0)]))

    v = sim.spawn(victim, name="victim")
    sim.spawn(other, name="other")
    sim.run()
    assert v.crashed and log == [0.0]
    assert (sim.now, sim._seq, res.available) == (2.0, 5, 1)


@pytest.mark.parametrize("visits, lead", [
    ([(0, float("nan"))], None),
    ([(0, 1.0)], float("nan")),
    ([(0, 1.0), (0, -0.25)], None),
    ([], float("nan")),
], ids=["nan-visit", "nan-lead", "negative-visit", "nan-lead-alone"])
def test_serve_rejects_a_duration_that_is_not_nonnegative(visits, lead):
    sim = Simulator()
    res = Resource(sim, 1, "r")

    def fn(proc):
        serve(proc, [(res, seconds) for _i, seconds in visits], lead)

    sim.spawn(fn)
    with pytest.raises(SimProcessCrashed) as ei:
        sim.run()
    assert isinstance(ei.value.__cause__, ValueError)
    assert (sim.now, sim._seq, res.available) == (0.0, 1, 1)


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def test_channel_put_then_get_immediate():
    def producer(proc, ch):
        ch.put("a")
        ch.put("b")

    def consumer(proc, ch):
        proc.hold(1.0)
        return [ch.get(proc), ch.get(proc)]

    sim = Simulator()
    ch = Channel(sim)
    sim.spawn(producer, ch)
    c = sim.spawn(consumer, ch)
    sim.run()
    assert c.result == ["a", "b"]


def test_channel_get_blocks_until_delayed_delivery():
    def producer(proc, ch):
        ch.put("late", delay=4.0)

    def consumer(proc, ch):
        item = ch.get(proc)
        return (item, proc.now)

    sim = Simulator()
    ch = Channel(sim)
    sim.spawn(producer, ch)
    c = sim.spawn(consumer, ch)
    sim.run()
    assert c.result == ("late", 4.0)


def test_channel_delayed_items_become_visible_in_delivery_order():
    def producer(proc, ch):
        ch.put("slow", delay=5.0)
        ch.put("fast", delay=1.0)

    def consumer(proc, ch):
        return [ch.get(proc), ch.get(proc)]

    sim = Simulator()
    ch = Channel(sim)
    sim.spawn(producer, ch)
    c = sim.spawn(consumer, ch)
    sim.run()
    assert c.result == ["fast", "slow"]


def test_channel_try_get_nonblocking():
    def fn(proc, ch):
        ok0, _ = ch.try_get()
        ch.put("x")
        ok1, item = ch.try_get()
        return (ok0, ok1, item, len(ch))

    sim = Simulator()
    ch = Channel(sim)
    p = sim.spawn(fn, ch)
    sim.run()
    assert p.result == (False, True, "x", 0)


def test_channel_multiple_getters_fifo():
    got = []

    def getter(proc, ch):
        got.append((proc.name, ch.get(proc)))

    def producer(proc, ch):
        proc.hold(1.0)
        for i in range(3):
            ch.put(i)

    sim = Simulator()
    ch = Channel(sim)
    for i in range(3):
        sim.spawn(getter, ch, name=f"g{i}")
    sim.spawn(producer, ch)
    sim.run()
    assert got == [("g0", 0), ("g1", 1), ("g2", 2)]
