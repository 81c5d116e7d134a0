"""Synchronization and queueing primitives for simulated processes.

All primitives follow the same pattern: state mutation is safe without locks
because the kernel guarantees one runner at a time; blocking is implemented
with :meth:`Process.park` and wake-ups with :meth:`Simulator.schedule_resume`
(:func:`serve` also steps a parked process's walk with callbacks that
process owns).

* :class:`Signal` — broadcast condition: ``fire()`` wakes every waiter.
* :class:`SimEvent` — one-shot future carrying a value; waiting after the
  event is set returns immediately.
* :class:`Resource` — FIFO counting semaphore; models controllers, DB
  connections, or any capacity-limited server.
* :func:`serve` — a FIFO walk through ``(resource, seconds)`` visits for
  one park: the steps in between are callbacks the parked process owns,
  event for event those of the request/hold loop it replaces.
* :class:`Channel` — FIFO item store with optionally *delayed* delivery,
  the building block for message transports.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import (
    Any, Callable, Deque, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import SimError
from repro.simt.process import Process
from repro.simt.simulator import Simulator

__all__ = ["Signal", "SimEvent", "Resource", "Channel", "serve"]


class Signal:
    """Broadcast condition variable.

    ``wait`` blocks the calling process until the next ``fire``; every
    process waiting at fire time is woken (at the current virtual time).
    """

    def __init__(self, sim: Simulator, name: str = "signal") -> None:
        self.sim = sim
        self.name = name
        self._waiters: List[Process] = []

    def wait(self, proc: Process) -> Any:
        """Block ``proc`` until the next :meth:`fire`; returns the fire value."""
        self._waiters.append(proc)
        return proc.park(reason=f"signal:{self.name}")

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            self.sim.schedule_resume(w, value=value)
        return len(waiters)

    @property
    def n_waiting(self) -> int:
        """Number of processes currently blocked on this signal."""
        return len(self._waiters)


class SimEvent:
    """One-shot future: set once, read many.

    Used for completion notification — nonblocking request completion,
    asynchronous history-file writes, etc.
    """

    def __init__(self, sim: Simulator, name: str = "event") -> None:
        self.sim = sim
        self.name = name
        self.value: Any = None
        self._set = False
        self._waiters: List[Process] = []

    @property
    def is_set(self) -> bool:
        """True once :meth:`set` has been called."""
        return self._set

    def set(self, value: Any = None) -> None:
        """Complete the event, waking all waiters.  Setting twice is an error."""
        if self._set:
            raise SimError(f"SimEvent {self.name!r} set twice")
        self._set = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            self.sim.schedule_resume(w, value=value)

    def wait(self, proc: Process) -> Any:
        """Block until set (returns immediately if already set)."""
        if self._set:
            return self.value
        self._waiters.append(proc)
        return proc.park(reason=f"event:{self.name}")


class Resource:
    """FIFO counting semaphore with direct hand-off.

    ``release`` passes the grant straight to the longest waiter — a process
    in :meth:`acquire` or a :func:`serve` walk — without incrementing the
    count first, so service order is strictly FIFO — important for
    reproducing queueing at I/O controllers.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._available = capacity
        self._waitq: Deque[Union[Process, "_Walk"]] = deque()

    @property
    def available(self) -> int:
        """Grants currently free."""
        return self._available

    @property
    def n_waiting(self) -> int:
        """Processes queued for a grant."""
        return len(self._waitq)

    def acquire(self, proc: Process) -> None:
        """Take one grant, blocking FIFO if none is free."""
        if self._available > 0:
            self._available -= 1
            return
        self._waitq.append(proc)
        proc.park(reason=f"resource:{self.name}")

    def release(self) -> None:
        """Return one grant; hands it directly to the next waiter if any
        (a waiting process is resumed, a waiting walk's grant step is
        scheduled at the same instant)."""
        if self._waitq:
            nxt = self._waitq.popleft()
            if isinstance(nxt, Process):
                self.sim.schedule_resume(nxt)
            else:
                self.sim.call_at(self.sim.now, nxt.granted, nxt.proc)
        else:
            if self._available >= self.capacity:
                raise SimError(f"resource {self.name!r} released above capacity")
            self._available += 1

    @contextmanager
    def request(self, proc: Process) -> Iterator[None]:
        """``with res.request(proc): ...`` — acquire/release scope."""
        self.acquire(proc)
        try:
            yield
        finally:
            self.release()


Visit = Tuple[Resource, float]


class _Walk:
    """One :func:`serve` call in flight: its owner is parked, and each step
    below runs as a callback the owner owns."""

    __slots__ = ("proc", "sim", "visits", "i", "holding", "arrived", "waited",
                 "visit_waited", "on_wait")

    def __init__(
        self, proc: Process, visits: Sequence[Visit],
        on_wait: Optional[Callable[[float], None]],
    ) -> None:
        self.proc = proc
        self.sim = proc.sim
        self.visits = visits
        self.i = 0
        self.holding: Optional[Resource] = None
        """The resource whose grant the walk holds, if any."""
        self.arrived = 0.0
        self.waited = 0.0
        """Virtual seconds spent queued, summed over the visits."""
        self.visit_waited = 0.0
        """Virtual seconds the current visit spent queued."""
        self.on_wait = on_wait

    def arrive(self) -> None:
        """Queue at the current visit's resource: take a free grant at
        once, or wait FIFO for :meth:`Resource.release` to hand one over."""
        res = self.visits[self.i][0]
        self.visit_waited = 0.0
        if res._available > 0:
            res._available -= 1
            self.hold()
        else:
            self.arrived = self.sim.now
            res._waitq.append(self)

    def granted(self) -> None:
        """A releaser handed this walk its grant."""
        self.visit_waited = self.sim.now - self.arrived
        self.waited += self.visit_waited
        self.hold()

    def hold(self) -> None:
        """Hold the grant for the visit's seconds.  The last visit's hold is
        the owner's own resume; any other ends in :meth:`leave`."""
        sim = self.sim
        self.holding, seconds = self.visits[self.i]
        if self.i == len(self.visits) - 1:
            sim.schedule_resume(self.proc, seconds)
        else:
            sim.call_at(sim.now + seconds, self.leave, self.proc)

    def leave(self) -> None:
        """Release the grant and move on to the next visit."""
        res, self.holding = self.holding, None
        res.release()
        if self.on_wait is not None:
            self.on_wait(self.visit_waited)
        self.i += 1
        self.arrive()


def serve(
    proc: Process, visits: Sequence[Visit], lead: Optional[float] = None,
    on_wait: Optional[Callable[[float], None]] = None,
) -> float:
    """Hold ``lead`` seconds if given, then visit each ``(resource,
    seconds)`` in order — queue FIFO, hold the grant that long, release
    it — parking ``proc`` once.  Returns the virtual seconds spent queued.

    Equivalent, event for event, to::

        if lead is not None:
            proc.hold(lead)
        for res, seconds in visits:
            with res.request(proc):
                proc.hold(seconds)

    Every event the walk schedules is one that loop schedules, at the same
    time and in the same order, so heap order and the virtual clock are
    the loop's exactly.  What differs is who runs the steps: the owner
    parks once, and every arrival, grant and release in between is a
    callback it owns (:meth:`Simulator.call_at`), run on whichever thread
    holds the baton — no thread switch.  The owner releases the last grant
    on its own thread when it resumes — or, unwound from its park instead
    (killed when the run ends, or already crashed), whichever grant it
    holds, as the loop's ``with`` would.  Every duration must be ``>= 0``.

    ``on_wait``, if given, is called with each visit's queued seconds as
    that visit ends (the last one's when the owner resumes): the moments a
    loop of one-visit walks would add them to a running total, so a total
    kept that way sums in the loop's order, float for float.
    """
    for seconds in [s for _res, s in visits] + ([] if lead is None else [lead]):
        if not seconds >= 0:
            raise ValueError(f"hold time must be >= 0, got {seconds!r}")
    if not visits:
        if lead is not None:
            proc.hold(lead)
        return 0.0
    walk = _Walk(proc, visits, on_wait)
    if lead is None:
        walk.arrive()
    else:
        proc.sim.call_at(proc.sim.now + lead, walk.arrive, proc)
    try:
        proc.park(reason="serve")
    finally:
        if walk.holding is not None:
            walk.holding.release()
    if on_wait is not None:
        on_wait(walk.visit_waited)
    return walk.waited


class Channel:
    """FIFO item queue with timed delivery.

    ``put`` may specify a delivery ``delay``: the item becomes visible to
    getters only after that much virtual time, which models a message in
    flight.  Getters block (FIFO) while the channel is empty.
    """

    def __init__(self, sim: Simulator, name: str = "channel") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()

    def put(self, item: Any, delay: float = 0.0) -> None:
        """Deposit ``item``, visible ``delay`` seconds from now."""
        if delay <= 0.0:
            self._deposit(item)
        else:
            self.sim.call_after(delay, lambda: self._deposit(item))

    def _deposit(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            self.sim.schedule_resume(getter, value=(True, item))
        else:
            self._items.append(item)

    def get(self, proc: Process) -> Any:
        """Pop the oldest visible item, blocking if none."""
        if self._items:
            return self._items.popleft()
        self._getters.append(proc)
        ok, item = proc.park(reason=f"channel:{self.name}")
        if not ok:  # pragma: no cover - defensive; only used by future cancel
            raise SimError(f"channel {self.name!r} get cancelled")
        return item

    def try_get(self) -> tuple[bool, Any]:
        """Nonblocking pop: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def __len__(self) -> int:
        """Number of items currently visible."""
        return len(self._items)
