"""The discrete-event scheduler and virtual clock.

Event-queue entries are ``(time, seq, kind, payload, value)`` tuples ordered
by ``(time, seq)``; ``seq`` is a monotonically increasing counter so
simultaneous events fire in the order they were scheduled, which makes runs
deterministic.  Two event kinds exist:

* ``resume`` — transfer control to a parked :class:`Process` (optionally
  passing it a wake value);
* ``call`` — run a plain callback.  Callbacks must not block; they are used
  for timed actions that do not belong to any process, such as a message
  arriving in a mailbox.

There is no scheduler thread.  **Exactly one thread holds the baton** — the
thread inside :meth:`Simulator.run` (called *main* below) or one process
thread — and only the holder touches the queue, the clock, or any simulation
state.  A holder that is about to block runs :meth:`Simulator._dispatch`
itself: it pops events in ``(time, seq)`` order, **runs callbacks on its own
thread**, and stops at the next resume of a live process.  If that process is
the holder, it simply carries on (no thread switch at all); otherwise it
releases the target's wake-up lock and blocks on its own — one cross-thread
handoff per switch, counted in :attr:`Simulator.handoffs`.  Which thread pops
an event never influences which event is popped, so event order is that of
the heap alone.

**Terminal decisions are main's.**  The dispatcher consumes nothing and hands
the baton to main when a process has raised, a callback has raised, the queue
is empty, only daemon events remain, or the queue head lies past ``until``;
:meth:`Simulator.run` then drains the remaining threads and reports (crash,
deadlock, participant lost, pause, or normal end) from the caller's thread.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import (
    SimDeadlockError,
    SimError,
    SimParticipantLost,
    SimProcessCrashed,
)
from repro.simt.process import Crashed, Process, new_wakeup
from repro.simt.trace import Trace

__all__ = ["Simulator", "FaultPlan"]

_RESUME = 0
_CALL = 1


@dataclass
class FaultPlan:
    """Crash one named process at the Nth hit of a registered fault point.

    Install on a simulator (``sim.fault_plan = FaultPlan(...)``, or via
    :func:`repro.mpi.job.mpirun`'s ``fault_plan`` argument) before the
    run.  While a plan is installed, every :meth:`Process.fault_point`
    hit is appended to :attr:`Simulator.fault_log` as
    ``(process name, point name, nth hit of that pair)`` — an
    *observe-only* plan (:meth:`observe`) therefore enumerates a
    workload's complete crash schedule, which is what the fault property
    harness replays case by case.

    ``occurrence`` counts hits of the exact ``(victim, point)`` pair,
    starting at 1, so ``FaultPlan("flip:published", victim="rank0",
    occurrence=2)`` survives the first flip and dies publishing the
    second.
    """

    point: Optional[str]
    """Fault-point name to crash at (None: observe/record only)."""

    victim: str = "rank0"
    """Name of the process to crash (other processes pass through)."""

    occurrence: int = 1
    """Which hit of ``(victim, point)`` is fatal (1-based)."""

    hits: int = field(default=0, compare=False)
    """Matching ``(victim, point)`` hits seen so far (kernel-maintained)."""

    @classmethod
    def observe(cls) -> "FaultPlan":
        """A plan that never fires but enables fault-point recording."""
        return cls(point=None, victim="")

    def matches(self, proc_name: str, point: str, nth: int) -> bool:
        """True when the ``nth`` hit of ``(proc_name, point)`` is fatal."""
        if self.point is None or point != self.point or proc_name != self.victim:
            return False
        self.hits = nth
        return nth == self.occurrence


class Simulator:
    """Discrete-event simulator: virtual clock plus an event queue.

    Typical usage::

        sim = Simulator()
        sim.spawn(rank_fn, arg0, name="rank0")
        sim.spawn(rank_fn, arg1, name="rank1")
        sim.run()                     # returns when all non-daemon procs end
        print(sim.now)                # total virtual time

    The simulator owns a :class:`~repro.simt.trace.Trace` that subsystems may
    use to record timestamped annotations for debugging and benchmarking.
    """

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self.now: float = 0.0
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.deadlock_reporters: List[Callable[[], str]] = []
        """Callbacks consulted when a deadlock is detected; whatever they
        return is appended to the :class:`SimDeadlockError` message (the
        ``SPMD_VERIFY`` sanitizer registers its per-rank pending-op
        report here)."""
        self.fault_plan: Optional[FaultPlan] = None
        """Installed crash schedule (None: fault injection disabled — the
        ``fault_point`` hook is then a two-attribute no-op)."""
        self.fault_log: List[Tuple[str, str, int]] = []
        """Every fault-point hit seen while a plan was installed:
        ``(process name, point, nth hit of that pair)``."""
        self.handoffs = 0
        """Cross-thread wake-ups issued so far: one per switch between two
        different threads, none when a process's own resume is next."""
        self._fault_hits: dict = {}
        self._queue: List[Tuple[float, int, int, Any, Any]] = []
        self._seq = 0
        self._procs: List[Process] = []
        self._live = 0
        """Alive non-daemon processes."""
        self._until: Optional[float] = None
        self._aborting = False
        self._crashed: Optional[Process] = None
        self._callback_error: Optional[BaseException] = None
        self._in_callback = False
        self._finished = False
        self._main_wake = new_wakeup()

    # ------------------------------------------------------------------
    # Spawning and scheduling
    # ------------------------------------------------------------------

    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        delay: float = 0.0,
        **kwargs: Any,
    ) -> Process:
        """Create a process running ``fn(proc, *args, **kwargs)``.

        The process starts at virtual time ``now + delay``.  Daemon processes
        are killed when every non-daemon process has finished.
        """
        if self._finished:
            raise SimError("cannot spawn into a finished simulation")
        if name is None:
            name = f"proc{len(self._procs)}"
        proc = Process(self, fn, args, kwargs, name=name, daemon=daemon)
        self._procs.append(proc)
        if not daemon:
            self._live += 1
        proc._thread.start()
        self.schedule_resume(proc, delay=delay)
        return proc

    def schedule_resume(self, proc: Process, delay: float = 0.0, value: Any = None) -> None:
        """Schedule ``proc`` to resume at ``now + delay`` with ``value``.

        ``value`` is returned from the process's pending
        :meth:`~repro.simt.process.Process.park` call.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        self._push(self.now + delay, _RESUME, proc, value)

    def call_at(self, t: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute time ``t``, on whichever thread holds
        the baton then.

        ``fn`` must not block; it may schedule further events.  If it
        raises, the simulation is torn down and :meth:`run` re-raises the
        exception.
        """
        if t < self.now:
            raise ValueError(f"call_at into the past: {t!r} < now={self.now!r}")
        self._push(t, _CALL, fn, None)

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` ``delay`` seconds from now (see :meth:`call_at`)."""
        self.call_at(self.now + delay, fn)

    def _push(self, t: float, kind: int, payload: Any, value: Any) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (t, self._seq, kind, payload, value))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until all non-daemon processes finish (or ``until`` is hit).

        Returns the final virtual time.  Raises
        :class:`~repro.errors.SimProcessCrashed` if any process raised, and
        :class:`~repro.errors.SimDeadlockError` if live processes remain but
        no event can ever wake them; re-raises, as it is, whatever a
        ``call_at`` callback raised.
        """
        if self._finished:
            raise SimError("simulation already finished")
        self._until = until
        proc = self._dispatch()
        if proc is not None:
            # The baton now travels from process to process; it only
            # comes back here for a terminal condition.
            self._handoff(proc)
            self._main_wake.acquire()
        # Which terminal condition, in order of precedence.  _dispatch
        # consumed nothing on its account, so the queue is as it found it.
        if self._callback_error is not None:
            self._drain()
            raise self._callback_error
        if self._crashed is not None:
            self._drain()
            crashed = self._crashed
            raise SimProcessCrashed(
                f"process {crashed.name!r} raised "
                f"{type(crashed.error).__name__}: {crashed.error}"
            ) from crashed.error
        if not self._queue:
            live = [p for p in self._procs if p.alive and not p.daemon]
            if live:
                report = ", ".join(f"{p.name}[{p.wait_reason}]" for p in live)
                # Reporters read live state (e.g. the verifier's
                # pending-op map) — consult them before _drain kills
                # the blocked processes.
                extra = ""
                for reporter in self.deadlock_reporters:
                    try:
                        extra += "\n  " + reporter()
                    except Exception:  # pragma: no cover - diagnostics
                        pass
                crashed = [p for p in self._procs if p.crashed]
                self._drain()
                if crashed:
                    # Not a deadlock of the survivors' own making:
                    # they are rendezvousing with fault-killed peers.
                    # Attribute the stall so the sanitizer's report
                    # reads as "participant lost", not "hung".
                    dead = ", ".join(
                        f"{p.name}[{p.crash_point}]" for p in crashed
                    )
                    raise SimParticipantLost(
                        f"{len(crashed)} process(es) lost to injected "
                        f"faults ({dead}); {len(live)} surviving "
                        f"process(es) blocked on them: {report}{extra}"
                    )
                raise SimDeadlockError(
                    f"no events pending but {len(live)} process(es) "
                    f"blocked: {report}{extra}"
                )
        elif self._live or not self._only_daemon_events():
            # The queue head is past ``until``: it stays queued, under
            # its own sequence number, for a later run() call.
            self.now = until
            return self.now
        self._drain()
        return self.now

    def _dispatch(self) -> Optional[Process]:
        """Advance the simulation on the calling thread, which holds the
        baton and is about to block.

        Pops events in ``(time, seq)`` order, running callbacks inline,
        up to the next resume of a live process; delivers that resume's
        wake value and returns the process.  The caller either *is* that
        process and just carries on, or hands it the baton.  Returns
        None, without consuming the queue head, when the next decision
        belongs to the thread inside :meth:`run` (the terminal conditions
        listed there).
        """
        if self._crashed is not None:
            return None
        queue = self._queue
        until = self._until
        while queue:
            if not self._live and self._only_daemon_events():
                # All real work done; don't let daemons spin forever.
                return None
            if until is not None and queue[0][0] > until:
                return None
            t, _seq, kind, payload, value = heapq.heappop(queue)
            if t > self.now:
                self.now = t
            if kind == _CALL:
                self._in_callback = True
                try:
                    payload()
                except BaseException as exc:  # noqa: BLE001 - run() re-raises
                    self._callback_error = exc
                    return None
                finally:
                    self._in_callback = False
            elif payload.alive:
                payload._wake_value = value
                return payload
        return None

    def _handoff(self, proc: Optional[Process]) -> None:
        """Pass the baton to ``proc`` (None: the thread inside
        :meth:`run`).  The caller must touch no simulation state
        afterwards: it blocks on its own wake-up, or its thread ends."""
        self.handoffs += 1
        (self._main_wake if proc is None else proc._wake).release()

    def _only_daemon_events(self) -> bool:
        """True if every queued resume targets a daemon process."""
        for _t, _seq, kind, payload, _value in self._queue:
            if kind == _CALL:
                return False
            if not payload.daemon:
                return False
        return True

    def _drain(self) -> None:
        """End the simulation: kill all still-alive processes so their
        threads exit cleanly."""
        self._aborting = True
        for proc in self._procs:
            while proc.alive:
                self._handoff(proc)
                self._main_wake.acquire()
        self._queue.clear()
        self._finished = True

    # ------------------------------------------------------------------
    # Kernel internals (called from process threads)
    # ------------------------------------------------------------------

    def _on_process_exit(self, proc: Process) -> None:
        if not proc.daemon:
            self._live -= 1
        if proc.error is not None and not self._aborting:
            self._crashed = proc

    def _hit_fault_point(self, name: str, proc: Process) -> None:
        """Record a fault-point hit; crash ``proc`` if the plan says so.

        Called (via :meth:`Process.fault_point`) from the hitting
        process's own thread, so a matching plan can simply raise
        :class:`~repro.simt.process.Crashed` to unwind it in place.
        """
        plan = self.fault_plan
        if plan is None:
            return
        key = (proc.name, name)
        nth = self._fault_hits.get(key, 0) + 1
        self._fault_hits[key] = nth
        self.fault_log.append((proc.name, name, nth))
        if plan.matches(proc.name, name, nth):
            proc.crash_point = f"{name}#{nth}"
            # Flag before raising: ``finally`` blocks unwinding past the
            # crash must behave as dead code — the database and the park
            # primitive both refuse a crashed process, so graceful-exit
            # cleanup (lease releases, reaps) cannot run post-mortem.
            proc.crashed = True
            raise Crashed(
                f"injected fault at {name!r} (hit {nth}) in {proc.name!r}"
            )
