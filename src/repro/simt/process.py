"""Simulated processes backed by OS threads.

The kernel's central invariant: **exactly one thread holds the baton** — the
thread inside :meth:`Simulator.run` or one process thread — and only the
holder runs; every other process thread is blocked on its own wake-up lock.
There is no scheduler thread.  A process that parks (:meth:`Process._park`)
or ends (:meth:`Process._bootstrap`) dispatches the next event itself, on its
own thread (:meth:`Simulator._dispatch`): callbacks run right there, and

* if the next resume is the parking process's own, it returns without any
  thread switch;
* otherwise it releases the target's wake-up and blocks on its own — a
  single handoff, process → process;
* for a terminal condition (a crash, nothing left to run, ``until``) the
  target is the thread inside :meth:`Simulator.run`, which alone decides how
  a simulation ends.

A wake-up is a raw :class:`threading.Lock` used as a binary semaphore
(:func:`new_wakeup`): ``acquire`` waits, ``release`` wakes.  It is released
only by the baton holder, once, as it gives the baton up, so a release can
never meet an already-released lock.

Because of this invariant, simulation code can freely mutate shared Python
objects (mailboxes, database tables, file-system state) without locks, and
runs are fully deterministic: the event queue alone orders the run (ties are
broken by insertion sequence number), never the thread that happens to pop it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simt.simulator import Simulator

__all__ = ["Process", "Killed", "Crashed"]


def new_wakeup() -> "threading.Lock":
    """A binary semaphore with no wake-up pending: the owner waits with
    ``acquire()``, the baton holder wakes it with ``release()``."""
    lock = threading.Lock()
    lock.acquire()
    return lock


class Killed(BaseException):
    """Raised inside a process thread to unwind it when the simulation aborts.

    Derives from :class:`BaseException` so that application-level
    ``except Exception`` blocks cannot swallow it.
    """


class Crashed(BaseException):
    """Raised inside a process at a matched fault point to model a crash.

    Like :class:`Killed` this derives from :class:`BaseException`, so
    application-level ``except Exception`` recovery cannot intercept the
    injected death — the process unwinds exactly as if its host failed
    mid-operation, leaving whatever shared state (leases, pins,
    half-published epochs) it had in flight.  Unlike an ordinary raised
    exception it does *not* mark the simulation as errored: peers keep
    running until they stall on the dead process, at which point the
    simulator raises an attributed
    :class:`~repro.errors.SimParticipantLost`.
    """


class Process:
    """A simulated process: a function run on a dedicated thread under the
    simulator's one-runner-at-a-time discipline.

    Application code receives the :class:`Process` as the first argument of
    its function and uses it to interact with virtual time:

    * :meth:`hold` — advance this process's virtual time,
    * :meth:`park` — block until another actor schedules a resume,
    * :attr:`now` — the current virtual time.

    Attributes
    ----------
    name:
        Human-readable name (appears in traces and deadlock reports).
    daemon:
        Daemon processes do not keep the simulation alive; they are killed
        when all non-daemon processes have finished.
    result:
        Return value of the process function once it has finished.
    error:
        The exception the process function raised, if any.
    """

    def __init__(
        self,
        sim: "Simulator",
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        name: str,
        daemon: bool,
    ) -> None:
        self.sim = sim
        self.name = name
        self.daemon = daemon
        self.alive = True
        self.started = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.crashed = False
        self.crash_point: Optional[str] = None
        self.wait_reason: str = "start"
        self._wake_value: Any = None
        self._wake = new_wakeup()
        self._thread = threading.Thread(
            target=self._bootstrap,
            args=(fn, args, kwargs),
            name=f"simt:{name}",
            daemon=True,
        )

    # ------------------------------------------------------------------
    # Public API (called from inside the process function)
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.sim.now

    def hold(self, dt: float) -> None:
        """Advance this process's virtual time by ``dt`` seconds.

        Other runnable processes execute during the hold — this is how
        computation, transfer, and service times are charged.
        """
        if dt < 0:
            raise ValueError(f"cannot hold for negative time: {dt!r}")
        self.sim.schedule_resume(self, delay=dt)
        # A holding process always has its resume queued, so this reason
        # can never reach a deadlock report: not worth formatting ``dt``.
        self._park(reason="hold")

    def park(self, reason: str = "wait") -> Any:
        """Block until some other actor resumes this process.

        Returns the value passed to :meth:`Simulator.schedule_resume`.
        Low-level primitive used by Signals, Resources, Channels, and the MPI
        matching engine.
        """
        return self._park(reason=reason)

    def fault_point(self, name: str) -> None:
        """Announce a registered fault point (e.g. ``"flip:published"``).

        Protocol code calls this at its crash-interesting milestones.  A
        no-op unless the simulator carries a
        :class:`~repro.simt.simulator.FaultPlan`; a matching plan raises
        :class:`Crashed` here, killing this process mid-protocol.
        """
        self.sim._hit_fault_point(name, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state} at t={self.sim.now:.6g}>"

    # ------------------------------------------------------------------
    # Kernel internals
    # ------------------------------------------------------------------

    def _bootstrap(self, fn: Callable[..., Any], args: tuple, kwargs: dict) -> None:
        """Thread body: wait for the first resume, run ``fn``, sign off."""
        try:
            # The baton is NOT with this thread yet: wait for the first
            # resume without dispatching.
            self._wake.acquire()
            self.started = True
            if self.sim._aborting:
                raise Killed()
            self.result = fn(self, *args, **kwargs)
        except Killed:
            pass
        except Crashed:
            # An injected fault, not a program error: record the death
            # without flagging the simulation as crashed, so peers run on
            # until they stall on this process (attributed separately).
            self.crashed = True
        except BaseException as exc:  # noqa: BLE001 - reported via sim
            self.error = exc
        finally:
            self.alive = False
            sim = self.sim
            sim._on_process_exit(self)
            # Pass the baton for the last time; this thread then dies.
            # Killed by _drain: straight back to main, which is reaping.
            # Otherwise dispatch onward like any parking process.
            sim._handoff(None if sim._aborting else sim._dispatch())

    def _park(self, reason: str) -> Any:
        """Dispatch the next event; block unless it is this process's own
        resume."""
        if self._thread is not threading.current_thread():
            raise RuntimeError(
                f"process {self.name!r} parked from foreign thread "
                f"{threading.current_thread().name!r}"
            )
        sim = self.sim
        if sim._in_callback:
            # On this process's own thread, but as the dispatcher: a
            # callback must not block whichever thread it happens to run on.
            raise RuntimeError(
                f"process {self.name!r} parked from inside a callback"
            )
        if sim._aborting:
            raise Killed()
        if self.crashed:
            # Crash-unwinding code (``finally`` cleanup) must not block,
            # hold, or rendezvous: the dead process is gone.
            raise Crashed(f"crashed process {self.name!r} cannot park")
        self.wait_reason = reason
        target = sim._dispatch()
        if target is not self:
            sim._handoff(target)
            self._wake.acquire()
            if sim._aborting:
                raise Killed()
        value, self._wake_value = self._wake_value, None
        return value
