"""Discrete-event simulation kernel with thread-backed processes.

``simt`` provides the virtual machine everything else in :mod:`repro` runs on:

* :class:`~repro.simt.simulator.Simulator` — the event loop and virtual clock.
* :class:`~repro.simt.process.Process` — a simulated process.  Each process is
  backed by a real OS thread, but the kernel enforces that **exactly one**
  thread (a process, or the caller of ``run``) holds the baton and runs at any
  instant, so simulations are deterministic and shared Python state needs no
  locking.
* :mod:`~repro.simt.primitives` — Signal (broadcast), SimEvent (one-shot
  future), Resource (FIFO semaphore), Channel (FIFO store with timed delivery).

Processes are plain Python functions whose first argument is their
:class:`Process` handle::

    def worker(proc, n):
        proc.hold(1.5)          # advance virtual time
        return n * 2

    sim = Simulator()
    p = sim.spawn(worker, 21, name="w0")
    sim.run()
    assert p.result == 42 and sim.now == 1.5
"""

from repro.simt.process import Crashed, Killed, Process
from repro.simt.simulator import FaultPlan, Simulator
from repro.simt.primitives import Channel, Resource, Signal, SimEvent
from repro.simt.trace import Trace, TraceRecord

__all__ = [
    "Simulator",
    "FaultPlan",
    "Process",
    "Killed",
    "Crashed",
    "Signal",
    "SimEvent",
    "Resource",
    "Channel",
    "Trace",
    "TraceRecord",
]
