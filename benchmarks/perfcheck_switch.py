"""Guard the simulator's baton pass against a plain thread handoff, host
speed cancelled out.

Every simulated process is an OS thread, and a switch between two of
them is one baton pass: the holder releases the next thread's wake-up
lock and blocks on its own (:mod:`repro.simt.process`).  On one CPU a
woken ``SCHED_OTHER`` thread preempts its waker, finds the GIL taken and
sleeps again, so a pass between plain threads costs three context
switches.  Process threads run as ``SCHED_BATCH``, which does not
preempt on wake-up, so their pass costs one.  This guard pins itself to
one CPU — the only setting where the difference exists, and the one
``benchmarks/e2e/run.py`` measures in — and times, in this process and
in alternating rounds (``timing.samples_us``):

* **simulator** — two processes holding in turn through a
  :class:`~repro.simt.Simulator`, microseconds per
  :attr:`~repro.simt.Simulator.handoffs`;
* **plain threads** — two ``SCHED_OTHER`` threads passing a baton
  through two ``threading.Lock`` wake-ups, microseconds per pass.

The simulator's pass also pushes and pops a heap event, yet the median
per-round ratio must stay at or below ``MAX_RATIO``: a kernel whose
threads preempt on wake-up again pays the two extra switches and lands
well above it.  Where the process cannot pin itself or the platform has
no ``SCHED_BATCH``, the guard prints "skipped" and passes.

Run directly (no JSON input; seconds)::

    python benchmarks/perfcheck_switch.py
"""

import os
import sys
import threading

from timing import compare, samples_us
from repro.simt import Simulator
from repro.simt.process import new_wakeup

# On a 2-vCPU VM the batch-thread kernel measured 0.80-0.91 in 20
# back-to-back runs, a kernel of plain threads 1.40-1.42.
MAX_RATIO = 1.1
ROUNDS = 2000
TIMING = {"seconds": 0.05, "repeat": 11}


def pin_cpu():
    """Pin this process to its last allowed CPU; None where it cannot."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def _holder(proc, rounds):
    for _ in range(rounds):
        proc.hold(1.0)


def simulator_ping_pong(rounds=ROUNDS):
    """Two processes holding in turn; returns the run's handoffs."""
    sim = Simulator()
    sim.spawn(_holder, rounds, name="ping")
    sim.spawn(_holder, rounds, name="pong", delay=0.5)
    sim.run()
    return sim.handoffs


def thread_ping_pong(rounds=ROUNDS):
    """Two ``SCHED_OTHER`` threads passing a baton ``2 * rounds`` times,
    as the simulator's would: release the other's wake-up, then wait on
    one's own."""
    wake = (new_wakeup(), new_wakeup())

    def player(me):
        os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
        mine, other = wake[me], wake[1 - me]
        for _ in range(rounds):
            mine.acquire()
            other.release()

    threads = [threading.Thread(target=player, args=(me,)) for me in (0, 1)]
    for t in threads:
        t.start()
    wake[0].release()
    for t in threads:
        t.join()
    return 2 * rounds


def main() -> int:
    cpu = pin_cpu()
    if cpu is None or not hasattr(os, "SCHED_BATCH"):
        print("perfcheck: baton pass skipped (no CPU pinning or no "
              "SCHED_BATCH on this platform)")
        return 0
    handoffs = simulator_ping_pong()
    passes = thread_ping_pong()
    sim_us, thread_us = samples_us(
        [simulator_ping_pong, thread_ping_pong], **TIMING)
    sim_best, thread_best, ratio = compare(
        [us / handoffs for us in sim_us], [us / passes for us in thread_us])
    ok = ratio <= MAX_RATIO
    print(f"perfcheck: baton pass on cpu {cpu}: simulator "
          f"{sim_best:.2f} us per handoff, plain SCHED_OTHER threads "
          f"{thread_best:.2f} us per pass, {ratio:.2f}x "
          f"(max {MAX_RATIO}x) {'ok' if ok else 'FAIL'}")
    if not ok:
        print(f"perfcheck: FAIL a simulator handoff costs {ratio:.2f}x a "
              f"plain thread's pass (max {MAX_RATIO}x)", file=sys.stderr)
        return 1
    print("perfcheck: the simulator's baton pass holds its ratio")
    return 0


if __name__ == "__main__":
    sys.exit(main())
