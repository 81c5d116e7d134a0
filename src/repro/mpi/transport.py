"""The message-matching engine shared by all ranks of a job.

One :class:`Transport` exists per simulated MPI world.  It owns:

* the arrived messages and the parked receivers, each keyed by
  ``(destination, context, source, tag)``: a receive names its source and
  tag exactly, so MPI's "earliest arrived match" is the head of its key's
  FIFO;
* per ``(source, destination)`` FIFO enforcement — delivery times are clamped
  to be monotone per pair, so a small message injected after a large one
  cannot overtake it (MPI's non-overtaking rule);
* the rendezvous *sites* used by the collective algorithms
  (see :mod:`repro.mpi.collectives`);
* traffic counters — messages and payload bytes per point-to-point send and
  per collective op.  They let tests *prove* communication properties (e.g.
  that a chunked checkpoint write ships no data through ``alltoallv``, the
  op two-phase I/O exchanges file data with) instead of inferring them from
  timings.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.config import MachineModel
from repro.simt.primitives import SimEvent
from repro.simt.process import Process
from repro.simt.simulator import Simulator

__all__ = ["Transport"]

Key = Tuple[int, Any, int, int]
"""``(destination world rank, context, source, tag)``: ``source`` is the
sender's rank within the communicator ``context`` names, so split
communicators cannot match each other's traffic (MPI's isolation)."""


class Transport:
    """Shared state of one simulated MPI world."""

    def __init__(self, sim: Simulator, machine: MachineModel, size: int) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.sim = sim
        self.machine = machine
        self.size = size
        self._arrived: Dict[Key, Deque[Any]] = {}
        # A blocking receive parks its process, so a key has at most one.
        self._posted: Dict[Key, Process] = {}
        # Monotone delivery clock per (src, dst) pair for non-overtaking.
        self._pair_clock: Dict[Tuple[Any, int, int], float] = {}
        # Collective rendezvous sites keyed by op sequence number.
        self._sites: Dict[int, Any] = {}
        self.n_p2p_messages = 0
        """Point-to-point messages injected."""
        self.p2p_bytes = 0
        """Payload bytes across all point-to-point messages."""
        self.coll_counts: Dict[str, int] = {}
        """Completed collective calls per op name."""
        self.coll_bytes: Dict[str, int] = {}
        """Total payload bytes contributed to collectives, per op name."""
        self.verifier: Optional[Any] = None
        """The ``SPMD_VERIFY`` sanitizer (an
        :class:`repro.analysis.verifier.SPMDVerifier`), or None.  When
        None — the default — collectives pay exactly one attribute test
        and nothing is recorded."""

    def stats(self) -> Dict[str, Any]:
        """Snapshot the traffic counters.

        Mirrors :meth:`repro.pfs.filesystem.FileSystem.stats` so bench
        counter windows are one call per service instead of a hand-kept
        list of fields.  The collective dicts are copied — mutating the
        snapshot never touches the live counters.
        """
        return {
            "n_p2p_messages": self.n_p2p_messages,
            "p2p_bytes": self.p2p_bytes,
            "coll_counts": dict(self.coll_counts),
            "coll_bytes": dict(self.coll_bytes),
        }

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------

    def transfer_time(self, nbytes: int) -> float:
        """Modelled time for one message of ``nbytes`` on the wire."""
        return self.machine.network.transfer_time(nbytes)

    def inject(
        self,
        source: int,
        dest: int,
        payload: Any,
        tag: int,
        nbytes: int,
        completion: Optional[SimEvent] = None,
        ctx: Any = 0,
    ) -> float:
        """Put a message in flight; returns its delivery (virtual) time.

        Delivery time is ``now + latency + nbytes/bandwidth``, clamped to be
        monotone per (source, dest) pair.  ``completion`` (if given) is set at
        delivery time — used to complete nonblocking send requests.
        """
        now = self.sim.now
        arrive = now + self.transfer_time(nbytes)
        pair = (ctx, source, dest)
        floor = self._pair_clock.get(pair, 0.0)
        if arrive < floor:
            arrive = floor
        self._pair_clock[pair] = arrive
        self.n_p2p_messages += 1
        self.p2p_bytes += int(nbytes)
        key = (dest, ctx, source, tag)

        def deliver() -> None:
            self._deposit(key, payload)
            if completion is not None:
                completion.set(None)

        self.sim.call_at(arrive, deliver)
        return arrive

    def _deposit(self, key: Key, payload: Any) -> None:
        proc = self._posted.pop(key, None)
        if proc is not None:
            self.sim.schedule_resume(proc, value=payload)
        else:
            self._arrived.setdefault(key, deque()).append(payload)

    def match_or_post(
        self, proc: Process, dest: int, source: int, tag: int, ctx: Any = 0
    ) -> Any:
        """Blocking-receive core: take the key's earliest arrival or park."""
        key = (dest, ctx, source, tag)
        arrived = self._arrived.get(key)
        if arrived:
            payload = arrived.popleft()
            if not arrived:
                del self._arrived[key]
            return payload
        self._posted[key] = proc
        return proc.park(reason=f"recv(src={source},tag={tag})@{dest}")

    def record_collective(self, op: str, nbytes: int) -> None:
        """Count one completed collective and its total payload bytes."""
        self.coll_counts[op] = self.coll_counts.get(op, 0) + 1
        self.coll_bytes[op] = self.coll_bytes.get(op, 0) + int(nbytes)

    # ------------------------------------------------------------------
    # Collective rendezvous sites
    # ------------------------------------------------------------------

    def site(self, seq: int, factory) -> Any:
        """Get or create the rendezvous site for collective call ``seq``."""
        site = self._sites.get(seq)
        if site is None:
            site = factory()
            self._sites[seq] = site
        return site

    def drop_site(self, seq: int) -> None:
        """Free a completed collective's site."""
        self._sites.pop(seq, None)
