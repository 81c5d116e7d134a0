"""The self-tuning policy tier: two deterministic feedback loops.

``SDM(policy="adaptive")`` closes two loops over counts the system
already keeps; ``None`` / ``"static"`` (the default) keeps the
hand-picked behavior byte for byte.  Both loops are pure functions of the
operation sequence — no clock, no timing — so an adaptive run repeats
exactly (``tests/core/test_job_determinism.py``).

* **Adaptive ``coalesce_gap``** — the sentinel :data:`ADAPTIVE_GAP`
  (``coalesce_gap = -1``) makes every read derive its gap from its own
  hole distribution (:func:`repro.mpiio.runs.adaptive_gap`): bridge the
  largest holes it can while the wasted (read-and-discarded) bytes stay
  under :data:`~repro.mpiio.runs.COALESCE_WASTE` of the payload.  The
  choice is a pure function of the rank's own run list — each rank
  coalesces only the runs it ships into the collective — so SPMD safety
  is untouched.
* :class:`MaintenancePolicy` — read-count promotion: a chunked instance
  that has been read :data:`PROMOTE_READS` times is enqueued for
  background reorganization by :meth:`repro.core.api.SDM.read` itself.

Each loop has the ``BENCH_policy.json`` cell that pays for it; see
``docs/tuning.md``.
"""

from __future__ import annotations

from typing import Dict

from repro.mpiio.runs import ADAPTIVE_GAP

__all__ = [
    "STATIC",
    "ADAPTIVE",
    "ADAPTIVE_GAP",
    "MaintenancePolicy",
]

STATIC = "static"
"""Policy mode: keep every hand-picked constant (the pre-policy behavior)."""

ADAPTIVE = "adaptive"
"""Policy mode: close both feedback loops."""

assert ADAPTIVE_GAP == -1  # re-exported here as the policy tier's name for it

PROMOTE_READS = 3
"""Collective reads of a still-chunked instance that promote it to a
background reorganization."""


class MaintenancePolicy:
    """Read-count promotion trigger for the background maintenance tier.

    One instance per :class:`~repro.core.api.SDM` (per rank).  Its state
    is **replicated**: every rank calls :meth:`note_chunked_read` for the
    same collective reads in the same order, so the counters — and the
    single promotion decision per instance — agree everywhere without
    communication.
    """

    def __init__(self) -> None:
        self._read_counts: Dict[tuple, int] = {}
        self._promoted: set = set()
        self.n_promotions = 0

    def note_chunked_read(self, key: tuple) -> bool:
        """Count one collective read of a still-chunked instance.

        Returns True exactly once — when the count reaches
        :data:`PROMOTE_READS` — telling the caller to enqueue the background
        reorganization.  Call uniformly on every rank (the counters are
        replicated state).
        """
        if key in self._promoted:
            return False
        count = self._read_counts.get(key, 0) + 1
        if count >= PROMOTE_READS:
            self._read_counts.pop(key, None)
            self._promoted.add(key)
            self.n_promotions += 1
            return True
        self._read_counts[key] = count
        return False
