"""The self-tuning policy tier: feedback loops over the system's counters.

Every tunable the reproduction exposes was, until this module, a static
number: the metadb planner weighed hash buckets against ordered slices
with hard-coded cost constants, the ``coalesce_gap`` MPI-IO hint was one
global byte count, and maintenance (compaction, reorganization) ran only
when the application asked.  Yet the system already *measures* everything
those choices depend on — per-statement planner timings, the run/hole
distribution of every coalesced read, ``extent_table`` free bytes,
per-instance read counts, and the file system's controller queue depths.
This module closes those loops:

* :class:`PlannerCalibration` — learns the planner's per-candidate cost
  constants from observed statement timings (EWMA), so
  :class:`~repro.metadb.engine.Database` picks the access path that is
  actually cheaper on this workload instead of the one a hard-coded
  2.0x ratio says should be.
* **Adaptive ``coalesce_gap``** — the sentinel :data:`ADAPTIVE_GAP`
  (``coalesce_gap = -1``) makes every read derive its gap from its own
  hole distribution (:func:`repro.mpiio.runs.adaptive_gap`): bridge the
  largest holes it can while the wasted (read-and-discarded) bytes stay
  under :data:`~repro.mpiio.runs.COALESCE_WASTE` of the payload.  The
  choice is a pure function of the rank's own run list — each rank
  coalesces only the runs it ships into the collective — so SPMD safety
  is untouched.
* :class:`MaintenancePolicy` — watches fragmentation and read counts at
  SDM's collective entry points and enqueues background maintenance by
  itself: compaction when a file's free-byte ratio crosses a high-water
  mark (with hysteresis so one crossing enqueues one job), promotion of
  a chunked instance to background reorganization after it has been
  read :data:`PROMOTE_READS` times, and an exponential-backoff rate
  limiter workers call before heavy I/O so background jobs yield to
  foreground traffic
  (:meth:`repro.pfs.filesystem.FileSystem.queue_depth`).

Freezing a policy for reproducibility
-------------------------------------

Adaptive runs are observation-driven, so two runs over different data
may tune differently.  To reproduce a tuned configuration exactly,
freeze it: :meth:`PlannerCalibration.snapshot` returns the learned
constants as a plain dict, and ``PlannerCalibration.from_snapshot``
rebuilds a *frozen* calibration (observations ignored, no exploration)
that plans identically forever.  The adaptive gap needs no freezing —
it is deterministic per read — and :class:`MaintenancePolicy` triggers
are deterministic functions of the (replicated) operation sequence.
See ``docs/tuning.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.mpiio.runs import ADAPTIVE_GAP

__all__ = [
    "STATIC",
    "ADAPTIVE",
    "ADAPTIVE_GAP",
    "PlannerCalibration",
    "MaintenancePolicy",
    "PolicyConfig",
]

STATIC = "static"
"""Policy mode: keep every hand-picked constant (the pre-policy behavior)."""

ADAPTIVE = "adaptive"
"""Policy mode: close the feedback loop from the observed counters."""

assert ADAPTIVE_GAP == -1  # re-exported here as the policy tier's name for it

_MODES = (STATIC, ADAPTIVE)

# The loops' tuning values are constants, not options: no driver, bench
# or example ever varied one, and the BENCH_policy.json cells named in
# docs/tuning.md are measured with exactly these.

CALIBRATION_ALPHA = 0.2
"""EWMA weight of one new per-candidate cost observation."""

CALIBRATION_MIN_ROWS = 32
"""Observations over fewer candidates are fixed overhead and timer
noise, not per-row cost; they are ignored."""

CALIBRATION_EXPLORE_OBS = 24
"""Accepted observations each contested path needs before exploration
stops and plans become deterministic."""

CALIBRATION_CLAMP = (0.25, 8.0)
"""Bounds on the learned slice/hash per-candidate cost ratio."""


class PlannerCalibration:
    """Learned per-candidate cost constants for the metadb planner.

    The planner compares a hash-bucket walk (``probe_cost + n``) against
    an ordered-index slice (``probe_cost + slice_row_cost * n``).  The
    static ``slice_row_cost = 2.0`` encodes "a slice candidate costs
    twice a bucket candidate" — an assumption, not a measurement.  This
    class measures: :meth:`~repro.metadb.engine.Database._match_rowids`
    reports ``(path kind, candidates examined, seconds)`` for every
    index-served statement, and an EWMA per path kind estimates the true
    per-candidate cost.  :attr:`slice_row_cost` is then the observed
    slice/hash ratio (clamped), and plan choice adapts to the workload.

    Small observations (fewer than :data:`CALIBRATION_MIN_ROWS`
    candidates) are ignored: their timings are dominated by fixed
    overhead and timer noise, and plan choice between tiny candidate
    sets barely matters anyway.

    **Exploration.**  A calibration that has never executed a slice can
    never learn its cost.  While the losing side of a contested choice
    (both paths available) has fewer than
    :data:`CALIBRATION_EXPLORE_OBS` accepted
    observations, :meth:`decide` picks it anyway — results stay
    scan-identical because every candidate is still verified against the
    full WHERE — and stops once both paths are known, so a converged
    calibration plans deterministically.
    """

    def __init__(self, frozen: bool = False) -> None:
        self.frozen = frozen
        self.probe_cost = 1.0
        """Flat probe/bisect cost in candidate-row units (not calibrated
        from timings — it is far below one ``min_rows`` observation's
        resolution — but part of the snapshot so a frozen policy carries
        the complete cost model)."""
        self._per_row: Dict[str, float] = {}
        self._n_obs: Dict[str, int] = {"hash": 0, "slice": 0, "scan": 0}
        self._frozen_ratio: Optional[float] = None
        self.n_explored = 0
        """Contested choices flipped to feed the starved path."""

    # -- observation ---------------------------------------------------

    def observe(self, kind: str, rows: int, seconds: float) -> None:
        """Fold one statement's ``(path, candidates, seconds)`` into the
        per-row EWMAs.  No-op when frozen or below the noise floor."""
        if self.frozen or rows < CALIBRATION_MIN_ROWS or seconds <= 0.0:
            return
        per_row = seconds / rows
        prev = self._per_row.get(kind)
        self._per_row[kind] = (
            per_row if prev is None
            else prev + CALIBRATION_ALPHA * (per_row - prev)
        )
        self._n_obs[kind] = self._n_obs.get(kind, 0) + 1

    def observations(self, kind: str) -> int:
        """Accepted observations of one path kind."""
        return self._n_obs.get(kind, 0)

    # -- the learned constants -----------------------------------------

    @property
    def slice_row_cost(self) -> float:
        """Observed slice/hash per-candidate cost ratio (clamped), or the
        static default 2.0 until both paths have been measured."""
        if self._frozen_ratio is not None:
            return self._frozen_ratio
        hash_cost = self._per_row.get("hash")
        slice_cost = self._per_row.get("slice")
        if hash_cost is None or slice_cost is None or hash_cost <= 0.0:
            return 2.0
        lo, hi = CALIBRATION_CLAMP
        return min(max(slice_cost / hash_cost, lo), hi)

    @property
    def converged(self) -> bool:
        """True once both contested paths have enough accepted
        observations — exploration has stopped and plans are stable."""
        return (
            self._frozen_ratio is not None
            or (
                self._n_obs.get("hash", 0) >= CALIBRATION_EXPLORE_OBS
                and self._n_obs.get("slice", 0) >= CALIBRATION_EXPLORE_OBS
            )
        )

    def decide(self, pick_slice: bool) -> bool:
        """Final word on a contested hash-vs-slice choice.

        Flips the cost model's pick while the losing path is starved of
        observations (see class docstring); otherwise returns it as-is.
        """
        if self.frozen:
            return pick_slice
        starved = "hash" if pick_slice else "slice"
        if self._n_obs.get(starved, 0) < CALIBRATION_EXPLORE_OBS:
            self.n_explored += 1
            return not pick_slice
        return pick_slice

    # -- freezing ------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """The learned constants as a plain dict (commit it next to a
        bench to reproduce a tuned run exactly)."""
        return {
            "probe_cost": self.probe_cost,
            "slice_row_cost": self.slice_row_cost,
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, float]) -> "PlannerCalibration":
        """A frozen calibration planning with snapshotted constants."""
        cal = cls(frozen=True)
        cal.probe_cost = float(snap["probe_cost"])
        cal._frozen_ratio = float(snap["slice_row_cost"])
        return cal

    def freeze(self) -> None:
        """Stop observing and exploring; keep the current constants."""
        self._frozen_ratio = self.slice_row_cost
        self.frozen = True


PROMOTE_READS = 3
"""Collective reads of a still-chunked instance that promote it to a
background reorganization."""

COMPACT_HIWATER = 0.40
"""Free-byte ratio of a chunked file at which a compaction is enqueued."""

COMPACT_LOWATER = 0.15
"""Free-byte ratio at or below which a fired file re-arms."""

THROTTLE_DEPTH = 1
"""Controller-queue depth from which a maintenance worker backs off."""

THROTTLE_HOLD = 2e-3
"""First backoff slice (virtual seconds); doubles per hold."""

THROTTLE_MAX_HOLDS = 6
"""Backoff cap: background work is delayed, never starved."""


class MaintenancePolicy:
    """Self-driving triggers for the background maintenance tier.

    One instance per :class:`~repro.core.api.SDM` (per rank).  The two
    trigger families have different replication contracts:

    * :meth:`note_chunked_read` state is **replicated**: every rank calls
      it for the same collective reads in the same order, so the counters
      — and the single promotion decision per instance — agree everywhere
      without communication.
    * :meth:`fragmentation_trigger` state lives only on rank 0 (free
      bytes come from a rank-0 database probe); the caller broadcasts the
      boolean before acting, so the other ranks' instances never consult
      theirs.

    :meth:`throttle` is rank-local backoff for maintenance workers and
    keeps no cross-rank state at all.
    """

    def __init__(self) -> None:
        self._read_counts: Dict[tuple, int] = {}
        self._promoted: set = set()
        self._disarmed: set = set()
        self.n_promotions = 0
        self.n_compactions = 0
        self.n_throttle_holds = 0

    # -- read-count promotion ------------------------------------------

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
        self._read_counts[key] = count
        if count >= PROMOTE_READS:
            self._promoted.add(key)
            self.n_promotions += 1
            return True
        return False

    # -- fragmentation hysteresis --------------------------------------

    def fragmentation_trigger(
        self, file_name: str, free_bytes: int, file_size: int
    ) -> bool:
        """One observation of a file's dead-byte ratio; True means
        "enqueue a compaction now".

        Hysteresis: a file that fired stays disarmed — repeated
        observations above the high-water mark enqueue nothing more —
        until an observation at or below the low-water mark (the enqueued
        compaction reclaimed the space) re-arms it.
        """
        if file_size <= 0:
            return False
        ratio = free_bytes / file_size
        if file_name in self._disarmed:
            if ratio <= COMPACT_LOWATER:
                self._disarmed.discard(file_name)
            return False
        if ratio >= COMPACT_HIWATER:
            self._disarmed.add(file_name)
            self.n_compactions += 1
            return True
        return False

    # -- worker rate limiting ------------------------------------------

    def throttle(self, fs, proc) -> int:
        """Back a maintenance worker off while foreground I/O is queued.

        Polls ``fs.queue_depth()`` (processes waiting at the controller
        queues); while it is at least :data:`THROTTLE_DEPTH`, holds the
        worker for exponentially growing slices of virtual time —
        ``THROTTLE_HOLD * 2^i`` — up to :data:`THROTTLE_MAX_HOLDS` holds, so
        a saturated foreground phase delays background jobs instead of
        contending with them, but can never starve them out entirely.
        Returns the number of holds taken.
        """
        holds = 0
        while (
            holds < THROTTLE_MAX_HOLDS
            and fs.queue_depth() >= THROTTLE_DEPTH
        ):
            proc.hold(THROTTLE_HOLD * (2 ** holds))
            holds += 1
        self.n_throttle_holds += holds
        return holds


@dataclass
class PolicyConfig:
    """Per-loop policy modes.

    ``SDM(policy=...)`` accepts ``None`` / ``"static"`` (everything
    hand-picked, the pre-policy behavior), ``"adaptive"`` (all three
    loops closed), or an explicit instance mixing modes per loop.
    """

    planner: str = STATIC
    coalesce: str = STATIC
    maintenance: str = STATIC
    planner_snapshot: Optional[Dict[str, float]] = None
    """When set (with ``planner=ADAPTIVE``), plan with these frozen
    constants instead of learning — the reproducibility path."""

    def __post_init__(self) -> None:
        for name in ("planner", "coalesce", "maintenance"):
            mode = getattr(self, name)
            if mode not in _MODES:
                raise ValueError(
                    f"unknown {name} policy mode {mode!r} "
                    f"(expected {STATIC!r} or {ADAPTIVE!r})"
                )

    @classmethod
    def resolve(cls, spec) -> "PolicyConfig":
        """Normalize the ``SDM(policy=...)`` argument."""
        if spec is None or spec == STATIC:
            return cls()
        if spec == ADAPTIVE:
            return cls(planner=ADAPTIVE, coalesce=ADAPTIVE,
                       maintenance=ADAPTIVE)
        if isinstance(spec, cls):
            return spec
        raise ValueError(
            f"unknown policy spec {spec!r} (expected None, {STATIC!r}, "
            f"{ADAPTIVE!r}, or a PolicyConfig)"
        )

    def make_planner_calibration(self) -> Optional[PlannerCalibration]:
        """The planner loop's calibrator, or None under static mode."""
        if self.planner != ADAPTIVE:
            return None
        if self.planner_snapshot is not None:
            return PlannerCalibration.from_snapshot(self.planner_snapshot)
        return PlannerCalibration()

    def make_maintenance_policy(self) -> Optional[MaintenancePolicy]:
        """The maintenance loop's trigger state, or None under static."""
        if self.maintenance != ADAPTIVE:
            return None
        return MaintenancePolicy()
