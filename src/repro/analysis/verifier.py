"""The ``SPMD_VERIFY=1`` runtime collective-sequence sanitizer.

The static linter sees one function at a time; this verifier sees the
whole job.  When enabled (``SPMD_VERIFY=1`` in the environment at
:func:`~repro.mpi.job.mpirun` time), every :class:`Communicator`
rendezvous deposits a :class:`~repro.simt.trace.CollectiveSignature`
here before parking:

* **At each site** — the first arriver's signature is the reference; any
  later rank disagreeing on op kind or root, or (for allreduce and
  exscan, whose payloads must fold elementwise) on dtype/count, fails *fast*
  with both ranks' call sites.  This catches e.g. the silent
  list-concatenation hazard: ``allreduce([0]*4)`` meeting
  ``allreduce([0]*3)`` would otherwise "succeed" with a 7-element sum.
* **At deadlock** — the verifier registers a reporter with the
  simulator, so an all-ranks-blocked deadlock report includes each
  actor's pending collective and its last few completed ops instead of
  just ``rank1[coll:barrier]``.
* **At job end** — :meth:`SPMDVerifier.final_check` compares every
  rank's per-context sequence (count + rolling hash over op/root): a
  rank that silently issued an extra collective on some context that
  happened never to rendezvous (size-1 communicators, daemon helpers)
  is still caught.

When the flag is off, ``transport.verifier`` is ``None`` and the hot
path pays exactly one attribute test — nothing is recorded, counted, or
allocated (asserted by the overhead test in
``tests/analysis/test_verify_runtime.py``).
"""

from __future__ import annotations

import os
import sys
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro.errors import SPMDVerificationError
from repro.simt.trace import COLLECTIVE, CollectiveSignature, Trace

__all__ = ["SPMDVerifier", "spmd_verify_enabled", "payload_signature"]

#: Ops whose payloads fold elementwise — every rank must contribute the
#: same dtype/count (bcast/gather legitimately differ per rank).
UNIFORM_SHAPE_OPS = frozenset({"allreduce", "exscan"})

_ENV_FLAG = "SPMD_VERIFY"

_INTERNAL_FRAMES = ("communicator.py", "verifier.py")


def spmd_verify_enabled() -> bool:
    """Is the runtime sanitizer requested via ``SPMD_VERIFY``?"""
    return os.environ.get(_ENV_FLAG, "").strip() not in ("", "0", "false", "no")


def payload_signature(payload: Any) -> Tuple[str, int]:
    """(dtype, count) summary of a collective payload.

    ``count`` is -1 for payloads with no meaningful element count (None,
    opaque objects); dtype is a best-effort type label.  Numpy arrays
    are handled duck-typed so the module never imports numpy itself.
    """
    if payload is None:
        return ("", -1)
    dt = getattr(payload, "dtype", None)
    sz = getattr(payload, "size", None)
    if dt is not None and isinstance(sz, int):  # ndarray-like
        return (str(dt), sz)
    if isinstance(payload, (list, tuple)):
        inner = type(payload[0]).__name__ if payload else ""
        return (f"{type(payload).__name__}[{inner}]", len(payload))
    if isinstance(payload, (bytes, bytearray)):
        return (type(payload).__name__, len(payload))
    if isinstance(payload, (int, float, bool, str)):
        return (type(payload).__name__, 1)
    if isinstance(payload, dict):
        return ("dict", len(payload))
    return (type(payload).__name__, -1)


def call_site() -> str:
    """First stack frame outside the MPI/verifier internals."""
    f = sys._getframe(1)
    while f is not None:
        name = os.path.basename(f.f_code.co_filename)
        if name not in _INTERNAL_FRAMES:
            return f"{name}:{f.f_lineno} in {f.f_code.co_name}"
        f = f.f_back
    return "<unknown>"


class SPMDVerifier:
    """Cross-validates per-rank collective signatures for one job."""

    def __init__(self, nprocs: int, trace: Optional[Trace] = None) -> None:
        self.nprocs = nprocs
        self.trace = trace
        # Open rendezvous sites: key -> (reference signature, arrivals).
        self._sites: Dict[Tuple[str, int], Tuple[CollectiveSignature, int]] = {}
        # Per-(ctx, rank) sequence summary: (count, rolling hash).
        self._series: Dict[Tuple[str, int], Tuple[int, int]] = {}
        # Per-actor state for the deadlock reporter.
        self._pending: Dict[str, CollectiveSignature] = {}
        self._recent: Dict[str, Deque[str]] = {}
        self.checked = 0
        """Signatures cross-validated (tests assert the verifier ran)."""

    # ------------------------------------------------------------------
    # Hot-path hooks (called from Communicator._rendezvous)
    # ------------------------------------------------------------------

    def enter(
        self,
        sig: CollectiveSignature,
        actor: str,
        comm_size: int,
        now: float,
    ) -> None:
        """One rank is entering a rendezvous site: validate and record."""
        self.checked += 1
        if self.trace is not None:
            self.trace.record(now, actor, COLLECTIVE, sig)
        count, rolling = self._series.get((sig.ctx, sig.rank), (0, 0))
        self._series[(sig.ctx, sig.rank)] = (
            count + 1,
            hash((rolling, sig.op, sig.root)),
        )
        self._pending[actor] = sig

        ref_entry = self._sites.get(sig.key)
        if ref_entry is None:
            if comm_size > 1:  # size-1 comms complete at the first arrival
                self._sites[sig.key] = (sig, 1)
            return
        ref, arrivals = ref_entry
        reason = self._disagreement(ref, sig)
        if reason is not None:
            from repro.analysis.report import format_runtime_mismatch

            raise SPMDVerificationError(format_runtime_mismatch(ref, sig, reason))
        arrivals += 1
        if arrivals >= comm_size:
            del self._sites[sig.key]
        else:
            self._sites[sig.key] = (ref, arrivals)

    def leave(self, actor: str) -> None:
        """The actor's pending collective completed."""
        sig = self._pending.pop(actor, None)
        if sig is not None:
            recent = self._recent.get(actor)
            if recent is None:
                recent = self._recent[actor] = deque(maxlen=4)
            recent.append(sig.describe())

    @staticmethod
    def _disagreement(
        ref: CollectiveSignature, sig: CollectiveSignature
    ) -> Optional[str]:
        if ref.op != sig.op:
            return f"op mismatch: {ref.op!r} vs {sig.op!r}"
        if ref.root != sig.root:
            return f"root mismatch: {ref.root!r} vs {sig.root!r}"
        if sig.op in UNIFORM_SHAPE_OPS:
            if (ref.dtype, ref.count) != (sig.dtype, sig.count):
                return (
                    f"payload shape mismatch: "
                    f"{ref.dtype or '?'}[{ref.count}] vs "
                    f"{sig.dtype or '?'}[{sig.count}] "
                    f"(allreduce/exscan payloads must fold elementwise)"
                )
        return None

    # ------------------------------------------------------------------
    # End-of-job / deadlock reporting
    # ------------------------------------------------------------------

    def final_check(self) -> None:
        """Verify every context saw identical sequences from its ranks."""
        by_ctx: Dict[str, Dict[int, Tuple[int, int]]] = {}
        for (ctx, rank), summary in self._series.items():
            by_ctx.setdefault(ctx, {})[rank] = summary
        for ctx, per_rank in sorted(by_ctx.items()):
            distinct = set(per_rank.values())
            if len(distinct) > 1:
                detail = ", ".join(
                    f"rank {r}: {n} collective(s)"
                    for r, (n, _h) in sorted(per_rank.items())
                )
                raise SPMDVerificationError(
                    f"SPMD-RT [sequence-mismatch] ranks issued different "
                    f"collective sequences on communicator context {ctx}: "
                    f"{detail}"
                )
        if self._sites:
            open_sites = "; ".join(
                f"{ref.describe()} on ctx {ref.ctx} entered by rank "
                f"{ref.rank} at {ref.site} ({arrived}/{self.nprocs} arrived)"
                for ref, arrived in self._sites.values()
            )
            raise SPMDVerificationError(
                f"SPMD-RT [unmatched-collective] job ended with "
                f"{len(self._sites)} collective site(s) still waiting: "
                f"{open_sites}"
            )

    def deadlock_report(self) -> str:
        """Per-actor pending collectives for the simulator's deadlock error."""
        if not self._pending:
            return "no collectives pending (point-to-point deadlock)"
        lines = []
        for actor in sorted(self._pending):
            sig = self._pending[actor]
            recent = ", ".join(self._recent.get(actor, ())) or "none"
            lines.append(
                f"{actor} waiting in {sig.describe()} on ctx {sig.ctx} "
                f"at {sig.site} (recent: {recent})"
            )
        silent = [
            f"rank{r}" for r in range(self.nprocs)
            if f"rank{r}" not in self._pending
        ]
        if silent:
            lines.append(
                f"not in any collective: {', '.join(silent)} — these "
                f"ranks likely skipped a collective the others entered"
            )
        return "; ".join(lines)
