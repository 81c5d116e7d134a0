"""Timestamped annotation recording for simulations.

A :class:`Trace` is a cheap append-only log of ``(time, actor, label, data)``
records.  It is disabled by default (recording costs one branch); benchmarks
and debugging sessions enable it to reconstruct timelines — e.g. when each
rank entered a collective, or when the history-file daemon finished writing.

Collective entries share one record format: a
:class:`CollectiveSignature` stored as the ``data`` of a record labelled
:data:`COLLECTIVE`.  The ``SPMD_VERIFY`` runtime sanitizer
(:mod:`repro.analysis.verifier`) emits and cross-validates these, and
:func:`repro.analysis.report.format_runtime_mismatch` pretty-prints the
same records as lint-style findings, so traces, the verifier, and the
diagnostics all speak one schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["COLLECTIVE", "CollectiveSignature", "Trace", "TraceRecord"]

COLLECTIVE = "collective"
"""Trace label under which :class:`CollectiveSignature` records are filed."""


@dataclass(frozen=True)
class CollectiveSignature:
    """One rank's entry into one collective call site.

    Two ranks entering the *same* site carry the same ``(ctx, seq)`` key;
    the SPMD invariant says everything else observable about the call —
    op kind, root, and for allreduce/exscan dtype/count — must then
    agree.  ``site`` is the Python call site (``file.py:NN in func``)
    recorded so mismatch diagnostics can point at both sides' source.
    """

    op: str
    ctx: str
    """Communicator context id, stringified (contexts may be tuples)."""
    seq: int
    """Per-context collective sequence number (the rendezvous slot)."""
    rank: int
    root: Optional[int] = None
    dtype: str = ""
    count: int = -1
    """Payload element count; -1 when the op carries no payload."""
    site: str = ""

    @property
    def key(self) -> Tuple[str, int]:
        """Rendezvous-site identity shared by all participating ranks."""
        return (self.ctx, self.seq)

    def describe(self) -> str:
        """``allreduce(dtype=int, count=4)`` — op plus its checked facts."""
        args = []
        if self.root is not None:
            args.append(f"root={self.root}")
        if self.dtype:
            args.append(f"dtype={self.dtype}")
        if self.count >= 0:
            args.append(f"count={self.count}")
        return f"{self.op}({', '.join(args)})"


@dataclass(frozen=True)
class TraceRecord:
    """One trace annotation."""

    time: float
    actor: str
    label: str
    data: Any = None


@dataclass
class Trace:
    """Append-only event log with optional label filtering.

    Attributes
    ----------
    enabled:
        When False (the default), :meth:`record` is a no-op.
    """

    enabled: bool = False
    records: List[TraceRecord] = field(default_factory=list)

    def record(self, time: float, actor: str, label: str, data: Any = None) -> None:
        """Append a record if tracing is enabled."""
        if self.enabled:
            self.records.append(TraceRecord(time, actor, label, data))

    def by_label(self, label: str) -> List[TraceRecord]:
        """All records whose label matches exactly."""
        return [r for r in self.records if r.label == label]

    def by_actor(self, actor: str) -> List[TraceRecord]:
        """All records from one actor."""
        return [r for r in self.records if r.actor == actor]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def last(self, label: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent record (optionally restricted to one label)."""
        if label is None:
            return self.records[-1] if self.records else None
        hits = self.by_label(label)
        return hits[-1] if hits else None

    def collectives(self) -> List[CollectiveSignature]:
        """All collective signatures recorded (``SPMD_VERIFY`` runs)."""
        return [r.data for r in self.records if r.label == COLLECTIVE]
