"""MPI-IO hints (the ``MPI_Info`` knobs ROMIO understands).

Defaults come from the machine model's :class:`CollectiveIOModel`; user code
overrides per-open, exactly as the paper describes SDM passing hints about
access patterns and striping to the MPI-IO implementation.

:func:`validate_hints` is the shared early check SDM-level entry points run
on user-supplied hint dicts, so a mistyped hint name fails at construction
time with the accepted list instead of at the first file open.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional, Tuple

from repro.config import MachineModel
from repro.mpiio.runs import ADAPTIVE_GAP

__all__ = ["Hints", "accepted_hints", "validate_hints"]


@dataclass
class Hints:
    """Resolved collective-buffering and data-sieving parameters."""

    cb_buffer_size: int
    cb_nodes: int
    ds_buffer_size: int
    ds_threshold_gap: int
    coalesce_gap: int = 0
    """Read-side source coalescing: bridge holes up to this many bytes
    when merging a rank's byte runs into requests (read-and-discard the
    hole to save a request).  Never applied to writes.  The sentinel
    :data:`~repro.mpiio.runs.ADAPTIVE_GAP` (-1) derives the gap per read
    from that read's own hole distribution instead."""

    @classmethod
    def from_machine(
        cls, machine: MachineModel, overrides: Optional[Mapping[str, int]] = None
    ) -> "Hints":
        """Machine defaults, selectively overridden (unknown keys rejected)."""
        cio = machine.collective_io
        values = {
            "cb_buffer_size": cio.cb_buffer_size,
            "cb_nodes": cio.cb_nodes,
            "ds_buffer_size": cio.ds_buffer_size,
            "ds_threshold_gap": cio.ds_threshold_gap,
            "coalesce_gap": cio.coalesce_gap,
        }
        if overrides:
            validate_hints(overrides)
            for key, val in overrides.items():
                values[key] = int(val)
        return cls(**values)

    def resolve_cb_nodes(self, comm_size: int, n_controllers: int) -> int:
        """Number of aggregators: the hint, else min(P, 2 x controllers)."""
        if self.cb_nodes > 0:
            return max(1, min(self.cb_nodes, comm_size))
        return max(1, min(comm_size, 2 * n_controllers))


def accepted_hints() -> Tuple[str, ...]:
    """The hint names an ``io_hints`` dict may carry."""
    return tuple(f.name for f in fields(Hints))


def validate_hints(hints: Optional[Mapping[str, int]]) -> None:
    """Reject unknown hint names (and nonsense values) up front.

    Raises ``KeyError`` naming the offender *and* the accepted list —
    a silently ignored hint is a tuning knob that does nothing.
    """
    if not hints:
        return
    accepted = accepted_hints()
    for key, val in hints.items():
        if key not in accepted:
            raise KeyError(
                f"unknown MPI-IO hint: {key!r} "
                f"(accepted hints: {', '.join(accepted)})"
            )
        if key == "coalesce_gap" and int(val) < ADAPTIVE_GAP:
            raise ValueError(
                f"coalesce_gap must be >= 0 or ADAPTIVE_GAP ({ADAPTIVE_GAP}), "
                f"got {val!r}"
            )
