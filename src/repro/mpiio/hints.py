"""MPI-IO hints (the ``MPI_Info`` knobs ROMIO understands).

A file's resolved hints are a :class:`~repro.config.CollectiveIOModel`:
the machine model's, with the names user code overrides per open
(:func:`resolve_hints`), exactly as the paper describes SDM passing hints
about access patterns and striping to the MPI-IO implementation.

:func:`validate_hints` is the shared early check SDM-level entry points run
on user-supplied hint dicts, so a mistyped hint name fails at construction
time with the accepted list instead of at the first file open.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Mapping, Optional, Tuple

from repro.config import CollectiveIOModel, MachineModel
from repro.mpiio.runs import ADAPTIVE_GAP

__all__ = ["accepted_hints", "resolve_hints", "validate_hints"]


def resolve_hints(
    machine: MachineModel, overrides: Optional[Mapping[str, int]] = None
) -> CollectiveIOModel:
    """The hints a file opens with: the machine's collective-I/O model,
    selectively overridden (unknown keys rejected).  The read-side
    ``coalesce_gap`` may be the sentinel
    :data:`~repro.mpiio.runs.ADAPTIVE_GAP` (-1): each read then derives
    its gap from its own hole distribution."""
    validate_hints(overrides)
    if not overrides:
        return machine.collective_io
    return replace(
        machine.collective_io, **{k: int(v) for k, v in overrides.items()}
    )


def accepted_hints() -> Tuple[str, ...]:
    """The hint names an ``io_hints`` dict may carry."""
    return tuple(f.name for f in fields(CollectiveIOModel))


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
