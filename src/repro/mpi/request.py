"""Nonblocking send requests.

A :class:`Request` wraps a :class:`~repro.simt.primitives.SimEvent` that
fires when an :meth:`~repro.mpi.communicator.Communicator.isend`'s message
is delivered.
"""

from __future__ import annotations

from repro.simt.primitives import SimEvent
from repro.simt.process import Process

__all__ = ["Request"]


class Request:
    """Handle for an in-flight nonblocking send."""

    def __init__(self, event: SimEvent) -> None:
        self._event = event

    def wait(self, proc: Process) -> None:
        """Block the calling process until the message is delivered."""
        self._event.wait(proc)
