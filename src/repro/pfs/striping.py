"""Round-robin striping arithmetic.

Files are striped in fixed-size units over the controllers, dealt
round-robin: stripe ``offset // stripe_size`` lives on controller
``stripe % n_controllers``.  The scheduler (:mod:`repro.pfs.scheduler`)
cuts run lists on that rule in bulk; :meth:`StripeLayout.controller_of`
states it for one byte, the reference its tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StripeLayout"]


@dataclass(frozen=True)
class StripeLayout:
    """Striping geometry of one file."""

    stripe_size: int
    n_controllers: int

    def __post_init__(self) -> None:
        if self.stripe_size < 1:
            raise ValueError(f"stripe_size must be >= 1, got {self.stripe_size}")
        if self.n_controllers < 1:
            raise ValueError(f"n_controllers must be >= 1, got {self.n_controllers}")

    def controller_of(self, offset: int) -> int:
        """Controller serving byte ``offset`` (round-robin over stripes)."""
        return (offset // self.stripe_size) % self.n_controllers
