"""Round-robin striping arithmetic.

Files are striped in fixed-size units over the controllers; these helpers
answer layout questions the cost model and tests need (which controller
serves a byte, how many distinct stripes/controllers a request touches).
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

    def stripe_of(self, offset: int) -> int:
        """Index of the stripe containing byte ``offset``."""
        return offset // self.stripe_size

    def controller_of(self, offset: int) -> int:
        """Controller serving byte ``offset`` (round-robin over stripes)."""
        return self.stripe_of(offset) % self.n_controllers

    def stripes_spanned(self, offset: int, length: int) -> int:
        """Number of distinct stripes a ``[offset, offset+length)`` request
        touches (0 for empty requests)."""
        if length <= 0:
            return 0
        first = self.stripe_of(offset)
        last = self.stripe_of(offset + length - 1)
        return last - first + 1

    def controllers_spanned(self, offset: int, length: int) -> int:
        """Number of distinct controllers the request touches."""
        return min(self.stripes_spanned(offset, length), self.n_controllers)
