"""Growable arrays with capacity doubling — the paper's ``realloc`` trick.

The original FUN3D reads the edge list twice: once to count each rank's
partitioned edges, once to store them.  SDM instead appends into buffers
that double when full, reading the data in a single pass; the paper credits
this for part of the reduced ``index distri.`` cost.  These helpers are that
mechanism (plus an append-count so the cost model can charge for the copies
growth performs).
"""

from __future__ import annotations

import numpy as np

__all__ = ["GrowableArray"]


class GrowableArray:
    """An append-only typed array with doubling capacity."""

    def __init__(self, dtype=np.int64, initial_capacity: int = 1024) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be positive")
        self._buf = np.empty(initial_capacity, dtype=dtype)
        self._len = 0
        self.n_grows = 0
        self.bytes_copied = 0

    def _ensure(self, extra: int) -> None:
        need = self._len + extra
        if need <= len(self._buf):
            return
        new_cap = len(self._buf)
        while new_cap < need:
            new_cap *= 2
        grown = np.empty(new_cap, dtype=self._buf.dtype)
        grown[: self._len] = self._buf[: self._len]
        self.bytes_copied += self._len * self._buf.itemsize
        self.n_grows += 1
        self._buf = grown

    def extend(self, values: np.ndarray) -> None:
        """Append a batch of elements."""
        values = np.asarray(values, dtype=self._buf.dtype)
        self._ensure(len(values))
        self._buf[self._len : self._len + len(values)] = values
        self._len += len(values)

    def view(self) -> np.ndarray:
        """Zero-copy view of the current contents."""
        return self._buf[: self._len]
