"""Real byte storage for simulated files.

A :class:`ByteStore` is a growable flat ``uint8`` buffer with vectorized
scatter/gather (``writev``/``readv``) over run lists — the storage engine
under every simulated file.  Growth doubles capacity (the same ``realloc``
strategy the paper credits SDM's single-pass edge reading to).

Reads of never-written ranges return zeros, like a POSIX sparse file.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import PFSError
from repro.pfs.runlist import expand_runs

__all__ = ["ByteStore"]

_LOOP_THRESHOLD = 64
"""Run counts below this use a plain loop; above, vectorized fancy indexing."""


class ByteStore:
    """Growable in-memory byte array with run-list scatter/gather."""

    def __init__(self, initial_capacity: int = 4096) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be positive")
        self._buf = np.zeros(initial_capacity, dtype=np.uint8)
        self.size = 0
        """High-water mark: one past the last byte ever written."""

    @property
    def capacity(self) -> int:
        """Currently allocated bytes (always >= size)."""
        return len(self._buf)

    def _ensure(self, upto: int) -> None:
        if upto <= len(self._buf):
            return
        new_cap = len(self._buf)
        while new_cap < upto:
            new_cap *= 2
        grown = np.zeros(new_cap, dtype=np.uint8)
        grown[: self.size] = self._buf[: self.size]
        self._buf = grown

    # ------------------------------------------------------------------
    # Contiguous access
    # ------------------------------------------------------------------

    def write(self, offset: int, data) -> None:
        """Store ``data`` (any buffer) at byte ``offset``."""
        if offset < 0:
            raise PFSError(f"negative write offset: {offset}")
        raw = np.asarray(data).reshape(-1).view(np.uint8)
        end = offset + len(raw)
        self._ensure(end)
        self._buf[offset:end] = raw
        if end > self.size:
            self.size = end

    def read(self, offset: int, length: int) -> np.ndarray:
        """Return ``length`` bytes at ``offset`` (zeros beyond EOF)."""
        if offset < 0 or length < 0:
            raise PFSError(f"negative read range: offset={offset} length={length}")
        out = np.zeros(length, dtype=np.uint8)
        avail = min(self.size, offset + length) - offset
        if avail > 0:
            out[:avail] = self._buf[offset : offset + avail]
        return out

    # ------------------------------------------------------------------
    # Vectored access over run lists
    # ------------------------------------------------------------------

    def writev(self, offsets, lengths, data) -> None:
        """Scatter contiguous ``data`` into the runs (run order).

        ``sum(lengths)`` must equal ``len(data)`` in bytes.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        raw = np.asarray(data).reshape(-1).view(np.uint8)
        total = int(lengths.sum())
        if total != len(raw):
            raise PFSError(f"writev: runs cover {total} bytes, data has {len(raw)}")
        if len(offsets) == 0:
            return
        if len(offsets) and int(offsets.min()) < 0:
            raise PFSError("writev: negative offset")
        end = int((offsets + lengths).max())
        self._ensure(end)
        if len(offsets) == 1:
            o, l = int(offsets[0]), int(lengths[0])
            self._buf[o : o + l] = raw
        elif len(offsets) < _LOOP_THRESHOLD:
            pos = 0
            for o, l in zip(offsets.tolist(), lengths.tolist()):
                self._buf[o : o + l] = raw[pos : pos + l]
                pos += l
        else:
            self._buf[expand_runs(offsets, lengths)] = raw
        if end > self.size:
            self.size = end

    def readv(self, offsets, lengths) -> np.ndarray:
        """Gather the runs into a fresh contiguous buffer (run order)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        total = int(lengths.sum())
        out = np.zeros(total, dtype=np.uint8)
        if len(offsets) == 0:
            return out
        if len(offsets) and int(offsets.min()) < 0:
            raise PFSError("readv: negative offset")
        end = int((offsets + lengths).max())
        if end <= self.size:
            if len(offsets) == 1:
                o, l = int(offsets[0]), int(lengths[0])
                out[:] = self._buf[o : o + l]
            elif len(offsets) < _LOOP_THRESHOLD:
                pos = 0
                for o, l in zip(offsets.tolist(), lengths.tolist()):
                    out[pos : pos + l] = self._buf[o : o + l]
                    pos += l
            else:
                out[:] = self._buf[expand_runs(offsets, lengths)]
            return out
        # Some runs extend past EOF: clamp per run (rare, slow path).
        pos = 0
        for o, l in zip(offsets.tolist(), lengths.tolist()):
            avail = max(min(self.size, o + l) - o, 0)
            if avail:
                out[pos : pos + avail] = self._buf[o : o + avail]
            pos += l
        return out

    def truncate(self, length: int = 0) -> None:
        """Shrink (or zero-extend) the logical size."""
        if length < 0:
            raise PFSError(f"negative truncate length: {length}")
        if length < self.size:
            self._buf[length : self.size] = 0
        else:
            self._ensure(length)
        self.size = length
