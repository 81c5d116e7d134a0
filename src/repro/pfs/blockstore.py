"""Real byte storage for simulated files.

A :class:`ByteStore` is a growable flat ``uint8`` buffer with
scatter/gather (``writev``/``readv``) over run lists — the storage engine
under every simulated file.  The copying itself is the run list's move
pair (:func:`repro.pfs.runlist.gather_runs` / ``scatter_runs``: slice
copies for short lists, element-wide indexing for long ones); this module
owns bounds, growth and the sparse-file rules.  Growth doubles capacity
(the same ``realloc`` strategy the paper credits SDM's single-pass edge
reading to).

Reads of never-written ranges return zeros, like a POSIX sparse file.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PFSError
from repro.pfs.runlist import gather_runs, scatter_runs

__all__ = ["ByteStore"]


def _extent(offsets: np.ndarray, lengths: np.ndarray, what: str) -> int:
    """One past the last byte the non-empty runs touch (0 if none do).  An
    empty run touches nothing wherever it points — POSIX ``pwritev`` with
    an empty iov neither writes nor extends the file."""
    if len(offsets) and int(offsets.min()) < 0:
        raise PFSError(f"{what}: negative offset")
    return int((offsets + lengths).max(where=lengths > 0, initial=0))


class ByteStore:
    """Growable in-memory byte array with run-list scatter/gather."""

    def __init__(self, initial_capacity: int = 4096) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be positive")
        self._buf = np.zeros(initial_capacity, dtype=np.uint8)
        self.size = 0
        """High-water mark: one past the last byte ever written."""

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
        end = _extent(offsets, lengths, "writev")
        self._ensure(end)
        scatter_runs(self._buf, offsets, lengths, raw)
        if end > self.size:
            self.size = end

    def readv(self, offsets, lengths) -> np.ndarray:
        """Gather the runs into a fresh contiguous buffer (run order)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if _extent(offsets, lengths, "readv") <= self.size:
            return gather_runs(self._buf, offsets, lengths)
        # Some runs extend past EOF: clamp per run (rare, slow path); the
        # bytes beyond it read as zeros.
        out = np.zeros(int(lengths.sum()), dtype=np.uint8)
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
