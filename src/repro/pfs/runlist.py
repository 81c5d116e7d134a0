"""The run list ``(offsets, lengths)`` and its two kernels.

Every layer of the I/O stack describes noncontiguous file access as a
pair of int64 arrays — byte offsets and byte lengths.  Two operations on
that pair recur everywhere, and each lives here exactly once, at the
bottom of the stack so the file system, MPI-IO and the data path all
import the same code:

* :func:`coalesce_runs` — merge sorted runs into maximal runs (the
  aggregators' union, the scheduler's per-controller re-merge, the read
  path's request coalescing);
* :func:`expand_runs` — the byte index of every byte the runs cover (the
  byte store's scatter/gather, the aggregators' scratch addressing, data
  sieving's copy in and out of a covering extent, extraction from a
  coalesced read).

Both are O(n) numpy work with no Python-level per-run loop.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["coalesce_runs", "expand_runs"]


def coalesce_runs(
    offsets: np.ndarray, lengths: np.ndarray, gap: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge sorted byte runs into maximal runs bridging holes <= ``gap``.

    ``offsets`` must be ascending; runs may abut or overlap (a coalesced
    run covers through the furthest end seen so far).  Returns ``(coff,
    clen, owner)`` where ``owner[i]`` is the index of the coalesced run
    containing input run ``i`` — what makes the inverse mapping
    (:func:`repro.mpiio.runs.extract_runs`) vectorizable.

    Gap-tolerant merging (``gap > 0``) is only meaningful for *reads* — a
    write must not touch hole bytes.  Zero-gap coalescing of
    non-overlapping runs is *lossless* (``clen.sum() == lengths.sum()``,
    the coalesced byte stream is exactly the concatenated input runs) and
    therefore safe for writes too.
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    ln = np.asarray(lengths, dtype=np.int64).reshape(-1)
    n = len(off)
    if n < 2:  # nothing to merge (the common per-controller case)
        return off, ln, np.zeros(n, dtype=np.int64)
    ends = off + ln
    reach = np.maximum.accumulate(ends)
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.greater(off[1:], reach[:-1] + gap, out=new[1:])
    owner = np.cumsum(new, dtype=np.int64) - 1
    starts = np.flatnonzero(new)
    coff = off[starts]
    cend = np.maximum.reduceat(ends, starts)
    return coff, cend - coff, owner


def expand_runs(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Index of every byte the runs cover, in run order:
    ``concatenate([arange(o, o + l) for o, l in zip(offsets, lengths)])``.

    Runs need not be sorted or disjoint; ``offsets`` may be positions in
    any byte space (a file, an aggregator's scratch buffer, a covering
    extent).
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    ln = np.asarray(lengths, dtype=np.int64).reshape(-1)
    first = np.cumsum(ln) - ln  # where each run starts in the output
    return np.arange(int(ln.sum()), dtype=np.int64) + np.repeat(off - first, ln)
