"""Vectorized byte-run coalescing: merge many small I/O requests into few.

The collective-I/O discipline of the source paper (and of ROMIO's data
sieving / two-phase machinery) is to never let "many small noncontiguous
requests" reach the file system.  This module is the request-merging core
the rest of the I/O stack shares:

* :func:`coalesce_runs` — merge sorted byte runs into maximal contiguous
  runs, optionally bridging holes of at most ``gap`` bytes (the
  data-sieving trade: read-and-discard a small hole to save a request);
* :func:`coalesce_positions` — the uniform-width special case the chunked
  read path uses (element positions, all ``width`` bytes long);
* :func:`extract_runs` / :func:`gather_elements` — pull the originally
  requested bytes back out of a coalesced read blob (which may contain
  bridged hole bytes), fully vectorized.

Every function is O(n) numpy work with no Python-level per-run loop; the
``owner`` array returned by the coalescers (input run -> coalesced run) is
what makes the inverse mapping vectorizable.

Gap-tolerant merging (``gap > 0``) is only meaningful for *reads* — a
write must not touch hole bytes.  Zero-gap coalescing of sorted
non-overlapping runs is *lossless* (``clen.sum() == lengths.sum()``, the
coalesced byte stream is exactly the concatenated input runs) and is
therefore safe for writes too.

The gap itself may be *derived* instead of configured: with the
``coalesce_gap`` hint set to :data:`ADAPTIVE_GAP` (-1), every read calls
:func:`adaptive_gap` on its own run list and bridges the largest holes it
can while the bridged (read-and-discarded) bytes stay under
:data:`COALESCE_WASTE` of the payload.  The choice is a pure function of the rank's own
runs — each rank coalesces only the runs it ships into the collective —
so per-rank adaptivity never diverges a collective's shape.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "ADAPTIVE_GAP",
    "COALESCE_WASTE",
    "adaptive_gap",
    "adaptive_gap_positions",
    "coalesce_runs",
    "coalesce_positions",
    "extract_runs",
    "gather_elements",
    "resolve_gap",
    "resolve_gap_positions",
]

ADAPTIVE_GAP = -1
"""``coalesce_gap`` sentinel: derive the gap per read from the hole
distribution (see :func:`adaptive_gap`) instead of using a fixed byte
count."""

COALESCE_WASTE = 0.25
"""Adaptive-gap budget: the largest fraction of a read's payload the
derived gap may spend on bridged (read-and-discarded) hole bytes — the
value ``BENCH_policy.json``'s adaptive-gap case is measured with."""

_EMPTY = np.empty(0, dtype=np.int64)


def _gap_from_holes(
    holes: np.ndarray,
    payload: int,
    max_gap: Optional[int],
) -> int:
    """Largest gap whose bridged holes total <= ``COALESCE_WASTE * payload``.

    ``holes`` are the positive hole sizes of one run list.  Bridging at
    gap ``g`` reads-and-discards every hole of size <= ``g``, so the
    waste of a candidate gap is the cumulative size of all holes up to
    it: sort the distinct hole sizes, accumulate ``size * count``, and
    take the largest size still within budget.  ``max_gap`` additionally
    caps the result (the data-sieving threshold: a hole that large is
    cheaper as a separate request no matter the budget).
    """
    holes = holes[holes > 0]
    if len(holes) == 0 or payload <= 0:
        return 0
    sizes, counts = np.unique(holes, return_counts=True)
    if max_gap is not None:
        keep = sizes <= max_gap
        sizes, counts = sizes[keep], counts[keep]
        if len(sizes) == 0:
            return 0
    waste = np.cumsum(sizes * counts)
    budget = COALESCE_WASTE * payload
    k = int(np.searchsorted(waste, budget, side="right"))
    return int(sizes[k - 1]) if k > 0 else 0


def adaptive_gap(
    offsets: np.ndarray,
    lengths: np.ndarray,
    max_gap: Optional[int] = None,
) -> int:
    """Derive a coalescing gap from one run list's hole distribution.

    Holes are measured against the zero-gap coalescing reach (ascending
    ``offsets``, overlaps covered), payload is ``lengths.sum()``; see
    :func:`_gap_from_holes` for the budgeted choice.
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    ln = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if len(off) < 2:
        return 0
    reach = np.maximum.accumulate(off + ln)
    return _gap_from_holes(
        off[1:] - reach[:-1], int(ln.sum()), max_gap
    )


def adaptive_gap_positions(
    positions: np.ndarray,
    width: int,
    max_gap: Optional[int] = None,
) -> int:
    """Uniform-width special case of :func:`adaptive_gap` (the chunked
    read path's shape: unique ascending element positions)."""
    pos = np.asarray(positions, dtype=np.int64).reshape(-1)
    if len(pos) < 2:
        return 0
    return _gap_from_holes(np.diff(pos) - width, len(pos) * width, max_gap)


def resolve_gap(
    gap: int,
    offsets: np.ndarray,
    lengths: np.ndarray,
    max_gap: Optional[int] = None,
) -> int:
    """The effective gap for one read: the hint's value, or — for
    :data:`ADAPTIVE_GAP` (any negative value) — :func:`adaptive_gap` of
    this run list."""
    if gap >= 0:
        return gap
    return adaptive_gap(offsets, lengths, max_gap)


def resolve_gap_positions(
    gap: int,
    positions: np.ndarray,
    width: int,
    max_gap: Optional[int] = None,
) -> int:
    """:func:`resolve_gap` for the uniform-width position shape."""
    if gap >= 0:
        return gap
    return adaptive_gap_positions(positions, width, max_gap)


def coalesce_runs(
    offsets: np.ndarray, lengths: np.ndarray, gap: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge sorted byte runs into maximal runs bridging holes <= ``gap``.

    ``offsets`` must be ascending; runs may abut or overlap (a coalesced
    run covers through the furthest end seen so far, like
    :func:`repro.mpiio.twophase.union_runs`).  Returns ``(coff, clen,
    owner)`` where ``owner[i]`` is the index of the coalesced run
    containing input run ``i``.
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    ln = np.asarray(lengths, dtype=np.int64).reshape(-1)
    n = len(off)
    if n == 0:
        return _EMPTY.copy(), _EMPTY.copy(), _EMPTY.copy()
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


def coalesce_positions(
    positions: np.ndarray, width: int, gap: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coalesced byte runs for sorted positions of uniform ``width`` bytes.

    The chunked read path's shape: ``positions`` are the (unique,
    ascending) file offsets of wanted elements, each ``width`` bytes.
    Adjacent elements (``diff == width``) always merge; holes up to
    ``gap`` bytes are bridged.  Returns ``(coff, clen, owner)`` with
    ``owner[i]`` the coalesced run holding element ``i``.
    """
    pos = np.asarray(positions, dtype=np.int64).reshape(-1)
    n = len(pos)
    if n == 0:
        return _EMPTY.copy(), _EMPTY.copy(), _EMPTY.copy()
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.greater(np.diff(pos), width + gap, out=new[1:])
    owner = np.cumsum(new, dtype=np.int64) - 1
    starts = np.flatnonzero(new)
    last = np.r_[starts[1:] - 1, n - 1]
    coff = pos[starts]
    clen = pos[last] + width - coff
    return coff, clen, owner


def extract_runs(
    blob: np.ndarray,
    coff: np.ndarray,
    clen: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """Original runs' bytes out of a coalesced read blob, in input order.

    ``blob`` is the concatenated coalesced runs (bridged hole bytes
    included); the result has ``lengths.sum()`` bytes — exactly the bytes
    the caller asked for before coalescing.
    """
    ln = np.asarray(lengths, dtype=np.int64).reshape(-1)
    total = int(ln.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint8)
    cstart = np.cumsum(clen, dtype=np.int64) - clen
    run_start = cstart[owner] + (np.asarray(offsets, dtype=np.int64) - coff[owner])
    first = np.cumsum(ln, dtype=np.int64) - ln
    idx = np.arange(total, dtype=np.int64) + np.repeat(run_start - first, ln)
    return blob[idx]


def gather_elements(
    blob: np.ndarray,
    coff: np.ndarray,
    clen: np.ndarray,
    positions: np.ndarray,
    width: int,
    owner: np.ndarray,
) -> np.ndarray:
    """Uniform-width special case of :func:`extract_runs`.

    Returns the ``len(positions) * width`` requested bytes in position
    order, pulled out of the coalesced blob with one 2-D fancy index.
    """
    pos = np.asarray(positions, dtype=np.int64).reshape(-1)
    if len(pos) == 0:
        return np.empty(0, dtype=np.uint8)
    cstart = np.cumsum(clen, dtype=np.int64) - clen
    elem_start = cstart[owner] + (pos - coff[owner])
    idx = elem_start[:, None] + np.arange(width, dtype=np.int64)[None, :]
    return np.ascontiguousarray(blob[idx]).reshape(-1)
