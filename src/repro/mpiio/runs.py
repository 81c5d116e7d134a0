"""Read-side request coalescing: merge many small I/O requests into few.

The collective-I/O discipline of the source paper (and of ROMIO's data
sieving / two-phase machinery) is to never let "many small noncontiguous
requests" reach the file system.  The run list's kernels live at the
bottom of the stack in :mod:`repro.pfs.runlist` and are listed here
again because this is the name the MPI-IO layer and the data path use:

* :func:`coalesce_runs` — merge sorted byte runs into maximal contiguous
  runs, optionally bridging holes of at most ``gap`` bytes (the
  data-sieving trade: read-and-discard a small hole to save a request);
* :func:`gather_runs` / :func:`scatter_runs` — copy a run list's bytes
  out of / into a flat buffer, by the element;
* :func:`expand_runs` — the index of every unit a run list covers.

This module adds what only a coalescing *read* needs:

* :func:`extract_runs` — pull the originally requested bytes back out of
  a coalesced read blob (which may contain bridged hole bytes);
* :func:`resolve_gap` / :func:`adaptive_gap` — the gap itself may be
  *derived* instead of configured: with the ``coalesce_gap`` hint set to
  :data:`ADAPTIVE_GAP` (-1), a read bridges the largest holes it can
  while the bridged (read-and-discarded) bytes stay under
  :data:`COALESCE_WASTE` of the payload.  The choice is a pure function
  of the rank's own runs — each rank coalesces only the runs it ships
  into the collective — so per-rank adaptivity never diverges a
  collective's shape.

:class:`repro.mpiio.file.File` is the one caller that strings them
together (resolve gap → coalesce → read → extract); the gap is resolved
and the waste budget spent exactly once per read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.pfs.runlist import (
    coalesce_runs,
    expand_runs,
    gather_runs,
    scatter_runs,
)

__all__ = [
    "ADAPTIVE_GAP",
    "COALESCE_WASTE",
    "adaptive_gap",
    "coalesce_runs",
    "expand_runs",
    "extract_runs",
    "gather_runs",
    "resolve_gap",
    "scatter_runs",
]

ADAPTIVE_GAP = -1
"""``coalesce_gap`` sentinel: derive the gap per read from the hole
distribution (see :func:`adaptive_gap`) instead of using a fixed byte
count."""

COALESCE_WASTE = 0.25
"""Adaptive-gap budget: the largest fraction of a read's payload the
derived gap may spend on bridged (read-and-discarded) hole bytes — the
value ``BENCH_policy.json``'s adaptive-gap case is measured with."""


def adaptive_gap(
    offsets: np.ndarray,
    lengths: np.ndarray,
    max_gap: Optional[int] = None,
) -> int:
    """Derive a coalescing gap from one run list's hole distribution:
    the largest gap whose bridged holes total at most
    ``COALESCE_WASTE * payload``.

    Holes are measured against the zero-gap coalescing reach (ascending
    ``offsets``, overlaps covered), payload is ``lengths.sum()``.
    Bridging at gap ``g`` reads-and-discards every hole of size <= ``g``,
    so the waste of a candidate gap is the cumulative size of all holes
    up to it: sort the distinct hole sizes, accumulate ``size * count``,
    and take the largest size still within budget.  ``max_gap``
    additionally caps the result (the data-sieving threshold: a hole that
    large is cheaper as a separate request no matter the budget).
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    ln = np.asarray(lengths, dtype=np.int64).reshape(-1)
    payload = int(ln.sum())
    if len(off) < 2 or payload <= 0:
        return 0
    holes = off[1:] - np.maximum.accumulate(off + ln)[:-1]
    sizes, counts = np.unique(holes[holes > 0], return_counts=True)
    if max_gap is not None:
        keep = sizes <= max_gap
        sizes, counts = sizes[keep], counts[keep]
    waste = np.cumsum(sizes * counts)
    k = int(np.searchsorted(waste, COALESCE_WASTE * payload, side="right"))
    return int(sizes[k - 1]) if k > 0 else 0


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


def extract_runs(
    blob: np.ndarray,
    coff: np.ndarray,
    clen: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Original runs' bytes out of a coalesced read blob, in input order.

    ``blob`` is the concatenated coalesced runs ``(coff, clen)`` of the
    ascending ``(offsets, lengths)`` (bridged hole bytes included); the
    result has ``lengths.sum()`` bytes — exactly the bytes the caller
    asked for before coalescing.
    """
    off = np.asarray(offsets, dtype=np.int64)
    owner = _run_owner(coff, off)
    cstart = np.cumsum(clen, dtype=np.int64) - clen
    return gather_runs(blob, cstart[owner] + (off - coff[owner]), lengths)


def _run_owner(coff: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Index of the coalesced run holding each input run: the last one
    starting at or before its offset.  Coalesced runs start strictly
    ascending and each input run starts before the next coalesced run,
    so that is the one :func:`coalesce_runs` merged it into."""
    return np.searchsorted(coff, offsets, side="right") - 1
