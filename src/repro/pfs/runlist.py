"""The run list ``(offsets, lengths)`` and its kernels.

Every layer of the I/O stack describes noncontiguous file access as a
pair of int64 arrays — byte offsets and byte lengths.  The operations on
that pair that recur everywhere live here exactly once, at the bottom of
the stack so the file system, MPI-IO and the data path all import the
same code:

* :func:`coalesce_runs` — merge sorted runs into maximal runs (a file
  view's filetype tile, a sparse aggregation's union, the scheduler's
  per-controller re-merge, the read path's request coalescing);
* :func:`gather_runs` / :func:`scatter_runs` — copy the runs out of /
  into a flat byte buffer (the byte store's ``readv`` / ``writev``,
  data sieving's covering extent, extraction from a coalesced read).
  They move data by the *element*: the word width is read off the run
  list, never passed in;
* :class:`RunMove` — the same move planned once, for a list that moves
  more than once or whose union is wanted too.  Not part of the listed
  surface: its one user is the two-phase aggregator's scratch buffer,
  where a dense aggregation's one word index both moves its segments'
  bytes and marks the union runs they cover;
* :func:`expand_runs` — the index of every unit the runs cover, the one
  expansion under the move pair (and the scheduler's cell numbering).

All are O(n) numpy work; the only Python-level per-run loop is the move
kernels' slice copy of lists too short to repay an index array.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["coalesce_runs", "expand_runs", "gather_runs", "scatter_runs"]


def coalesce_runs(
    offsets: np.ndarray, lengths: np.ndarray, gap: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge sorted byte runs into maximal runs bridging holes <= ``gap``.

    ``offsets`` must be ascending; runs may abut or overlap (a coalesced
    run covers through the furthest end seen so far).  Returns ``(coff,
    clen)``; input run ``i`` lies in the last coalesced run starting at
    or before ``offsets[i]`` (:func:`repro.mpiio.runs.extract_runs`
    finds it so).

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
        return off, ln
    ends = off + ln
    reach = np.maximum.accumulate(ends)
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.greater(off[1:], reach[:-1] + gap, out=new[1:])
    starts = np.flatnonzero(new)
    coff = off[starts]
    # The reach at a group's last run is the group's furthest end: every
    # earlier group ended before the group's first offset.
    cend = reach[np.append(starts[1:] - 1, n - 1)]
    return coff, cend - coff


def expand_runs(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Index of every unit the runs cover, in run order:
    ``concatenate([arange(o, o + l) for o, l in zip(offsets, lengths)])``.

    Runs need not be sorted or disjoint, and the unit is the caller's:
    bytes of a file, words of a buffer (the move kernels below), cells of
    the scheduler's stripe or batch grid.
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    ln = np.asarray(lengths, dtype=np.int64).reshape(-1)
    first = np.cumsum(ln) - ln  # where each run starts in the output
    return np.arange(int(ln.sum()), dtype=np.int64) + np.repeat(off - first, ln)


# ---------------------------------------------------------------------------
# The move pair
# ---------------------------------------------------------------------------

# Which of three copies a run list gets, set once for every site from the
# sweep ``benchmarks/perfcheck_kernels.py`` prints (us per gather; loop =
# one slice copy per run, byte = fancy-index the buffer with one index
# entry per byte, word = the same over 8-byte words, width read off the
# list first):
#
#     runs x bytes      loop     byte     word
#        1 x 128         2.0      6.3     10.8
#        8 x 128         4.9      7.9     11.9
#       16 x 40          7.5      7.4     11.9
#       16 x 512         9.2     25.1     19.3
#       32 x 40         13.8      8.5     12.6
#       32 x 128        13.3     14.0     13.3
#       32 x 1200       16.0     70.9     22.6
#       63 x 16         24.6      8.1     12.4
#      256 x 128       143.3     82.1     30.4
#     1024 x 16        397.4     37.1     24.3
#     1024 x 512       497.2   3197.2    219.7
#
# The loop costs ~0.4 us a run whatever its length; a byte index ~6 us a
# call plus 2 ns a byte (several times that once the index outgrows the
# cache); reading the width off the list ~5 us more, for up to 8x fewer
# index entries.
_SLICE_RUNS = 16
"""Lists this short are copied run by run: the whole loop costs about
what an index array costs to set up."""
_SLICE_RUN_BYTES = 512
"""So are lists whose mean run is this long: one slice copy is cheaper
than indexing that many bytes, and no worse than indexing them as words
(the width is not known yet, and a loop never pays 8 index bytes per
data byte)."""
_WORD_BYTES = 4096
"""Under this many bytes in all, finding the width costs more than the
index entries it would save: plain byte index, width not looked at."""

_WORDS = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def _move_plan(
    offsets: np.ndarray, lengths: np.ndarray, total: int
) -> Optional[Tuple[int, np.ndarray]]:
    """How to move these runs (``total`` bytes in all): ``None`` for
    per-run slice copies, else ``(w, index)`` — see the buffer as
    ``w``-byte words, and the index of every word the runs cover.

    ``w`` is the largest power of two (at most 8) dividing every offset
    and every length — the lowest set bit of their bitwise OR — so it is
    a property of the run list and no caller says what its elements are:
    DOUBLE data gives 8 and an eighth of the byte index's entries; one
    odd offset (a header in front of the data) gives 1, and exactly the
    byte index.
    """
    n = len(offsets)
    if n <= _SLICE_RUNS or total >= n * _SLICE_RUN_BYTES:
        return None
    w = 1
    if total >= _WORD_BYTES:
        bits = int(np.bitwise_or.reduce(offsets) | np.bitwise_or.reduce(lengths))
        w = min(bits & -bits, 8)
    if w == 1:
        return w, expand_runs(offsets, lengths)
    return w, expand_runs(offsets // w, lengths // w)


def _as_words(a: np.ndarray, w: int) -> np.ndarray:
    """Flat ``uint8`` ``a`` as ``w``-byte words (a trailing partial word
    is out of every run's reach)."""
    return a if w == 1 else a[: len(a) // w * w].view(_WORDS[w])


def _gather(buf, offsets, lengths, total, plan) -> np.ndarray:
    if plan is not None:
        w, index = plan
        return _as_words(buf, w)[index].view(np.uint8)
    out = np.empty(total, dtype=np.uint8)
    pos = 0
    for o, l in zip(offsets.tolist(), lengths.tolist()):
        out[pos : pos + l] = buf[o : o + l]
        pos += l
    return out


def _scatter(buf, offsets, lengths, data, plan) -> None:
    if plan is not None:
        w, index = plan
        _as_words(buf, w)[index] = _as_words(data, w)
        return
    pos = 0
    for o, l in zip(offsets.tolist(), lengths.tolist()):
        buf[o : o + l] = data[pos : pos + l]
        pos += l


class RunMove:
    """One run list's move, planned once: the copy :func:`gather_runs` /
    :func:`scatter_runs` pick for it (per-run slices, or the index of
    every word the runs cover), kept so the list can move any number of
    times — and so its :meth:`union` is read off that same index.

    Runs need not be sorted or disjoint; each must lie inside the buffers
    it moves.  ``nbytes`` is the bytes they cover with multiplicity (the
    length of the contiguous side of every move).
    """

    __slots__ = ("offsets", "lengths", "nbytes", "_plan")

    def __init__(self, offsets: np.ndarray, lengths: np.ndarray) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.nbytes = int(self.lengths.sum())
        self._plan = _move_plan(self.offsets, self.lengths, self.nbytes)

    def gather(self, buf: np.ndarray) -> np.ndarray:
        """The runs' bytes out of flat ``uint8`` ``buf``, concatenated in
        run order, as a fresh array (never a view of ``buf``)."""
        return _gather(buf, self.offsets, self.lengths, self.nbytes,
                       self._plan)

    def scatter(self, buf: np.ndarray, data: np.ndarray) -> None:
        """Copy contiguous ``uint8`` ``data`` (``nbytes`` long) into the
        runs of flat ``uint8`` ``buf``, in run order: where runs overlap,
        the later run wins."""
        _scatter(buf, self.offsets, self.lengths, data, self._plan)

    def union(self, extent: int) -> Tuple[np.ndarray, np.ndarray]:
        """The maximal runs covering every byte the (non-empty) runs
        cover, ascending and disjoint; every run ends at or before
        ``extent``.

        With an index plan, the indexed words are marked in an
        ``extent``-byte coverage mask and its edges are the union — no
        sort, O(extent / word) memory, so meant for runs packed densely
        into ``[0, extent)``; a mask with no hole is the one run ``[0,
        extent)``.  A list copied run by run is sorted and merged by
        :func:`coalesce_runs` instead.
        """
        if self._plan is None:
            order = np.argsort(self.offsets, kind="stable")
            return coalesce_runs(self.offsets[order], self.lengths[order])
        w, index = self._plan
        covered = np.zeros(-(-extent // w), dtype=bool)
        covered[index] = True
        if covered.all():
            return (np.zeros(1, dtype=np.int64),
                    np.array([extent], dtype=np.int64))
        edges = np.flatnonzero(np.diff(covered, prepend=False, append=False))
        starts = edges[0::2]
        return starts * w, (edges[1::2] - starts) * w


def gather_runs(
    buf: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """The runs' bytes out of flat ``uint8`` ``buf``, concatenated in run
    order, as a fresh array (never a view of ``buf``).

    Runs need not be sorted or disjoint; each must lie inside ``buf``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    return _gather(buf, offsets, lengths, total,
                   _move_plan(offsets, lengths, total))


def scatter_runs(
    buf: np.ndarray, offsets: np.ndarray, lengths: np.ndarray, data: np.ndarray
) -> None:
    """Copy contiguous ``uint8`` ``data`` into the runs of flat ``uint8``
    ``buf``, in run order; ``len(data)`` must equal ``lengths.sum()``.

    Where runs overlap, the later run wins (both copies apply the runs in
    order) — the rule two-phase writes resolve overlapping segments by.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    _scatter(buf, offsets, lengths, data,
             _move_plan(offsets, lengths, len(data)))
