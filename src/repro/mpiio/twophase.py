"""Two-phase (collective-buffering) I/O, ROMIO style.

Collective read/write of noncontiguous interleaved data proceeds in two
phases instead of thousands of tiny independent requests:

1. **Exchange** — the file range covered by the call is split into
   contiguous *file domains*, one per aggregator rank (``cb_nodes`` of
   them, stripe-aligned).  Every rank splits its byte runs by domain and
   ships ``(offsets, lengths, data)`` segments to the owning aggregators
   with one ``alltoallv``.
2. **Access** — each aggregator finds the maximal contiguous *union
   runs* covering the segments it received, moves the segments' bytes
   through a scratch buffer — the union runs' bytes laid end to end —
   and accesses the file system in at most ``cb_buffer_size``-byte
   requests, each a streaming transfer.  An aggregation is *dense* when
   its span — lowest segment offset ``lo`` to highest segment end ``hi``
   — is at most :data:`_DENSE` (2) times the bytes it received.  A dense
   one finds its union with no sort: one word index over the segments
   placed at their offset minus ``lo``
   (:class:`~repro.pfs.runlist.RunMove`) marks a coverage mask whose
   edges are the union runs.  With no hole the union is the one run
   ``[lo, hi)`` and the scratch is the *span layout*, ROMIO's collective
   buffer addressed by file offset (scratch byte ``i`` is file byte
   ``lo + i``), and that same index moves the segments' bytes.
   Otherwise — a sparse aggregation, whose segments are sorted and
   merged, or a dense one with holes — each segment is placed in the
   *packed layout* by a search into the union runs, so scratch never
   costs more than the bytes it holds.  Requests
   are scheduled striping-aware (:mod:`repro.pfs.scheduler`): every batch
   targets a single controller, and aggregators stagger their starting
   controller by rank so a collective drives all controllers concurrently.
   The access phase is served as one walk
   (:meth:`~repro.pfs.filesystem.FileSystem.serve_plan`): the aggregator
   parks once for all its requests, and its bytes move once, scratch to
   file (or back) with one ``writev`` / ``readv`` when the walk ends.  The
   schedule belongs to the file system, which owns the controllers, and
   is planned once per *shape* — the union runs up to a shift by a
   multiple of ``stripe_size x n_controllers``, ``cb_buffer_size`` and
   the starting controller — so an aggregation that repeats a shape (a
   checkpoint's read-back, the next timestep of one layout) skips the
   planning.  The aggregation itself — union, layout, move index — is
   built afresh every time: kept per content, it cost more memory than
   it saved time.  Its host cost is numpy calls, not the bytes they
   move, and no Python loop makes numpy calls per domain or per source.

Writes resolve overlapping segments deterministically: segments are applied
in source-rank order, so the highest writing rank wins byte-wise (matters
for SDM's ghost-inclusive map arrays, where overlapping values are equal
anyway).  Reads are the mirror image with a second ``alltoallv`` returning
data.  Zero-length runs are dropped before planning: they move no bytes,
and one far away would stretch the global range the domains split.

All data movement is real numpy traffic; all timing (exchange cost,
aggregator memcpy, controller contention) comes from the machine model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.catalog import collective
from repro.config import CollectiveIOModel
from repro.mpi.communicator import Communicator
from repro.mpi.ops import MAX, MIN
from repro.pfs.file import PFSHandle
from repro.pfs.filesystem import FileSystem
from repro.pfs.runlist import RunMove, coalesce_runs
from repro.simt.process import Process

__all__ = [
    "file_domain_bounds",
    "split_runs_by_bounds",
    "collective_write",
    "collective_read",
]

_NO_OFFSET = 1 << 62
_EMPTY_PIECE = (np.empty(0, dtype=np.int64),) * 2  # all empty domains share it


def file_domain_bounds(glo: int, ghi: int, naggs: int, align: int) -> np.ndarray:
    """Domain boundaries: ``naggs+1`` positions splitting [glo, ghi).

    Interior bounds are aligned down to ``align`` (stripe size), so one
    stripe is never shared by two aggregators.
    """
    if ghi <= glo:
        raise ValueError(f"empty global range [{glo}, {ghi})")
    raw = glo + ((ghi - glo) * np.arange(naggs + 1, dtype=np.int64)) // naggs
    bounds = (raw // align) * align
    bounds[0] = glo
    bounds[-1] = ghi
    return np.maximum.accumulate(bounds)


def split_runs_by_bounds(
    offsets: np.ndarray, lengths: np.ndarray, bounds: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Clip sorted non-overlapping runs into each ``[bounds[d], bounds[d+1])``.

    Returns one ``(offsets, lengths)`` pair per domain; a run crossing a
    boundary contributes a clipped piece to both sides.  Data order is
    preserved: concatenating the pieces domain-by-domain reproduces the
    original byte stream.  Pieces are read-only by contract: one is a
    view of the inputs unless its first or last run is clipped (only then
    is it copied), and every empty domain gets the same empty piece.
    """
    out = [_EMPTY_PIECE] * (len(bounds) - 1)
    if len(offsets) == 0:
        return out
    ends = offsets + lengths
    i0 = np.searchsorted(ends, bounds[:-1], side="right")
    i1 = np.searchsorted(offsets, bounds[1:], side="left")
    hit = np.flatnonzero(i0 < i1)  # domains holding any of these runs
    a, b, lo, hi = i0[hit], i1[hit], bounds[hit], bounds[hit + 1]
    clipped = (offsets[a] < lo) | (ends[b - 1] > hi)
    rows = np.column_stack((hit, a, b, lo, hi, clipped))
    for d, a, b, lo, hi, clip in rows.tolist():
        o, l = offsets[a:b], lengths[a:b]
        if clip:
            o, l = o.copy(), l.copy()
            if o[0] < lo:
                l[0] -= lo - o[0]
                o[0] = lo
            if o[-1] + l[-1] > hi:
                l[-1] = hi - o[-1]
        out[d] = (o, l)
    return out


_DENSE = 2
"""An aggregation is *dense* when its span — lowest segment offset to
highest segment end — is at most this many times its segment bytes
(overlapping bytes counted once per segment): its union runs are then
read off a coverage mask over the span, and when they are one run the
scratch is the span itself, addressed by file offset."""


def _byte_totals(lengths: Sequence[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """The byte total of each of the non-empty run lists ``lengths``,
    ``flat`` being their concatenation: one ``reduceat``, not a sum per
    list."""
    counts = np.fromiter(map(len, lengths), dtype=np.int64, count=len(lengths))
    return np.add.reduceat(flat, np.cumsum(counts) - counts)


class _Aggregation:
    """One aggregator's side of a collective: the segments it received
    (concatenated in source-rank order), the maximal contiguous *union
    runs* covering them, and the scratch buffer between the two — the
    union runs' bytes laid end to end, found by :data:`_DENSE`, see the
    module docstring."""

    def __init__(self, entries: Sequence[tuple]) -> None:
        self.seg_off = np.concatenate([e[0] for e in entries])
        self.seg_len = np.concatenate([e[1] for e in entries])
        lo = int(self.seg_off.min())
        span = int((self.seg_off + self.seg_len).max()) - lo
        if span <= _DENSE * int(self.seg_len.sum()):
            # Span layout: scratch byte i is file byte lo + i.  The
            # segments' one index moves their bytes and marks the union.
            self._moves = RunMove(self.seg_off - lo, self.seg_len)
            union_off, self.lengths = self._moves.union(span)
            self.offsets = union_off + lo
            solid = len(union_off) == 1
        else:
            order = np.argsort(self.seg_off, kind="stable")
            self.offsets, self.lengths = coalesce_runs(
                self.seg_off[order], self.seg_len[order]
            )
            solid = False
        if not solid:
            # Packed layout: the union runs end to end; a segment lies
            # inside one of them.
            start = np.cumsum(self.lengths) - self.lengths
            k = np.searchsorted(self.offsets, self.seg_off, side="right") - 1
            self._moves = RunMove(
                start[k] + (self.seg_off - self.offsets[k]), self.seg_len
            )
        self.nbytes = int(self.lengths.sum())

    def put(self, data: np.ndarray) -> np.ndarray:
        """The union runs' bytes, end to end, with the segments' ``data``
        (source-rank order) applied in order: the highest source wins an
        overlap.  Every union byte is some segment's, so none is stale."""
        scratch = np.empty(self.nbytes, dtype=np.uint8)
        self._moves.scatter(scratch, data)
        return scratch

    def take(self, union: np.ndarray) -> np.ndarray:
        """The segments' bytes, source-rank order, out of the union
        runs' bytes laid end to end."""
        return self._moves.gather(union)

    def access(
        self, comm: Communicator, proc: Process, fs: FileSystem,
        handle: PFSHandle, hints: CollectiveIOModel,
        scratch: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """Write ``scratch`` — the union runs' bytes end to end (from
        :meth:`put`) — to the union runs, or read and return it.

        The striping-aware schedule — single-controller requests of at
        most ``cb_buffer_size`` bytes, staggered by rank so concurrent
        aggregators start on disjoint controller queues — is the file
        system's, kept per shape, and served as one walk; the scratch
        buffer moves as one run list, never batch by batch."""
        return fs.serve_plan(
            proc, handle, self.offsets, self.lengths, hints.cb_buffer_size,
            comm.rank % handle.file.layout.n_controllers, scratch,
        )


def resolve_cb_nodes(cb_nodes: int, comm_size: int, n_controllers: int) -> int:
    """Number of aggregators: the ``cb_nodes`` hint, else
    min(P, 2 x controllers)."""
    if cb_nodes > 0:
        return max(1, min(cb_nodes, comm_size))
    return max(1, min(comm_size, 2 * n_controllers))


def _plan_domains(
    comm: Communicator,
    fs: FileSystem,
    offsets: np.ndarray,
    lengths: np.ndarray,
    hints: CollectiveIOModel,
) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
    """The prologue both collectives share: agree on the global byte
    range, cut it into aggregator file domains (domain ``d`` belongs to
    rank ``d``), clip this rank's runs to each.  Returns the per-domain
    pieces, or ``None`` (after a barrier) when no rank has any bytes."""
    fs.runs_submitted += len(offsets)
    keep = lengths > 0  # the rule sieving applies (see module docstring)
    if not keep.all():
        offsets, lengths = offsets[keep], lengths[keep]
    n = len(offsets)
    glo = comm.allreduce(int(offsets[0]) if n else _NO_OFFSET, op=MIN)
    ghi = comm.allreduce(int(offsets[-1] + lengths[-1]) if n else -1, op=MAX)
    if ghi <= glo:
        comm.barrier()
        return None
    storage = fs.machine.storage
    naggs = resolve_cb_nodes(hints.cb_nodes, comm.size, storage.n_controllers)
    bounds = file_domain_bounds(glo, ghi, naggs, storage.stripe_size)
    return split_runs_by_bounds(offsets, lengths, bounds)


@collective
def collective_write(
    comm: Communicator,
    proc: Process,
    fs: FileSystem,
    handle: PFSHandle,
    offsets: np.ndarray,
    lengths: np.ndarray,
    data: np.ndarray,
    hints: CollectiveIOModel,
) -> int:
    """Two-phase collective write of this rank's runs; returns local bytes."""
    handle.check_writable()
    raw = np.asarray(data).reshape(-1).view(np.uint8)
    pieces = _plan_domains(comm, fs, offsets, lengths, hints)
    if pieces is None:
        return 0

    sends: List[Optional[tuple]] = [None] * comm.size
    hit = [d for d, (o, _) in enumerate(pieces) if len(o)]
    if hit:  # each domain's bytes follow the previous domain's in ``raw``
        lens = [pieces[d][1] for d in hit]
        ends = np.cumsum(_byte_totals(lens, np.concatenate(lens))).tolist()
        for d, a, b in zip(hit, [0] + ends, ends):
            sends[d] = (*pieces[d], raw[a:b])
    recv = comm.alltoallv(sends)

    entries = [e for e in recv if e is not None]
    if entries:  # this rank is an aggregator with segments to serve
        agg = _Aggregation(entries)
        seg_data = np.concatenate([e[2] for e in entries])
        scratch = agg.put(seg_data)  # src-rank order: highest rank wins
        proc.hold(fs.machine.compute.copy_time(len(seg_data)))
        agg.access(comm, proc, fs, handle, hints, scratch)
    comm.barrier()
    return int(lengths.sum())


@collective
def collective_read(
    comm: Communicator,
    proc: Process,
    fs: FileSystem,
    handle: PFSHandle,
    offsets: np.ndarray,
    lengths: np.ndarray,
    hints: CollectiveIOModel,
) -> np.ndarray:
    """Two-phase collective read; returns this rank's bytes in run order."""
    handle.check_readable()
    pieces = _plan_domains(comm, fs, offsets, lengths, hints)
    if pieces is None:
        return np.empty(0, dtype=np.uint8)

    sends: List[Optional[tuple]] = [None] * comm.size
    for d, (o, l) in enumerate(pieces):
        if len(o):
            sends[d] = (o, l)
    recv = comm.alltoallv(sends)

    replies: List[Optional[np.ndarray]] = [None] * comm.size
    sources = [src for src, e in enumerate(recv) if e is not None]
    if sources:  # this rank is an aggregator with segments to serve
        agg = _Aggregation([recv[src] for src in sources])
        # all requested bytes, src-rank order
        gathered = agg.take(agg.access(comm, proc, fs, handle, hints))
        proc.hold(fs.machine.compute.copy_time(len(gathered)))
        # Split back per source rank (every source sent some segments).
        lens = [recv[src][1] for src in sources]
        ends = np.cumsum(_byte_totals(lens, agg.seg_len)).tolist()
        for src, a, b in zip(sources, [0] + ends, ends):
            replies[src] = gathered[a:b]
    back = comm.alltoallv(replies)

    # A domain replies exactly when this rank sent it a piece, with that
    # piece's bytes: in domain order they are this rank's runs' bytes.
    parts = [b for b in back if b is not None]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
