"""Striping-aware run scheduling: batch file requests per controller.

The file system queues each request at one controller (the one serving
its first byte), so a naive aggregator walking its file domain in offset
order issues every multi-stripe request across controller boundaries and
the batches of different aggregators pile onto the same controller
queues.  This module turns a coalesced run list into *single-controller*
batches, interleaved round-robin from a caller-chosen starting
controller — so N aggregators that pick distinct starting points drive
all controllers concurrently instead of hammering one.

The split is pure layout arithmetic (:class:`~repro.pfs.striping.
StripeLayout`), fully vectorized: runs are cut at stripe boundaries, each
piece is owned by ``controller_of`` its stripe, per-controller pieces are
re-merged where file-contiguous, and size-batched to the collective
buffer limit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.pfs.runlist import coalesce_runs, expand_runs
from repro.pfs.striping import StripeLayout

__all__ = ["split_runs_by_stripe", "size_batches", "controller_batches"]


def split_runs_by_stripe(
    layout: StripeLayout, offsets: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut runs at stripe boundaries.

    Returns ``(piece_offsets, piece_lengths, piece_controllers)`` with
    pieces in file-offset order (inputs must be sorted non-overlapping
    runs); every piece lies within one stripe, hence on one controller.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    offsets, lengths = offsets[keep], lengths[keep]
    empty = np.empty(0, dtype=np.int64)
    if len(offsets) == 0:
        return empty, empty.copy(), empty.copy()
    ss = layout.stripe_size
    first = offsets // ss
    last = (offsets + lengths - 1) // ss
    npieces = last - first + 1
    run_of = np.repeat(np.arange(len(offsets), dtype=np.int64), npieces)
    stripe = expand_runs(first, npieces)
    starts = np.maximum(stripe * ss, offsets[run_of])
    ends = np.minimum((stripe + 1) * ss, (offsets + lengths)[run_of])
    return starts, ends - starts, stripe % layout.n_controllers


def size_batches(
    offsets: np.ndarray, lengths: np.ndarray, max_bytes: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a run list into requests of at most ``max_bytes`` each.

    Batches are full to capacity: boundaries sit at multiples of
    ``max_bytes`` in the cumulative byte space of the runs, splitting any
    run that crosses one.  One cumulative-sum/searchsorted pass — no
    per-byte walk.
    """
    keep = lengths > 0
    offsets, lengths = offsets[keep], lengths[keep]
    if len(offsets) == 0:
        return []
    cum = np.cumsum(lengths, dtype=np.int64)
    total = int(cum[-1])
    run_start = cum - lengths  # byte position (in run space) each run begins
    cuts = np.arange(max_bytes, total, max_bytes, dtype=np.int64)
    piece_start = np.union1d(run_start, cuts)
    piece_len = np.diff(np.concatenate((piece_start, [total])))
    run_idx = np.searchsorted(cum, piece_start, side="right")
    piece_off = offsets[run_idx] + (piece_start - run_start[run_idx])
    splits = np.searchsorted(piece_start, cuts)
    bounds = np.concatenate(([0], splits, [len(piece_start)]))
    return [
        (piece_off[a:b], piece_len[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]


def controller_batches(
    layout: StripeLayout,
    offsets: np.ndarray,
    lengths: np.ndarray,
    max_bytes: int,
    start: int = 0,
) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """Order a run list into single-controller requests.

    Returns ``(controller, offsets, lengths)`` batches, each at most
    ``max_bytes``, interleaved round-robin over the controllers beginning
    at ``start`` — callers that stagger ``start`` (e.g. by rank) hit
    disjoint controller queues on their first requests and keep every
    controller streaming.
    """
    poff, plen, pctl = split_runs_by_stripe(layout, offsets, lengths)
    queues: List[List[Tuple[int, np.ndarray, np.ndarray]]] = []
    for ctl in range(layout.n_controllers):
        sel = pctl == ctl
        if not sel.any():
            queues.append([])
            continue
        # Undo the stripe cut wherever consecutive stripes landed on the
        # same controller (pieces are disjoint, so gap 0 is lossless).
        co, cl, _ = coalesce_runs(poff[sel], plen[sel])
        queues.append(
            [(ctl, bo, bl) for bo, bl in size_batches(co, cl, max_bytes)]
        )
    out: List[Tuple[int, np.ndarray, np.ndarray]] = []
    depth = max((len(q) for q in queues), default=0)
    n = layout.n_controllers
    for round_ in range(depth):
        for c in range(n):
            q = queues[(start + c) % n]
            if round_ < len(q):
                out.append(q[round_])
    return out
