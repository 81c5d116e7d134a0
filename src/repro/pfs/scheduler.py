"""Striping-aware run scheduling: batch file requests per controller.

The file system queues each request at one controller (the one serving
its first byte), so a naive aggregator walking its file domain in offset
order issues every multi-stripe request across controller boundaries and
the batches of different aggregators pile onto the same controller
queues.  This module turns a coalesced run list into *single-controller*
batches, interleaved round-robin from a caller-chosen starting
controller — so N aggregators that pick distinct starting points drive
all controllers concurrently instead of hammering one.

The plan is one vectorized pass over all controllers.  :func:`_cut` —
*cut runs at multiples of a period* — runs twice: on file bytes at
``stripe_size`` (a piece then lies on one controller) and on each
controller's cumulative byte stream at ``max_bytes`` (a piece then lies
in one batch).  In between, same-controller pieces that abut in the file
are re-merged by one :func:`~repro.pfs.runlist.coalesce_runs` call over
``controller * span + offset`` — ``span`` exceeds every end, so pieces of
two controllers never abut and the repo keeps its one merge kernel.  A
stable sort on ``round * n + (controller - start) mod n`` *is* the
round-robin interleave: rounds in order, controllers cyclically from
``start`` within a round, stream order within a batch.

The plan depends on the runs only up to a shift by a multiple of
``stripe_size * n_controllers``: such a shift moves the batch offsets
and nothing else.  So its one caller, the file system that owns the
controllers (:meth:`~repro.pfs.filesystem.FileSystem.serve_plan`), keeps
what it charges per stripe-relative shape and calls
:func:`controller_batches` once per shape; the bytes an aggregation
moves, and its move index, are no part of the plan and are not kept.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.pfs.runlist import coalesce_runs, expand_runs
from repro.pfs.striping import StripeLayout

__all__ = ["split_runs_by_stripe", "controller_batches"]

_EMPTY = np.empty(0, dtype=np.int64)


def _cut(
    starts: np.ndarray, lengths: np.ndarray, period: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut non-empty runs at the multiples of ``period``.

    Returns ``(piece_starts, piece_lengths, cell, run_of)``: pieces in
    input order, each inside cell ``[cell * period, (cell + 1) * period)``
    and cut from input run ``run_of``.  The address space is the
    caller's — file bytes, or positions in a byte stream.
    """
    first, ends = starts // period, starts + lengths
    npieces = (ends - 1) // period - first + 1
    run_of = np.arange(len(starts), dtype=np.int64)
    if npieces.max() == 1:  # no run crosses a boundary
        return starts, lengths, first, run_of
    run_of = np.repeat(run_of, npieces)
    cell = expand_runs(first, npieces)
    lo = np.maximum(cell * period, starts[run_of])
    hi = np.minimum((cell + 1) * period, ends[run_of])
    return lo, hi - lo, cell, run_of


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
    if len(offsets) == 0:
        return _EMPTY, _EMPTY, _EMPTY
    poff, plen, stripe, _ = _cut(offsets, lengths, layout.stripe_size)
    return poff, plen, stripe % layout.n_controllers


def controller_batches(
    layout: StripeLayout,
    offsets: np.ndarray,
    lengths: np.ndarray,
    max_bytes: int,
    start: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Order a run list into single-controller requests.

    Returns the flat plan ``(controllers, offsets, lengths, bounds)``:
    batch ``b`` is the runs ``offsets[bounds[b]:bounds[b + 1]]`` (with
    their ``lengths``), all on ``controllers[b]`` and at most
    ``max_bytes`` together.  Batches are full to capacity per controller
    and interleaved round-robin over the controllers beginning at
    ``start`` — callers that stagger ``start`` (e.g. by rank) hit
    disjoint controller queues on their first requests and keep every
    controller streaming.
    """
    n = layout.n_controllers
    poff, plen, pctl = split_runs_by_stripe(layout, offsets, lengths)
    if len(poff) == 0:
        return _EMPTY, _EMPTY, _EMPTY, np.zeros(1, dtype=np.int64)
    # Undo the stripe cut wherever consecutive stripes landed on the same
    # controller (pieces are disjoint, so gap 0 is lossless).
    by_ctl = np.argsort(pctl, kind="stable")
    poff, plen, pctl = poff[by_ctl], plen[by_ctl], pctl[by_ctl]
    span = int((poff + plen).max()) + 1
    lifted, mlen = coalesce_runs(pctl * span + poff, plen)
    mctl = lifted // span
    moff = lifted - mctl * span
    # Where each merged run sits in its controller's byte stream; batch
    # k of a controller is stream bytes [k * max_bytes, (k + 1) * max_bytes).
    stream = np.cumsum(mlen) - mlen
    stream -= stream[np.searchsorted(mctl, mctl)]
    bpos, blen, round_, run_of = _cut(stream, mlen, max_bytes)
    boff = moff[run_of] + (bpos - stream[run_of])
    key = round_ * n + (mctl[run_of] - start) % n
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(key[1:] != key[:-1]) + 1
    bounds = np.concatenate(([0], first, [len(key)]))
    return (start + key[bounds[:-1]]) % n, boff[order], blen[order], bounds
