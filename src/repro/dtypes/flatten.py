"""Lowering datatypes to merged byte-run lists.

The I/O layer consumes every datatype as a pair of int64 arrays
``(offsets, lengths)``.  :func:`flatten` produces that form for ``count``
consecutive instances of a type starting at a byte offset, and
:func:`merge_runs` coalesces abutting runs (an indexed type built from a
sorted map array with contiguous stretches collapses to few large runs —
exactly the optimization MPI-IO implementations perform when decoding
filetypes).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dtypes.base import Datatype, Runs
from repro.errors import DatatypeError

__all__ = ["flatten", "merge_runs"]


def merge_runs(offsets: np.ndarray, lengths: np.ndarray) -> Runs:
    """Coalesce runs where one ends exactly where the next begins.

    Merging is *sequential* (typemap order is preserved; no sorting), and
    zero-length runs are dropped.  Not the I/O stack's merge kernel
    (:func:`repro.pfs.runlist.coalesce_runs`): that one requires ascending
    offsets, and a typemap's order is its meaning — it cannot be sorted.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    if not keep.all():
        offsets, lengths = offsets[keep], lengths[keep]
    n = len(offsets)
    if n == 0:
        return offsets, lengths
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(offsets[1:], offsets[:-1] + lengths[:-1], out=starts[1:])
    if starts.all():
        return offsets, lengths
    group = np.cumsum(starts) - 1
    out_off = offsets[starts]
    out_len = np.bincount(group, weights=lengths).astype(np.int64)
    return out_off, out_len


def flatten(dtype: Datatype, offset: int = 0, count: int = 1) -> Runs:
    """Byte runs of ``count`` tiled instances of ``dtype`` at ``offset``.

    Instance ``i`` occupies runs displaced by ``offset + i * extent``.
    The result is merged (:func:`merge_runs`) but kept in typemap order.
    """
    if count < 0:
        raise DatatypeError(f"negative count: {count}")
    base_off, base_len = dtype.runs()
    if count == 0 or len(base_off) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if count == 1:
        return merge_runs(base_off + offset, base_len)
    tile_starts = offset + np.arange(count, dtype=np.int64) * dtype.extent
    n_runs = len(base_off)
    offsets = (tile_starts[:, None] + base_off[None, :]).reshape(count * n_runs)
    lengths = np.broadcast_to(base_len, (count, n_runs)).reshape(count * n_runs)
    return merge_runs(offsets, lengths.astype(np.int64, copy=True))
