"""Derived-datatype constructors: the two a file view is built from.

SDM turns a map array into an :class:`IndexedBlock` over a primitive;
:class:`Resized` (``Datatype.with_extent``) sets the stride at which a
view tiles a type.  Both precompute their byte runs as numpy arrays, so
lowering a million-block map array is a vectorized operation, not a
Python loop — the hot path of every irregular file view SDM builds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dtypes.base import Datatype, Runs
from repro.errors import DatatypeError

__all__ = ["IndexedBlock", "Resized"]


class IndexedBlock(Datatype):
    """Uniform-blocklength indexed type — the *map array* datatype.

    ``IndexedBlock(displacements=map_array, blocklength=1, base=DOUBLE)``
    is exactly how SDM turns a map array into a filetype.
    """

    def __init__(
        self, blocklength: int, displacements: Sequence[int], base: Datatype
    ) -> None:
        self.blocklength = self._check_count("blocklength", blocklength)
        disp = np.asarray(displacements, dtype=np.int64)
        if disp.ndim != 1:
            raise DatatypeError("displacements must be 1-D")
        if len(disp) and disp.min() < 0:
            raise DatatypeError("negative displacement")
        self.displacements = disp
        self.base = base
        self._size = len(disp) * self.blocklength * base.size
        self._extent = (
            (int(disp.max()) + self.blocklength) * base.extent if len(disp) else 0
        )

    def runs(self) -> Runs:
        base, bl = self.base, self.blocklength
        starts = self.displacements * base.extent
        if bl == 0 or len(starts) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        base_off, base_len = base.runs()
        if len(base_off) == 1 and base_len[0] == base.extent:
            # Dense base: a block of `bl` instances is one solid run.
            return starts, np.full(len(starts), bl * base.extent, dtype=np.int64)
        # Sparse base: every instance of every block, at its own start.
        instance = (starts[:, None] + (np.arange(bl) * base.extent)[None, :])
        offsets = (instance.reshape(-1)[:, None] + base_off[None, :]).reshape(-1)
        lengths = np.tile(base_len, len(starts) * bl)
        return offsets, lengths.astype(np.int64, copy=False)


class Resized(Datatype):
    """A datatype with its extent overridden (``MPI_Type_create_resized``)."""

    def __init__(self, base: Datatype, extent: int) -> None:
        if extent < 0:
            raise DatatypeError(f"negative extent: {extent}")
        self.base = base
        self._size = base.size
        self._extent = int(extent)

    def runs(self) -> Runs:
        return self.base.runs()
