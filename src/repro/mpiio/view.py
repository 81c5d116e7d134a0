"""File views: mapping a rank's linear data stream onto file bytes.

An MPI-IO view is ``(disp, etype, filetype)``: starting at byte ``disp``,
the *filetype* tiles the file; only its data bytes are visible, and offsets
in read/write calls count in *etype* units of that visible stream.

:meth:`FileView.runs_for` lowers a ``(data_offset, nbytes)`` window of the
visible stream to file byte runs — the single operation the I/O paths need.
MPI legally requires filetype displacements to be monotonically
nondecreasing for views; we enforce strict monotonicity (no overlaps), which
makes visible-stream order equal file-offset order and keeps scatter/gather
trivially correct.

:func:`check_runs` applies the same contract to *explicit* byte runs — the
storage-order layer builds per-chunk runs directly from chunk maps (no
filetype in sight) and hands them to :meth:`repro.mpiio.file.File`'s
``*_runs`` methods, which validate through this one gate.

A filetype's *tile* — its runs, validated against that contract and
merged by the run list's own kernel
(:func:`repro.pfs.runlist.coalesce_runs`), and their cumulative lengths
— is computed once per :class:`~repro.dtypes.base.Datatype` instance
and kept on it (types are immutable): SDM installs one map-array
filetype per data view on every checkpoint read and write, and each
install after the first reuses the tile instead of re-lowering a run
per element.  Only a valid tile is kept, so an overlapping filetype
raises on every install.  A valid tile ends within the filetype's
extent, so consecutive tiles never overlap either, and a window across
several tiles merges with the same kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dtypes.base import Datatype
from repro.dtypes.primitives import BYTE
from repro.errors import MPIIOError
from repro.pfs.runlist import coalesce_runs

__all__ = ["FileView", "check_runs"]


def check_runs(offsets, lengths) -> Tuple[np.ndarray, np.ndarray]:
    """Validate explicit file byte runs; returns them as int64 arrays.

    Enforces the file-view contract — nonnegative, sorted ascending,
    non-overlapping — so direct-run I/O has exactly the semantics of I/O
    through an installed view.
    """
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    ln = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if len(off) != len(ln):
        raise MPIIOError(
            f"{len(off)} run offsets but {len(ln)} run lengths"
        )
    if len(off) == 0:
        return off, ln
    if int(off[0]) < 0 or int(ln.min()) < 0:
        raise MPIIOError("negative run offset or length")
    if len(off) > 1 and not (off[1:] >= off[:-1] + ln[:-1]).all():
        raise MPIIOError(
            "runs must be sorted ascending and non-overlapping"
        )
    return off, ln

_EXPANSION_CAP = 32_000_000
"""Refuse run expansions above this many runs (guards absurd views)."""


def _tile(filetype: Datatype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The filetype's validated tile ``(offsets, lengths, cumulative
    lengths)``, read-only, lowered on the first call for this instance
    and kept on it; a filetype that fails validation is never kept."""
    tile = filetype._view_tile
    if tile is None:
        filetype._view_tile = tile = _lower(filetype)
    return tile


def _lower(filetype: Datatype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the filetype's runs — ascending, non-overlapping, ending
    within its extent — and merge the abutting ones."""
    off, ln = filetype.runs()
    if len(off) > 1:
        ends = off[:-1] + ln[:-1]
        if not (off[1:] >= ends).all():
            raise MPIIOError(
                "filetype displacements must be monotonically "
                "nondecreasing and non-overlapping for a file view"
            )
    if len(off) and int(off[-1] + ln[-1]) > filetype.extent:
        raise MPIIOError(
            f"filetype data ends at byte {int(off[-1] + ln[-1])}, past its "
            f"extent {filetype.extent}: consecutive tiles would overlap"
        )
    off, ln = coalesce_runs(off, ln)
    cum = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(ln, dtype=np.int64))
    )
    for a in (off, ln, cum):
        a.setflags(write=False)
    return off, ln, cum


class FileView:
    """An installed file view for one rank."""

    def __init__(
        self,
        disp: int = 0,
        etype: Datatype = BYTE,
        filetype: Optional[Datatype] = None,
    ) -> None:
        if disp < 0:
            raise MPIIOError(f"negative view displacement: {disp}")
        self.disp = int(disp)
        self.etype = etype
        self.filetype = filetype if filetype is not None else etype
        if self.etype.size <= 0:
            raise MPIIOError("etype must have positive size")
        if self.filetype.size <= 0:
            raise MPIIOError("filetype must have positive size")
        if self.filetype.size % self.etype.size != 0:
            raise MPIIOError(
                f"filetype size {self.filetype.size} not a multiple of "
                f"etype size {self.etype.size}"
            )
        off, ln, self._cum = _tile(self.filetype)
        self._tile_off = off
        self._tile_len = ln
        self._tile_size = self.filetype.size
        self._tile_extent = self.filetype.extent
        self.dense = (
            len(off) == 1 and off[0] == 0 and ln[0] == self._tile_extent
        )

    @property
    def tile_size(self) -> int:
        """Visible data bytes per filetype tile."""
        return self._tile_size

    @property
    def tile_extent(self) -> int:
        """File bytes (holes included) per filetype tile."""
        return self._tile_extent

    def _clip(self, a: int, b: int) -> Tuple[np.ndarray, np.ndarray]:
        """Runs of visible-data range [a, b) within one tile, tile-relative."""
        cum = self._cum
        i0 = int(np.searchsorted(cum, a, side="right")) - 1
        i1 = int(np.searchsorted(cum, b - 1, side="right")) - 1
        off = self._tile_off[i0 : i1 + 1].copy()
        ln = self._tile_len[i0 : i1 + 1].copy()
        head_trim = a - int(cum[i0])
        off[0] += head_trim
        ln[0] -= head_trim
        tail_trim = int(cum[i1 + 1]) - b
        ln[-1] -= tail_trim
        return off, ln

    def runs_for(self, data_offset: int, nbytes: int) -> Tuple[np.ndarray, np.ndarray]:
        """File byte runs for ``nbytes`` of visible data at ``data_offset``.

        Both arguments are in bytes of the visible stream.  Returned runs are
        absolute file offsets, sorted ascending, non-overlapping, in data
        order; their lengths sum to ``nbytes``.
        """
        if data_offset < 0 or nbytes < 0:
            raise MPIIOError(
                f"negative I/O range: offset={data_offset} nbytes={nbytes}"
            )
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if nbytes == 0:
            return empty
        if self.dense:
            return (
                np.array([self.disp + data_offset], dtype=np.int64),
                np.array([nbytes], dtype=np.int64),
            )
        size, extent = self._tile_size, self._tile_extent
        t0, r0 = divmod(data_offset, size)
        t1, r1 = divmod(data_offset + nbytes - 1, size)
        if t0 == t1:
            off, ln = self._clip(r0, r1 + 1)
            return off + (self.disp + t0 * extent), ln
        pieces_off, pieces_len = [], []
        # Head partial tile.
        o, l = self._clip(r0, size)
        pieces_off.append(o + (self.disp + t0 * extent))
        pieces_len.append(l)
        # Full middle tiles, vectorized.
        n_mid = t1 - t0 - 1
        if n_mid > 0:
            n_runs = len(self._tile_off)
            if n_mid * n_runs > _EXPANSION_CAP:
                raise MPIIOError(
                    f"view expansion too large: {n_mid} tiles x {n_runs} runs"
                )
            starts = self.disp + (t0 + 1 + np.arange(n_mid, dtype=np.int64)) * extent
            mid_off = (starts[:, None] + self._tile_off[None, :]).reshape(-1)
            mid_len = np.broadcast_to(self._tile_len, (n_mid, n_runs)).reshape(-1)
            pieces_off.append(mid_off)
            pieces_len.append(mid_len.astype(np.int64, copy=True))
        # Tail partial tile.
        o, l = self._clip(0, r1 + 1)
        pieces_off.append(o + (self.disp + t1 * extent))
        pieces_len.append(l)
        off, ln = coalesce_runs(
            np.concatenate(pieces_off), np.concatenate(pieces_len)
        )
        return off, ln

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FileView disp={self.disp} tile_size={self._tile_size} "
            f"tile_extent={self._tile_extent} dense={self.dense}>"
        )
