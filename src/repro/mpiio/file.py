"""The MPI-IO ``File`` object (mpi4py-style interface).

Each rank constructs its own :class:`File` via the collective
:meth:`File.open`; independent operations (``write_at``, ``read_runs``)
use data sieving, collective operations (``read_at_all``/``write_at_all``,
``read_runs_at_all``) use two-phase I/O.  Offsets are in *etype units of
the current view*, exactly as in MPI.

Buffers are numpy arrays of any dtype; the byte count of an operation is
the buffer's ``nbytes``.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.analysis.catalog import collective
from repro.config import CollectiveIOModel
from repro.dtypes.base import Datatype
from repro.dtypes.primitives import BYTE
from repro.errors import FileExists, FileNotFound, MPIIOError
from repro.mpi.communicator import Communicator
from repro.mpiio import runs, sieving, twophase
from repro.mpiio.consts import (
    MODE_CREATE,
    MODE_EXCL,
    MODE_RDONLY,
    MODE_RDWR,
    MODE_WRONLY,
)
from repro.mpiio.hints import resolve_hints
from repro.mpiio.view import FileView, check_runs
from repro.pfs.file import RD, RDWR, WR
from repro.pfs.filesystem import FileSystem

__all__ = ["File"]

def _as_bytes(buf) -> np.ndarray:
    arr = np.asarray(buf)
    if arr.dtype == np.uint8 and arr.ndim == 1:
        return arr
    return arr.reshape(-1).view(np.uint8)


def _run_payload(lengths: np.ndarray, buf) -> np.ndarray:
    """``buf`` as bytes, checked to hold exactly the runs' total."""
    raw = _as_bytes(buf)
    if raw.size != int(lengths.sum()):
        raise MPIIOError(
            f"buffer has {raw.size} bytes, runs cover {int(lengths.sum())}"
        )
    return raw


class File:
    """One rank's handle on a collectively opened file."""

    def __init__(
        self,
        comm: Communicator,
        fs: FileSystem,
        name: str,
        amode: int,
        handle,
        hints: CollectiveIOModel,
    ) -> None:
        self.comm = comm
        self.fs = fs
        self.name = name
        self.amode = amode
        self._handle = handle
        self.hints = hints
        self._view = FileView()
        self.closed = False

    # ------------------------------------------------------------------
    # Open / close
    # ------------------------------------------------------------------

    @classmethod
    @collective(op="File.open", uniform_result=True, receivers=("File",))
    def open(
        cls,
        comm: Communicator,
        fs: FileSystem,
        name: str,
        amode: int = MODE_RDONLY,
        hints: Optional[Mapping[str, int]] = None,
    ) -> "File":
        """Collective open; every rank of ``comm`` must call with the same
        arguments.  Honors MODE_CREATE / MODE_EXCL."""
        n_access = bool(amode & MODE_RDONLY) + bool(amode & MODE_WRONLY) + bool(
            amode & MODE_RDWR
        )
        if n_access != 1:
            raise MPIIOError(
                "exactly one of MODE_RDONLY/MODE_WRONLY/MODE_RDWR required"
            )
        proc = comm.proc
        # Rank 0 handles creation & existence checking, then broadcasts.
        verdict = None
        if comm.rank == 0:
            exists = fs.exists(name)
            if amode & MODE_CREATE:
                if exists and (amode & MODE_EXCL):
                    verdict = "excl"
                elif not exists:
                    fs.create(proc, name)
                    verdict = "ok"
                else:
                    verdict = "ok"
            else:
                verdict = "ok" if exists else "missing"
        verdict = comm.bcast(verdict, root=0)
        if verdict == "excl":
            raise FileExists(f"MODE_EXCL and file exists: {name!r}")
        if verdict == "missing":
            raise FileNotFound(f"no such file: {name!r}")
        if amode & MODE_RDONLY:
            mode = RD
        elif amode & MODE_WRONLY:
            mode = WR
        else:
            mode = RDWR
        handle = fs.open(proc, name, mode)
        return cls(
            comm, fs, name, amode, handle, resolve_hints(fs.machine, hints)
        )

    @collective(uniform_result=True, receivers=("f", "host", "self"))
    def close(self) -> None:
        """Collective close."""
        if self.closed:
            raise MPIIOError(f"file {self.name!r} already closed")
        self.comm.barrier()
        self.fs.close(self.comm.proc, self._handle)
        self.closed = True

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def set_view(
        self,
        disp: int = 0,
        etype: Datatype = BYTE,
        filetype: Optional[Datatype] = None,
    ) -> None:
        """Install a file view (charges the per-process view cost)."""
        self._check_live()
        self.comm.proc.hold(self.fs.machine.storage.file_view_cost)
        self._view = FileView(disp, etype, filetype)

    # ------------------------------------------------------------------
    # Independent data access (data sieving)
    # ------------------------------------------------------------------

    def write_at(self, offset: int, buf) -> int:
        """Independent write at ``offset`` (etype units); returns bytes."""
        self._check_live()
        raw = _as_bytes(buf)
        off, ln = self._view.runs_for(offset * self._view.etype.size, len(raw))
        return sieving.independent_write(
            self.fs, self.comm.proc, self._handle, off, ln, raw, self.hints
        )

    # ------------------------------------------------------------------
    # Collective data access (two-phase)
    # ------------------------------------------------------------------

    @collective
    def write_at_all(self, offset: int, buf) -> int:
        """Collective write at ``offset`` (etype units); all ranks call."""
        self._check_live()
        raw = _as_bytes(buf)
        off, ln = self._view.runs_for(offset * self._view.etype.size, len(raw))
        return twophase.collective_write(
            self.comm, self.comm.proc, self.fs, self._handle, off, ln, raw, self.hints
        )

    @collective
    def read_at_all(self, offset: int, buf) -> np.ndarray:
        """Collective read at ``offset`` (etype units) into ``buf``."""
        self._check_live()
        raw = _as_bytes(buf)
        off, ln = self._view.runs_for(offset * self._view.etype.size, len(raw))
        raw[:] = self._read_coalesced(off, ln, collective=True)
        return buf

    # ------------------------------------------------------------------
    # Direct-run data access (per-chunk views)
    # ------------------------------------------------------------------
    #
    # The storage-order layer addresses files by explicit byte runs built
    # from chunk maps — one "view" per chunk, too short-lived to install.
    # These methods take absolute file byte runs (the installed view and
    # its displacement are ignored) but keep its contract: runs must be
    # sorted ascending and non-overlapping (``check_runs``).

    def write_runs(self, offsets, lengths, buf) -> int:
        """Independent write of explicit byte runs; returns bytes written."""
        self._check_live()
        off, ln = check_runs(offsets, lengths)
        if len(off) == 0:
            return 0
        return sieving.independent_write(
            self.fs, self.comm.proc, self._handle, off, ln,
            _run_payload(ln, buf), self.hints,
        )

    def read_runs(self, offsets, lengths, kind: str = "data") -> np.ndarray:
        """Independent read of explicit byte runs; returns the bytes in
        run order.  Nearby runs are merged at the source under the
        ``coalesce_gap`` hint.

        ``kind="index"`` tags the traffic as chunked index-block bytes in
        the file system's counters; such a read merges abutting blocks
        only — what lies between two index blocks is other chunks' data,
        and bridging it would bill data bytes as index traffic."""
        self._check_live()
        off, ln = runs.coalesce_runs(*check_runs(offsets, lengths))
        return self._read_coalesced(off, ln, collective=False, kind=kind)

    @collective
    def read_runs_at_all(self, offsets, lengths) -> np.ndarray:
        """Collective read of explicit byte runs; returns the bytes in run
        order (empty for a rank with no runs).  Nearby runs are merged at
        the source under the ``coalesce_gap`` hint."""
        self._check_live()
        off, ln = runs.coalesce_runs(*check_runs(offsets, lengths))
        return self._read_coalesced(off, ln, collective=True)

    # ------------------------------------------------------------------
    # The coalesced-read pipeline
    # ------------------------------------------------------------------

    def _read_coalesced(
        self, off: np.ndarray, ln: np.ndarray, collective: bool,
        kind: str = "data",
    ) -> np.ndarray:
        """Resolve gap → coalesce → read → extract over maximal runs.

        Every run list arrives merged at gap 0 (a view's by
        :meth:`FileView.runs_for`, explicit runs right after
        :func:`check_runs`), so the merge kernel runs only to bridge
        holes: for data reads, up to the ``coalesce_gap`` hint
        (read-and-discard; under ``ADAPTIVE_GAP`` the gap is derived from
        these very runs, so the waste budget is spent once).  The request
        *metadata* handed to the two-phase exchange or to data sieving
        shrinks with the run count, not the element count; the returned
        bytes are exactly the requested runs, in run order.
        """
        gap = 0
        if kind != "index":
            gap = runs.resolve_gap(
                self.hints.coalesce_gap, off, ln,
                max_gap=self.hints.ds_threshold_gap,
            )
        coff, clen = off, ln
        if gap > 0:
            coff, clen = runs.coalesce_runs(off, ln, gap)
        if collective:
            blob = twophase.collective_read(
                self.comm, self.comm.proc, self.fs, self._handle,
                coff, clen, self.hints,
            )
        else:
            blob = sieving.independent_read(
                self.fs, self.comm.proc, self._handle, coff, clen,
                self.hints, kind=kind,
            )
        if int(clen.sum()) == int(ln.sum()):
            # Lossless merge (no holes bridged): the coalesced stream is
            # already the concatenated requested runs.
            return blob
        return runs.extract_runs(blob, coff, clen, off, ln)

    # ------------------------------------------------------------------

    def _check_live(self) -> None:
        if self.closed:
            raise MPIIOError(f"operation on closed file {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<mpiio.File {self.name!r} {state} rank={self.comm.rank}>"
