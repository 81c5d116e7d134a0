"""The file-system service: namespace, metadata costs, controller contention.

One :class:`FileSystem` is shared by all ranks of a job (created by the
``services`` factory of :func:`repro.mpi.mpirun`).  Every operation takes the
calling :class:`~repro.simt.Process` so it can charge virtual time:

* **metadata ops** (create, open, stat, unlink) hold the metadata server
  (a capacity-limited FIFO resource) for a fixed cost — 64 ranks opening the
  same file queue up, which is exactly the level-1 penalty of the paper;
* **data ops** (:meth:`read` / :meth:`write`) stream through the
  per-controller queues for a total of ``request_overhead +
  runs·run_overhead + bytes/stream_bandwidth``: a scheduled request
  (explicit ``controller=``) holds its one controller for the whole
  service, an unscheduled one walks its stripe pieces controller by
  controller — so one stream never exceeds stream bandwidth while
  aggregate bandwidth saturates at ``n_controllers`` concurrent streams.

Data is real: writes land in the file's :class:`ByteStore`, reads come back
out, run lists included.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.config import MachineModel
from repro.errors import FileExists, FileNotFound, PFSError
from repro.pfs.file import RD, RDWR, WR, FileStat, PFSFile, PFSHandle
from repro.pfs.scheduler import split_runs_by_stripe
from repro.pfs.striping import StripeLayout
from repro.simt.primitives import Resource
from repro.simt.process import Process
from repro.simt.simulator import Simulator

__all__ = ["FileSystem"]

_METADATA_SERVER_WAYS = 2
"""Concurrent metadata operations the MDS can service."""


class FileSystem:
    """Shared parallel-file-system service for one simulated machine."""

    def __init__(self, sim: Simulator, machine: MachineModel) -> None:
        self.sim = sim
        self.machine = machine
        self._files: Dict[str, PFSFile] = {}
        # One stream slot per I/O controller: a request queues at the
        # controller serving its first byte, so requests landing on
        # distinct controllers proceed concurrently while same-controller
        # requests serialize — the contention the striping-aware run
        # scheduler (repro.pfs.scheduler) exists to spread.
        self.controllers = [
            Resource(sim, capacity=1, name=f"pfs-ctl{i}")
            for i in range(machine.storage.n_controllers)
        ]
        self.metadata_server = Resource(
            sim, capacity=_METADATA_SERVER_WAYS, name="pfs-mds"
        )
        self._write_locks: Dict[str, Resource] = {}
        # Aggregate counters for benchmark reporting.
        self.bytes_written = 0
        self.bytes_read = 0
        self.index_bytes_read = 0
        """Bytes read with ``kind="index"`` — chunked index-block fetches.
        The collective-resolution claim (cold index traffic 1x the index
        size, not P x) is asserted directly against this counter."""
        self.data_bytes_read = 0
        """Bytes read with the default ``kind="data"``."""
        self.n_requests = 0
        self.n_opens = 0
        self.runs_submitted = 0
        """Byte runs handed to the sieving/two-phase entry points — i.e.
        *after* any source-side coalescing a caller performed.  A
        coalescing read path therefore submits O(chunks) runs where an
        uncoalesced one submits O(elements); the datapath bench contrasts
        exactly that (chunked vs canonical submissions)."""
        self.runs_serviced = 0
        """Byte runs actually issued to the file system (post-merge)."""

    _STAT_FIELDS = (
        "bytes_written", "bytes_read", "index_bytes_read",
        "data_bytes_read", "n_requests", "n_opens", "runs_submitted",
        "runs_serviced",
    )

    def stats(self, reset: bool = False) -> Dict[str, int]:
        """Snapshot every aggregate counter; optionally zero them.

        The one counter-window API benches share: take a
        snapshot at the window start (``reset=True``) or subtract two
        snapshots — either way no field can be missed the way ad-hoc
        per-field resets could.
        """
        snap = {name: getattr(self, name) for name in self._STAT_FIELDS}
        if reset:
            for name in self._STAT_FIELDS:
                setattr(self, name, 0)
        return snap

    def write_lock(self, name: str) -> Resource:
        """Per-file advisory write lock (fcntl-style).

        Data sieving's read-modify-write is not atomic; ROMIO guards it with
        file locking, and so do we — concurrent sieved writers serialize.
        """
        lock = self._write_locks.get(name)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name=f"wlock:{name}")
            self._write_locks[name] = lock
        return lock

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------

    def exists(self, name: str) -> bool:
        """Namespace lookup without time charge (client-side cache model)."""
        return name in self._files

    def list_files(self) -> List[str]:
        """All file names, sorted (no time charge; debugging/tests)."""
        return sorted(self._files)

    def lookup(self, name: str) -> PFSFile:
        """Fetch the file object (no time charge; internal/test use)."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFound(f"no such file: {name!r}") from None

    def _charge_metadata(self, proc: Process, cost: float) -> None:
        with self.metadata_server.request(proc):
            proc.hold(cost)

    def create(self, proc: Process, name: str, *, exist_ok: bool = False) -> PFSFile:
        """Create an empty file (metadata-op cost; FIFO at the MDS)."""
        self._charge_metadata(proc, self.machine.storage.metadata_op_cost)
        if name in self._files:
            if exist_ok:
                return self._files[name]
            raise FileExists(f"file exists: {name!r}")
        layout = StripeLayout(
            stripe_size=self.machine.storage.stripe_size,
            n_controllers=self.machine.storage.n_controllers,
        )
        f = PFSFile(name, layout, ctime=self.sim.now)
        self._files[name] = f
        return f

    def open(
        self, proc: Process, name: str, mode: int = RD, *, create: bool = False
    ) -> PFSHandle:
        """Open a file, charging the per-process open cost.

        With ``create=True`` the file is created if missing (one extra
        metadata op, only on actual creation).
        """
        if mode not in (RD, WR, RDWR):
            raise PFSError(f"bad open mode: {mode!r}")
        if name not in self._files:
            if not create:
                raise FileNotFound(f"no such file: {name!r}")
            self.create(proc, name, exist_ok=True)
        self._charge_metadata(proc, self.machine.storage.file_open_cost)
        self.n_opens += 1
        if self.sim.trace.enabled:
            self.sim.trace.record(
                self.sim.now, proc.name, "pfs.open", {"file": name}
            )
        return PFSHandle(self, self._files[name], mode)

    def close(self, proc: Process, handle: PFSHandle) -> None:
        """Close a handle (client-side cost, no MDS trip)."""
        handle.check_open()
        proc.hold(self.machine.storage.file_close_cost)
        handle.closed = True

    def stat(self, proc: Process, name: str) -> FileStat:
        """Stat by name (metadata-op cost)."""
        self._charge_metadata(proc, self.machine.storage.metadata_op_cost)
        f = self.lookup(name)
        return FileStat(name=f.name, size=f.size, ctime=f.ctime, mtime=f.mtime)

    def unlink(self, proc: Process, name: str) -> None:
        """Remove a file (metadata-op cost)."""
        self._charge_metadata(proc, self.machine.storage.metadata_op_cost)
        if name not in self._files:
            raise FileNotFound(f"no such file: {name!r}")
        del self._files[name]

    def truncate(self, proc: Process, name: str, length: int) -> None:
        """Shrink (or zero-extend) a file to ``length`` bytes (metadata-op
        cost) — how a compaction pass returns reclaimed space."""
        self._charge_metadata(proc, self.machine.storage.metadata_op_cost)
        f = self.lookup(name)
        f.store.truncate(length)
        f.mtime = self.sim.now

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def _serve(
        self, proc: Process, handle: PFSHandle, offsets, lengths,
        nbytes: int, controller: Optional[int], *, write: bool,
    ) -> List[int]:
        """Charge one request's controller time; returns the controllers
        it visited, in order (what a trace record is made from).

        A *scheduled* request (the striping-aware scheduler emits
        single-controller batches) queues at its chosen controller for
        the full stream time.  An *unscheduled* request is walked stripe
        piece by stripe piece: the fixed per-request overhead is charged
        client-side, then the stream holds each controller its bytes
        land on, in file order, for exactly that visit's transfer time.
        A lone stream therefore still totals ``request_overhead +
        runs·run_overhead + nbytes/bandwidth`` — one stream never
        exceeds stream bandwidth — but concurrent streams pipeline
        through the controller array (while one is on controller *c*,
        another streams on *c+1*) instead of serializing behind
        whichever queue owns their first byte.  Without the walk, every
        rank of an independent-I/O phase would queue at controller 0 —
        aligned region starts all map there — and aggregate bandwidth
        would collapse to a single stream's.

        The walk groups consecutive stripe pieces by *controller*; it is
        not a run merge (:func:`repro.pfs.runlist.coalesce_runs`) —
        same-controller pieces need not abut in the file, and only each
        visit's byte total is wanted.
        """
        storage = self.machine.storage
        if controller is not None:
            ctl = controller % len(self.controllers)
            service = storage.stream_time(nbytes, write=write, runs=len(offsets))
            with self.controllers[ctl].request(proc):
                proc.hold(service)
            return [ctl]
        proc.hold(storage.stream_time(0, write=write, runs=len(offsets)))
        _, plen, pctl = split_runs_by_stripe(
            handle.file.layout, offsets, lengths
        )
        if len(pctl) == 0:
            return []
        bw = (
            storage.stream_write_bandwidth if write
            else storage.stream_read_bandwidth
        )
        # One hold per controller *visit* (consecutive pieces on the same
        # controller collapse), so the walk length is the stripe count,
        # not the run count.
        new = np.empty(len(pctl), dtype=bool)
        new[0] = True
        np.not_equal(pctl[1:], pctl[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        visit_bytes = np.add.reduceat(plen, starts)
        visits = pctl[starts].tolist()
        for ctl, vbytes in zip(visits, visit_bytes.tolist()):
            with self.controllers[ctl].request(proc):
                proc.hold(float(vbytes) / bw)
        return visits

    def _trace_request(
        self, proc: Process, label: str, handle: PFSHandle, nbytes: int,
        nruns: int, visits: List[int],
    ) -> None:
        """File one ``pfs.read`` / ``pfs.write`` record.  The payload is
        built only when the trace is on: this runs once per request."""
        if self.sim.trace.enabled:
            self.sim.trace.record(
                self.sim.now, proc.name, label,
                {"file": handle.file.name, "bytes": nbytes, "runs": nruns,
                 "ctl": visits[0] if visits else 0,
                 "nctl": len(set(visits))},
            )

    def write(
        self, proc: Process, handle: PFSHandle, offsets, lengths, data,
        *, controller: Optional[int] = None,
    ) -> int:
        """One write request over a run list; returns bytes written.

        Holds one controller stream for the modelled service time, then
        lands the real bytes.  ``data`` is contiguous and must match the
        run total.  The request queues at the controller serving its first
        byte unless the caller (the striping-aware scheduler) picked one.
        """
        handle.check_writable()
        offsets = np.atleast_1d(np.asarray(offsets, dtype=np.int64))
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        nbytes = int(lengths.sum())
        visits = self._serve(
            proc, handle, offsets, lengths, nbytes, controller, write=True
        )
        handle.file.store.writev(offsets, lengths, data)
        handle.file.mtime = self.sim.now
        self.bytes_written += nbytes
        self.n_requests += 1
        self.runs_serviced += len(offsets)
        self._trace_request(
            proc, "pfs.write", handle, nbytes, len(offsets), visits
        )
        return nbytes

    def read(
        self, proc: Process, handle: PFSHandle, offsets, lengths,
        *, controller: Optional[int] = None, kind: str = "data",
    ) -> np.ndarray:
        """One read request over a run list; returns the gathered bytes.

        ``kind`` splits the traffic counters: ``"index"`` for chunked
        index-block fetches, ``"data"`` (default) for everything else.
        """
        handle.check_readable()
        offsets = np.atleast_1d(np.asarray(offsets, dtype=np.int64))
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        nbytes = int(lengths.sum())
        visits = self._serve(
            proc, handle, offsets, lengths, nbytes, controller, write=False
        )
        self.bytes_read += nbytes
        if kind == "index":
            self.index_bytes_read += nbytes
        else:
            self.data_bytes_read += nbytes
        self.n_requests += 1
        self.runs_serviced += len(offsets)
        self._trace_request(
            proc, "pfs.read", handle, nbytes, len(offsets), visits
        )
        return handle.file.store.readv(offsets, lengths)

    def write_at(self, proc: Process, handle: PFSHandle, offset: int, data) -> int:
        """Contiguous-write convenience."""
        raw = np.asarray(data).reshape(-1).view(np.uint8)
        return self.write(proc, handle, [offset], [len(raw)], raw)

    def read_at(self, proc: Process, handle: PFSHandle, offset: int, length: int) -> np.ndarray:
        """Contiguous-read convenience."""
        return self.read(proc, handle, [offset], [length])
