"""The file-system service: namespace, metadata costs, controller contention.

One :class:`FileSystem` is shared by all ranks of a job (created by the
``services`` factory of :func:`repro.mpi.mpirun`).  Every operation takes the
calling :class:`~repro.simt.Process` so it can charge virtual time:

* **metadata ops** (create, open, truncate) hold the metadata server
  (a capacity-limited FIFO resource) for a fixed cost — 64 ranks opening the
  same file queue up, which is exactly the level-1 penalty of the paper;
* **data ops** stream through the per-controller queues for a total of
  ``request_overhead + runs·run_overhead + bytes/stream_bandwidth`` per
  request.  An independent request (:meth:`read` / :meth:`write`) walks
  its stripe pieces controller by controller — so one stream never
  exceeds stream bandwidth while aggregate bandwidth saturates at
  ``n_controllers`` concurrent streams.  A two-phase aggregator's access
  phase (:meth:`serve_plan`) is the scheduler's single-controller
  batches, one request each, each holding its controller for the whole
  service.  The schedule belongs to the file system, which owns the
  controllers: it is planned once per stripe-relative shape of the
  union runs and kept (:meth:`_schedule`).

Every charge is one :func:`~repro.simt.primitives.serve` walk: the caller
parks once per independent request, once per metadata op and once per
aggregator access phase however many queues it visits, and the queue
steps run as kernel callbacks it owns.  The virtual seconds those visits
spend queued (controllers and MDS alike) add up in ``queue_wait_s``.

Data is real: writes land in the file's :class:`ByteStore`, reads come back
out, run lists included — an aggregator's whole file domain with one
``writev`` / ``readv`` when its walk ends.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.config import MachineModel
from repro.errors import FileExists, FileNotFound, PFSError
from repro.pfs.file import RD, RDWR, WR, PFSFile, PFSHandle
from repro.pfs.scheduler import controller_batches, split_runs_by_stripe
from repro.pfs.striping import StripeLayout
from repro.simt.primitives import Resource, serve
from repro.simt.process import Process
from repro.simt.simulator import Simulator

__all__ = ["FileSystem"]

_METADATA_SERVER_WAYS = 2
"""Concurrent metadata operations the MDS can service."""

_SCHEDULE_CAPACITY = 1 << 15
"""Union runs plus batches — about their size in words — that the
access-phase schedules a :class:`FileSystem` keeps may hold between them
(:meth:`FileSystem._schedule`); one more schedule past it starts the
cache afresh."""


class FileSystem:
    """Shared parallel-file-system service for one simulated machine."""

    def __init__(self, sim: Simulator, machine: MachineModel) -> None:
        self.sim = sim
        self.machine = machine
        self._files: Dict[str, PFSFile] = {}
        # One stream slot per I/O controller: streams on distinct
        # controllers proceed concurrently while same-controller visits
        # serialize — the contention the striping-aware run scheduler
        # (repro.pfs.scheduler) exists to spread.
        self.controllers = [
            Resource(sim, capacity=1, name=f"pfs-ctl{i}")
            for i in range(machine.storage.n_controllers)
        ]
        self.metadata_server = Resource(
            sim, capacity=_METADATA_SERVER_WAYS, name="pfs-mds"
        )
        self._write_locks: Dict[str, Resource] = {}
        self._schedules: Dict[tuple, tuple] = {}
        self._batches: Dict[tuple, tuple] = {}
        self._schedule_words = 0
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
        self.queue_wait_s = 0.0
        """Virtual seconds requests spent queued at a controller or the
        MDS, from each visit's arrival to its grant, summed over visits."""

    _STAT_FIELDS = (
        "bytes_written", "bytes_read", "index_bytes_read",
        "data_bytes_read", "n_requests", "n_opens", "runs_submitted",
        "runs_serviced", "queue_wait_s",
    )

    def stats(self) -> Dict[str, float]:
        """Snapshot every aggregate counter.

        The one counter-window API benches share: subtract two snapshots,
        and no field can be missed the way ad-hoc per-field reads could.
        """
        return {name: getattr(self, name) for name in self._STAT_FIELDS}

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

    def _walk(self, proc: Process, visits, lead: Optional[float] = None) -> None:
        """One :func:`serve` walk, its queue wait added to the total."""
        # Not ``self.queue_wait_s += serve(...)``: that reads the total
        # before the caller parks, losing every wait added meanwhile.
        waited = serve(proc, visits, lead)
        self.queue_wait_s += waited

    def _add_queue_wait(self, seconds: float) -> None:
        self.queue_wait_s += seconds

    def _charge_metadata(self, proc: Process, cost: float) -> None:
        self._walk(proc, [(self.metadata_server, cost)])

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
        *, write: bool,
    ) -> List[int]:
        """Charge one independent request's controller time; returns the
        controllers it visited, in order (what a trace record is made
        from).

        The request is walked stripe piece by stripe piece: the fixed
        per-request overhead is charged client-side, then the stream holds
        each controller its bytes land on, in file order, for exactly that
        visit's transfer time.  A lone stream therefore still totals
        ``request_overhead + runs·run_overhead + nbytes/bandwidth`` — one
        stream never exceeds stream bandwidth — but concurrent streams
        pipeline through the controller array (while one is on controller
        *c*, another streams on *c+1*) instead of serializing behind
        whichever queue owns their first byte.  Without the walk, every
        rank of an independent-I/O phase would queue at controller 0 —
        aligned region starts all map there — and aggregate bandwidth
        would collapse to a single stream's.

        The walk groups consecutive stripe pieces by *controller*; it is
        not a run merge (:func:`repro.pfs.runlist.coalesce_runs`) —
        same-controller pieces need not abut in the file, and only each
        visit's byte total is wanted.  It is one
        :func:`~repro.simt.primitives.serve` call (the overhead is its
        ``lead``), so the caller parks once per request, not once per
        queue and hold.
        """
        storage = self.machine.storage
        lead = storage.stream_time(0, write=write, runs=len(offsets))
        _, plen, pctl = split_runs_by_stripe(
            handle.file.layout, offsets, lengths
        )
        if len(pctl) == 0:
            self._walk(proc, [], lead)
            return []
        bw = (
            storage.stream_write_bandwidth if write
            else storage.stream_read_bandwidth
        )
        # One walk step per controller *visit* (consecutive pieces on the
        # same controller collapse), so the walk length is the stripe
        # count, not the run count; the caller parks once for all of it.
        new = np.empty(len(pctl), dtype=bool)
        new[0] = True
        np.not_equal(pctl[1:], pctl[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        visit_bytes = np.add.reduceat(plen, starts)
        visits = pctl[starts].tolist()
        self._walk(proc, [
            (self.controllers[ctl], float(vbytes) / bw)
            for ctl, vbytes in zip(visits, visit_bytes.tolist())
        ], lead)
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
    ) -> int:
        """One independent write request over a run list; returns bytes
        written.

        Walks the controllers its stripe pieces land on for the modelled
        service time, then lands the real bytes.  ``data`` is contiguous
        and must match the run total.
        """
        handle.check_writable()
        offsets = np.atleast_1d(np.asarray(offsets, dtype=np.int64))
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        nbytes = int(lengths.sum())
        visits = self._serve(proc, handle, offsets, lengths, write=True)
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
        *, kind: str = "data",
    ) -> np.ndarray:
        """One independent read request over a run list; returns the
        gathered bytes.

        ``kind`` splits the traffic counters: ``"index"`` for chunked
        index-block fetches, ``"data"`` (default) for everything else.
        """
        handle.check_readable()
        offsets = np.atleast_1d(np.asarray(offsets, dtype=np.int64))
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        nbytes = int(lengths.sum())
        visits = self._serve(proc, handle, offsets, lengths, write=False)
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

    def _schedule(self, layout: StripeLayout, offsets: np.ndarray,
                  lengths: np.ndarray, max_bytes: int, start: int) -> tuple:
        """What :meth:`serve_plan` charges for the union runs ``(offsets,
        lengths)``: ``(batches, nruns, nbytes)`` — the batches of
        :func:`~repro.pfs.scheduler.controller_batches` in plan order,
        each as :meth:`_batch` keeps it, and the runs and bytes of them
        all.

        Shifting the runs by a multiple of ``stripe_size x n_controllers``
        lands every stripe on the same controller, so it moves the batch
        offsets and nothing else, and none of that is kept: the schedule
        is planned once per shape — runs relative to the period below the
        first offset, ``max_bytes``, ``start`` — and kept, as many as
        :data:`_SCHEDULE_CAPACITY` allows.  The bytes moved are no part of
        it: the aggregation's move index is built anew on every access."""
        period = layout.stripe_size * layout.n_controllers
        base = int(offsets[0]) // period * period
        key = (layout.stripe_size, layout.n_controllers, max_bytes, start,
               (offsets - base).tobytes() + lengths.tobytes())
        sched = self._schedules.get(key)
        if sched is None:
            ctls, _, blen, bounds = controller_batches(
                layout, offsets, lengths, max_bytes, start
            )
            words = len(offsets) + len(ctls)
            if self._schedule_words + words > _SCHEDULE_CAPACITY:
                self._schedules.clear()
                self._batches.clear()
                self._schedule_words = 0
            self._schedule_words += words
            sched = self._schedules[key] = (
                tuple(map(self._batch, zip(
                    ctls.tolist(), np.add.reduceat(blen, bounds[:-1]).tolist(),
                    np.diff(bounds).tolist(),
                ))),
                len(blen), int(blen.sum()),
            )
        return sched

    def _batch(self, row: tuple) -> tuple:
        """A batch ``row = (controller, bytes, runs)`` as a schedule keeps
        it: ``(controller, bytes, runs, read visit, write visit)``, each
        visit holding the controller for the batch's stream time.  A
        workload's schedules share few distinct batches, so each is one
        object however many schedules hold it."""
        batch = self._batches.get(row)
        if batch is None:
            ctl, nbytes, nruns = row
            res, time = self.controllers[ctl], self.machine.storage.stream_time
            batch = self._batches[row] = (
                *row, (res, time(nbytes, write=False, runs=nruns)),
                (res, time(nbytes, write=True, runs=nruns)),
            )
        return batch

    def serve_plan(
        self, proc: Process, handle: PFSHandle, offsets, lengths,
        max_bytes: int, start: int, scratch: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """A two-phase aggregator's access phase: the union runs
        ``(offsets, lengths)`` (sorted, disjoint) cut into single-controller
        requests of at most ``max_bytes`` — the scheduler's batches,
        interleaved from controller ``start`` — all charged as one walk,
        the bytes moved once.

        Laid end to end the union runs are the scratch buffer, whichever
        layout the aggregator found it by (a span layout, addressed by
        file offset, is one union run, so the same bytes), and no base
        offset reaches this method.  With ``scratch`` the union runs are
        written from it (one ``writev``) and ``None`` is returned;
        without, they are read (one ``readv``) and returned.  The schedule
        comes from :meth:`_schedule`, planned on the first access of its
        shape.

        Batch ``b`` is one request: a visit holding its controller for its
        stream time, in plan order, and one request's worth of every
        counter and (trace on) one ``pfs.read`` / ``pfs.write`` record,
        stamped at the walk's end.  A walk of k visits pushes exactly the
        events of k back-to-back one-visit requests, and each visit's
        queue wait is added as the visit ends, so the clock, the event
        order and every counter are those of issuing the batches one by
        one.  What differs is when the bytes move: the whole file domain
        lands (or is read) when the walk ends, as ``mtime`` is set.
        """
        write = scratch is not None
        if write:
            handle.check_writable()
        else:
            handle.check_readable()
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        batches = ()
        if len(offsets):
            batches, nruns, total = self._schedule(
                handle.file.layout, offsets, lengths, max_bytes, start
            )
        if not batches:  # nothing but empty runs
            return None if write else np.empty(0, dtype=np.uint8)
        serve(proc, [b[3 + write] for b in batches],
              on_wait=self._add_queue_wait)
        store = handle.file.store
        out = None
        if write:
            store.writev(offsets, lengths, scratch)
            handle.file.mtime = self.sim.now
            self.bytes_written += total
        else:
            out = store.readv(offsets, lengths)
            self.bytes_read += total
            self.data_bytes_read += total
        self.n_requests += len(batches)
        self.runs_serviced += nruns
        if self.sim.trace.enabled:
            label = "pfs.write" if write else "pfs.read"
            for ctl, nbytes, n, *_ in batches:
                self._trace_request(proc, label, handle, nbytes, n, [ctl])
        return out

    def write_at(self, proc: Process, handle: PFSHandle, offset: int, data) -> int:
        """Contiguous-write convenience."""
        raw = np.asarray(data).reshape(-1).view(np.uint8)
        return self.write(proc, handle, [offset], [len(raw)], raw)

    def read_at(self, proc: Process, handle: PFSHandle, offset: int, length: int) -> np.ndarray:
        """Contiguous-read convenience."""
        return self.read(proc, handle, [offset], [length])
