"""The background maintenance service: SDM's persistent worker tier.

The paper keeps expensive data management off the application's critical
path ("history files are written asynchronously, on background writer
processes"); DataFed-style systems generalize that into a persistent
service tier that reorganizes and repairs ingested data behind the
ingest path.  This module is that tier for the reproduction: one
:class:`MaintenanceService` per job (created by
:func:`repro.core.services.sdm_services`, so it outlives every
``SDM.finalize`` within the job) runs a per-rank daemon worker — a
:class:`~repro.simt.process.Process` per rank, spawned lazily and kept
alive exactly as long as its queue has work — that executes three job
kinds (superseded row versions need no job of their own: they are
reaped after every flip, at pin release and in the attach sweep):

* **reorganize** — the deferred chunked→canonical exchange
  (:func:`repro.core.reorganize.execute_reorganize`), run collectively
  across the workers with the same atomic ``execution_table`` repointing
  as the synchronous call, so readers transparently serve whichever
  representation is current at any instant;
* **compact** — pack a ``.chunked`` file down over its ``extent_table``
  dead regions (:func:`repro.core.reorganize.compact_chunked_file`);
* **local** — a rank-private callable with no collectives (the history
  writer of :mod:`repro.core.history`, now a thin client of this layer).

Workers take the same per-file flip leases the synchronous calls do
(every job kind runs under :class:`repro.core.mvcc.Flip`), so a
background flip racing a foreground one is a fail-fast
``SDMLeaseConflict``, never a lost update.

The service also carries the job's **read gate**: hosts register
in-flight reads (``begin_read``/``end_read``, rank-0-scoped per
collective read) and the *quiesced in-place* compaction path — the only
operation that rewrites bytes a current reader may be resolving — takes
``acquire_exclusive`` for exactly its slide-and-flip phase.  Deferred
(pinned-snapshot) compaction copies beyond the cursor and needs no
exclusion at all; see ``docs/concurrency.md``.

Queue lifecycle
---------------

``SDM.reorganize(..., mode="background")`` / ``SDM.compact`` enqueue on
every rank in the same program order (the calls are collective in shape,
asynchronous in effect): the first rank to enqueue a given logical job
assigns its id and records it in the metadata database's
``maintenance_table``; every rank appends it to its own worker queue.
Workers drain their queues in order — each persistent job builds a fresh
:class:`~repro.mpi.communicator.Communicator` over the job-unique
context id ``("maint", jobid)``, so worker lifecycles (exit on empty
queue, respawn on new work) can never misalign a collective — and rank
0 deletes the queue row when the job completes.  Because the workers are
ordinary non-daemon processes, the simulator will not end a job while
maintenance work is pending.  A queue row whose job never ran — its
enqueuer died between recording the row and spawning the worker (the
``maint:enqueued`` fault point) — survives into the services snapshot,
and the next job's service adopts and executes it at attach time — the
cross-run half of the DataFed pattern, riding the same snapshot
machinery as the history files.

Cache maintenance
-----------------

The service carries the job's one :class:`~repro.core.caches.ChunkedCaches`
registry: every datapath host — ``SDM``, catalog, and each job's worker
host — registers its one index-block cache (read plans and the write
side's last written blocks included) until it closes, and every
invalidation — a flip publish (background or synchronous), an append at
a retreated cursor, a first-fit reuse — is one job-wide
``caches.drop(file, lo, hi)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.config import MachineModel
from repro.core.caches import ChunkedCaches
from repro.core.host import DatapathHost
from repro.core.layout import Organization
from repro.core.mvcc import reap_sweep
from repro.core.reorganize import compact_chunked_file, execute_reorganize
from repro.dtypes.primitives import primitive_by_name
from repro.errors import SDMStateError
from repro.metadb.engine import Database
from repro.metadb.schema import MaintenanceRecord, SDMTables
from repro.mpi.communicator import Communicator
from repro.mpi.job import RankContext
from repro.pfs.filesystem import FileSystem
from repro.simt.primitives import Signal, SimEvent
from repro.simt.process import Process
from repro.simt.simulator import Simulator

__all__ = ["MaintenanceService", "REORGANIZE", "COMPACT"]

REORGANIZE = "reorganize"
"""Job kind: run the deferred chunked→canonical exchange."""

COMPACT = "compact"
"""Job kind: pack a chunked file down over its dead extents."""


@dataclass
class _LocalJob:
    """A rank-private unit of work (no collectives, no queue row)."""

    fn: Callable[[Process], Any]
    event: SimEvent
    label: str = "local"


class MaintenanceService:
    """Per-job background maintenance: queues, workers, persistent state.

    Created by the services factory next to the file system and the
    database (``ctx.service("maint")``); one instance serves every rank
    of a job and survives ``SDM.finalize``.  Enqueued and adopted jobs
    run on background workers within the job.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: MachineModel,
        fs: FileSystem,
        db: Database,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.fs = fs
        self.db = db
        self.tables = SDMTables(db)
        """The job's one metadata accessor: every datapath host of the job
        (``SDM``, ``SDMCatalog``, each worker's host) issues through it."""
        self._transport = None
        self._nprocs = 0
        self._queues: List[Deque[Any]] = []
        self._workers: List[Optional[Process]] = []
        self._idle: List[Signal] = []
        self._jobs_log: List[MaintenanceRecord] = []
        self._enqueued_count: List[int] = []
        self._next_jobid: Optional[int] = None
        self.caches = ChunkedCaches()
        """The job's chunked caches (registered by every datapath host):
        flips and chunked writes, background or not,
        invalidate all of them, so no application-side cache can serve
        bytes another client moved or rewrote."""
        # Read gate: in-flight collective reads vs in-place compaction.
        self._reads_in_flight = 0
        self._compacting = False
        self._gate = Signal(sim, name="maint-read-gate")
        # Counters for benchmarks and tests.
        self.n_enqueued = 0
        self.n_adopted = 0
        self.n_executed = 0
        self.bytes_reclaimed = 0
        self.n_leases_recovered = 0
        """Dead prior-incarnation leases resolved and released at attach."""
        self.n_intents_resolved = 0
        """Orphaned flip intents (no surviving lease) resolved at attach."""

    # ------------------------------------------------------------------
    # Binding and registration
    # ------------------------------------------------------------------

    def attach(self, ctx: RankContext) -> None:
        """Bind the service to the job (idempotent; every SDM calls it).

        The first attach sizes the per-rank queues from the job's
        transport, runs crash recovery over whatever a dead previous
        job's clients left behind (:meth:`_recover`: stale leases with
        their interrupted flips, orphaned flip intents, abandoned pins),
        reads any pending ``maintenance_table`` rows left by a previous
        job (the snapshot-surviving backlog), and enqueues them on every
        rank's worker.
        """
        if self._transport is not None:
            return
        self._transport = ctx.comm.transport
        self._nprocs = self._transport.size
        self._queues = [deque() for _ in range(self._nprocs)]
        self._workers = [None] * self._nprocs
        self._idle = [
            Signal(self.sim, name=f"maint-idle-r{r}")
            for r in range(self._nprocs)
        ]
        self._enqueued_count = [0] * self._nprocs
        self._recover(ctx.proc)
        pending = self.tables.pending_maintenance(proc=ctx.proc)
        self._next_jobid = self.tables.next_maintenance_jobid(proc=ctx.proc)
        for job in pending:
            self.n_adopted += 1
            for rank in range(self._nprocs):
                self._queues[rank].append(job)
        if pending:
            for rank in range(self._nprocs):
                self._ensure_worker(rank)

    def _recover(self, proc: Process) -> None:
        """Attach-time crash recovery (first attach of a fresh job).

        Anything in the lease/pin tables stamped with an earlier database
        incarnation belongs to a client that died with its job — the only
        way state reaches this job is the dump/restore snapshot, so the
        boot check is deterministic, no clock heuristics.  For each stale
        lease the interrupted flip is resolved exactly one way
        (:meth:`SDMTables.recover_file`: intent ⇒ roll back, committed ⇒
        finish the reap) before the lease is released.  Flip intents that
        lost their lease entirely (a flip body raised between
        ``Flip.begin`` and the commit, and the driver's exit released the
        lease on the way out) are resolved the same way; live
        same-incarnation flips always hold their lease and are never
        touched.  Finally the abandoned-pin reaper clears
        prior-incarnation pins.
        """
        tables = self.tables
        for fname, holder, boot in tables.all_leases(proc=proc):
            if boot < self.db.boot_id:
                tables.recover_file(fname, proc=proc)
                tables.release_lease(fname, holder, proc=proc)
                self.n_leases_recovered += 1
        for fname in tables.files_with_flip_intents(proc=proc):
            if tables.lease_holder(fname, proc=proc) is None:
                tables.recover_file(fname, proc=proc)
                self.n_intents_resolved += 1
        self.reap_abandoned_pins(proc)

    def reap_abandoned_pins(self, proc: Process) -> int:
        """Release snapshot pins whose clients are presumed dead (prior
        incarnation, or untouched past ``DEFAULT_PIN_TTL``), then reap
        what they were holding live (:func:`~repro.core.mvcc.reap_sweep`).
        Each reap prunes its file's epoch log as a side effect, so the
        log truncates once the leaked pins are gone.  Returns the number
        of pins released.
        """
        tables = self.tables
        expired = tables.expired_pins(proc.now, proc=proc)
        for pin_id, _client, _epoch in expired:
            tables.release_pin(pin_id, proc=proc)
            tables.n_pins_expired += 1
        if expired:
            reap_sweep(tables, "maint:reaper", proc)
        return len(expired)

    def stats(self) -> Dict[str, int]:
        """Service counters: work executed plus the job's crash-recovery
        totals, kept on the one :class:`SDMTables` every host of the job
        shares, so a client's acquire-path steal and the attach sweep
        feed one number."""
        return {
            "enqueued": self.n_enqueued,
            "adopted": self.n_adopted,
            "executed": self.n_executed,
            "bytes_reclaimed": self.bytes_reclaimed,
            "leases_recovered": self.n_leases_recovered,
            "intents_resolved": self.n_intents_resolved,
            **self.tables.recovery_stats(),
        }

    # ------------------------------------------------------------------
    # Read gate
    # ------------------------------------------------------------------
    #
    # MVCC snapshots make metadata flips invisible to in-flight readers,
    # but the *quiesced* compaction path moves live bytes in place — the
    # one operation where a reader that already resolved its chunk list
    # could race the slide.  The gate is rank-0-scoped: collective reads
    # end with a terminal alltoallv, so rank 0's return happens-after
    # every rank's file I/O, and one admission per collective read (on
    # the reading communicator's rank 0) covers the whole operation.

    def begin_read(self, proc: Process) -> None:
        """Admit one collective read (call on the reading comm's rank 0,
        *before* the locate broadcast).  Blocks while an in-place
        compaction holds the gate."""
        while self._compacting:
            self._gate.wait(proc)
        self._reads_in_flight += 1

    def end_read(self) -> None:
        """Retire one collective read (rank 0, after the data lands)."""
        self._reads_in_flight -= 1
        self._gate.fire()

    def acquire_exclusive(self, proc: Process) -> None:
        """Close the gate for an in-place slide: block new reads, then
        wait for the in-flight ones to drain (the compacting host's rank 0
        only, before the compaction plan broadcast)."""
        while self._compacting:
            self._gate.wait(proc)
        self._compacting = True
        while self._reads_in_flight:
            self._gate.wait(proc)

    def release_exclusive(self) -> None:
        """Reopen the gate (the compacting host's rank 0, after the
        flip's barrier)."""
        self._compacting = False
        self._gate.fire()

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------

    def enqueue(
        self,
        ctx: RankContext,
        kind: str,
        *,
        application: str = "",
        organization: int = int(Organization.LEVEL_2),
        group_id: int = 0,
        runid: int = 0,
        dataset: str = "",
        timestep: int = 0,
        file_name: str = "",
        data_type: str = "FLOAT64",
        global_size: int = 0,
    ) -> MaintenanceRecord:
        """Queue one persistent job.  Call on *every* rank, in the same
        program order (collective in shape, asynchronous in effect).

        The first rank to reach a given enqueue assigns the job id; rank
        0 additionally records the queue row (charged to its process).
        Returns the job record immediately — the work happens on the
        background workers.
        """
        self.attach(ctx)
        rank = ctx.rank
        index = self._enqueued_count[rank]
        self._enqueued_count[rank] += 1
        params = MaintenanceRecord(
            jobid=0,  # placeholder: the first enqueuer's id wins
            kind=kind,
            application=application,
            organization=int(organization),
            group_id=group_id,
            runid=runid,
            dataset=dataset,
            timestep=timestep,
            file_name=file_name,
            data_type=data_type,
            global_size=global_size,
        )
        if index == len(self._jobs_log):
            job = replace(params, jobid=self._next_jobid)
            self._next_jobid += 1
            self._jobs_log.append(job)
            self.n_enqueued += 1
        else:
            job = self._jobs_log[index]
            if replace(job, jobid=0) != params:
                raise SDMStateError(
                    f"rank {rank} enqueued {kind!r} job {params!r} where "
                    f"rank(s) before it enqueued {job!r}: maintenance "
                    "enqueues must follow the same program order with the "
                    "same parameters on every rank"
                )
        if rank == 0:
            self.tables.record_maintenance(job, proc=ctx.proc)
            # Crash window of the orphan-adoption contract: the queue
            # row exists but no worker has been spawned for it yet — a
            # death here leaves the row for the next job's attach.
            ctx.proc.fault_point("maint:enqueued")
        self._queues[rank].append(job)
        self._ensure_worker(rank)
        return job

    def enqueue_local(
        self, ctx: RankContext, fn: Callable[[Process], Any],
        label: str = "local",
    ) -> SimEvent:
        """Queue a rank-private callable on this rank's worker.

        No queue row, no collectives — the generalized history-writer
        pattern.  Returns a :class:`~repro.simt.primitives.SimEvent` set
        (with ``fn``'s return value) when the work completes.
        """
        self.attach(ctx)
        event = SimEvent(self.sim, name=f"maint-{label}-r{ctx.rank}")
        self._queues[ctx.rank].append(_LocalJob(fn=fn, event=event, label=label))
        self._ensure_worker(ctx.rank)
        return event

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def drain(self, rank: int, proc: Process) -> None:
        """Block (in virtual time) until this rank's queue is empty and
        its worker has exited — every previously enqueued job's effects,
        metadata flips included, are then visible.  Returns immediately
        on a service no client has attached."""
        if not self._queues:
            return
        while self._queues[rank] or self._worker_alive(rank):
            self._idle[rank].wait(proc)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker_alive(self, rank: int) -> bool:
        w = self._workers[rank]
        return w is not None and w.alive

    def _ensure_worker(self, rank: int) -> None:
        if not self._worker_alive(rank):
            self._workers[rank] = self.sim.spawn(
                self._worker_main, rank, name=f"maint-w{rank}"
            )

    def _worker_main(self, proc: Process, rank: int) -> None:
        """Daemon body: drain the queue in order, then exit.

        Exiting on empty (instead of parking) keeps an idle service from
        pinning the simulation; new work respawns the worker.  Collective
        jobs rendezvous across ranks through their job-unique
        communicator context, so respawns can never misalign them.
        """
        queue = self._queues[rank]
        while queue:
            job = queue.popleft()
            self._execute(proc, rank, job)
        self._idle[rank].fire()

    def _execute(self, proc: Process, rank: int, job: Any) -> None:
        if isinstance(job, _LocalJob):
            job.event.set(job.fn(proc))
            self.n_executed += 1
            return
        # The job's datapath host on this worker: a communicator over the
        # job-unique context, a per-job flip-lease identity (distinct from
        # every SDM client and other job, so overlapping flips fail fast),
        # file and block caches of its own, default MPI-IO hints (the
        # enqueuer's SDM may be gone by now), this service as metadata
        # accessor, file system, cache registry and read gate.
        host = DatapathHost(
            Communicator(
                self._transport, rank, proc, ctx_id=("maint", job.jobid)
            ),
            job.application, job.organization,
            lease_holder=f"maint:{job.jobid}", maintenance=self,
        )
        self._run_job(host, job)
        if rank == 0:
            self.tables.delete_maintenance(job.jobid, proc=proc)
        self.n_executed += 1

    def _run_job(self, host: DatapathHost, job: MaintenanceRecord) -> None:
        """One persistent job on this worker's host (collective across
        the workers over the job-unique ``host.comm``)."""
        try:
            if job.kind == REORGANIZE:
                execute_reorganize(
                    host, job.group_id, job.dataset, job.timestep,
                    primitive_by_name(job.data_type), job.global_size,
                    job.runid,
                )
            elif job.kind == COMPACT:
                stats = compact_chunked_file(host, job.file_name)
                if host.comm.rank == 0:
                    self.bytes_reclaimed += max(
                        stats["before"] - stats["after"], 0
                    )
            else:
                raise SDMStateError(
                    f"unknown maintenance job kind {job.kind!r}"
                )
        finally:
            host.close()
