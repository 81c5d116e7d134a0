"""Client side of the metadb MVCC protocol (``docs/concurrency.md``), each
piece implemented once: :class:`Flip` — the lease → intent → successors
→ commit → reap → barrier → release driver behind reorganization and
both compaction modes; :func:`reap_sweep` — the
release-time "try-lease, reap, release" pass; :class:`SnapshotPin` — a
client's pin from take to audited release, held by every datapath host
(``SDM`` and ``SDMCatalog`` alike).  Rank 0 of the calling communicator
issues every metadata statement; the other ranks learn outcomes by
broadcast, so failures unwind symmetrically.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from repro.analysis.catalog import collective
from repro.errors import SDMLeaseConflict, SDMStateError
from repro.metadb.schema import DEFAULT_PIN_TTL, SDMTables
from repro.mpi.communicator import Communicator

__all__ = [
    "Flip",
    "SnapshotPin",
    "acquire_file_lease",
    "release_file_lease",
    "reap_sweep",
]


# ---------------------------------------------------------------------------
# Flip leases (one writer per file; concurrent flips fail fast)
# ---------------------------------------------------------------------------


@collective(uniform_result=True)
def acquire_file_lease(
    comm: Communicator,
    tables: SDMTables,
    file_name: str,
    holder: str,
) -> None:
    """Collectively take the exclusive flip lease on one file.

    Rank 0 runs the insert-then-verify protocol and broadcasts the
    outcome; on conflict *every* rank raises
    :class:`~repro.errors.SDMLeaseConflict` symmetrically, so the failed
    flip unwinds as one collective error instead of a hung job — the
    fail-fast replacement for the silent lost-update overlap of two
    concurrent metadata flips.

    A lease whose holder is dead (prior database incarnation, or
    heartbeat a full TTL stale at the caller's virtual now) is not a
    conflict: rank 0 recovers whatever the dead holder left mid-flip and
    steals the row (see :meth:`SDMTables.try_acquire_lease`).
    """
    proc = comm.proc
    ok = True
    if comm.rank == 0:
        ok = tables.try_acquire_lease(
            file_name, holder, proc=proc, now=proc.now
        )
        if ok:
            proc.fault_point("lease:acquired")
    ok = comm.bcast(ok, root=0)
    if not ok:
        raise SDMLeaseConflict(
            f"{file_name!r} is being flipped by another client "
            f"(lease requested by {holder!r})"
        )


def release_file_lease(
    comm: Communicator,
    tables: SDMTables,
    file_name: str,
    holder: str,
) -> None:
    """Drop the flip lease (rank 0 only; call after the flip's final
    barrier — no collective inside)."""
    if comm.rank == 0:
        tables.release_lease(file_name, holder, proc=comm.proc)


class Flip:
    """One metadata flip of one file (``docs/concurrency.md``, "The flip
    protocol", argues the order).

    ``with Flip(host, file_name) as fl:`` takes the file's flip lease
    collectively on entry — an overlapping flip raises
    :class:`~repro.errors.SDMLeaseConflict` on every rank before anything
    is mutated — and releases it on exit, also when the body raises, so a
    failed flip never strands its lease for a TTL.  :meth:`begin` journals
    the intent (a flip that moves live bytes calls it before the first
    moved byte; otherwise :meth:`publish` does); :meth:`publish` commits.
    A body that raises between the two leaves an intent without a lease;
    the attach-time recovery sweep rolls such orphans back.
    """

    def __init__(self, host, file_name: str) -> None:
        self.host = host
        self.file_name = file_name
        self.epoch: Optional[int] = None
        """Rank 0: the journaled epoch once :meth:`begin` ran."""

    def __enter__(self) -> "Flip":
        host = self.host
        acquire_file_lease(
            host.comm, host.tables, self.file_name, host.lease_holder
        )
        return self

    def __exit__(self, *exc) -> None:
        host = self.host
        release_file_lease(
            host.comm, host.tables, self.file_name, host.lease_holder
        )

    def begin(self) -> int:
        """Journal the flip intent and return its epoch (rank 0 only, no
        collective inside; at most once per flip)."""
        if self.epoch is not None:
            raise SDMStateError(
                f"flip of {self.file_name!r} already journaled its intent "
                f"(epoch {self.epoch})"
            )
        proc = self.host.comm.proc
        self.epoch = self.host.tables.begin_flip(self.file_name, proc=proc)
        proc.fault_point("flip:intent")
        return self.epoch

    @collective(op="flip.publish", uniform_result=True, receivers=("fl",))
    def publish(
        self,
        write_successors: Callable[[int], None],
        reap: Optional[Callable[[], None]] = None,
    ) -> int:
        """Commit the flip (collective); returns the published epoch.

        Rank 0: heartbeat (the fence — a holder whose lease was stolen
        stops here), intent unless begun, ``write_successors(epoch)``,
        ``commit_flip``, then ``reap()`` (default: ``reap_file`` of the
        flipped file).  Everyone: epoch broadcast, the publisher's own
        pin advances, caches forget the file, barrier — on the success
        path only, since ranks raising asymmetrically would hang in it.
        """
        host = self.host
        comm, tables = host.comm, host.tables
        proc = comm.proc
        epoch = 0
        if comm.rank == 0:
            tables.heartbeat_lease(
                self.file_name, host.lease_holder, proc.now, proc=proc
            )
            epoch = self.begin() if self.epoch is None else self.epoch
            write_successors(epoch)
            tables.commit_flip(self.file_name, epoch, proc=proc)
            proc.fault_point("flip:published")
            if reap is None:
                tables.reap_file(self.file_name, proc=proc)
            else:
                reap()
        epoch = comm.bcast(epoch, root=0)
        host.pin.advance(comm, epoch)  # a publisher reads its own writes
        host.invalidate_chunked_caches(self.file_name)
        comm.barrier()
        return epoch


def reap_sweep(tables: SDMTables, holder: str, proc) -> None:
    """Reap every file holding superseded row versions, each under its
    flip lease — skipped without blocking when a concurrent flip holds
    it (that flip's own post-commit reap covers the file).  Rank-local;
    what a released pin's holder runs so the versions it was the last
    reader of do not wait for the next flip."""
    for fname in tables.files_with_dead_rows(proc=proc):
        if tables.try_acquire_lease(fname, holder, proc=proc, now=proc.now):
            try:
                tables.reap_file(fname, proc=proc)
            finally:
                tables.release_lease(fname, holder, proc=proc)


# ---------------------------------------------------------------------------
# Snapshot pins (reader/writer isolation)
# ---------------------------------------------------------------------------


class SnapshotPin:
    """One client's snapshot pin: take, touch, advance, release, audit.

    An unpinned instance (never :meth:`take`-n, or released) has
    ``epoch is None`` — reads through it follow the newest published
    metadata — and touch/advance/release are then no-ops.
    ``comm`` is passed per call because a catalog may read on a
    sub-communicator; rank 0 of it issues the statements.
    """

    def __init__(self, tables: SDMTables, client: str) -> None:
        self.tables = tables
        self.client = client
        """``pin_table`` identity; the release-time sweep leases files
        as ``<client>:reap``."""
        self.pin_id: Optional[int] = None
        self.epoch: Optional[int] = None
        self._touched = 0.0

    @collective(op="pin.take", uniform_result=True, receivers=("pin",))
    def take(self, comm: Communicator) -> None:
        """Pin the epoch current now (collective): every read through
        this pin resolves against it until :meth:`release`, whatever
        concurrent maintenance publishes meanwhile."""
        pin = None
        if comm.rank == 0:
            proc = comm.proc
            epoch = self.tables.current_epoch(proc=proc)
            pin = (
                self.tables.create_pin(
                    self.client, epoch, proc=proc, now=proc.now
                ),
                epoch,
            )
            proc.fault_point("pin:taken")
        self.pin_id, self.epoch = comm.bcast(pin, root=0)
        self._touched = comm.proc.now

    def touch(self, comm: Communicator) -> None:
        """Prove the pin's client alive so the abandoned-pin reaper never
        ages a live snapshot out (read path, rank 0).  Throttled to every
        PIN_TTL/4 of virtual time: short jobs add zero statements."""
        if self.pin_id is None or comm.rank != 0:
            return
        now = comm.proc.now
        if now - self._touched >= DEFAULT_PIN_TTL / 4:
            self.tables.touch_pin(self.pin_id, now, proc=comm.proc)
            self._touched = now

    def advance(self, comm: Communicator, epoch: int) -> None:
        """Move the pin forward to an epoch its own client just published
        (call uniformly on every rank, after the epoch broadcast)."""
        if self.pin_id is None or epoch <= self.epoch:
            return
        if comm.rank == 0:
            self.tables.advance_pin(self.pin_id, epoch, proc=comm.proc)
        self.epoch = epoch

    def release(self, comm: Communicator) -> None:
        """Drop the pin and reap whatever it was the last reader holding
        live (:func:`reap_sweep`).  Idempotent; no collective inside."""
        if self.pin_id is None:
            return
        if comm.rank == 0:
            self.tables.release_pin(self.pin_id, proc=comm.proc)
            reap_sweep(self.tables, f"{self.client}:reap", comm.proc)
        self.pin_id = None
        self.epoch = None

    def audit(self, proc, holders: Iterable[str] = ()) -> Tuple[int, int]:
        """Shutdown leak audit (rank 0; the caller broadcasts):
        ``(leases, pins)`` still standing in this client's name — its
        sweep's lease identity plus any further ``holders`` it flips
        under.  Nonzero means a bug in the caller's release discipline,
        or a crashed peer the maintenance reaper will clean up next job."""
        mine = {f"{self.client}:reap", *holders}
        return (
            sum(1 for _f, h, _b in self.tables.all_leases(proc=proc)
                if h in mine),
            sum(1 for _p, c, _e in self.tables.all_pins(proc=proc)
                if c == self.client),
        )
