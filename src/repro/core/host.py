"""The one datapath client, :class:`DatapathHost`: ``SDM``,
``SDMCatalog`` and every maintenance job's worker are each one, carrying
the job's maintenance service, which is always present.

The tests pin: a read touches the pin, holds the job's read gate on rank
0 for the whole collective and resolves at the pinned epoch; a closed
host still reads, cold; shutdown audits the lease and pin rows left in
the host's name and reports the same counters on every rank; under
level 1 every write, read and flip closes the handles it opened.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.catalog import collective
from repro.core.caches import ChunkedCaches, IndexBlockCache
from repro.core.groups import DataView
from repro.core.layout import Organization
from repro.core.mvcc import SnapshotPin
from repro.core.resolve import locate_instance, read_instance
from repro.dtypes.primitives import Primitive
from repro.metadb.schema import ChunkRecord, SDMTables
from repro.mpi.communicator import Communicator
from repro.mpiio.consts import MODE_RDONLY
from repro.mpiio.file import File

__all__ = ["DatapathHost"]


class DatapathHost:
    """One datapath client — :class:`~repro.core.api.SDM` and
    :class:`~repro.core.catalog.SDMCatalog` derive from it, a maintenance
    worker builds a plain one per job — owning its collective file
    handles, its registered block cache, its pin, the pinned read,
    :meth:`close`, :meth:`shutdown` and :meth:`stats`.  Where a worker
    has nothing to do the default is inert (no pin taken)."""

    def __init__(
        self,
        comm: Communicator,
        application: str,
        organization: Organization,
        lease_holder: str,
        maintenance,
        hints=None,
    ) -> None:
        self.comm = comm  # its rank 0 issues the metadata statements
        self.tables: SDMTables = maintenance.tables
        """The job's one metadata accessor, shared with the maintenance
        service and every other host, so recovery counters are job-wide."""
        self.fs = maintenance.fs
        self.application = application
        self.organization = Organization(organization)
        self.lease_holder = lease_holder
        """Flip-lease and pin identity, distinct per client and per
        maintenance job, so overlapping flips fail fast."""
        self.maintenance = maintenance
        """The job's maintenance service (always present): its queue takes
        background flips, its read gate admits reads and drains them for
        an in-place compaction."""
        self.caches: ChunkedCaches = maintenance.caches
        """The job-wide registry every cache invalidation goes through."""
        self.pin = SnapshotPin(self.tables, lease_holder)
        self.index_cache = IndexBlockCache()
        """The host's one chunked store: timesteps share blocks, so warm
        chunked reads move data bytes only and steady-state chunked
        writes write data bytes only."""
        self.caches.register(self.index_cache)
        self.closed = False
        self._hints = hints
        self._files: Dict[Tuple[str, int], File] = {}
        self._leak_stats = {"leaked_leases": 0, "leaked_pins": 0}

    @collective(uniform_result=True)
    def _open_cached(self, name: str, amode: int) -> File:
        """Get or collectively open a file (identical call sequence on all
        ranks keeps the cache coherent across the job)."""
        key = (name, amode)
        f = self._files.get(key)
        if f is None or f.closed:
            f = self._files[key] = File.open(
                self.comm, self.fs, name, amode, hints=self._hints
            )
        return f

    @collective(uniform_result=True)
    def _close_cached(self, name: str) -> None:
        """Collectively close every cached handle on ``name``."""
        for key in [k for k in self._files if k[0] == name]:
            f = self._files.pop(key)
            if not f.closed:
                f.close()

    @collective(uniform_result=True)
    def _close_level_1(self, *names: str) -> None:
        """Under level 1 (a file per instance, so no later call needs the
        handle) collectively close every cached handle on ``names``."""
        if self.organization == Organization.LEVEL_1:
            for name in names:
                self._close_cached(name)

    def _block_cache(self) -> IndexBlockCache:
        """The registered cache; once :meth:`close` unregistered it (so
        nothing invalidates it any more), a fresh one per call: cold."""
        return IndexBlockCache() if self.closed else self.index_cache

    @collective(op="host.read_pinned")
    def read_pinned(
        self,
        runid: int,
        dataset: str,
        timestep: int,
        dtype: Primitive,
        view: DataView,
        close: bool = False,
    ) -> Tuple[np.ndarray, str, List[ChunkRecord]]:
        """The one read sequence behind ``SDM.read`` and
        ``SDMCatalog.read_slice``: touch the pin, enter the read gate,
        locate at the pinned epoch (unpinned: the newest published
        metadata), read.  Collective over :attr:`comm`; returns
        ``(elements in view order, file name, chunk maps)``.

        Rank 0 holds the read gate for the whole collective, so an
        in-place compaction slide can never move bytes out from under it;
        ``close`` closes the handle before the gate reopens.
        """
        comm = self.comm
        self.pin.touch(comm)
        gate = self.maintenance
        if comm.rank == 0:
            gate.begin_read(comm.proc)
        try:
            where, chunks, version = locate_instance(
                comm, self.tables, runid, dataset, timestep,
                epoch=self.pin.epoch,
            )
            f = self._open_cached(where[0], MODE_RDONLY)
            out = read_instance(
                comm, f, where, chunks, dtype, view, self._block_cache(),
                version,
            )
            if close:
                self._close_cached(where[0])
        finally:
            if comm.rank == 0:
                gate.end_read()
        return out, where[0], chunks

    @collective(uniform_result=True, receivers=("f", "host", "self"))
    def close(self) -> None:
        """Collectively close every cached file handle (in name order,
        symmetric across ranks) and take this client's block cache out of
        the job's registry, which outlives it.  Idempotent."""
        for name in sorted({name for name, _amode in self._files}):
            self._close_cached(name)
        self.caches.unregister(self.index_cache)
        self.closed = True

    @collective(op="host.shutdown", uniform_result=True, receivers=("self", "host"))
    def shutdown(self) -> None:
        """End the client (collective): :meth:`close`, release the pin
        (reaping what it alone held live), then audit the lease and pin
        rows still standing in this client's name — counted by rank 0,
        broadcast, so :meth:`stats` agrees on every rank."""
        self.close()
        self.pin.release(self.comm)
        leaks = None
        if self.comm.rank == 0:
            leaks = self.pin.audit(
                self.comm.proc, holders=(self.lease_holder,)
            )
        leaks = self.comm.bcast(leaks, root=0)
        self._leak_stats["leaked_leases"] += leaks[0]
        self._leak_stats["leaked_pins"] += leaks[1]
        self.comm.barrier()

    def stats(self) -> Dict[str, int]:
        """Robustness counters for this client (uniform across ranks
        after :meth:`shutdown`): its shutdown leak audit plus the job's
        recovery totals, the ones ``MaintenanceService.stats()`` reports."""
        return {**self._leak_stats, **self.tables.recovery_stats()}

    def invalidate_chunked_caches(self, file_name: str) -> None:
        """A reorganization or compaction this rank ran may have freed or
        moved the file's bytes: every registered cache forgets them."""
        self.caches.drop(file_name)
