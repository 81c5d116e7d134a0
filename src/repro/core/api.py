"""The SDM runtime class — the paper's user-facing API.

One :class:`SDM` instance per rank fronts everything: the metadata database
(through :class:`~repro.metadb.schema.SDMTables`), the parallel file system
(through :class:`~repro.mpiio.file.File`), the ring index distribution,
history files, and the two storage orders' data path
(:mod:`repro.core.write`, :mod:`repro.core.resolve`).  Method names are
pythonic; :mod:`repro.core.papi` provides ``SDM_*`` aliases matching the
paper's figures symbol for symbol.

Typical write-side flow (Figure 2), now parameterized by storage order::

    sdm = SDM(ctx, "fun3d", organization=Organization.LEVEL_2,
              storage_order="chunked")        # or "canonical" (default)
    result = sdm.make_datalist(["p", "q"])
    for a in result:
        a.data_type = DOUBLE
        a.global_size = total_nodes
    handle = sdm.set_attributes(result)
    sdm.data_view(handle, "p", vector)       # map array from the partition
    sdm.data_view(handle, "q", vector)
    for t in range(max_step):
        ...compute p, q...
        sdm.write(handle, "p", t, p_buf)     # chunked: exchange-free append
        sdm.write(handle, "q", t, q_buf)
    sdm.reorganize(handle, "p", max_step - 1)   # optional: canonical order
    sdm.finalize(handle)

Under ``storage_order="canonical"`` every write runs the two-phase exchange
and the file holds global element order (the paper's Figure 2 exactly).
Under ``"chunked"`` each rank appends its block in distribution order and
records a chunk map; :meth:`SDM.read` serves either representation
transparently, and :meth:`SDM.reorganize` converts an instance to canonical
order after the fact.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.catalog import collective
from repro.core.groups import DataGroup, DatasetAttrs, DataView, ImportAttrs
from repro.core.history import (
    HistoryRegistration,
    register_history_async,
    try_load_history,
)
from repro.core.host import DatapathHost
from repro.core.layout import (
    CANONICAL,
    CHUNKED,
    STORAGE_ORDERS,
    Organization,
    checkpoint_file_name,
)
from repro.core.maintenance import COMPACT, REORGANIZE
from repro.core.policy import ADAPTIVE, STATIC, MaintenancePolicy
from repro.core.reorganize import compact_chunked_file, execute_reorganize
from repro.core.resolve import locate_instance, set_instance_view
from repro.core.ring import EdgeChunk, LocalPartition, owned_nodes_of, ring_partition_index
from repro.core.write import write_canonical, write_chunked
from repro.dtypes.primitives import DOUBLE, INT, Primitive
from repro.errors import SDMLeaseConflict, SDMStateError, SDMUnknownDataset
from repro.mpi.job import RankContext
from repro.mpiio.consts import MODE_RDONLY
from repro.mpiio.hints import validate_hints
from repro.mpiio.runs import ADAPTIVE_GAP

__all__ = ["SDM"]


class SDM(DatapathHost):
    """Per-rank Scientific Data Manager instance (``SDM_initialize``)."""

    def __init__(
        self,
        ctx: RankContext,
        application: str,
        organization: Organization = Organization.LEVEL_2,
        dimension: int = 3,
        problem_size: int = 0,
        num_timesteps: int = 0,
        io_hints: Optional[Dict[str, int]] = None,
        storage_order: str = CANONICAL,
        reorganize_mode: str = "sync",
        snapshot: bool = False,
        policy: Optional[str] = None,
    ) -> None:
        self.ctx = ctx
        organization = Organization(organization)  # reject before I/O
        self.storage_order = _storage_order(storage_order)
        """Write-side data path, a name: ``"canonical"`` assembles global
        order at write time; ``"chunked"`` appends distribution order and
        defers the exchange.  Reads are transparent either way."""
        if reorganize_mode not in ("sync", "background"):
            raise SDMStateError(
                f"unknown reorganize_mode {reorganize_mode!r} "
                "(expected 'sync' or 'background')"
            )
        self.reorganize_mode = reorganize_mode
        """Default :meth:`reorganize` behavior: ``"sync"`` runs the
        deferred exchange collectively on the calling ranks;
        ``"background"`` enqueues it on the maintenance service and
        returns immediately (readers transparently serve whichever
        representation is current)."""
        validate_hints(io_hints)
        self.io_hints = dict(io_hints) if io_hints else None
        """MPI-IO hints SDM passes on every file open (the paper: SDM uses
        "the ability to pass hints to the implementation about access
        patterns, file-striping parameters, and so forth")."""
        if policy is None:
            policy = STATIC
        elif policy not in (STATIC, ADAPTIVE):
            raise ValueError(
                f"unknown policy {policy!r} "
                f"(expected None, {STATIC!r} or {ADAPTIVE!r})"
            )
        self.policy = policy
        """``"static"`` (the default — the pre-policy behavior, byte for
        byte) or ``"adaptive"``: per-read adaptive ``coalesce_gap`` plus
        read-count promotion (:mod:`repro.core.policy`)."""
        if policy == ADAPTIVE and (
            self.io_hints is None or "coalesce_gap" not in self.io_hints
        ):
            # The adaptive-gap loop is carried by the hint sentinel: every
            # coalescing read derives its own gap.  An explicit
            # coalesce_gap hint wins over the policy default.
            self.io_hints = dict(self.io_hints or {})
            self.io_hints["coalesce_gap"] = ADAPTIVE_GAP
        self.db = ctx.service("db")
        maintenance = ctx.service("maint")
        tables = maintenance.tables
        # Establish the database connection; rank 0 creates the schema
        # and allocates the run id.
        self.db.connect(ctx.proc)
        runid = None
        if ctx.rank == 0:
            tables.create_all(proc=ctx.proc)
            runid = tables.next_runid(proc=ctx.proc)
            tables.insert_run(
                runid, application, dimension, problem_size, num_timesteps,
                proc=ctx.proc,
            )
        self.runid: int = ctx.comm.bcast(runid, root=0)
        super().__init__(
            ctx.comm, application, organization,
            lease_holder=f"sdm:{application}:r{self.runid}",
            maintenance=maintenance, hints=self.io_hints,
        )
        if snapshot:
            # Every read resolves against the epoch current now until
            # finalize (or a flip this client publishes itself advances
            # it), no matter what background maintenance reorganizes or
            # compacts meanwhile.
            self.pin.take(self.comm)
        self._groups: Dict[int, DataGroup] = {}
        self._next_group = 1
        self._importlist: "OrderedDict[str, ImportAttrs]" = OrderedDict()
        self._local: Optional[LocalPartition] = None
        self._problem_size = problem_size
        self._part_vector: Optional[np.ndarray] = None
        self._history_available = False
        self._maint_policy = (
            MaintenancePolicy() if policy == ADAPTIVE else None
        )
        """Per-rank read-count promotion trigger (replicated state; see
        :class:`~repro.core.policy.MaintenancePolicy`), or None under the
        static policy."""
        self.maintenance.attach(ctx)
        self.comm.barrier()

    # ------------------------------------------------------------------
    # Datalists and groups (Figure 2, setup)
    # ------------------------------------------------------------------

    def make_datalist(self, names: Sequence[str]) -> List[DatasetAttrs]:
        """Create attribute records for the named datasets
        (``SDM_make_datalist``)."""
        if len(set(names)) != len(names):
            raise SDMStateError(f"duplicate dataset names: {names!r}")
        return [DatasetAttrs(name=n) for n in names]

    def associate_attributes(
        self,
        attrs: Sequence[DatasetAttrs],
        data_type: Optional[Primitive] = None,
        global_size: Optional[int] = None,
        storage_order: Optional[str] = None,
    ) -> None:
        """Apply shared attributes to several records
        (``SDM_associate_attributes``)."""
        for a in attrs:
            if data_type is not None:
                a.data_type = data_type
            if global_size is not None:
                a.global_size = global_size
            if storage_order is not None:
                a.storage_order = storage_order

    @collective(op="sdm.set_attributes", uniform_result=True, receivers=("sdm",))
    def set_attributes(self, datalist: Sequence[DatasetAttrs]) -> DataGroup:
        """Freeze a datalist into a data group and store its metadata
        (``SDM_set_attributes``).  Collective."""
        for a in datalist:
            if a.global_size <= 0:
                raise SDMStateError(
                    f"dataset {a.name!r} has no global_size; "
                    "set attributes before set_attributes()"
                )
        group = DataGroup(group_id=self._next_group, runid=self.runid)
        self._next_group += 1
        for a in datalist:
            group.datasets[a.name] = a
        if self.ctx.rank == 0:
            for a in datalist:
                self.tables.register_dataset(
                    self.runid, a.name, a.data_type.name, a.storage_order,
                    a.global_size, a.basic_pattern, proc=self.ctx.proc,
                )
        self.comm.barrier()
        self._groups[group.group_id] = group
        return group

    # ------------------------------------------------------------------
    # Imports and partitioning (Figure 3)
    # ------------------------------------------------------------------

    def make_importlist(
        self,
        names: Sequence[str],
        file_name: str,
        index_names: Sequence[str] = (),
    ) -> List[ImportAttrs]:
        """Describe arrays created outside SDM (``SDM_make_importlist``)."""
        out = []
        for n in names:
            attrs = ImportAttrs(
                name=n,
                file_name=file_name,
                file_content="INDEX" if n in index_names else "DATA",
                data_type=INT if n in index_names else DOUBLE,
            )
            self._importlist[n] = attrs
            out.append(attrs)
        return out

    def _import_attrs(self, name: str) -> ImportAttrs:
        try:
            return self._importlist[name]
        except KeyError:
            raise SDMUnknownDataset(
                f"{name!r} is not in the import list"
            ) from None

    @collective(op="sdm.import_index", receivers=("sdm",))
    def import_index(
        self,
        edge1_name: str,
        edge2_name: str,
        edge1_offset: int,
        edge2_offset: int,
        total_edges: int,
    ) -> Optional[EdgeChunk]:
        """Import the indirection arrays (``SDM_import`` on INDEX content).

        First consults the database for a history file matching this
        problem size and process count; on a hit, returns ``None`` — the
        edges need not be imported at all, and the subsequent
        :meth:`partition_index` reads the history instead.
        """
        self._problem_size = total_edges
        # Per the paper, "the SDM_import first accesses the index table ...
        # to see whether a history file exists with this problem size"; the
        # actual slice read happens later, in partition_index.
        record = None
        if self.ctx.rank == 0:
            record = self.tables.find_history(
                total_edges, self.ctx.size, proc=self.ctx.proc
            )
        record = self.comm.bcast(record, root=0)
        if record is not None:
            self._history_available = True
            return None
        self._history_available = False
        e1 = self.import_contiguous(edge1_name, edge1_offset, total_edges)
        e2 = self.import_contiguous(edge2_name, edge2_offset, total_edges)
        counts = _even_split(total_edges, self.ctx.size)
        gid_start = int(np.sum(counts[: self.ctx.rank]))
        return EdgeChunk(edge1=e1.astype(np.int64), edge2=e2.astype(np.int64),
                         gid_start=gid_start)

    @collective(op="sdm.import_contiguous", receivers=("sdm",))
    def import_contiguous(
        self, name: str, file_offset: int, total_elements: int
    ) -> np.ndarray:
        """Import this rank's even share of a contiguous array
        (``SDM_import`` without a data view installed).

        "The total domain (file length) is equally divided among processes,
        and the data in the domain is contiguously imported."
        """
        attrs = self._import_attrs(name)
        dtype = attrs.data_type
        counts = _even_split(total_elements, self.ctx.size)
        start = int(np.sum(counts[: self.ctx.rank]))
        count = int(counts[self.ctx.rank])
        f = self._open_cached(attrs.file_name, MODE_RDONLY)
        f.set_view(disp=file_offset, etype=dtype)
        buf = np.empty(count, dtype=dtype.numpy_dtype)
        f.read_at_all(start, buf)
        if self.ctx.rank == 0:
            self.tables.register_import(
                self.runid, name, attrs.file_name, dtype.name,
                attrs.storage_order, attrs.partition, attrs.file_content,
                file_offset, total_elements, proc=self.ctx.proc,
            )
        return buf

    @collective(op="sdm.import_irregular", receivers=("sdm",))
    def import_irregular(
        self,
        name: str,
        file_offset: int,
        total_elements: int,
        map_array: np.ndarray,
    ) -> np.ndarray:
        """Import an array irregularly distributed by a map array
        (``SDM_data_view`` + ``SDM_import``): one collective MPI-IO read
        through an indexed file view."""
        attrs = self._import_attrs(name)
        dtype = attrs.data_type
        view = DataView.from_map(map_array)
        f = self._open_cached(attrs.file_name, MODE_RDONLY)
        set_instance_view(f, file_offset, dtype, view)
        buf = np.empty(view.local_count, dtype=dtype.numpy_dtype)
        f.read_at_all(0, buf)
        if self.ctx.rank == 0:
            self.tables.register_import(
                self.runid, name, attrs.file_name, dtype.name,
                attrs.storage_order, attrs.partition, attrs.file_content,
                file_offset, total_elements, proc=self.ctx.proc,
            )
        return view.to_user_order(buf)

    def release_importlist(self) -> None:
        """Free import structures (``SDM_release_importlist``)."""
        self._importlist.clear()

    # -- partitioning ------------------------------------------------------

    def partition_table(self, partitioning_vector: np.ndarray) -> np.ndarray:
        """Localize the replicated partitioning vector
        (``SDM_partition_table``): returns this rank's owned nodes."""
        self._part_vector = np.asarray(partitioning_vector, dtype=np.int64)
        self.ctx.proc.hold(
            self.ctx.machine.compute.elements(len(self._part_vector))
        )
        return owned_nodes_of(self._part_vector, self.ctx.rank)

    @collective(op="sdm.partition_index", receivers=("sdm",))
    def partition_index(
        self,
        partitioning_vector: np.ndarray,
        chunk: Optional[EdgeChunk],
    ) -> LocalPartition:
        """Distribute the edges (``SDM_partition_index``).

        With a registered history (``chunk is None`` after
        :meth:`import_index` found one), reads the already-partitioned edges
        contiguously; otherwise runs the ring algorithm on the imported
        chunk.
        """
        if self._part_vector is None:
            self.partition_table(partitioning_vector)
        if chunk is None:
            if not self._history_available:
                raise SDMStateError(
                    "partition_index called without an edge chunk and "
                    "without a history file"
                )
            local = try_load_history(
                self.ctx, self.tables, self.application,
                self._problem_size, self._part_vector,
            )
            if local is None:
                raise SDMStateError(
                    "history disappeared between import_index and "
                    "partition_index"
                )
        else:
            local = ring_partition_index(self.ctx, self._part_vector, chunk)
        self._local = local
        return local

    def partition_index_size(self) -> int:
        """Local edge count (``SDM_partition_index_size``)."""
        self._require_local()
        return self._local.n_local_edges

    def partition_data_size(self) -> int:
        """Local node count (``SDM_partition_data_size``)."""
        self._require_local()
        return self._local.n_local_nodes

    @collective(op="sdm.index_registry", receivers=("sdm",))
    def index_registry(
        self, local: Optional[LocalPartition] = None
    ) -> HistoryRegistration:
        """Persist the index distribution to a history file
        (``SDM_index_registry``, optional).  The data write is asynchronous."""
        if local is None:
            self._require_local()
            local = self._local
        return register_history_async(
            self.ctx, self.tables, self.application, self._problem_size, local
        )

    def _require_local(self) -> None:
        if self._local is None:
            raise SDMStateError("no index distribution yet; call partition_index")

    # ------------------------------------------------------------------
    # Data views and checkpoint I/O (Figure 2, loop)
    # ------------------------------------------------------------------

    def data_view(
        self, handle: DataGroup, name: str, map_array: np.ndarray
    ) -> None:
        """Install the data mapping for a dataset (``SDM_data_view``)."""
        handle.dataset(name)
        handle.views[name] = DataView.from_map(map_array)

    @collective(op="sdm.write", uniform_result=True, receivers=("sdm",))
    def write(
        self, handle: DataGroup, name: str, timestep: int, buf: np.ndarray
    ) -> str:
        """Write one dataset instance collectively (``SDM_write``).

        Returns the file name written to.  The mapping installed by
        :meth:`data_view` locates local values in the global array; the
        configured :attr:`storage_order` decides how they land on disk —
        canonical (global order, two-phase exchange) or chunked
        (distribution order, exchange-free).  Under levels 2/3 the
        instance appends at an offset fetched from (and recorded in)
        ``execution_table`` by process 0.
        """
        attrs = handle.dataset(name)
        view = handle.view(name)
        _check_buffer(name, buf, view)
        write = (
            write_chunked if self.storage_order == CHUNKED else write_canonical
        )
        return write(self, handle, attrs, view, name, timestep, buf)

    @collective(op="sdm.read", receivers=("sdm",))
    def read(
        self,
        handle: DataGroup,
        name: str,
        timestep: int,
        buf: np.ndarray,
        runid: Optional[int] = None,
    ) -> np.ndarray:
        """Read back one dataset instance collectively (``SDM_read``).

        The location comes from ``execution_table``; the installed data
        view gathers this rank's elements.  Both storage orders are served
        transparently: canonical instances through one indexed file view,
        chunked instances assembled from their ``chunk_table`` maps.

        Under a ``snapshot=True`` SDM the location resolves against the
        pinned epoch, so a concurrent background reorganization or
        compaction can never change what this call returns; unpinned
        reads see the newest published metadata
        (:meth:`~repro.core.host.DatapathHost.read_pinned`).
        """
        attrs = handle.dataset(name)
        view = handle.view(name)
        _check_buffer(name, buf, view)
        rid = self.runid if runid is None else runid
        buf[:], fname, chunks = self.read_pinned(
            rid, name, timestep, attrs.data_type, view
        )
        if (
            chunks
            and self._maint_policy is not None
            and self.pin.epoch is None
        ):
            # Promotion loop: the instance is still serving chunked.  The
            # per-rank read counters are replicated (every rank counts the
            # same collective reads in the same order), so the Nth read
            # fires on all ranks together and the enqueue below is a
            # uniform collective.
            if self._maint_policy.note_chunked_read((rid, name, timestep)):
                self.reorganize(
                    handle, name, timestep, runid=rid, mode="background"
                )
        self._close_level_1(fname)
        return buf

    @collective(op="sdm.reorganize", uniform_result=True, receivers=("sdm",))
    def reorganize(
        self,
        handle: DataGroup,
        name: str,
        timestep: int,
        runid: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> str:
        """Rewrite a chunked instance into canonical order
        (``SDM_reorganize``).  A no-op for instances already canonical.
        Returns the file holding (or, in background mode, currently
        holding) the instance.

        ``mode`` (default: the constructor's :attr:`reorganize_mode`)
        selects who pays the deferred exchange:

        * ``"sync"`` — collective; runs it on the calling ranks now, so
          every later :meth:`read` takes the canonical fast path;
        * ``"background"`` — enqueue it on the maintenance service's
          per-rank workers (call on every rank, same order) and return
          immediately.  The workers perform the same exchange and
          atomically repoint ``execution_table`` off the application's
          critical path; reads transparently serve whichever
          representation is current, and :meth:`drain_maintenance`
          blocks until the flip is visible.
        """
        attrs = handle.dataset(name)
        rid = self.runid if runid is None else runid
        if self._flip_mode(mode, "reorganization") == "sync":
            return self._sync_flip(lambda: execute_reorganize(
                self, handle.group_id, name, timestep, attrs.data_type,
                attrs.global_size, rid,
            ))
        # One cheap metadata probe keeps already-canonical instances (and
        # their file names) out of the worker queue — the same no-op fast
        # path the sync call takes, minus the exchange machinery.
        where, chunks, _version = locate_instance(
            self.comm, self.tables, rid, name, timestep
        )
        if chunks:
            self.maintenance.enqueue(
                self.ctx, REORGANIZE,
                application=self.application,
                organization=int(self.organization),
                group_id=handle.group_id,
                runid=rid,
                dataset=name,
                timestep=timestep,
                data_type=attrs.data_type.name,
                global_size=attrs.global_size,
            )
        # Until the background flip lands, the instance still serves from
        # its chunked file.
        return where[0]

    @collective(op="sdm.compact", uniform_result=True, receivers=("sdm",))
    def compact(self, file_name: str, mode: Optional[str] = None) -> str:
        """Pack a ``.chunked`` checkpoint file down to its live bytes
        (reclaiming the dead extents reorganization left behind).

        ``mode`` follows :meth:`reorganize`: ``"sync"`` runs the pass
        collectively now; ``"background"`` (or the constructor default)
        enqueues it behind any earlier maintenance jobs — in particular
        behind background reorganizations of the same file, whose dead
        regions it then reclaims.  No quiescence is required of readers
        (``docs/concurrency.md``, "Compaction's two paths"); a concurrent
        flip of the same file raises
        :class:`~repro.errors.SDMLeaseConflict`.  Returns ``file_name``.
        """
        if self._flip_mode(mode, "compaction") == "sync":
            self._sync_flip(lambda: compact_chunked_file(self, file_name))
        else:
            self.maintenance.enqueue(
                self.ctx, COMPACT,
                application=self.application,
                organization=int(self.organization),
                file_name=file_name,
            )
        return file_name

    def _flip_mode(self, mode: Optional[str], what: str) -> str:
        """``mode`` (default: :attr:`reorganize_mode`) validated for one
        flip entry point: ``"sync"`` or ``"background"``."""
        mode = self.reorganize_mode if mode is None else mode
        if mode not in ("sync", "background"):
            raise SDMStateError(
                f"unknown {what} mode {mode!r} "
                "(expected 'sync' or 'background')"
            )
        return mode

    def _sync_flip(self, flip):
        """Run a synchronous metadata flip, riding out this job's own
        background maintenance.

        A flip lease conflict unwinds before any mutation and raises
        symmetrically on every rank, so when the holder may be this job's
        background tier — e.g. a policy-promoted reorganization in the
        same file — every rank drains its maintenance queue together and
        retries once.  A conflict with a genuinely concurrent *client*
        survives the drain and re-raises.
        """
        try:
            return flip()
        except SDMLeaseConflict:
            self.drain_maintenance()
            return flip()

    def checkpoint_file(
        self,
        handle: DataGroup,
        name: str,
        timestep: int,
        storage_order: Optional[str] = None,
    ) -> str:
        """File name a (dataset, timestep) instance lands in under this
        SDM's organization (defaults to the configured storage order)."""
        order = (
            self.storage_order if storage_order is None
            else _storage_order(storage_order)
        )
        return checkpoint_file_name(
            self.application, handle.group_id, name, timestep,
            self.organization, storage_order=order,
        )

    def chunked_checkpoint_files(
        self, handle: DataGroup, timesteps: Sequence[int]
    ) -> List[str]:
        """Distinct ``.chunked`` files the group's datasets land in over
        the given timesteps — the compaction work-list after a batch of
        reorganizations (under level 2/3 many instances share one file)."""
        seen: List[str] = []
        for name in handle.datasets:
            for t in timesteps:
                fname = self.checkpoint_file(handle, name, t,
                                             storage_order=CHUNKED)
                if fname not in seen:
                    seen.append(fname)
        return seen

    def drain_maintenance(self) -> None:
        """Block (in virtual time) until every maintenance job this rank
        enqueued has executed — reorganizations flipped, compactions
        packed, history slices on disk."""
        self.maintenance.drain(self.ctx.rank, self.ctx.proc)

    @collective(op="sdm.finalize", uniform_result=True, receivers=("sdm",))
    def finalize(self, handle: Optional[DataGroup] = None) -> None:
        """Close cached files and end the run (``SDM_finalize``).  Collective.

        A ``snapshot=True`` SDM releases its pin here and reaps any row
        versions it was the last reader holding live.  The shutdown leak
        audit then counts whatever this client still holds in lease/pin
        rows, surfaced through :meth:`stats` as ``leaked_leases`` /
        ``leaked_pins`` on every rank
        (:meth:`~repro.core.host.DatapathHost.shutdown`)."""
        if handle is not None:
            handle.finalized = True
        self.shutdown()


def _storage_order(name: str) -> str:
    """A storage-order name ("canonical"/"chunked", any case), lowered."""
    order = str(name).lower()
    if order not in STORAGE_ORDERS:
        raise SDMStateError(
            f"unknown storage order {name!r} "
            f"(expected one of {sorted(STORAGE_ORDERS)})"
        )
    return order


def _check_buffer(name: str, buf: np.ndarray, view: DataView) -> None:
    """A read or write buffer must hold exactly the view's elements;
    checked before the call enters any collective."""
    if len(buf) != view.local_count:
        raise SDMStateError(
            f"buffer for {name!r} has {len(buf)} elements, "
            f"view expects {view.local_count}"
        )


def _even_split(total: int, parts: int) -> np.ndarray:
    """Even division with the remainder spread over the first ranks."""
    base = total // parts
    counts = np.full(parts, base, dtype=np.int64)
    counts[: total % parts] += 1
    return counts
