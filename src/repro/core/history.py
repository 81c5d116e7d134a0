"""History files: persisting an index distribution for later runs.

After a ring distribution, ``SDM_index_registry`` writes every rank's
partitioned edge map (with endpoints) and node map to a *history file* —
asynchronously, on background writer processes, so the application does not
wait — and registers the layout in ``index_table`` / ``index_history_table``.

The background-writer pattern that used to live here is now the general
maintenance tier of :mod:`repro.core.maintenance`: this module only
builds the file layout and the metadata rows, then hands the bulk write
to the job's maintenance service as a rank-local job
(``MaintenanceService.enqueue_local``).  The returned
:class:`HistoryRegistration` exposes both the poll
(:attr:`~HistoryRegistration.done`) and a :meth:`~HistoryRegistration.wait`
that blocks in virtual time until the rank's slice is on disk — the
moment an application needs read-your-writes on its own history.

A later run with the same problem size **and the same process count** skips
the import and the ring entirely: each rank looks up its slice in the
database and reads it back with one contiguous read ("the cost of index
distri. is nothing but reading the history file ... in a contiguous way,
including the database cost to access the metadata").  A run with a
different process count cannot use the file (the paper's stated
limitation) — :func:`try_load_history` simply misses.

History file layout, per rank, at offsets recorded in the database::

    edge_offset: [edge_map | edge1 | edge2]  (3 x edge_count x int32)
    node_offset: [node_map]                  (node_count x int32)

int32 matches the paper's C ``int`` edge indices and is what makes the
history read cheaper than re-running the ring at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.catalog import collective
from repro.core.layout import history_file_name
from repro.core.ring import LocalPartition, owned_nodes_of
from repro.errors import SDMHistoryMismatch
from repro.metadb.schema import HistoryRankRecord, HistoryRecord, SDMTables
from repro.mpi.job import RankContext
from repro.pfs.file import RD, WR
from repro.pfs.filesystem import FileSystem
from repro.simt.primitives import SimEvent
from repro.simt.process import Process

__all__ = ["HistoryRegistration", "register_history_async", "try_load_history"]

_I4 = 4  # bytes per int32 element (the paper stores C ints)


@dataclass
class HistoryRegistration:
    """Handle on an in-flight asynchronous history write."""

    file_name: str
    event: SimEvent
    """Completion future: set when this rank's slice is on disk."""

    @property
    def done(self) -> bool:
        """True once this rank's slice is on disk (in virtual time)."""
        return self.event.is_set

    def wait(self, proc: Process) -> None:
        """Block ``proc`` (in virtual time) until this rank's slice is on
        disk.  Returns immediately if the write already completed — no
        busy-checking required."""
        self.event.wait(proc)


@collective
def register_history_async(
    ctx: RankContext,
    tables: SDMTables,
    application: str,
    problem_size: int,
    local: LocalPartition,
    dimension: int = 3,
) -> HistoryRegistration:
    """Write this rank's slice to the history file in the background.

    Collective: offsets are derived from an allgather of per-rank counts.
    Rank 0 creates the file and registers the metadata synchronously (the
    database rows are cheap); the bulk data write is queued on the job's
    maintenance service (required in the job's services dict) and lands
    on that rank's background worker, off the application's critical path.
    """
    fs: FileSystem = ctx.service("fs")
    comm = ctx.comm
    fname = history_file_name(application, problem_size, ctx.size)

    counts = comm.allgather((local.n_local_edges, local.n_local_nodes))
    offsets: List[tuple] = []
    pos = 0
    for ec, nc in counts:
        edge_off = pos
        pos += 3 * ec * _I4
        node_off = pos
        pos += nc * _I4
        offsets.append((edge_off, node_off))

    if ctx.rank == 0:
        fs.create(ctx.proc, fname, exist_ok=True)
        record = HistoryRecord(
            problem_size=problem_size,
            num_procs=ctx.size,
            dimension=dimension,
            file_name=fname,
        )
        ranks = [
            HistoryRankRecord(
                rank=r,
                edge_count=counts[r][0],
                node_count=counts[r][1],
                edge_offset=offsets[r][0],
                node_offset=offsets[r][1],
            )
            for r in range(ctx.size)
        ]
        tables.register_history(record, ranks, proc=ctx.proc)
    comm.barrier()  # the file must exist before writers open it

    edge_off, node_off = offsets[ctx.rank]
    edge_blob = np.concatenate(
        [local.edge_map, local.edge1, local.edge2]
    ).astype(np.int32)
    node_blob = local.node_map.astype(np.int32)

    def writer(proc: Process) -> None:
        handle = fs.open(proc, fname, WR)
        fs.write_at(proc, handle, edge_off, edge_blob)
        fs.write_at(proc, handle, node_off, node_blob)
        fs.close(proc, handle)

    event = ctx.service("maint").enqueue_local(ctx, writer, label="history")
    return HistoryRegistration(file_name=fname, event=event)


@collective
def try_load_history(
    ctx: RankContext,
    tables: SDMTables,
    application: str,
    problem_size: int,
    part_vector: np.ndarray,
) -> Optional[LocalPartition]:
    """Load this rank's slice of a registered history, if one exists.

    Rank 0 consults ``index_table`` (database cost) and broadcasts the
    verdict; on a hit every rank fetches its ``index_history_table`` row and
    performs one contiguous read of its slice.  Both lookups are single
    composite-index probes on ``SDM_INDEXES`` tuples — ``(problem_size,
    num_procs)`` and ``(problem_size, num_procs, rank)`` — so the host-side
    engine work stays flat no matter how many histories have accumulated
    (the simulated database cost is per-row-touched either way).  Returns
    None when no history matches this (problem size, process count) pair.
    """
    record = None
    if ctx.rank == 0:
        record = tables.find_history(problem_size, ctx.size, proc=ctx.proc)
    record = ctx.comm.bcast(record, root=0)
    if record is None:
        return None

    fs: FileSystem = ctx.service("fs")
    row = tables.history_rank(problem_size, ctx.size, ctx.rank, proc=ctx.proc)
    if row is None:
        raise SDMHistoryMismatch(
            f"index_table has {record.file_name!r} but no per-rank row for "
            f"rank {ctx.rank}"
        )
    handle = fs.open(ctx.proc, record.file_name, RD)
    edge_blob = fs.read_at(
        ctx.proc, handle, row.edge_offset, 3 * row.edge_count * _I4
    ).view(np.int32).astype(np.int64)
    node_blob = fs.read_at(
        ctx.proc, handle, row.node_offset, row.node_count * _I4
    ).view(np.int32).astype(np.int64)
    fs.close(ctx.proc, handle)

    ec = row.edge_count
    return LocalPartition(
        edge_map=edge_blob[:ec].copy(),
        edge1=edge_blob[ec : 2 * ec].copy(),
        edge2=edge_blob[2 * ec :].copy(),
        node_map=node_blob.copy(),
        owned_nodes=owned_nodes_of(part_vector, ctx.rank),
    )
