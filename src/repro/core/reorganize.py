"""The flips that move chunked bytes: reorganization and compaction.

:func:`execute_reorganize` converts a chunked instance into canonical
order — reading the chunk maps, performing the deferred exchange exactly
once, and publishing the repointed ``execution_table`` row as a new epoch
(closing the chunked row versions) — so the write-time savings need not
be paid back on every subsequent read.  :func:`compact_chunked_file`
packs a ``.chunked`` file's live chunks, two-phase read-then-write so any
overlap is safe.

Both are MVCC publishes driven by :class:`repro.core.mvcc.Flip`
(``docs/concurrency.md``, "The flip protocol"): readers that pinned an
epoch keep resolving against their snapshot's row versions and byte
regions, and ``SDMTables.reap_file`` turns a reaped interior region into
a free extent (a topmost one retreats the append cursor).

The tests pin: a reorganized or compacted instance reads back
byte-identical, overlapping chunks keep the highest writer's value, a
pinned reader keeps its snapshot across either flip, a compaction keeps
index-block sharing and leaves no free extent behind, and a concurrent
flip of the same file fails fast.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.catalog import collective
from repro.core.groups import DataView
from repro.core.layout import CANONICAL, checkpoint_file_name
from repro.core.mvcc import Flip
from repro.core.resolve import (
    _fetch_index_blocks, locate_instance, read_extents, set_instance_view,
)
from repro.core.write import _next_append_base
from repro.dtypes.primitives import Primitive, primitive_by_name
from repro.errors import SDMUnknownDataset
from repro.metadb.schema import CHUNK_INDEX_BYTES, ChunkRecord
from repro.mpiio import runs
from repro.mpiio.consts import MODE_CREATE, MODE_RDONLY, MODE_RDWR

__all__ = ["execute_reorganize", "compact_chunked_file"]


def _arithmetic_gids(ch: ChunkRecord) -> np.ndarray:
    """The gid progression of an arithmetic chunk (which stores no index
    block: ``index_offset == data_offset``)."""
    return np.arange(
        ch.gid_min, ch.gid_max + 1, max(ch.gid_step, 1), dtype=np.int64
    )


def _last_per_gid(
    gid: np.ndarray, val: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The overlap rule, as reorganize applies it: of candidate ``(gid,
    val)`` pairs listed in ascending writer rank, each global index keeps
    its last — the highest writing rank's, as the two-phase exchange
    resolves overlapping writes.  Returns the sorted unique gids and
    their values."""
    order = np.argsort(gid, kind="stable")  # ties keep writer order
    gid = gid[order]
    last = np.ones(len(gid), dtype=bool)
    np.not_equal(gid[1:], gid[:-1], out=last[:-1])
    return gid[last], val[order][last]


@collective
def execute_reorganize(
    host, group_id: int, dataset: str, timestep: int,
    dtype: Primitive, global_size: int, runid: int,
) -> str:
    """The execute half: rewrite a chunked instance into canonical order.
    Collective over ``host.comm`` (the application ranks for a synchronous
    call, the maintenance workers for a background job).

    Chunks are dealt to ranks in contiguous runs of writer order; each
    rank reads its chunks back contiguously (independent I/O) and one
    collective write performs the exchange the chunked write skipped.
    The exchange resolves overlaps by source rank, so order-preserving
    runs keep the overlap rule (highest writer wins) on fewer ranks than
    wrote the chunks.  The flip runs under the
    chunked file's lease (:class:`~repro.core.mvcc.Flip`): the chunk-map
    versions close and the ``execution_table`` row is repointed as one
    new epoch, so a reader pinned on an older epoch keeps resolving the
    chunked representation.  Already canonical instances are a no-op (no
    lease taken).

    The stale chunked blob is not erased.  Once its rows are reaped, a
    topmost region retreats the append cursor and the next chunked write
    reclaims the space; an interior region is recorded in
    ``extent_table`` as a dead extent for :func:`compact_chunked_file`
    to reclaim.
    """
    comm = host.comm
    proc = comm.proc
    where, chunks, version = locate_instance(
        comm, host.tables, runid, dataset, timestep
    )
    old_fname = where[0]
    if not chunks:
        return old_fname
    with Flip(host, old_fname) as fl:
        # -- gather phase: read my run of the chunks back, writer order --
        ordered = sorted(chunks, key=lambda c: c.rank)
        per = -(-len(ordered) // comm.size)  # ceil: one run per rank
        mine = [
            ch for ch in ordered[comm.rank * per:(comm.rank + 1) * per]
            if ch.num_elements
        ]
        src = host._open_cached(old_fname, MODE_RDONLY)
        # One batched request fetches every index block this rank needs ...
        blocks = _fetch_index_blocks(
            src, [ch.block for ch in mine if ch.block], host._block_cache(),
            version,
        )
        gid_parts: List[np.ndarray] = [
            _arithmetic_gids(ch) if ch.block is None else blocks[ch.block]
            for ch in mine
        ]
        # ... and one coalesced request streams all their data blocks
        # (adjacent chunks merge; holes up to the hint are bridged).
        val_parts = [part.view(dtype.numpy_dtype) for part in read_extents(
            src, [ch.data_offset for ch in mine],
            [ch.num_elements * dtype.size for ch in mine],
        )]
        if gid_parts:
            gids, vals = _last_per_gid(np.concatenate(gid_parts),
                                       np.concatenate(val_parts))
        else:
            gids = np.empty(0, dtype=np.int64)
            vals = np.empty(0, dtype=dtype.numpy_dtype)

        # -- exchange phase: one collective write builds global order ----
        new_fname = checkpoint_file_name(
            host.application, group_id, dataset, timestep, host.organization,
            storage_order=CANONICAL,
        )
        base = _next_append_base(host, new_fname)
        dst = host._open_cached(new_fname, MODE_CREATE | MODE_RDWR)
        set_instance_view(dst, base, dtype, DataView.from_map(gids))
        dst.write_at_all(0, vals)

        def write_successors(epoch: int) -> None:
            # Close the chunk maps, then repoint the execution row
            # (count-checked, so a concurrent repoint fails fast).
            host.tables.close_chunks(
                runid, dataset, timestep, epoch, proc=proc
            )
            host.tables.update_execution(
                runid, dataset, timestep, old_fname, new_fname, base,
                global_size * dtype.size, epoch, proc=proc,
            )

        # Nothing moved in place — the canonical bytes are staged beyond
        # anything visible — so the intent is journaled at publish time.
        fl.publish(write_successors)
    host._close_level_1(old_fname, new_fname)
    return new_fname


def _compaction_plan(host, file_name: str, start: int = 0) -> Dict:
    """Rank 0's host-side plan for packing one chunked file.

    Walks the file's live (open-version) instances in base-offset order
    and lays their chunks back to back from ``start``: ``moves`` are
    ``(src, nbytes, dst)`` byte copies, ``new_chunks`` /
    ``exec_updates`` the successor metadata versions.  Index-block
    sharing is preserved — the first chunk to reference a block relocates
    it and later references point at the new offset — and a shared block
    stranded in a dead region (its writing instance was reorganized away)
    is materialized from its old bytes, so the packed region is always
    self-contained.

    ``start=0`` is the quiesced in-place slide; a deferred compaction
    under live pins passes the current append cursor so every copy lands
    beyond the bytes any snapshot can still reference.
    """
    tables = host.tables
    proc = host.comm.proc
    moves: List[Tuple[int, int, int]] = []
    new_chunks: List[Tuple[int, str, int, List[ChunkRecord]]] = []
    exec_updates: List[Tuple[int, int, int, str, int, int]] = []
    block_map: Dict[int, Tuple[int, int]] = {}
    esize_of: Dict[Tuple[int, str], int] = {}
    cursor = start
    for runid, dataset, timestep, _base, _nbytes, vfrom, _vto in (
        tables.executions_in_file(file_name, proc=proc)
    ):
        key = (runid, dataset)
        esize = esize_of.get(key)
        if esize is None:
            type_name = tables.dataset_type_name(runid, dataset, proc=proc)
            if type_name is None:
                raise SDMUnknownDataset(
                    f"dataset {dataset!r} of run {runid} has no "
                    "access_pattern_table row; cannot size its chunks"
                )
            esize = primitive_by_name(type_name).size
            esize_of[key] = esize
        new_base = cursor
        recs: List[ChunkRecord] = []
        for ch in tables.chunks_for(runid, dataset, timestep, proc=proc,
                                    at=vfrom):
            if ch.num_elements == 0:
                recs.append(ChunkRecord(
                    ch.rank, ch.gid_min, ch.gid_max, 0, cursor, cursor,
                    ch.gid_step,
                ))
                continue
            dbytes = ch.num_elements * esize
            if ch.block is None:  # arithmetic: data block only
                if ch.data_offset != cursor:
                    moves.append((ch.data_offset, dbytes, cursor))
                recs.append(ChunkRecord(
                    ch.rank, ch.gid_min, ch.gid_max, ch.num_elements,
                    cursor, cursor, ch.gid_step,
                ))
                cursor += dbytes
                continue
            ibytes = ch.num_elements * CHUNK_INDEX_BYTES
            shared = block_map.get(ch.index_offset)
            if shared is not None and shared[1] == ibytes:
                new_index = shared[0]
            else:
                new_index = cursor
                if ch.index_offset != cursor:
                    moves.append((ch.index_offset, ibytes, cursor))
                block_map[ch.index_offset] = (cursor, ibytes)
                cursor += ibytes
            if ch.data_offset != cursor:
                moves.append((ch.data_offset, dbytes, cursor))
            recs.append(ChunkRecord(
                ch.rank, ch.gid_min, ch.gid_max, ch.num_elements,
                new_index, cursor, ch.gid_step,
            ))
            cursor += dbytes
        new_chunks.append((runid, dataset, timestep, recs))
        exec_updates.append(
            (new_base, cursor - new_base, runid, dataset, timestep, vfrom)
        )
    return {
        "moves": moves,
        "new_chunks": new_chunks,
        "exec_updates": exec_updates,
        "new_size": cursor,
    }


@collective(uniform_result=True)
def compact_chunked_file(host, file_name: str) -> Dict:
    """Pack a ``.chunked`` file's live chunks.  Collective over
    ``host.comm``; returns ``{"before", "after", "moved_bytes"}``.

    Runs under the file's flip lease (:class:`~repro.core.mvcc.Flip`) and
    picks one of two plans on rank 0 (``docs/concurrency.md``,
    "Compaction's two paths"):

    * **Quiesced in-place slide** — nothing is pinned and (after an
      opportunistic reap) no dead row versions remain: live chunks slide
      down over the dead extents from offset 0, the free extents clear
      and the file truncates to its live size.  Byte moves are dealt
      round-robin to ranks in two barrier-separated phases — every rank
      *reads* its sources before any rank *writes* a destination — so
      arbitrary overlap between old and new layouts is safe.  Rank 0
      drains in-flight reads through the job's read gate
      (``host.maintenance``) for exactly this phase: a reader on any
      other communicator may be mid-read.
    * **Deferred copy-up** — while snapshots are pinned, live chunks are
      *copied* beyond the append cursor instead, every pinned byte stays
      put, and a later quiesced pass finishes the reclamation.
    """
    comm = host.comm
    proc = comm.proc
    gate = host.maintenance
    with Flip(host, file_name) as fl:
        plan = None
        exclusive = False
        try:
            if comm.rank == 0 and host.fs.exists(file_name):
                # Opportunistic reap under the lease: with nothing pinned
                # this clears any backlog of dead versions so the in-place
                # slide's extent map is complete.
                host.tables.reap_file(file_name, proc=proc)
                quiesced = (
                    host.tables.pin_count(proc=proc) == 0
                    and not host.tables.executions_in_file(
                        file_name, proc=proc, dead=True)
                )
                start = 0 if quiesced else host.tables.max_offset_in_file(
                    file_name, proc=proc)
                plan = _compaction_plan(host, file_name, start=start)
                plan["quiesced"] = quiesced
                plan["before"] = host.fs.lookup(file_name).size
                # Journal the flip intent BEFORE any byte moves: the
                # quiesced in-place slide overwrites old live locations,
                # so rollback is only sound while nothing has moved.  A
                # crash from here to the commit rolls back to untouched
                # metadata; the unjournaled window between the first
                # moved byte and the commit has no registered fault point
                # (the deferred copy-up path, which never overwrites live
                # bytes, is crash-safe throughout).  The epoch rides in
                # the plan only because the modelled bcast cost depends
                # on the payload size.
                plan["epoch"] = fl.begin()
                if quiesced:
                    # Block new reads and drain in-flight ones before any
                    # rank's bcast receipt lets it overwrite live bytes.
                    gate.acquire_exclusive(proc)
                    exclusive = True
            plan = comm.bcast(plan, root=0)
            if plan is None:  # unknown file: nothing to compact or flip
                return {"before": 0, "after": 0, "moved_bytes": 0}
            return _compact_with_plan(host, fl, file_name, plan)
        finally:
            if exclusive:
                gate.release_exclusive()


def _compact_with_plan(host, fl: Flip, file_name: str, plan: Dict) -> Dict:
    """Execute a broadcast compaction plan: move bytes, publish the new
    epoch, reap/truncate per the plan's quiesced flag."""
    comm = host.comm
    proc = comm.proc
    moves = plan["moves"]
    if moves:
        f = host._open_cached(file_name, MODE_RDWR)
        mine = sorted(moves[comm.rank:: comm.size])
        parts = read_extents(f, [m[0] for m in mine], [m[1] for m in mine])
        comm.barrier()  # every source byte is in memory before any write
        if mine:
            order = sorted(range(len(mine)), key=lambda i: mine[i][2])
            dst = np.array([mine[i][2] for i in order], dtype=np.int64)
            dlens = np.array([mine[i][1] for i in order], dtype=np.int64)
            # Zero-gap coalescing only: writes must not touch hole bytes,
            # but packed destinations abut, so most moves fuse into a few
            # streaming writes (lossless: disjoint runs, sum preserved).
            woff, wlen = runs.coalesce_runs(dst, dlens)
            f.write_runs(woff, wlen,
                         np.concatenate([parts[i] for i in order]))
        comm.barrier()  # every block is in place before the metadata flip

    def write_successors(epoch: int) -> None:
        # Insert every successor version (chunk maps first, then the
        # rebased execution rows — a reader landing on a new execution
        # row must already find its chunks), then close the old versions
        # count-checked.
        for runid, dataset, timestep, recs in plan["new_chunks"]:
            host.tables.record_chunks(
                runid, dataset, timestep, recs, proc=proc, valid_from=epoch,
            )
        host.tables.update_execution_offsets(
            plan["exec_updates"], file_name, epoch, proc=proc
        )
        for runid, dataset, timestep, _recs in plan["new_chunks"]:
            host.tables.close_chunks(
                runid, dataset, timestep, epoch, proc=proc
            )

    def reap_quiesced() -> None:
        # Nothing pinned: the closed versions reap immediately, the
        # extent map zeroes, and the file truncates to live bytes.
        host.tables.reap_file(file_name, proc=proc, record_extents=False)
        host.tables.clear_extents(file_name, proc=proc)
        host.fs.truncate(proc, file_name, plan["new_size"])

    # Publishes under the epoch whose intent the plan phase journaled
    # (before any byte moved).  Deferred (pinned snapshots still reference
    # the old bytes): the default reap collects what the pins allow; the
    # rest waits for the last unpin (extent bookkeeping happens then).
    fl.publish(write_successors, reap_quiesced if plan["quiesced"] else None)
    host._close_level_1(file_name)
    return {
        "before": plan.get("before", 0),
        "after": plan["new_size"],
        "moved_bytes": sum(n for _s, n, _d in moves),
    }
