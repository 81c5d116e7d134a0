"""The write path: ``SDM.write`` picks one of two functions by its
storage-order name.

The paper's key observation for irregular applications is that the
runtime may write each rank's data *in the order it is distributed* and
defer assembling global order until somebody needs it:

* :func:`write_canonical` — the classic path: every write scatters
  through an irregular file view and the two-phase collective exchange
  builds global element order on disk immediately.  Writes pay the
  exchange; reads are cheap.
* :func:`write_chunked` — the write-optimized path: every rank appends
  its local block as-is with *independent* I/O — no interprocess data
  exchange whatsoever — and each chunk's location and global-index range
  is recorded in the metadata database's ``chunk_table``.

Layout of one chunked instance in its file (per rank, back to back in rank
order at the instance's base offset)::

    [ gid index block: num_elements x int64 ][ data block: num_elements x esize ]

with two index-block elisions that keep the steady-state write volume equal
to the data volume:

* an **arithmetic** chunk (the map is a constant-stride progression —
  contiguous ranges, round-robin/block-cyclic interleavings) stores no
  index block at all: it is marked by ``index_offset == data_offset`` and
  its stride recorded as the chunk row's ``gid_step``, so positions are
  computed, never fetched (the dense case is ``gid_step == 1``);
* a rank whose map is unchanged since its previous chunk in the same file
  **shares** that chunk's index block (``index_offset`` points backward),
  so a checkpoint loop writes each rank's map once, then data only.

Shared blocks are never clobbered: an instance's bytes are only reclaimed
once no ``execution_table`` row references the file region above them, and
any chunk row referencing an index block sits at a higher offset than the
block itself, keeping ``max_offset_in_file`` — the append cursor — above it
for as long as the reference lives.  Overlapping chunks (ghost-inclusive
map arrays) resolve to the highest writing rank on read, matching the
two-phase exchange's overlap rule.

The tests pin: a chunked write moves no data between ranks (the
transport's ``alltoallv`` counters stay untouched), writes no index block
for an arithmetic map or an unchanged one, and refuses duplicate global
indices as the canonical file view does.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.catalog import collective
from repro.core.groups import DataGroup, DatasetAttrs, DataView
from repro.core.layout import (
    CANONICAL, CHUNKED, Organization, checkpoint_file_name,
)
from repro.core.resolve import set_instance_view
from repro.errors import SDMStateError
from repro.metadb.schema import CHUNK_INDEX_BYTES, ChunkRecord
from repro.mpiio.consts import MODE_CREATE, MODE_RDWR

__all__ = ["write_canonical", "write_chunked"]


@collective(uniform_result=True)
def _next_append_base(sdm, fname: str) -> int:
    """Next append offset in a checkpoint file (0 under level 1, else the
    end-of-file probe through ``execution_table``, broadcast from rank 0)."""
    if sdm.organization == Organization.LEVEL_1:
        return 0
    base = 0
    if sdm.comm.rank == 0:
        base = sdm.tables.max_offset_in_file(fname, proc=sdm.comm.proc)
    return sdm.comm.bcast(base, root=0)


def write_canonical(sdm, handle: DataGroup, attrs: DatasetAttrs,
                    view: DataView, name: str, timestep: int,
                    buf: np.ndarray) -> str:
    """Write one instance in global element order (the exchange happens
    at write time); returns the file name."""
    fname = checkpoint_file_name(
        sdm.application, handle.group_id, name, timestep, sdm.organization,
        storage_order=CANONICAL,
    )
    base = _next_append_base(sdm, fname)
    f = sdm._open_cached(fname, MODE_CREATE | MODE_RDWR)
    set_instance_view(f, base, attrs.data_type, view)
    data = view.to_file_order(
        np.asarray(buf, dtype=attrs.data_type.numpy_dtype)
    )
    f.write_at_all(0, data)
    if sdm.comm.rank == 0:
        sdm.tables.record_execution(
            sdm.runid, name, timestep, fname, base, attrs.global_bytes(),
            proc=sdm.comm.proc,
        )
        sdm.comm.proc.fault_point("write:recorded")
    sdm._close_level_1(fname)
    return fname


def write_chunked(sdm, handle: DataGroup, attrs: DatasetAttrs,
                  view: DataView, name: str, timestep: int,
                  buf: np.ndarray) -> str:
    """Write one instance in distribution order (the exchange is deferred
    to reads, or a one-time
    :func:`~repro.core.reorganize.execute_reorganize`); returns the file
    name.

    Each rank independently appends its chunk at an offset derived from an
    exscan of local byte counts — only scalar metadata crosses ranks; the
    transport's ``alltoallv`` counters stay untouched (tests assert exactly
    that).  The index block is elided when the map is an arithmetic
    progression (``gid_step`` recorded in the chunk row), and shared with
    the rank's previous chunk when the map is unchanged — the
    checkpoint-loop steady state writes data bytes only.
    """
    dtype = attrs.data_type
    count = view.local_count
    gids = view.map_sorted  # sorted int64, private and read-only
    data = view.to_file_order(np.asarray(buf, dtype=dtype.numpy_dtype))
    steps = np.diff(gids)
    if count > 1 and bool((steps == 0).any()):
        # The canonical path rejects duplicate map entries through its
        # file view; match it rather than write an ambiguous chunk.
        raise SDMStateError(
            f"map array for {name!r} holds duplicate global indices"
        )
    # Constant-stride maps (contiguous blocks, round-robin/block-cyclic
    # interleavings) need no index block: positions are arithmetic.
    # ``step == 0`` means the map is genuinely irregular.
    if count > 1:
        step = int(steps[0]) if bool((steps == steps[0]).all()) else 0
    else:
        step = 1  # empty or single-element: trivially arithmetic
    arithmetic = step > 0

    fname = checkpoint_file_name(
        sdm.application, handle.group_id, name, timestep, sdm.organization,
        storage_order=CHUNKED,
    )
    base = _next_append_base(sdm, fname)
    # First-fit extent reuse: place the instance into a free extent
    # (reap's dead-region bookkeeping) instead of growing the file,
    # when one fits.  Sized for the worst case — every non-arithmetic
    # rank writing its own index block — because whether a rank can
    # share an earlier block is only knowable after placement, and a
    # reuse write disables sharing anyway (below).  Placement is part
    # of the normal write: rows still publish at valid_from=0 under
    # no lease, and reap records extents only below the min-pin floor,
    # so the region is invisible to every snapshot by construction.
    reused = False
    total_need = 0
    if sdm.organization != Organization.LEVEL_1:
        local_need = count * dtype.size
        if count and not arithmetic:
            local_need += count * CHUNK_INDEX_BYTES
        total_need = sdm.comm.allreduce(local_need)
        place = None
        if total_need and sdm.comm.rank == 0:
            place = sdm.tables.allocate_extent(
                fname, total_need, proc=sdm.comm.proc
            )
        place = sdm.comm.bcast(place, root=0)
        if place is not None:
            base, reused = place, True
    # The bytes this write lands on are stale in every client's caches
    # the moment they land — fresh rows publish at version 0, so the
    # MVCC cache key alone cannot tell recycled bytes from old ones:
    # a first-fit reuse recycles [base, base + need) of a dead extent;
    # an append may sit at a retreated cursor, and everything above
    # the cursor is dead (every live or pinned row version lies below
    # it), so dropping it all is never lossy.
    sdm.caches.drop(fname, base, base + total_need if reused else None)
    # Under level 1 every instance gets its own file, so an index
    # block can never be shared — don't grow the cache with map
    # copies that cannot hit.  A reuse write neither consumes nor
    # publishes shared blocks: sharing's safety argument (the
    # referencing row holds the append cursor above the block) only
    # holds when every referencing row was appended at the cursor.
    sharable = sdm.organization != Organization.LEVEL_1 and not reused
    key = (fname, handle.group_id, name)
    shared = (
        sdm.index_cache.shared_index(key, gids, base)
        if sharable and not arithmetic else None
    )
    write_index = count > 0 and not arithmetic and shared is None
    local_bytes = count * dtype.size
    if write_index:
        local_bytes += count * CHUNK_INDEX_BYTES
    start = sdm.comm.exscan(local_bytes)
    chunk_off = base + (0 if start is None else int(start))

    f = sdm._open_cached(fname, MODE_CREATE | MODE_RDWR)
    if count:
        parts = [np.ascontiguousarray(data).view(np.uint8)]
        if write_index:
            parts.insert(0, np.ascontiguousarray(gids).view(np.uint8))
        blob = np.concatenate(parts) if len(parts) > 1 else parts[0]
        f.write_runs(
            np.array([chunk_off], dtype=np.int64),
            np.array([len(blob)], dtype=np.int64),
            blob,
        )
    if write_index:
        index_offset = chunk_off
        data_offset = chunk_off + count * CHUNK_INDEX_BYTES
        if sharable:
            sdm.index_cache.keep_written(key, gids, index_offset, data_offset)
    elif shared is not None:
        index_offset, data_offset = shared, chunk_off
    else:  # arithmetic (or empty): no index block anywhere
        index_offset = data_offset = chunk_off
    record = ChunkRecord(
        rank=sdm.comm.rank,
        gid_min=view.gid_min,
        gid_max=view.gid_max,
        num_elements=count,
        index_offset=index_offset,
        data_offset=data_offset,
        gid_step=step if arithmetic else 1,
    )
    payloads = sdm.comm.gather((record, local_bytes), root=0)
    if sdm.comm.rank == 0:
        total = sum(nbytes for _, nbytes in payloads)
        sdm.tables.record_execution(
            sdm.runid, name, timestep, fname, base, total,
            proc=sdm.comm.proc,
        )
        sdm.tables.record_chunks(
            sdm.runid, name, timestep,
            [rec for rec, _ in payloads], proc=sdm.comm.proc,
        )
        sdm.comm.proc.fault_point("write:recorded")
    # Readers must not race ahead of rank 0's metadata inserts.
    sdm.comm.barrier()
    sdm._close_level_1(fname)
    return fname
