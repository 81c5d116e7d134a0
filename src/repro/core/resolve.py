"""The read path: locate an instance and read a rank's view of it,
transparently across both storage orders.

:func:`locate_instance` returns an instance's ``execution_table`` row
plus any chunk maps; :func:`read_instance` reads a canonical instance
through one indexed file view (:func:`set_instance_view`) and a chunked
one in two steps.  *Resolve*: :func:`acquire_index_blocks` gets every
index block the wanted range touches in one collective pass, and
:func:`_chunk_positions` turns the wanted gids into file byte positions,
the highest writing rank winning an overlap as in the two-phase
exchange.  *Read*: the positions, merged at gap 0 into byte runs, go to
one ``File.read_runs_at_all``, which bridges holes up to its
``coalesce_gap`` hint (``docs/datapath.md``, "The run list").  The
resolution is a read plan kept in the host's
:class:`~repro.core.caches.IndexBlockCache`, so a checkpoint loop's next
timestep reads at the plan's runs plus one base offset; block
acquisition runs on every read, which keeps the collectives and index
traffic independent of what is cached.  Every batched independent read
of byte extents — index blocks here, reorganize's and compaction's
gathers — is one :func:`read_extents`.

The tests pin: every durably recorded instance reads back byte-identical
in either order, at any rank count, cold or warm; elements no chunk holds
read as 0; the table and probe paths resolve the same positions; a kept
plan is reused only by the view that built it; and a cold read fetches
each index block once job-wide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.catalog import collective
from repro.core.caches import IndexBlockCache, _ReadPlan
from repro.core.groups import DataView
from repro.core.layout import is_chunked_name
from repro.dtypes.primitives import Primitive
from repro.errors import SDMUnknownDataset
from repro.metadb.schema import CHUNK_INDEX_BYTES, ChunkRecord, SDMTables
from repro.mpi.communicator import Communicator
from repro.mpiio import runs
from repro.mpiio.file import File

__all__ = ["set_instance_view", "locate_instance", "read_instance",
           "acquire_index_blocks", "read_extents"]

ExecutionRow = Tuple[str, int, int]
"""(file_name, file_offset, nbytes) from ``execution_table``."""

Blocks = Dict[Tuple[int, int], np.ndarray]
"""Index blocks' gids by ``(index_offset, num_elements)`` key — the
:attr:`ChunkRecord.block` of the chunks storing them."""


def set_instance_view(f: File, base: int, dtype: Primitive,
                      view: DataView) -> None:
    """Install the irregular view of one canonical instance: element ``g``
    of the global array at ``base + g * esize``, through the data view's
    filetype (:meth:`DataView.filetype` — built and lowered once per
    view, however many reads and writes install it).  An empty map gets a
    dense view — the rank still participates in the collective with zero
    bytes."""
    f.set_view(disp=base, etype=dtype, filetype=view.filetype(dtype))


@collective(uniform_result=True)
def locate_instance(
    comm: Communicator,
    tables: SDMTables,
    runid: int,
    dataset: str,
    timestep: int,
    epoch: Optional[int] = None,
) -> Tuple[ExecutionRow, List[ChunkRecord], int]:
    """Metadata of one written instance, broadcast from rank 0's lookup
    (billed to ``comm.proc``): the ``execution_table`` row, its chunk
    maps (empty for a canonical instance), and the matched row's version
    (``valid_from`` — the index-block cache key component).  An instance
    never written raises :class:`~repro.errors.SDMUnknownDataset` on
    every rank.

    ``epoch=None`` resolves current visibility (open row versions — still
    one metadata probe for a canonical instance); a pinned reader passes
    its snapshot epoch.  Chunk maps are always resolved at the matched
    execution row's own version, which keeps the pair consistent even
    inside another client's publish window."""
    info = None
    proc = comm.proc
    if comm.rank == 0:
        row = tables.lookup_execution_version(
            runid, dataset, timestep, epoch=epoch, proc=proc
        )
        where: Optional[ExecutionRow] = None
        chunks: List[ChunkRecord] = []
        version = 0
        if row is not None:
            where = (row[0], row[1], row[2])
            version = row[3]
            # Canonical file names never hold chunked instances, so the
            # canonical read path stays a single metadata probe.
            if is_chunked_name(where[0]):
                chunks = tables.chunks_for(
                    runid, dataset, timestep, proc=proc, at=version
                )
        info = (where, chunks, version)
    info = comm.bcast(info, root=0)
    if info[0] is None:
        raise SDMUnknownDataset(
            f"no execution record for run {runid} dataset {dataset!r} "
            f"timestep {timestep}"
        )
    return info


@collective
def read_instance(
    comm: Communicator,
    f: File,
    where: ExecutionRow,
    chunks: Sequence[ChunkRecord],
    dtype: Primitive,
    view: DataView,
    cache: IndexBlockCache,
    version: int = 0,
) -> np.ndarray:
    """Collectively read this rank's view of one instance (either
    representation); returns the elements in the view's user order.
    ``cache`` serves repeat index-block fetches (and read plans) of
    chunked instances without touching the file; ``version`` (the
    located execution row's ``valid_from``) scopes its keys to the
    snapshot the chunk maps came from."""
    if chunks:
        return _assemble_chunked(comm, f, chunks, dtype, view, cache, version)
    _fname, base, _nbytes = where
    set_instance_view(f, base, dtype, view)
    out = np.empty(view.local_count, dtype=dtype.numpy_dtype)
    f.read_at_all(0, out)
    return view.to_user_order(out)


def read_extents(f: File, offs: Sequence[int], lens: Sequence[int],
                 kind: str = "data") -> List[np.ndarray]:
    """The bytes of each extent ``(offs[i], lens[i])``, in the caller's
    order, from one batched ``File.read_runs`` over the extents sorted by
    offset (which the file zero-gap coalesces, so adjacent extents stream
    as one transfer); no request at all for no extent."""
    if not len(offs):
        return []
    offs = np.asarray(offs, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    order = np.lexsort((lens, offs))
    raw = f.read_runs(offs[order], lens[order], kind=kind)
    out: List[np.ndarray] = [None] * len(order)
    for i, part in zip(order, np.split(raw, np.cumsum(lens[order])[:-1])):
        out[i] = part
    return out


def _fetch_index_blocks(f: File, keys: Sequence[Tuple[int, int]],
                        cache: IndexBlockCache, version: int = 0) -> Blocks:
    """Index blocks by ``(index_offset, num_elements)`` key.

    Cache hits are resolved first; every miss lands in one
    :func:`read_extents` (tagged ``kind="index"`` for the traffic split)
    — adjacent blocks (back-to-back writer ranks) become one streaming
    transfer instead of a serial chain of per-chunk requests.
    """
    out: Blocks = {}
    need: List[Tuple[int, int]] = []
    for key in keys:
        if key in out or key in need:
            continue
        gids = cache.get(f.name, key[0], key[1], version)
        if gids is None:
            need.append(key)
        else:
            out[key] = gids
    need.sort()
    parts = read_extents(f, [o for o, _ in need],
                         [n * CHUNK_INDEX_BYTES for _, n in need], "index")
    for key, part in zip(need, parts):
        out[key] = cache.put(f.name, key[0], part.view(np.int64), version)
    return out


def _live_chunks(chunks: Sequence[ChunkRecord],
                 wanted: np.ndarray) -> List[ChunkRecord]:
    """The non-empty chunks overlapping the sorted ``wanted`` range, in
    ascending writer rank."""
    if len(wanted) == 0:
        return []
    lo, hi = int(wanted[0]), int(wanted[-1])
    return [
        ch for ch in sorted(chunks, key=lambda c: c.rank)
        if ch.num_elements and ch.gid_max >= lo and ch.gid_min <= hi
    ]


# How a chunked read turns wanted gids into file positions, by how thinly
# the wanted set covers its range (its *spread*: range / wanted gids).  A
# dense set gets one position table over the range, each chunk's hits
# assigned into it and the wanted gids read back out (``table``); a
# sparse one probes each chunk (``probe``).  Set once from the sweep
# ``benchmarks/perfcheck_plans.py`` prints (ms per resolution of a
# 1 M-gid range split over ``chunks`` indexed chunks, the wanted gids
# drawn from it):
#
#     chunks  spread   probe   table
#          1       4   16.91   10.33
#          1       8    9.56    9.15
#          1      16    5.52    8.79
#          1      32    3.28    8.03
#          1    1000    0.28    7.20
#          4       4   49.02    6.97
#          4       8   29.00    7.49
#          4      16   17.53    7.39
#          4      32    9.26    5.67
#          4     100    3.00    6.31
#         16       8   50.70   11.36
#         16      32   25.07   10.69
#         16     100    8.57    8.44
#         16    1000    1.59    8.35
#
# The table's cost follows the range, fixed here, so it barely moves with
# the spread; a probe pays per chunk for the smaller of its two in-range
# slices, so the break-even spread grows with the chunk count (~10 at one
# chunk, ~40 at four, ~100 at sixteen).  The cut sits where no chunk
# count loses.
_TABLE_MAX_SPREAD = 8
"""Spread (range / wanted gids) up to which the table path runs.  The
table then holds at most this many entries per wanted gid, 8 B each:
8 MB for ``bulk_datapath``'s 250 000 of 1 000 000 gids, which sit at a
spread of 4 (half the cut).  A 1 000-gid viewer over 10^9 gids never
builds one."""


def _chunk_positions(chunks: Sequence[ChunkRecord], blocks: Blocks,
                     esize: int, wanted: np.ndarray) -> np.ndarray:
    """Absolute file byte position of each wanted global index, resolved
    against the chunk maps (-1 where no chunk holds it).  Pure: ``blocks``
    maps every overlapping indexed chunk's :attr:`ChunkRecord.block` to
    its gids.

    The live chunks are walked in ascending writer rank and each one's
    hits are assigned in place, so a later chunk overwrites an earlier
    one — exactly the two-phase exchange's overlap rule (highest writing
    rank wins), with no sort.  Where they are assigned depends on the
    wanted set's spread, its range over its size: up to
    :data:`_TABLE_MAX_SPREAD` into one position table over the range
    (:func:`_table_positions`, O(range)), above it straight into the
    result by probing each chunk (:func:`_probe_positions`, no
    allocation over the range).  A ``wanted`` that repeats a gid is
    resolved on its unique values.
    """
    live = _live_chunks(chunks, wanted)
    if not live:
        return np.full(len(wanted), -1, dtype=np.int64)
    if len(wanted) > 1 and not (wanted[1:] != wanted[:-1]).all():
        uniq, inv = np.unique(wanted, return_inverse=True)
        return _chunk_positions(live, blocks, esize, uniq)[inv]
    span = int(wanted[-1]) - int(wanted[0]) + 1
    if span <= _TABLE_MAX_SPREAD * len(wanted):
        return _table_positions(live, blocks, esize, wanted)
    return _probe_positions(live, blocks, esize, wanted)


def _table_positions(live: Sequence[ChunkRecord], blocks: Blocks,
                     esize: int, wanted: np.ndarray) -> np.ndarray:
    """:func:`_chunk_positions` by direct addressing: one position table
    over ``[wanted[0], wanted[-1]]``, every live chunk's gids in that
    range assigned into it (an indexed chunk by its block's slice, an
    arithmetic one by one strided slice), then read at the wanted gids.
    O(range + chunk gids in range); the table dies with the call."""
    lo, hi = int(wanted[0]), int(wanted[-1])
    table = np.full(hi - lo + 1, -1, dtype=np.int64)
    for ch in live:  # ascending rank: later chunks overwrite earlier ones
        if ch.block is None:
            step = max(ch.gid_step, 1)
            first = max(0, -((ch.gid_min - lo) // step))  # ceil division
            last = (min(hi, ch.gid_max) - ch.gid_min) // step
            if first > last:
                continue
            at = ch.gid_min + first * step - lo
            table[at: at + (last - first) * step + 1: step] = np.arange(
                ch.data_offset + first * esize,
                ch.data_offset + (last + 1) * esize, esize, dtype=np.int64)
            continue
        cidx = blocks[ch.block]
        a = int(np.searchsorted(cidx, lo))
        b = int(np.searchsorted(cidx, hi, side="right"))
        table[cidx[a:b] - lo] = np.arange(
            ch.data_offset + a * esize, ch.data_offset + b * esize, esize,
            dtype=np.int64)
    return table[wanted - lo]


def _probe_positions(live: Sequence[ChunkRecord], blocks: Blocks,
                     esize: int, wanted: np.ndarray) -> np.ndarray:
    """:func:`_chunk_positions` by probing, for a sparse ``wanted``: an
    arithmetic chunk resolves its wanted gids by arithmetic; an indexed
    chunk probes the smaller of two in-range slices into the larger —
    its block's gids inside the wanted range, or the wanted gids inside
    its range (a catalog viewer's few gids) — so each chunk costs
    O(smaller slice · log)."""
    pos = np.full(len(wanted), -1, dtype=np.int64)
    lo, hi = int(wanted[0]), int(wanted[-1])
    for ch in live:  # ascending rank: later chunks overwrite earlier ones
        i = int(np.searchsorted(wanted, ch.gid_min))
        j = int(np.searchsorted(wanted, ch.gid_max, side="right"))
        w, out = wanted[i:j], pos[i:j]  # out is a view: writes land in pos
        if ch.block is None:
            k, r = np.divmod(w - ch.gid_min, max(ch.gid_step, 1))
            out[r == 0] = ch.data_offset + k[r == 0] * esize
            continue
        cidx = blocks[ch.block]
        a = int(np.searchsorted(cidx, lo))
        b = int(np.searchsorted(cidx, hi, side="right"))
        if b - a <= j - i:
            # The block's slice is the smaller: find each of its gids
            # among the wanted ones.
            g = cidx[a:b]
            k = np.searchsorted(w, g)
            hit = np.flatnonzero(w.take(k, mode="clip") == g)
            out[k[hit]] = ch.data_offset + (a + hit) * esize
        else:
            # The wanted slice is the smaller: find each wanted gid in
            # the block.
            k = np.searchsorted(cidx, w)
            hit = cidx.take(k, mode="clip") == w
            out[hit] = ch.data_offset + k[hit] * esize
    return pos


@collective
def acquire_index_blocks(comm: Communicator, f: File,
                         chunks: Sequence[ChunkRecord], wanted: np.ndarray,
                         cache: IndexBlockCache, version: int = 0) -> Blocks:
    """Collective block acquisition: every index block this rank's sorted
    ``wanted`` range touches, by ``(index_offset, num_elements)`` key, in
    one pass — what the pure :func:`_chunk_positions` resolves against.

    On a cold read of a non-arithmetic instance, per-rank fetching would
    make every rank read every overlapping index block, so cold index
    traffic would scale with rank count.  Instead the instance's indexed
    blocks are *dealt* over the ranks by a deterministic block→rank map
    (sorted block keys, position modulo ``comm.size`` — pure uniform
    chunk metadata, so every rank derives the same owners), each rank
    routes the block keys its cache cannot serve to their owners, every
    owner fetches its requested blocks exactly once (one batched
    ``kind="index"`` read), and the blocks travel back over the same
    :meth:`alltoallv` transport the two-phase exchange uses.  Received
    blocks land in the requester's :class:`IndexBlockCache`; an allreduce
    of the ranks' miss counts skips the dealing round entirely when every
    rank is warm (its result is uniform, so the collective structure
    stays SPMD).  Whatever the round did not deliver — cache hits, or
    everything on one rank or an all-arithmetic instance — comes from one
    batched cache-aware local fetch.

    Must be called by every rank of ``comm`` (a rank with an empty
    ``wanted`` participates with empty requests).  The blocks are the
    bytes a purely local fetch would return, so positions resolved
    against them are byte-identical.
    """
    keys = list(dict.fromkeys(
        ch.block for ch in _live_chunks(chunks, wanted) if ch.block
    ))
    blocks: Blocks = {}
    indexed = sorted({ch.block for ch in chunks if ch.block})
    if comm.size > 1 and indexed:
        missing = [
            key for key in keys if not cache.contains(f.name, *key, version)
        ]
        if comm.allreduce(len(missing)) > 0:
            blocks = _deal_index_blocks(
                comm, f, indexed, sorted(missing), cache, version
            )
    blocks.update(_fetch_index_blocks(
        f, [key for key in keys if key not in blocks], cache, version
    ))
    return blocks


def _deal_index_blocks(comm: Communicator, f: File,
                       all_keys: Sequence[Tuple[int, int]],
                       missing: Sequence[Tuple[int, int]],
                       cache: IndexBlockCache, version: int) -> Blocks:
    """The exchange half of :func:`acquire_index_blocks`: route each
    missing block key to its owner rank, owners fetch their requested
    blocks once, and the blocks come back keyed for local resolution."""
    owner = {key: i % comm.size for i, key in enumerate(all_keys)}
    sends: List[Optional[List[Tuple[int, int]]]] = [None] * comm.size
    for key in missing:
        dest = owner[key]
        if sends[dest] is None:
            sends[dest] = []
        sends[dest].append(key)
    recv = comm.alltoallv(sends)
    requested = sorted({
        tuple(key) for req in recv if req for key in req
    })
    blocks = _fetch_index_blocks(f, requested, cache, version)
    replies = [
        [blocks[tuple(key)] for key in req] if req else None
        for req in recv
    ]
    back = comm.alltoallv(replies)
    got: Blocks = {}
    for dest, req in enumerate(sends):
        if not req:
            continue
        for key, gids in zip(req, back[dest]):
            got[key] = cache.put(f.name, key[0], gids, version)
    return got


def _assemble_chunked(comm: Communicator, f: File,
                      chunks: Sequence[ChunkRecord], dtype: Primitive,
                      view: DataView, cache: IndexBlockCache,
                      version: int = 0) -> np.ndarray:
    """Gather this rank's wanted elements out of a chunked instance.

    The chunk maps give each element's file position; the sorted unique
    positions, merged into maximal byte runs, go to one collective
    ``read_runs_at_all`` (the file bridges holes up to its
    ``coalesce_gap`` hint on top), which returns the elements' bytes in
    position order.  Elements no chunk wrote read as 0 — the bytes a
    canonical read of an unwritten region would return.

    Block acquisition runs on every read, so the collectives and the
    index traffic never depend on what a rank has cached.  The rest —
    positions, their merged runs, the extraction index — is the view's
    :class:`~repro.core.caches._ReadPlan`, kept in ``cache`` and reused
    while the live chunks keep their layout relative to the first one's
    data."""
    wanted = view.map_sorted
    blocks = acquire_index_blocks(comm, f, chunks, wanted, cache, version)
    live = _live_chunks(chunks, wanted)
    base = live[0].data_offset if live else 0
    key = (f.name, version, dtype.size, tuple(
        (ch.rank, ch.block, ch.num_elements, ch.gid_min, ch.gid_max,
         ch.gid_step, ch.data_offset - base)
        for ch in live
    ))
    plan = cache.plan(key, view)
    if plan is None:
        plan = _read_plan(view, live, blocks, dtype.size, base)
        cache.keep_plan(key, plan)
    raw = f.read_runs_at_all(plan.rel + base, plan.rlen)
    elems = raw.view(dtype.numpy_dtype)
    if plan.take is not None:
        elems = elems.take(plan.take)
    if plan.present is None:
        return view.to_user_order(elems)
    out = np.zeros(len(wanted), dtype=dtype.numpy_dtype)
    out[plan.present] = elems
    return view.to_user_order(out)


def _read_plan(view: DataView, live: Sequence[ChunkRecord], blocks: Blocks,
               esize: int, base: int) -> _ReadPlan:
    """Resolve ``view`` against its live chunks (:func:`_chunk_positions`)
    into a plan relative to ``base``."""
    pos = _chunk_positions(live, blocks, esize, view.map_sorted)
    present = pos >= 0
    found = pos[present]
    take = None
    if (found[1:] > found[:-1]).all():
        upos = found  # already sorted unique: extraction is the identity
    else:
        # sorted unique positions: one stable sort and a neighbour mask;
        # each position's rank among them scatters back through the order
        order = np.argsort(found, kind="stable")
        upos = found[order]
        keep = np.ones(len(upos), dtype=bool)
        np.not_equal(upos[1:], upos[:-1], out=keep[1:])
        take = np.empty(len(found), dtype=np.intp)
        take[order] = np.cumsum(keep) - 1
        upos = upos[keep]
    rel, rlen = runs.coalesce_runs(
        upos - base, np.full(len(upos), esize, dtype=np.int64)
    )
    present = None if present.all() else present
    for a in (rel, rlen, present, take):
        if a is not None:
            a.setflags(write=False)
    # An index block lies at or below the data of every chunk using it.
    lo = min((ch.index_offset for ch in live), default=0)
    hi = max((ch.data_offset + ch.num_elements * esize for ch in live),
             default=0)
    return _ReadPlan(view, rel, rlen, present, take, lo, hi)
