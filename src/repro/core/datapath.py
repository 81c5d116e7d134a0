"""The storage orders: the write/read data path behind ``SDM``.

The paper's key observation for irregular applications is that the runtime
may write each rank's data *in the order it is distributed* and defer
assembling global order until somebody needs it.  ``SDM.write`` picks one
of two write functions by its storage-order name:

* :func:`write_canonical` — the classic path: every write scatters through
  an irregular file view and the two-phase collective exchange builds
  global element order on disk immediately.  Writes pay the exchange;
  reads are cheap.
* :func:`write_chunked` — the write-optimized path: every rank appends its
  local block as-is (a sorted int64 index block, then the data block) with
  *independent* I/O — no interprocess data exchange whatsoever.  Each
  chunk's location and global-index range is recorded in the metadata
  database's ``chunk_table``.

Reads are transparent across both: :func:`locate_instance` returns the
``execution_table`` row plus any chunk maps, and :func:`read_instance`
either takes the canonical fast path or runs the chunked read pipeline:

1. **resolve** — :func:`acquire_index_blocks` acquires every index
   block the wanted range touches in one pass (cache hits, then the
   collective dealing round or one batched fetch), and the pure
   :func:`_chunk_positions` turns the wanted global indices into absolute
   file byte positions against all chunk maps, walked in ascending
   writer rank so that a later chunk's hits overwrite an earlier one's —
   the two-phase overlap rule (highest writing rank wins), with no sort.
   A wanted set dense in its range (a rank's share of a bulk read) is
   resolved by direct addressing: one position table over the range,
   each chunk's gids there assigned into it — an indexed chunk's block
   slice, an arithmetic chunk's (constant-stride map, ``index_offset ==
   data_offset``) one strided slice — and read back at the wanted gids.
   A sparse set (a catalog viewer's few gids) probes each chunk instead,
   without allocating over the range.  The unique positions are merged
   at gap 0 into byte runs;
2. **read** — one collective ``File.read_runs_at_all`` takes those
   runs (one for a rank reading back its own chunk) and returns the
   elements' bytes in position order; a vectorized scatter puts them
   back in view order.

Step 1's host work is done once per data view and chunk layout: the
merged runs (relative to the first live chunk's data) and the
extraction index are a read plan, kept in the rank's
:class:`IndexBlockCache` beside the blocks it was resolved from.  A
checkpoint loop's next timestep shares those blocks, so its read is the
plan's runs plus one base offset, O(runs) host work.  Block acquisition
still runs on every read, which keeps the collectives and index traffic
independent of what is cached.

Bridging holes is the file's job, not this module's: :class:`~repro.
mpiio.file.File` resolves the ``coalesce_gap`` hint over the runs it is
handed — a gap-0 merge leaves its holes and payload as they were —
bridges holes up to the gap (read and discarded, the data-sieving trade)
and extracts the requested bytes again (``docs/datapath.md``, "The run
list").  The batched independent reads here (index blocks, reorganize's
and compaction's gathers) go through ``File.read_runs``, the same
pipeline over data sieving.

:func:`execute_reorganize` converts a chunked instance into canonical order —
reading the chunk maps, performing the deferred exchange exactly once,
and publishing the repointed ``execution_table`` row as a new epoch
(closing the chunked row versions) — so the write-time savings need not
be paid back on every subsequent read.

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
for as long as the reference lives.

Overlapping chunks (ghost-inclusive map arrays) resolve to the highest
writing rank, matching the two-phase exchange's overlap rule.

Hosts, caches and flips
-----------------------

Everything here runs on a :class:`DatapathHost`, the one datapath
client — :class:`~repro.core.api.SDM`, :class:`~repro.core.catalog.
SDMCatalog`, a maintenance worker's per-job host — and every host
carries the job's :class:`~repro.core.maintenance.MaintenanceService`,
which is always present.

Chunked index blocks are cached in one store per host, its
:class:`IndexBlockCache`: a rank-local LRU keyed by the owning execution
row's version, so a warm checkpoint loop reads data bytes only, with the
read plans beside its blocks and the write side's last written block per
dataset (reference-not-copy sharing).  It obeys one rule,
``drop(file, lo, hi)``: forget every block, plan or written block whose
bytes overlap ``[lo, hi)``.  Hosts register their cache in the job's
:class:`ChunkedCaches` (carried by the maintenance service) until they
close, and every invalidation is job-wide through it: a flip publish
drops the file, an append at a retreated cursor drops everything above
the cursor, a first-fit reuse drops the recycled range.

:func:`execute_reorganize` (the deferred exchange) and
:func:`compact_chunked_file` (pack a ``.chunked`` file's live chunks,
two-phase read-then-write so any overlap is safe) are MVCC publishes
driven by :class:`repro.core.mvcc.Flip` (``docs/concurrency.md``, "The
flip protocol"): readers that pinned an epoch keep resolving against
their snapshot's row versions and byte regions, and
``SDMTables.reap_file`` turns a reaped interior region into a free extent
(a topmost one retreats the append cursor).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.catalog import collective
from repro.core.groups import DataGroup, DatasetAttrs, DataView
from repro.core.layout import (
    CANONICAL,
    CHUNKED,
    Organization,
    checkpoint_file_name,
    is_chunked_name,
)
from repro.dtypes.primitives import Primitive, primitive_by_name
from repro.core.mvcc import Flip, SnapshotPin
from repro.errors import SDMStateError, SDMUnknownDataset
from repro.metadb.schema import CHUNK_INDEX_BYTES, ChunkRecord, SDMTables
from repro.mpi.communicator import Communicator
from repro.mpiio import runs
from repro.mpiio.consts import MODE_CREATE, MODE_RDONLY, MODE_RDWR
from repro.mpiio.file import File

__all__ = [
    "ChunkedCaches",
    "DatapathHost",
    "IndexBlockCache",
    "write_canonical",
    "write_chunked",
    "acquire_index_blocks",
    "locate_instance",
    "read_instance",
    "set_instance_view",
    "execute_reorganize",
    "compact_chunked_file",
]

ExecutionRow = Tuple[str, int, int]
"""(file_name, file_offset, nbytes) from ``execution_table``."""


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
def _next_append_base(sdm, fname: str) -> int:
    """Next append offset in a checkpoint file (0 under level 1, else the
    end-of-file probe through ``execution_table``, broadcast from rank 0)."""
    if sdm.organization == Organization.LEVEL_1:
        return 0
    base = 0
    if sdm.comm.rank == 0:
        base = sdm.tables.max_offset_in_file(fname, proc=sdm.comm.proc)
    return sdm.comm.bcast(base, root=0)


_INDEX_CACHE_BLOCKS = 64
"""Index blocks an :class:`IndexBlockCache` keeps (LRU beyond this)."""

_INDEX_CACHE_PLANS = 8
"""Read plans an :class:`IndexBlockCache` keeps (LRU beyond this)."""


def _overlaps(start: int, end: int, lo: int, hi: Optional[int]) -> bool:
    """Do the bytes ``[start, end)`` overlap ``[lo, hi)`` (``hi=None``:
    to the end of the file)?  The one invalidation rule of every entry of
    an :class:`IndexBlockCache`."""
    return end > lo and (hi is None or start < hi)


class _ReadPlan(NamedTuple):
    """One data view's resolution of a chunked instance, relative to the
    first live chunk's ``data_offset`` (the *base*): what
    :func:`_assemble_chunked` derives from the chunk maps and index
    blocks, so a read with the same chunk layout at another base is
    ``rel + base``, one ``read_runs_at_all`` and one ``take``."""

    view: DataView
    """The one view the plan is served to (its map is read-only)."""
    rel: np.ndarray
    rlen: np.ndarray
    """The wanted elements' sorted unique file positions as maximal byte
    runs (merged at gap 0, so no hole is bridged), offsets minus base —
    O(runs), one run for a rank reading back its own chunk."""
    present: Optional[np.ndarray]
    """Which wanted elements some chunk holds (None: all of them)."""
    take: Optional[np.ndarray]
    """Index into ``rel`` of each present element (None: identity)."""
    lo: int
    hi: int
    """The bytes ``[lo, hi)`` the plan was resolved from — index blocks
    and data blocks — which :meth:`IndexBlockCache.drop` tests (empty
    when no chunk is live: that plan depends on no byte of the file)."""


class IndexBlockCache:
    """Rank-local LRU cache of chunked index blocks, of the read plans
    resolved from them, and of the write side's last written blocks.

    Assembling a chunked read fetches every overlapping chunk's index
    block from the file — as many bytes as the data itself for irregular
    maps.  Checkpoint loops reference the same blocks across timesteps
    (the write side's reference-not-copy sharing), so a small per-rank
    cache of hot blocks removes those fetches from every warm read.

    Cached blocks are stored as private read-only copies and handed out
    with ``writeable=False``: a caller mutating a block it fetched (or the
    array it inserted) cannot silently corrupt what later reads resolve
    their positions against.

    Entries are keyed by ``(file_name, index_offset, version)`` where
    ``version`` is the owning execution row's ``valid_from`` epoch.  A
    flip that relocates blocks publishes new row versions, so its readers
    look up fresh keys and can never be served a stale block — while a
    reader pinned on an old epoch keeps hitting its own still-valid
    entries.  Checkpoint loops share blocks across timesteps at the same
    version (fresh appends are all version 0), preserving the warm-read
    fast path — which is also why version-0 keys can be recycled, and
    why the job's :class:`ChunkedCaches` calls :meth:`drop` whenever
    bytes are moved, freed or rewritten.

    Beside the blocks sit up to :data:`_INDEX_CACHE_PLANS` read plans
    (:class:`_ReadPlan`, read-only arrays), each keyed by the file, the
    version, the element size and every live chunk's layout relative to
    the base — so timestep *t + 1* over a shared index block hits the
    plan timestep *t* built — and served only to the data view that built
    it.  :meth:`drop` forgets a plan with its bytes, so a read after any
    invalidation resolves afresh.

    The write side keeps, per ``(file, group_id, dataset)``, the rank's
    last written index block as ``(gids, index_offset, index_end)`` —
    ``gids`` the writing view's own read-only map, kept by reference and
    unbounded (one entry per dataset written) — so a rank whose map is
    unchanged references that block instead of rewriting it
    (:meth:`shared_index`).  :meth:`drop` forgets these with their bytes
    too.

    Every entry of the three maps is keyed by its file name first, and
    the cache counts them per file, so a :meth:`drop` of a file it holds
    nothing of (most drops: every host's cache hears of every file)
    returns without walking them.
    """

    def __init__(self) -> None:
        self._blocks: "OrderedDict[Tuple[str, int, int], np.ndarray]" = (
            OrderedDict()
        )
        self._plans: "OrderedDict[tuple, _ReadPlan]" = OrderedDict()
        self._written: Dict[tuple, Tuple[np.ndarray, int, int]] = {}
        self._entries: Dict[str, int] = {}
        """Entries of each file across the three maps."""
        self.hits = 0
        self.misses = 0

    def _add(self, entries: dict, key: tuple, value) -> None:
        """``entries[key] = value``, counting a new key for its file."""
        if key not in entries:
            self._entries[key[0]] = self._entries.get(key[0], 0) + 1
        entries[key] = value

    def _forget(self, key: tuple) -> None:
        """Uncount an entry just removed from one of the maps."""
        left = self._entries[key[0]] - 1
        if left:
            self._entries[key[0]] = left
        else:
            del self._entries[key[0]]

    def get(
        self, file_name: str, offset: int, count: int, version: int = 0
    ) -> Optional[np.ndarray]:
        """The cached gid block at ``(file_name, offset, version)``, or
        None.

        The returned array is read-only.  A length mismatch (a different
        block landed at a recycled offset) is treated as a miss; the
        fetch that follows replaces the entry.
        """
        key = (file_name, offset, version)
        gids = self._blocks.get(key)
        if gids is None or len(gids) != count:
            self.misses += 1
            return None
        self._blocks.move_to_end(key)
        self.hits += 1
        return gids

    def contains(
        self, file_name: str, offset: int, count: int, version: int = 0
    ) -> bool:
        """Non-counting peek: would :meth:`get` hit?  Does not touch the
        hit/miss counters or the LRU order — the collective resolution
        gate asks this before deciding whether any rank needs the block
        exchange at all."""
        gids = self._blocks.get((file_name, offset, version))
        return gids is not None and len(gids) == count

    def put(
        self, file_name: str, offset: int, gids: np.ndarray, version: int = 0
    ) -> np.ndarray:
        """Remember a fetched block (evicts LRU beyond
        :data:`_INDEX_CACHE_BLOCKS`).

        The cache keeps a private read-only copy — later mutation of the
        caller's array cannot reach it — and returns that copy, which is
        what :meth:`get` will serve.
        """
        gids = np.asarray(gids)
        if gids.flags.writeable:
            gids = gids.copy()
        gids.setflags(write=False)
        key = (file_name, offset, version)
        self._add(self._blocks, key, gids)
        self._blocks.move_to_end(key)
        if len(self._blocks) > _INDEX_CACHE_BLOCKS:
            self._forget(self._blocks.popitem(last=False)[0])
        return gids

    def plan(self, key: tuple, view: DataView) -> Optional[_ReadPlan]:
        """The plan kept under ``key`` if ``view`` built it, else None."""
        plan = self._plans.get(key)
        if plan is None or plan.view is not view:
            return None
        self._plans.move_to_end(key)
        return plan

    def keep_plan(self, key: tuple, plan: _ReadPlan) -> None:
        """Remember a plan (evicts LRU beyond :data:`_INDEX_CACHE_PLANS`);
        ``key[0]`` is its file name."""
        self._add(self._plans, key, plan)
        self._plans.move_to_end(key)
        if len(self._plans) > _INDEX_CACHE_PLANS:
            self._forget(self._plans.popitem(last=False)[0])

    def shared_index(self, key: tuple, gids: np.ndarray,
                     base: int) -> Optional[int]:
        """Offset of the last block written under ``key`` if a write at
        ``base`` may reference it, else None.

        Reuse requires an equal map and the block to lie below this
        instance's base: the new chunk row then protects it from
        append-cursor reclamation for as long as the row lives (see the
        module docstring).
        """
        written = self._written.get(key)
        if written is None:
            return None
        prev_gids, offset, end = written
        if end <= base and np.array_equal(prev_gids, gids):
            return offset
        return None

    def keep_written(self, key: tuple, gids: np.ndarray, offset: int,
                     end: int) -> None:
        """Remember the block ``[offset, end)`` just written under ``key``
        (``(file_name, group_id, dataset)``) with its map ``gids``."""
        self._add(self._written, key, (gids, offset, end))

    def drop(self, file_name: str, lo: int = 0,
             hi: Optional[int] = None) -> None:
        """Forget every block, plan and written block of ``file_name``
        whose bytes overlap ``[lo, hi)`` (default: the whole file).
        Touches neither the hit/miss counters nor the LRU order of
        survivors."""
        if file_name not in self._entries:
            return
        for k in [
            k for k, g in self._blocks.items()
            if k[0] == file_name
            and _overlaps(k[1], k[1] + len(g) * CHUNK_INDEX_BYTES, lo, hi)
        ]:
            del self._blocks[k]
            self._forget(k)
        for k in [
            k for k, p in self._plans.items()
            if k[0] == file_name and _overlaps(p.lo, p.hi, lo, hi)
        ]:
            del self._plans[k]
            self._forget(k)
        for k in [
            k for k, (_g, off, end) in self._written.items()
            if k[0] == file_name and _overlaps(off, end, lo, hi)
        ]:
            del self._written[k]
            self._forget(k)


class ChunkedCaches:
    """Every host's :class:`IndexBlockCache` in one job, so whoever
    moves, frees or recycles a file's bytes invalidates them all.  The
    job's maintenance service carries the one registry."""

    def __init__(self) -> None:
        self._caches: List[IndexBlockCache] = []

    def register(self, cache: IndexBlockCache) -> None:
        """Add a host's cache."""
        self._caches.append(cache)

    def unregister(self, cache: IndexBlockCache) -> None:
        """Forget what a finished host registered (its
        :meth:`DatapathHost.close`): the registry outlives every client of
        the job, so without this it would keep each one's blocks alive
        and walk them on every later drop.  Idempotent."""
        if cache in self._caches:
            self._caches.remove(cache)

    def drop(self, file_name: str, lo: int = 0,
             hi: Optional[int] = None) -> None:
        """Every registered cache forgets the entries of ``file_name``
        overlapping ``[lo, hi)`` (default: the whole file)."""
        for cache in self._caches:
            cache.drop(file_name, lo, hi)


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
    if sdm.organization == Organization.LEVEL_1:
        sdm._close_cached(fname)
    return fname


def write_chunked(sdm, handle: DataGroup, attrs: DatasetAttrs,
                  view: DataView, name: str, timestep: int,
                  buf: np.ndarray) -> str:
    """Write one instance in distribution order (the exchange is deferred
    to reads, or a one-time :func:`execute_reorganize`); returns the file
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
    if sdm.organization == Organization.LEVEL_1:
        sdm._close_cached(fname)
    return fname


# ---------------------------------------------------------------------------
# Reading (transparent across storage orders)
# ---------------------------------------------------------------------------


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


def _arithmetic_gids(ch: ChunkRecord) -> np.ndarray:
    """The gid progression of an arithmetic chunk (which stores no index
    block: ``index_offset == data_offset``)."""
    return np.arange(
        ch.gid_min, ch.gid_max + 1, max(ch.gid_step, 1), dtype=np.int64
    )


def _split_extents(raw: np.ndarray, lens: np.ndarray) -> List[np.ndarray]:
    """One batched ``File.read_runs`` result, cut back into its extents."""
    return np.split(raw, np.cumsum(lens)[:-1])


def _fetch_index_blocks(
    f: File,
    keys: Sequence[Tuple[int, int]],
    cache: IndexBlockCache,
    version: int = 0,
) -> Dict[Tuple[int, int], np.ndarray]:
    """Index blocks by ``(index_offset, num_elements)`` key.

    Cache hits are resolved first; every miss lands in a single
    ``read_runs`` call (tagged ``kind="index"`` for the traffic split,
    which the file zero-gap coalesces) — adjacent blocks (back-to-back
    writer ranks) become one streaming transfer instead of a serial
    chain of per-chunk requests.
    """
    out: Dict[Tuple[int, int], np.ndarray] = {}
    need: List[Tuple[int, int]] = []
    for key in keys:
        if key in out or key in need:
            continue
        gids = cache.get(f.name, key[0], key[1], version)
        if gids is None:
            need.append(key)
        else:
            out[key] = gids
    if not need:
        return out
    need.sort()
    offs = np.array([o for o, _ in need], dtype=np.int64)
    lens = np.array([n * CHUNK_INDEX_BYTES for _, n in need], dtype=np.int64)
    parts = _split_extents(f.read_runs(offs, lens, kind="index"), lens)
    for key, part in zip(need, parts):
        out[key] = cache.put(f.name, key[0], part.view(np.int64), version)
    return out


def _live_chunks(
    chunks: Sequence[ChunkRecord], wanted: np.ndarray
) -> List[ChunkRecord]:
    """The non-empty chunks overlapping the sorted ``wanted`` range, in
    ascending writer rank."""
    if len(wanted) == 0:
        return []
    lo, hi = int(wanted[0]), int(wanted[-1])
    return [
        ch for ch in sorted(chunks, key=lambda c: c.rank)
        if ch.num_elements and ch.gid_max >= lo and ch.gid_min <= hi
    ]


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


def _chunk_positions(
    chunks: Sequence[ChunkRecord],
    blocks: Dict[Tuple[int, int], np.ndarray],
    esize: int,
    wanted: np.ndarray,
) -> np.ndarray:
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


def _table_positions(
    live: Sequence[ChunkRecord],
    blocks: Dict[Tuple[int, int], np.ndarray],
    esize: int,
    wanted: np.ndarray,
) -> np.ndarray:
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


def _probe_positions(
    live: Sequence[ChunkRecord],
    blocks: Dict[Tuple[int, int], np.ndarray],
    esize: int,
    wanted: np.ndarray,
) -> np.ndarray:
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
def acquire_index_blocks(
    comm: Communicator,
    f: File,
    chunks: Sequence[ChunkRecord],
    wanted: np.ndarray,
    cache: IndexBlockCache,
    version: int = 0,
) -> Dict[Tuple[int, int], np.ndarray]:
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
    blocks: Dict[Tuple[int, int], np.ndarray] = {}
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


def _deal_index_blocks(
    comm: Communicator,
    f: File,
    all_keys: Sequence[Tuple[int, int]],
    missing: Sequence[Tuple[int, int]],
    cache: IndexBlockCache,
    version: int,
) -> Dict[Tuple[int, int], np.ndarray]:
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
    got: Dict[Tuple[int, int], np.ndarray] = {}
    for dest, req in enumerate(sends):
        if not req:
            continue
        for key, gids in zip(req, back[dest]):
            got[key] = cache.put(f.name, key[0], gids, version)
    return got


def _assemble_chunked(
    comm: Communicator,
    f: File,
    chunks: Sequence[ChunkRecord],
    dtype: Primitive,
    view: DataView,
    cache: IndexBlockCache,
    version: int = 0,
) -> np.ndarray:
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
    :class:`_ReadPlan`, kept in ``cache`` and reused while the live
    chunks keep their layout relative to the first one's data."""
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


def _read_plan(
    view: DataView,
    live: Sequence[ChunkRecord],
    blocks: Dict[Tuple[int, int], np.ndarray],
    esize: int,
    base: int,
) -> _ReadPlan:
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


# ---------------------------------------------------------------------------
# Reorganization (chunked -> canonical, the deferred exchange)
# ---------------------------------------------------------------------------


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
        val_parts: List[np.ndarray] = []
        if mine:
            # ... and one coalesced request streams all their data blocks
            # (adjacent chunks merge; holes up to the hint are bridged).
            offs = np.array([ch.data_offset for ch in mine], dtype=np.int64)
            lens = np.array(
                [ch.num_elements * dtype.size for ch in mine], dtype=np.int64
            )
            by_off = np.argsort(offs, kind="stable")
            pieces = _split_extents(
                src.read_runs(offs[by_off], lens[by_off]), lens[by_off]
            )
            val_parts = [np.empty(0, dtype=dtype.numpy_dtype)] * len(mine)
            for k, i in enumerate(by_off):
                val_parts[int(i)] = pieces[k].view(dtype.numpy_dtype)
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
    if host.organization == Organization.LEVEL_1:
        host._close_cached(old_fname)
        host._close_cached(new_fname)
    return new_fname


# ---------------------------------------------------------------------------
# Compaction (slide live chunks down over dead extents)
# ---------------------------------------------------------------------------


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
        parts: List[np.ndarray] = []
        if mine:
            src = np.array([m[0] for m in mine], dtype=np.int64)
            lens = np.array([m[1] for m in mine], dtype=np.int64)
            parts = _split_extents(f.read_runs(src, lens), lens)
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
    if host.organization == Organization.LEVEL_1:
        host._close_cached(file_name)
    return {
        "before": plan.get("before", 0),
        "after": plan["new_size"],
        "moved_bytes": sum(n for _s, n, _d in moves),
    }
