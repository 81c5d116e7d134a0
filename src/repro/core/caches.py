"""The chunked caches: one rank-local :class:`IndexBlockCache` per
datapath host — index blocks, the read plans resolved from them and the
write side's last written blocks — and the job's :class:`ChunkedCaches`.

Every entry obeys one rule, ``drop(file, lo, hi)``: forget what overlaps
the bytes ``[lo, hi)``.  Hosts register their cache in the job's
:class:`ChunkedCaches` (carried by the maintenance service) until they
close, and every invalidation is job-wide through it: a flip publish
drops the file, an append at a retreated cursor drops everything above
the cursor, a first-fit reuse drops the recycled range.

The tests pin: blocks are served as private read-only copies; at most
:data:`_INDEX_CACHE_BLOCKS` blocks and :data:`_INDEX_CACHE_PLANS` plans
are kept, least recently used evicted first; a plan is served only to
the view that built it; a drop forgets exactly the overlapping entries
of every registered cache, and a closed host's cache is no longer
registered (``docs/datapath.md``, "Chunked caches").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.groups import DataView
from repro.metadb.schema import CHUNK_INDEX_BYTES

__all__ = ["ChunkedCaches", "IndexBlockCache"]

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
    :func:`~repro.core.resolve._assemble_chunked` derives from the chunk
    maps and index blocks, so a read with the same chunk layout at
    another base is ``rel + base``, one ``read_runs_at_all`` and one
    ``take``."""

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
        append-cursor reclamation for as long as the row lives (see
        :mod:`repro.core.write`).
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
        :meth:`~repro.core.host.DatapathHost.close`): the registry
        outlives every client of the job, so without this it would keep
        each one's blocks alive and walk them on every later drop.
        Idempotent."""
        if cache in self._caches:
            self._caches.remove(cache)

    def drop(self, file_name: str, lo: int = 0,
             hi: Optional[int] = None) -> None:
        """Every registered cache forgets the entries of ``file_name``
        overlapping ``[lo, hi)`` (default: the whole file)."""
        for cache in self._caches:
            cache.drop(file_name, lo, hi)
