"""Guard the two resolve-once memos of the read path, host speed
cancelled out.

A checkpoint loop reads through one data view again and again, and two
answers do not change between those reads: the chunked read's
resolution (:class:`repro.core.datapath._ReadPlan`, kept beside the
index blocks it came from) and the canonical view's flattened filetype
(kept on the ``Datatype`` by :mod:`repro.mpiio.view`).  Both sides of
each memo are timed in this process, best-of-N, and only their *ratio*
is held, at ``bulk_datapath``'s shape — 1 M DOUBLE elements in 4 indexed
chunks, one rank's 250 k wanted elements:

* **plan** — applying a kept plan (rebase, extraction) must beat
  resolving it (``_chunk_positions`` plus the sorted unique positions
  and the extraction index) by ``PLAN_MIN_SPEEDUP``, for the rank's own
  map (extraction is the identity) and for a foreign one (it is not);
* **filetype** — a ``FileView`` over a memoised filetype must be built
  ``VIEW_MIN_SPEEDUP`` times faster than over a fresh one.

Run directly (no JSON input; seconds)::

    python benchmarks/perfcheck_plans.py
"""

import sys
import timeit

import numpy as np

from repro.core.datapath import _live_chunks, _read_plan
from repro.core.groups import DataView
from repro.dtypes import DOUBLE, IndexedBlock
from repro.metadb.schema import CHUNK_INDEX_BYTES, ChunkRecord
from repro.mpiio.view import FileView

PLAN_MIN_SPEEDUP = 3.0
VIEW_MIN_SPEEDUP = 10.0
ELEMENTS = 1_000_000
CHUNKS = 4


def best_us(fn, *args, seconds=0.2, repeat=5):
    """Best-of-``repeat`` microseconds per call."""
    timer = timeit.Timer(lambda: fn(*args))
    number = max(1, int(seconds / max(timer.timeit(1), 1e-7)))
    return min(timer.repeat(repeat, number)) / number * 1e6


def bulk_instance(rng):
    """``bulk_datapath``'s chunked instance: sorted slices of one
    permutation, each chunk an index block followed by its data."""
    perm = rng.permutation(ELEMENTS)
    maps = [np.sort(m).astype(np.int64) for m in np.split(perm, CHUNKS)]
    chunks, blocks, cursor = [], {}, 0
    for rank, m in enumerate(maps):
        ch = ChunkRecord(rank, int(m[0]), int(m[-1]), len(m), cursor,
                         cursor + len(m) * CHUNK_INDEX_BYTES)
        chunks.append(ch)
        blocks[ch.block] = m
        cursor = ch.data_offset + len(m) * DOUBLE.size
    return maps, chunks, blocks


def resolve(view, chunks, blocks):
    live = _live_chunks(chunks, view.map_sorted)
    return _read_plan(view, live, blocks, DOUBLE.size, live[0].data_offset)


def apply(plan, base, elems):
    """A plan hit's host work around the read: rebase, then extract."""
    upos = plan.rel + base
    if plan.take is not None:
        elems = elems.take(plan.take)
    if plan.present is None:
        return upos, elems
    out = np.zeros(len(plan.view.map_sorted), dtype=elems.dtype)
    out[plan.present] = elems
    return upos, out


def main() -> int:
    rng = np.random.default_rng(23)
    maps, chunks, blocks = bulk_instance(rng)
    failures = []

    foreign = rng.choice(ELEMENTS, ELEMENTS // CHUNKS, replace=False)
    for name, wanted in (("own map", maps[0]), ("foreign map", foreign)):
        view = DataView.from_map(wanted)
        plan = resolve(view, chunks, blocks)
        elems = rng.standard_normal(len(plan.rel))
        cold = best_us(resolve, view, chunks, blocks)
        warm = best_us(apply, plan, chunks[0].data_offset, elems)
        ratio = cold / warm
        ok = ratio >= PLAN_MIN_SPEEDUP
        print(f"perfcheck: plan, {name} ({len(wanted)} of {ELEMENTS}): "
              f"resolve {cold / 1e3:.2f} ms, apply {warm / 1e3:.2f} ms, "
              f"{ratio:.1f}x (min {PLAN_MIN_SPEEDUP}x) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"applying a plan ({name}) is only "
                            f"{ratio:.1f}x faster than resolving it")

    view = DataView.from_map(maps[0])
    kept = view.filetype(DOUBLE)
    FileView(0, DOUBLE, kept)
    fresh = best_us(lambda: FileView(
        0, DOUBLE, IndexedBlock(1, view.map_sorted, DOUBLE)))
    memo = best_us(lambda: FileView(0, DOUBLE, kept))
    ratio = fresh / memo
    ok = ratio >= VIEW_MIN_SPEEDUP
    print(f"perfcheck: FileView over {len(maps[0])} runs: fresh filetype "
          f"{fresh / 1e3:.2f} ms, memoised {memo:.1f} us, {ratio:.0f}x "
          f"(min {VIEW_MIN_SPEEDUP}x) {'ok' if ok else 'FAIL'}")
    if not ok:
        failures.append(f"a memoised filetype builds its FileView only "
                        f"{ratio:.1f}x faster than a fresh one")

    for f in failures:
        print(f"perfcheck: FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print("perfcheck: read plans and filetype tiles hold their ratios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
