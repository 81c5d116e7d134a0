"""Guard the resolve-once memos of the read path and the resolution
they memoise, host speed cancelled out.

A checkpoint loop reads through one data view again and again, and two
answers do not change between those reads: the chunked read's
resolution (:class:`repro.core.caches._ReadPlan`, kept beside the
index blocks it came from) and the canonical view's lowered filetype
tile (kept on the ``Datatype`` by :mod:`repro.mpiio.view`).  Both sides
of each comparison are timed in this process, in alternating rounds
(``timing.samples_us``), and only the median per-round *ratio* is
held, at ``bulk_datapath``'s shape — 1 M DOUBLE elements in
4 indexed chunks, one rank's 250 k wanted elements:

* **plan** — applying a kept plan (rebase its merged runs, extraction)
  must beat resolving it (``_chunk_positions``, the sorted unique
  positions, their gap-0 merge and the extraction index) by
  ``PLAN_MIN_SPEEDUP``, for the rank's own map (one run, extraction is
  the identity) and for a foreign one (neither holds);
* **resolve** — ``_chunk_positions``, which resolves a wanted set dense
  in its range (``bulk_datapath``'s) by direct addressing — one position
  table over the range, each chunk's hits assigned into it in writer
  rank — must beat the per-chunk probing it replaced for such sets
  (kept here as ``probe_path``) by ``RESOLVE_MIN_SPEEDUP`` for the own
  and the foreign map, and may be at most ``SPARSE_MAX_SLOWDOWN`` slower
  for a sparse viewer (1 000 scattered gids), which must stay on the
  probe path: a table over its range would cost ~20x;
* **filetype** — a ``FileView`` over a memoised filetype must be built
  ``VIEW_MIN_SPEEDUP`` times faster than over a fresh one.

It also prints the sweep ``resolve._TABLE_MAX_SPREAD`` was set from:
milliseconds per resolution (the best of five alternated samples) of
the probe and the table path over chunk count x spread (the wanted
set's range over its size), and the path ``_chunk_positions`` takes —
rerun it after touching either path.

Run directly (no JSON input; seconds)::

    python benchmarks/perfcheck_plans.py
"""

import sys

import numpy as np

from timing import compare, samples_us
from repro.core import resolve as datapath
from repro.core.resolve import _chunk_positions, _live_chunks, _read_plan
from repro.core.groups import DataView
from repro.dtypes import DOUBLE, IndexedBlock
from repro.metadb.schema import CHUNK_INDEX_BYTES, ChunkRecord
from repro.mpiio.view import FileView

PLAN_MIN_SPEEDUP = 3.0
VIEW_MIN_SPEEDUP = 10.0
# About half the worst own / foreign ratio of 20 back-to-back runs on a
# 2-vCPU VM (5.7x to 7.1x): room for a loaded host, none for losing the
# table path.
RESOLVE_MIN_SPEEDUP = 2.8
SPARSE_MAX_SLOWDOWN = 1.5
SPARSE = 1_000
ELEMENTS = 1_000_000
CHUNKS = 4
SWEEP_CHUNKS = (1, 4, 16)
SWEEP_SPREADS = (4, 8, 16, 32, 100, 1000)


TIMING = {"seconds": 0.2, "repeat": 7}


def bulk_instance(rng, nchunks=CHUNKS):
    """``bulk_datapath``'s chunked instance: sorted slices of one
    permutation, each chunk an index block followed by its data."""
    perm = rng.permutation(ELEMENTS)
    maps = [np.sort(m).astype(np.int64)
            for m in np.array_split(perm, nchunks)]
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
    """A plan hit's host work around the read: rebase the runs, then
    extract."""
    off = plan.rel + base
    if plan.take is not None:
        elems = elems.take(plan.take)
    if plan.present is None:
        return off, elems
    out = np.zeros(len(plan.view.map_sorted), dtype=elems.dtype)
    out[plan.present] = elems
    return off, out


def probe_path(chunks, blocks, esize, wanted):
    """The resolution the table path replaced for dense wanted sets:
    every live chunk in writer rank probes the smaller of its two
    in-range slices into the larger, its hits assigned in place."""
    pos = np.full(len(wanted), -1, dtype=np.int64)
    live = _live_chunks(chunks, wanted)
    lo, hi = int(wanted[0]), int(wanted[-1])
    for ch in live:  # indexed chunks only at this shape
        i = int(np.searchsorted(wanted, ch.gid_min))
        j = int(np.searchsorted(wanted, ch.gid_max, side="right"))
        w, out = wanted[i:j], pos[i:j]
        cidx = blocks[ch.block]
        a = int(np.searchsorted(cidx, lo))
        b = int(np.searchsorted(cidx, hi, side="right"))
        if b - a <= j - i:
            g = cidx[a:b]
            k = np.searchsorted(w, g)
            hit = np.flatnonzero(w.take(k, mode="clip") == g)
            out[k[hit]] = ch.data_offset + (a + hit) * esize
        else:
            k = np.searchsorted(cidx, w)
            hit = cidx.take(k, mode="clip") == w
            out[hit] = ch.data_offset + k[hit] * esize
    return pos


def sweep(rng):
    """Print the two resolution paths over chunk count x spread."""
    print("perfcheck: ms per resolution  chunks  spread   probe   table"
          "  path")
    for nchunks in SWEEP_CHUNKS:
        _, chunks, blocks = bulk_instance(rng, nchunks)
        for spread in SWEEP_SPREADS:
            wanted = np.sort(rng.choice(ELEMENTS, ELEMENTS // spread,
                                        replace=False))
            live = _live_chunks(chunks, wanted)
            args = (live, blocks, DOUBLE.size, wanted)
            probe, table = samples_us(
                [lambda: datapath._probe_positions(*args),
                 lambda: datapath._table_positions(*args)], repeat=5)
            span = int(wanted[-1]) - int(wanted[0]) + 1
            path = ("table" if span <= datapath._TABLE_MAX_SPREAD
                    * len(wanted) else "probe")
            print(f"perfcheck: {'':18}{nchunks:6d} {spread:7d} "
                  f"{min(probe) / 1e3:7.2f} {min(table) / 1e3:7.2f}  {path}")


def main() -> int:
    rng = np.random.default_rng(23)
    maps, chunks, blocks = bulk_instance(rng)
    failures = []

    foreign = np.sort(rng.choice(ELEMENTS, ELEMENTS // CHUNKS,
                                 replace=False))
    sparse = np.sort(rng.choice(ELEMENTS, SPARSE, replace=False))
    for name, wanted in (("own map", maps[0]), ("foreign map", foreign)):
        view = DataView.from_map(wanted)
        plan = resolve(view, chunks, blocks)
        elems = rng.standard_normal(int(plan.rlen.sum()) // DOUBLE.size)
        cold, warm, ratio = compare(*samples_us(
            [lambda: resolve(view, chunks, blocks),
             lambda: apply(plan, chunks[0].data_offset, elems)], **TIMING))
        ok = ratio >= PLAN_MIN_SPEEDUP
        print(f"perfcheck: plan, {name} ({len(wanted)} of {ELEMENTS}, "
              f"{len(plan.rel)} runs): resolve {cold / 1e3:.2f} ms, apply "
              f"{warm / 1e3:.2f} ms, {ratio:.1f}x (min {PLAN_MIN_SPEEDUP}x) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"applying a plan ({name}) is only "
                            f"{ratio:.1f}x faster than resolving it")

    sweep(rng)
    for name, wanted, bound in (
        ("own map", maps[0], RESOLVE_MIN_SPEEDUP),
        ("foreign map", foreign, RESOLVE_MIN_SPEEDUP),
        ("sparse", sparse, 1 / SPARSE_MAX_SLOWDOWN),
    ):
        args = (chunks, blocks, DOUBLE.size, wanted)
        np.testing.assert_array_equal(_chunk_positions(*args),
                                      probe_path(*args))
        old, new, ratio = compare(*samples_us(
            [lambda: probe_path(*args), lambda: _chunk_positions(*args)],
            **TIMING))
        ok = ratio >= bound
        print(f"perfcheck: resolve, {name} ({len(wanted)} of {ELEMENTS}): "
              f"probe {old / 1e3:.2f} ms, resolve {new / 1e3:.2f} ms, "
              f"{ratio:.2f}x (min {bound:.2f}x) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"resolving {name} is {ratio:.2f}x the probe "
                            f"path (min {bound:.2f}x)")

    view = DataView.from_map(maps[0])
    kept = view.filetype(DOUBLE)
    FileView(0, DOUBLE, kept)
    fresh, memo, ratio = compare(*samples_us(
        [lambda: FileView(0, DOUBLE, IndexedBlock(1, view.map_sorted, DOUBLE)),
         lambda: FileView(0, DOUBLE, kept)], **TIMING))
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
