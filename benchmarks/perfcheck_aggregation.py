"""Guard the two-phase aggregation's span layout, host speed cancelled out.

An aggregator builds an ``_Aggregation`` from the segments it received
and moves their bytes into scratch (``put``, a write) or out of it
(``take``, a read).  A dense aggregation (:data:`twophase._DENSE`) reads
its union runs off the move's own word index and, when they are one
run, addresses scratch by file offset; a sparse one sorts, merges and
packs.  This script forces
each layout on the same segments (``_DENSE`` patched to infinity and to
0), times build plus move in this process, the two layouts in
alternating rounds, and holds only the median per-round *ratio*, so the
box's speed cancels:

* **bulk** — 4 sources x 250 000 one-element DOUBLE segments, dealt
  to random sources so their union is one solid run (an aggregation of
  ``bulk_datapath``): span must beat packed by ``BULK_MIN_SPEEDUP``;
* **small** — the shapes ``fun3d_e2e`` / ``rt_lifecycle`` aggregate
  thousands of times per rep, ``sources x segments`` over ``bytes`` (1 x
  1, 2 x 2, 8 x 83, 21 x 84 — ``fun3d_e2e``'s median — and 15 x 1128):
  span must stay within ``SMALL_MAX_SLOWDOWN`` of packed at every one.

Like ``benchmarks/e2e/run.py`` it measures with glibc malloc serving
large arrays from one never-trimmed heap (it restarts itself once in
that environment): otherwise every fresh megabyte-sized scratch buffer
is a new ``mmap`` whose page faults, the same in both layouts, swamp
the difference between them.

Run directly (no JSON input; seconds)::

    python benchmarks/perfcheck_aggregation.py
"""

import math
import os
import statistics
import sys
import timeit

import numpy as np

from repro.mpiio import twophase

BULK_MIN_SPEEDUP = 2.0
SMALL_MAX_SLOWDOWN = 1.1
BULK = (4, 250_000, 250_000 * 8)
SMALL_SHAPES = (  # (sources, segments, bytes), as the workloads make them
    (1, 1, 2448), (2, 2, 2448), (8, 83, 4976), (21, 84, 2016),
    (15, 1128, 10160),
)
LAYOUTS = (("span", math.inf), ("packed", 0))
DENSE = twophase._DENSE
STEADY_MALLOC = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str((1 << 31) - 1),
}


def segments(rng, nsources, nsegs, nbytes, first=1 << 20):
    """``nsegs`` DOUBLE-aligned segments cutting ``[first, first +
    nbytes)`` into pieces of random length, each dealt to a random
    source: per source ascending and disjoint, their union one run.
    Returns the aggregator's entries ``(offsets, lengths)``, in source
    order, and their data."""
    nwords = nbytes // 8
    cuts = np.sort(rng.choice(np.arange(1, nwords), nsegs - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [nwords])).astype(np.int64)
    off, ln = first + 8 * bounds[:-1], 8 * np.diff(bounds)
    owner = rng.integers(0, nsources, nsegs)
    owner[:nsources] = np.arange(nsources) % nsources  # every source sends
    entries = [(off[owner == s], ln[owner == s]) for s in range(nsources)]
    data = rng.integers(0, 256, nbytes, dtype=np.uint8)
    return entries, data


def write(entries, data):
    return twophase._Aggregation(entries).put(data)


def read(entries, union):
    return twophase._Aggregation(entries).take(union)


def samples_us(fns, seconds=0.02, repeat=11):
    """``repeat`` samples, microseconds per call, of each of ``fns``,
    taken in alternation so that a change in the host's speed hits every
    one of them alike."""
    timers = [timeit.Timer(fn) for fn in fns]
    numbers = [max(1, int(seconds / max(t.timeit(1), 1e-7))) for t in timers]
    out = [[] for _ in fns]
    for _ in range(repeat):
        for samples, timer, number in zip(out, timers, numbers):
            samples.append(timer.timeit(number) / number * 1e6)
    return out


def forced(dense, fn, *args):
    """``fn(*args)`` with the layout rule set to ``dense`` first."""
    def run():
        twophase._DENSE = dense
        return fn(*args)
    return run


def layouts_us(entries, data, **timing):
    """``{(move, layout): [us, ...]}`` — samples of build plus ``put`` and
    build plus ``take``, each layout forced; the two layouts' bytes must
    agree."""
    moved, fns = {}, {}
    for name, dense in LAYOUTS:
        union = forced(dense, write, entries, data)()
        moved[name] = (union.tobytes(),
                       forced(dense, read, entries, union)().tobytes())
        fns["put", name] = forced(dense, write, entries, data)
        fns["take", name] = forced(dense, read, entries, union)
    if moved["span"] != moved["packed"]:
        raise AssertionError("span and packed layouts moved different bytes")
    try:
        return dict(zip(fns, samples_us(list(fns.values()), **timing)))
    finally:
        twophase._DENSE = DENSE


def compare(a_us, b_us):
    """Best microseconds of two alternated sample lists and the median of
    their per-round ratio (``a`` over ``b``): one slow sample on either
    side moves the median by one rank, not the ratio of two minima."""
    ratio = statistics.median(a / b for a, b in zip(a_us, b_us))
    return min(a_us), min(b_us), ratio


def main() -> int:
    if any(os.environ.get(k) != v for k, v in STEADY_MALLOC.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **STEADY_MALLOC})
    rng = np.random.default_rng(30)
    failures = []

    for nsources, nsegs, nbytes in SMALL_SHAPES:
        us = layouts_us(*segments(rng, nsources, nsegs, nbytes))
        for move in ("put", "take"):
            span, packed, ratio = compare(us[move, "span"], us[move, "packed"])
            ok = ratio <= SMALL_MAX_SLOWDOWN
            print(f"perfcheck: small {move} {nsources} x {nsegs} over "
                  f"{nbytes} B: packed {packed:.1f} us, span {span:.1f} us, "
                  f"{ratio:.2f}x (max {SMALL_MAX_SLOWDOWN}x) "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{move} at {nsources} x {nsegs} is "
                                f"{ratio:.2f}x packed")

    nsources, nsegs, nbytes = BULK
    us = layouts_us(*segments(rng, nsources, nsegs, nbytes), seconds=0.2)
    for move in ("put", "take"):
        packed, span, ratio = compare(us[move, "packed"], us[move, "span"])
        ok = ratio >= BULK_MIN_SPEEDUP
        print(f"perfcheck: bulk {move} {nsources} x {nsegs} DOUBLE "
              f"segments: packed {packed / 1e3:.2f} ms, span "
              f"{span / 1e3:.2f} ms, "
              f"{ratio:.2f}x (min {BULK_MIN_SPEEDUP}x) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{move} is only {ratio:.2f}x packed on the "
                            "bulk shape")

    for f in failures:
        print(f"perfcheck: FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print("perfcheck: span aggregation holds its ratios to packed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
