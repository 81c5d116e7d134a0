"""Guard the run list's move kernels, host speed cancelled out.

``gather_runs`` / ``scatter_runs`` (:mod:`repro.pfs.runlist`) replaced
the byte-granular ``buf[expand_runs(offsets, lengths)]`` at every site
that copies run-list data.  Both sides are timed in this process, in
alternating rounds (``perfcheck_aggregation.samples_us``), and only the
median per-round *ratio* is held, so the box's speed cancels:

* **bulk** — 250 000 sorted one-to-four-element DOUBLE runs over an 8 MB
  buffer (one rank's share of ``bulk_datapath``'s irregular map): the
  kernels must beat the byte index by at least ``BULK_MIN_SPEEDUP``;
* **small lists** — the request shapes ``fun3d_e2e`` / ``rt_lifecycle``
  issue thousands of times per rep (1 x 112 B, 8 x 128 B, 32 x 40 B,
  63 x 16 B): the kernels must stay within ``SMALL_MAX_SLOWDOWN`` of the
  byte index at every point.  A kernel that always slice-copies fails at
  63 x 16 B, one that always looks for the word width fails everywhere.

It also prints the sweep the three path cuts in ``runlist.py`` were set
from: per-call microseconds (the best of five alternated samples) of the
three candidate copies (per-run slice loop, byte index, 8-byte word
index) and the kernel over run count x run length.

Run directly (no JSON input; seconds)::

    python benchmarks/perfcheck_kernels.py
"""

import sys

import numpy as np

from perfcheck_aggregation import compare, samples_us
from repro.pfs.runlist import expand_runs, gather_runs, scatter_runs

BULK_MIN_SPEEDUP = 2.5
SMALL_MAX_SLOWDOWN = 1.5
SMALL_POINTS = ((1, 112), (8, 128), (32, 40), (63, 16))
SWEEP_RUNS = (1, 8, 16, 32, 63, 256, 1024)
SWEEP_BYTES = (16, 40, 128, 512, 1200)


# The three candidate copies, gather side (scatter mirrors each).

def loop_gather(buf, off, ln):
    out = np.empty(int(ln.sum()), dtype=np.uint8)
    pos = 0
    for o, l in zip(off.tolist(), ln.tolist()):
        out[pos:pos + l] = buf[o:o + l]
        pos += l
    return out


def byte_gather(buf, off, ln):
    return buf[expand_runs(off, ln)]


def byte_scatter(buf, off, ln, data):
    buf[expand_runs(off, ln)] = data


def word_gather(buf, off, ln):
    bits = int(np.bitwise_or.reduce(off)) | int(np.bitwise_or.reduce(ln))
    w = min(bits & -bits, 8)
    words = buf[: len(buf) // w * w].view(f"u{w}")
    return words[expand_runs(off // w, ln // w)].view(np.uint8)


def strided(nruns, nbytes):
    """``nruns`` runs of ``nbytes`` with equal holes between them."""
    off = np.arange(nruns, dtype=np.int64) * (2 * nbytes)
    return off, np.full(nruns, nbytes, dtype=np.int64)


def bulk_runs(rng, nruns=250_000):
    ln = rng.integers(1, 5, nruns)
    hole = rng.integers(0, 3, nruns)
    off = np.cumsum(ln + hole) - ln
    return off.astype(np.int64) * 8, ln.astype(np.int64) * 8


def byte_index_vs_kernel(buf, off, ln, **timing):
    """``(name, byte-index samples, kernel samples)`` (us, alternated)
    for the gather and the scatter of one run list."""
    data = buf[: int(ln.sum())].copy()
    return (
        ("gather", *samples_us([lambda: byte_gather(buf, off, ln),
                                lambda: gather_runs(buf, off, ln)],
                               **timing)),
        ("scatter", *samples_us([lambda: byte_scatter(buf, off, ln, data),
                                 lambda: scatter_runs(buf, off, ln, data)],
                                **timing)),
    )


def main() -> int:
    rng = np.random.default_rng(20)
    buf = rng.integers(0, 256, 8_000_000, dtype=np.uint8)
    failures = []

    print("perfcheck: us per gather      loop     byte     word   kernel")
    for nruns in SWEEP_RUNS:
        for nbytes in SWEEP_BYTES:
            off, ln = strided(nruns, nbytes)
            cells = samples_us(
                [lambda fn=fn: fn(buf, off, ln) for fn in
                 (loop_gather, byte_gather, word_gather, gather_runs)],
                repeat=5)
            print(f"perfcheck: {nruns:5d} x {nbytes:4d} B  "
                  + " ".join(f"{min(c):8.1f}" for c in cells))

    for nruns, nbytes in SMALL_POINTS:
        for name, old_us, new_us in byte_index_vs_kernel(
                buf, *strided(nruns, nbytes)):
            new, old, ratio = compare(new_us, old_us)
            ok = ratio <= SMALL_MAX_SLOWDOWN
            print(f"perfcheck: small {name} {nruns} x {nbytes} B: byte index "
                  f"{old:.1f} us, kernel {new:.1f} us, {ratio:.2f}x "
                  f"(max {SMALL_MAX_SLOWDOWN}x) {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{name}_runs at {nruns} x {nbytes} B is "
                                f"{ratio:.2f}x the byte index")

    off, ln = bulk_runs(rng)
    for name, old_us, new_us in byte_index_vs_kernel(buf, off, ln,
                                                     seconds=0.2):
        old, new, ratio = compare(old_us, new_us)
        ok = ratio >= BULK_MIN_SPEEDUP
        print(f"perfcheck: bulk {name} {len(off)} DOUBLE runs: byte index "
              f"{old / 1e3:.2f} ms, kernel {new / 1e3:.2f} ms, {ratio:.2f}x "
              f"(min {BULK_MIN_SPEEDUP}x) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{name}_runs is only {ratio:.2f}x the byte "
                            "index on bulk DOUBLE runs")

    for f in failures:
        print(f"perfcheck: FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print("perfcheck: move kernels hold their ratios to the byte index")
    return 0


if __name__ == "__main__":
    sys.exit(main())
