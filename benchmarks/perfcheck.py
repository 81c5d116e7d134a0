"""Guard the committed ``BENCH_*.json`` files against regressions.

``make perfcheck`` (also run at the end of ``make bench``, and by
``make bench-metadb`` / ``make bench-datapath`` / ``make bench-policy`` /
``make bench-collective`` / ``make bench-maintenance`` against the file
each just regenerated) loads
the committed benchmark matrices and fails if a named cell has crossed
its bound.  The guards are the :data:`GUARDS` table — data, one row per
invariant:

``(file, cell selector, quantifier, comparison, bound, what a failure
means)``

A selector is a ``/``-separated path into the JSON document; a segment
may list alternatives (``4|8|16|32``).  ``each`` holds every selected
cell to the bound; ``max`` holds only the largest.  A selected cell that
is missing fails the check (regenerate the file with its ``make
bench-*`` target).  Bounds are not tunable from outside: a guard that
trips on fresh numbers is a finding to report, not a bound to loosen.

    python benchmarks/perfcheck.py                      # every guarded file
    python benchmarks/perfcheck.py BENCH_policy.json    # only that file's
"""

import json
import operator
import sys

RANKS = "4|8|16|32"

GUARDS = (
    # Before the coalescer the cold chunked read sat at 3.5-5.6x canonical.
    ("BENCH_datapath.json", f"cells/{RANKS}/read_gap", "each", "<=", 1.3,
     "the cold chunked read fell behind the canonical read"),
    # The workload reads 1,000,000 elements; O(chunks) runs is a handful.
    ("BENCH_datapath.json", f"cells/{RANKS}/read_runs_chunked", "each",
     "<=", 10000, "run coalescing regressed toward per-element runs"),
    # Per-rank index resolution reads P copies of the index.
    ("BENCH_datapath.json", f"index_cells/{RANKS}/index_bytes_ratio",
     "each", "<=", 1.1,
     "collective index resolution regressed to per-rank index fetches"),
    # Append-only placement grows the churned file ~(T/W)x.
    ("BENCH_datapath.json", "churn/file_growth_ratio", "each", "<=", 1.25,
     "first-fit extent reuse regressed to append-only placement"),
    # Self-tuning may never lose to the best hand-picked static setting
    # of the knob it replaces ...
    ("BENCH_policy.json",
     "cases/gap|maintenance/win_vs_best_static", "each", ">=", 1.0,
     "the adaptive policy lost to a static setting"),
    # ... and must beat the shipped defaults somewhere, or the tier is
    # dead weight.
    ("BENCH_policy.json", "cases/gap|maintenance/win_vs_default",
     "max", ">", 1.05,
     "self-tuning no longer beats the shipped defaults anywhere"),
    # metadb index upkeep is per entry: 40x the rows may not cost 4x the
    # host time (host-clock cells, so only their ratio is held).  A
    # DELETE that rebuilds its table's indexes sits near 130x ...
    ("BENCH_metadb.json", "scaling/delete_ratio", "each", "<=", 4,
     "a DELETE's cost grows with the table again, not with the rows deleted"),
    # ... and a batch INSERT that re-sorts whole indexes near 23x.
    ("BENCH_metadb.json", "scaling/batch16_ratio", "each", "<=", 4,
     "a batch INSERT's cost grows with the table again, not with the batch"),
    # The read side: an index probe is a B-tree search, a scan walks the table,
    # so at 10 000 rows the composite point lookup and the end-of-file
    # probe each beat the scan they replace by >= 50x ...
    ("BENCH_metadb.json", "speedups/10000/composite|eof", "each", ">=", 50,
     "an index probe lost its 50x over the full scan at 10 000 rows"),
    # ... and the composite lookup's gap widens from 100 to 10 000 rows.
    ("BENCH_metadb.json", "composite_widening", "each", ">", 1.0,
     "the composite lookup's gap over the scan no longer grows with the "
     "table"),
    # The paper's premise, at true scale on element-interleaved writes:
    # two-phase beats data-sieving read-modify-write under the file lock ...
    ("BENCH_collective.json", "cells/collective_vs_independent_rdwr", "each",
     ">", 10, "two-phase collective I/O lost its order of magnitude over "
     "independent sieving writes"),
    # ... and one file-system request per 8-byte run.
    ("BENCH_collective.json", "cells/collective_vs_independent_wronly",
     "each", ">", 10, "two-phase collective I/O lost its order of magnitude "
     "over independent per-run writes"),
    # A warm chunked read (index blocks cached) is data-only I/O: no
    # slower than the canonical read (1.17-1.22x faster when added) ...
    ("BENCH_maintenance.json", "cells/4|8/cache_gap_closed", "each", ">=",
     1.0, "a warm chunked read fell behind the canonical read: the index "
     "cache no longer makes it data-only"),
    # ... a background reorganize leaves the application's critical path
    # (0.95-0.97 of the sync exchange removed when added) ...
    ("BENCH_maintenance.json", "cells/4|8/critical_path_removed", "each",
     ">=", 0.80, "background reorganization is back on the critical path"),
    # ... and compaction reclaims every dead byte.
    ("BENCH_maintenance.json", "cells/4|8/free_after", "each", "<=", 0,
     "compaction left free extents behind"),
)

COMPARE = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def select(doc, selector):
    """``(label, value)`` for every cell the selector names; a missing
    cell yields ``(label, None)``."""
    cells = [("", doc)]
    for segment in selector.split("/"):
        cells = [
            (f"{label}/{key}".lstrip("/"),
             node.get(key) if isinstance(node, dict) else None)
            for label, node in cells
            for key in segment.split("|")
        ]
    return cells


def check(files) -> int:
    docs = {}
    for path in files:
        if not any(path == guard[0] for guard in GUARDS):
            print(f"perfcheck: no guard names {path}", file=sys.stderr)
            return 2
        try:
            with open(path, "r", encoding="utf-8") as fh:
                docs[path] = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"perfcheck: cannot load {path}: {exc}", file=sys.stderr)
            return 2
    failures = []
    for path, selector, quantifier, op, bound, meaning in GUARDS:
        if path not in docs:
            continue
        cells = select(docs[path], selector)
        for label, value in cells:
            if value is None:
                failures.append(f"{path}: no cell {label} (regenerate it)")
        cells = [(label, value) for label, value in cells
                 if value is not None]
        if quantifier == "max" and cells:
            cells = [max(cells, key=lambda cell: cell[1])]
        for label, value in cells:
            ok = COMPARE[op](value, bound)
            print(f"perfcheck: {path}: {label} = {value:g} "
                  f"(must be {op} {bound:g}) {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(
                    f"{path}: {label} = {value:g} is not {op} {bound:g} "
                    f"({meaning})"
                )
    for failure in failures:
        print(f"perfcheck: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("perfcheck: all guards hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1:] or sorted({guard[0] for guard in GUARDS})))
