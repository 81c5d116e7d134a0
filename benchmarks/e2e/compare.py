#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``: A is the
baseline, B the candidate.

    python3 benchmarks/e2e/compare.py results/set1.json results/set2.json

One row per (workload, metric).  Each metric's direction and bound come
from ``BENCHMARK.json``:

* virtual-clock and count metrics repeat bit for bit for one seed, so any
  difference beyond 1e-9 relative is ``CHANGED`` — a behaviour change the
  commit has to explain (only judged when both files used one seed);
* host-clock end-to-end metrics are ``REGRESSED`` when B's median is worse
  than A's by more than the bound, ``improved`` when better by more than
  it, and ``unresolved`` — never "unchanged" — when either side's
  run-to-run IQR is wider than the bound;
* host-clock per-layer metrics have no bound; their change is shown.

Exit status 1 if any row is CHANGED, REGRESSED or unresolved.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterator, Tuple

from metrics import declared, deterministic, load_declaration

BAD = ("CHANGED", "REGRESSED", "unresolved")


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def verdict(a: Dict[str, Any], b: Dict[str, Any], entry: Dict[str, Any],
            name: str, same_seed: bool) -> Tuple[float, str]:
    worse = worsening(a["value"], b["value"], entry["better"])
    if deterministic(name):
        if not same_seed:
            return worse, "other seed"
        return worse, "same" if abs(worse) <= 1e-9 else "CHANGED"
    bound = entry.get("bound")
    if bound is None:
        return worse, ""
    spread = max(
        side["iqr"] / abs(side["value"]) if side["value"] else 0.0
        for side in (a, b)
    )
    if spread > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSED"
    return worse, "improved" if worse < -bound else "within bound"


def rows(a: Dict[str, Any], b: Dict[str, Any]) -> Iterator[Tuple]:
    decl = load_declaration()
    same_seed = a["seed"] == b["seed"] and a["size"] == b["size"]
    for workload, groups in a["workloads"].items():
        for group, record in groups.items():
            other = b["workloads"][workload][group]["metrics"]
            entries = declared(decl, group)
            for name, left in record["metrics"].items():
                worse, word = verdict(left, other[name], entries[name],
                                      name, same_seed)
                yield (workload, name, left["value"], other[name]["value"],
                       left["unit"], worse, word)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fa, \
            open(argv[1], encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    bad = 0
    print(f"{'workload':15s} {'metric':32s} {'A':>14s} {'B':>14s} "
          f"{'unit':7s} {'worse by':>9s}  verdict")
    for workload, name, va, vb, unit, worse, word in rows(a, b):
        bad += word in BAD
        print(f"{workload:15s} {name:32s} {va:14.6g} {vb:14.6g} "
              f"{unit:7s} {worse:+9.2%}  {word}")
    print(f"{bad} row(s) CHANGED, REGRESSED or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
