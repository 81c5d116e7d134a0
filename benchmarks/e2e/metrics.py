"""What the benchmark declares (``BENCHMARK.json``) and small statistics.

``BENCHMARK.json`` at the repository root is the one list of metric names,
units, directions and bounds; the runner refuses to report a metric that
is not declared there and fails when a declared one is missing.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = ROOT / "BENCHMARK.json"

_HOST_CLOCK = {
    "setup_s", "peak_rss_mb", "simt.switch_us", "metadb.stmt_us",
    "metadb.stmt_per_s", "bench.trace_overhead_ratio", "bench.host_speed",
}


def load_declaration() -> Dict[str, Any]:
    with open(DECLARATION, encoding="utf-8") as fh:
        return json.load(fh)


def declared(decl: Dict[str, Any], group: str) -> Dict[str, Dict[str, Any]]:
    """``group`` is ``end_to_end`` or ``per_layer``: name -> entry."""
    return {m["name"]: m for m in decl[group]}


def deterministic(name: str) -> bool:
    """Virtual-clock and count metrics repeat bit for bit for one seed;
    everything read off the host clock (or the host's memory) does not."""
    return "wall" not in name and name not in _HOST_CLOCK


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return float(q[2] - q[0])


def summarize(samples: List[Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per metric: median, IQR and N over the reps that produced it."""
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        out[name] = {"value": median(values), "iqr": iqr(values),
                     "n": len(values)}
    return out
