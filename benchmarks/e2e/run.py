#!/usr/bin/env python3
"""Two-clock end-to-end benchmark runner.

One measured run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/e2e/run.py --workload fun3d_e2e --seed 1 \
        --seconds 20 --trace 0

prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics with tracing
off; ``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics.  Without ``--workload`` every workload is run in its
own subprocess in both modes and the merged record goes to ``--out``
(the input of ``compare.py``).

The process pins itself to one CPU before it measures (the rank threads
of the simulator pass a baton, so a second core only adds cross-core
wake-ups), starts over once in a fixed environment, and reports host-clock
times at the reference speed of a calibration kernel.  ``README.md`` has
the measurements behind each of these.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from metrics import ROOT

HERE = Path(__file__).resolve().parent
MIN_REPS = 3


def pin_cpu() -> Optional[int]:
    """Pin to the last allowed CPU; None where the platform cannot."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


STEADY_ENV = {
    # str hashes (and so every dict and hash index keyed by strings) are
    # laid out differently in each process unless the seed is fixed;
    # metadb_catalog's wall_s moved by +-10 % between processes with it
    # random, +-2 % with it fixed.
    "PYTHONHASHSEED": "0",
    # glibc malloc: serve large arrays from one heap that is never
    # trimmed, so reps after the warm-up reuse mapped pages.  Otherwise
    # every 8 MB numpy buffer is a fresh mmap, and its page faults (up to
    # half of wall_s on bulk_datapath, very uneven inside a VM) drown the
    # layers the workload is there to measure.
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str((1 << 31) - 1),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


def steady_environment() -> None:
    """Start over once, in the environment above (both the hash seed and
    malloc's tunables are only read when a process starts)."""
    if all(os.environ.get(k) == v for k, v in STEADY_ENV.items()):
        return
    try:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **STEADY_ENV})
    except OSError as exc:
        print(f"run.py: measuring in the inherited environment ({exc})",
              file=sys.stderr)


class Calibration:
    """A fixed piece of interpreter and numpy work, timed beside every rep.

    The box this benchmark was written on changes speed by half for many
    minutes at a time (same commit, same seeds, two sets of ten runs half
    an hour apart: fun3d_e2e 2.82 s then 4.24 s, bulk_datapath 5.76 s
    then 3.69 s, ``setup_s`` moving with them), which no number of reps
    inside one run averages out.  Every host-clock time is therefore
    reported at *reference speed*: multiplied by ``REFERENCE_S`` over the
    run's median sample.  Nothing of the repository runs in here, so a
    change to the repository cannot move it.
    """

    REFERENCE_S = 0.125
    """Median sample on that box in a calm hour: there, reported and raw
    seconds agree."""

    def __init__(self) -> None:
        import numpy

        self.numpy = numpy
        self.values = numpy.random.default_rng(0).standard_normal(400_000)
        self.samples: List[float] = []

    def sample(self) -> None:
        np, values = self.numpy, self.values
        t0 = time.perf_counter()
        table: Dict[int, Any] = {}
        acc, seen = 0, []
        for i in range(400_000):
            table[i & 4095] = (acc, i)
            acc += i ^ (acc & 255)
            if not i & 7:
                seen.append(table.get(acc & 4095))
        for _ in range(4):
            np.cumsum(values[np.argsort(values)] * 1.5 + 1.0)
        self.samples.append(time.perf_counter() - t0)

    def host_speed(self) -> float:
        """Above 1: this host is currently faster than the reference."""
        return self.REFERENCE_S / statistics.median(self.samples)


def host_facts(pinned: Optional[int]) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(), "pinned_cpu": pinned,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "env": STEADY_ENV,
    }


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Warm up once, then rep until ``--seconds`` (or ``--reps``) is used."""
    from metrics import (declared, deterministic, load_declaration, median,
                         summarize)
    from report import end_to_end, per_layer
    from trace import Tracer
    from workloads import WORKLOADS, Checks, NullTracer

    decl = load_declaration()
    group = "per_layer" if args.trace else "end_to_end"
    units = {n: m["unit"] for n, m in declared(decl, group).items()}
    workload = WORKLOADS[args.workload]
    checks = Checks()
    null = NullTracer()
    calibration = Calibration()

    plain: List[Dict[str, float]] = []
    traced: List[Dict[str, float]] = []
    traced_walls: List[float] = []

    def one_rep(tr, record=True) -> None:
        """Set up, run the body, check, and file the rep's metrics.
        Nothing of the rep outlives the call, so the next one reuses
        its memory."""
        gc.collect()
        if record:
            calibration.sample()
        t0 = time.perf_counter()
        inp = workload.setup(args.seed, args.size)
        setup_s = time.perf_counter() - t0
        tr.install()
        try:
            t0 = time.perf_counter()
            with tr.span("bench", "body"):
                run = workload.body(inp, tr)
            wall_s = time.perf_counter() - t0
        finally:
            tr.uninstall()
        # Metrics first: the checks below query the job's database too.
        if record and tr is null:
            plain.append(end_to_end(run, wall_s, setup_s))
        elif record:
            traced.append(per_layer(workload, inp, run, tr, wall_s, checks))
            traced_walls.append(wall_s)
            if args.trace_out and len(traced) == 1:
                tr.chrome_trace(args.trace_out)
        workload.check(inp, run, checks)

    # Warm-up: allocator, statement caches, lazy imports.
    one_rep(null, record=False)
    rep_seconds: List[float] = []
    started = time.perf_counter()
    while True:
        done = len(rep_seconds)
        if args.reps:
            if done >= args.reps:
                break
        elif done >= MIN_REPS and (
            time.perf_counter() - started + 0.5 * median(rep_seconds)
            > args.seconds
        ):
            break
        rep_t0 = time.perf_counter()
        one_rep(Tracer() if args.trace and done % 2 else null)
        rep_seconds.append(time.perf_counter() - rep_t0)

    samples = traced if args.trace else plain
    for name in samples[0]:
        if deterministic(name):
            first = samples[0][name]
            checks.expect(
                all(abs(s[name] - first) <= 1e-9 * abs(first)
                    for s in samples),
                f"{name} differs between reps of one seed",
            )
    calibration.sample()
    speed = calibration.host_speed()
    summary = summarize(samples)
    wall = speed * median([s["wall_s"] for s in plain])
    for name, entry in summary.items():
        if units.get(name) in ("s", "us") and not deterministic(name):
            entry["value"] *= speed
            entry["iqr"] *= speed
    if args.trace:
        statements = summary["metadb.statements"]["value"]
        summary["metadb.stmt_per_s"] = {
            "value": statements / wall, "iqr": 0.0, "n": len(plain)}
        summary["bench.trace_overhead_ratio"] = {
            "value": speed * median(traced_walls) / wall, "iqr": 0.0,
            "n": len(traced_walls)}
        summary["bench.host_speed"] = {
            "value": speed, "iqr": 0.0, "n": len(calibration.samples)}
    else:
        summary["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "iqr": 0.0, "n": 1}

    missing = sorted(set(units) - set(summary))
    extra = sorted(set(summary) - set(units))
    if missing or extra:
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    for name, entry in summary.items():
        entry["unit"] = units[name]
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "reps": len(samples), "host_speed": speed,
        "attempted": checks.attempted, "failed": len(checks.failures),
        "failures": checks.failures[:20], "metrics": summary,
    }


def print_metrics(record: Dict[str, Any]) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"size={record['size']} trace={record['trace']} "
          f"reps={record['reps']} host_speed={record['host_speed']:.3f}")
    for name, m in record["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6f} {m['unit']:8s} "
              f"iqr={m['iqr']:.3g} n={m['n']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")


def run_one(args: argparse.Namespace) -> int:
    steady_environment()
    pinned = pin_cpu()
    record = measure(args)
    record["host"] = host_facts(pinned)
    print_metrics(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in record["metrics"].items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, both modes, each in its own process (so that
    ``peak_rss_mb`` belongs to one workload)."""
    from workloads import WORKLOADS

    merged: Dict[str, Any] = {"seed": args.seed, "size": args.size,
                              "workloads": {}}
    failed = 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in WORKLOADS:
            for trace in (0, 1):
                part = os.path.join(tmp, f"{name}.{trace}.json")
                cmd = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--size", args.size, "--out", part]
                if args.reps:
                    # a traced run needs an untraced rep beside the traced
                    cmd += ["--reps", str(max(args.reps, 1 + trace))]
                subprocess.run(cmd, check=True)
                with open(part, encoding="utf-8") as fh:
                    record = json.load(fh)
                merged["host"] = record.pop("host")
                failed += record["failed"]
                group = "per_layer" if trace else "end_to_end"
                merged["workloads"].setdefault(name, {})[group] = record
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
    print(f"{len(WORKLOADS)} workloads, {failed} failed checks")
    return 1 if failed else 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, "
                        "each in a subprocess, both trace modes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for about this long after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reps", type=int, default=0,
                        help="fixed number of reps instead of --seconds")
    parser.add_argument("--out", help="write the full record as JSON")
    parser.add_argument("--trace-out",
                        help="with --trace 1: Chrome-trace JSON of one rep")
    args = parser.parse_args(argv)
    if args.trace and args.reps == 1:
        parser.error("--trace 1 needs an untraced and a traced rep: "
                     "--reps 2 or more")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: {ROOT / 'src' / 'repro'} not found: the benchmark "
              "measures the repository it is checked out in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r} (choose from "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
