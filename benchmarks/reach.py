"""Which functions and lines under ``src/repro`` nothing but the tests
reaches.

One process runs, under one ``sys.settrace`` / ``threading.settrace`` hook
that records every function entered and every line it executes
(simulated ranks are threads):

* the four end-to-end workloads — ``benchmarks/e2e/workloads.py``'s
  ``setup`` / ``body`` / ``check`` at seed 1, full size, imported as
  they are;
* ``python -m repro.bench --fast``;
* every script under ``examples/``;
* the ablations that emit a committed ``BENCH_*.json`` (under pytest;
  no JSON is written).

Every function defined under ``src/repro`` — outside ``analysis/``, the
lint tool ``make lint`` runs — that none of them entered is *unreached*.
Each one must be listed in ``reach.baseline`` (``<file>::<qualname>``,
then the reason it stays), the way ``spmdlint.baseline`` lists known
findings: new code is either reached by a workload or justified there.

A reached function's *never-run lines* are the lines of its code that no
run executed.  Those inside a ``raise`` statement (an ``ast.Raise`` span)
are error exits and are only counted; every other one is listed:
``<file>::<qualname> lines=<n> <reason>`` gives the function's count.

The check fails on an unreached function that is not listed, on a
reached function with never-run lines outside ``raise`` and no
``lines=`` entry, on a count above its entry, on an entry without a
reason and on an entry whose function is no longer defined.  It reports
an entry that is reached now and a count below its entry, so the
baseline can shrink.

Run from the repository root (``make reach``; about two minutes)::

    python benchmarks/reach.py [--out report.txt]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import os
import runpy
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SKIP = ("analysis",)
BASELINE = ROOT / "reach.baseline"
ABLATIONS = [f"benchmarks/bench_ablation_{name}.py" for name in
             ("metadb", "datapath", "maintenance", "policy", "collective")]


def is_function(code: CodeType) -> bool:
    """A function's code (comprehensions, lambdas, class and module
    bodies are not functions)."""
    return bool(code.co_flags & inspect.CO_OPTIMIZED) \
        and not code.co_name.startswith("<")


def functions() -> Dict[str, List[CodeType]]:
    """``<file>::<qualname>`` -> its code (more than one for a name
    defined twice, a property's setter say), for every function defined
    under ``src/repro`` outside :data:`SKIP`."""
    out: Dict[str, List[CodeType]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.split("/")[1] in SKIP:
            continue
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
            if is_function(code):
                out.setdefault(f"{rel}::{code.co_qualname}", []).append(code)
    return out


def where(code: CodeType) -> Tuple[str, int, str]:
    """What identifies a function's code across two compilations."""
    return os.path.realpath(code.co_filename), code.co_firstlineno, \
        code.co_qualname


def lines_of(code: CodeType) -> Set[int]:
    """The lines a run of this code can report: every line its bytecode
    covers but the first, where a frame starts without a line event (the
    ``def``, or its first decorator)."""
    return {line for _s, _e, line in code.co_lines() if line} \
        - {code.co_firstlineno}


def raise_lines(path: Path) -> Set[int]:
    """Every line inside a ``raise`` statement of one file."""
    return {line for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


@contextlib.contextmanager
def recording(unrun: Dict[CodeType, Set[int]]) -> Iterator[None]:
    """For every function under ``src/repro`` entered in this thread or
    in a thread started meanwhile, keep the lines it has not run yet in
    ``unrun[code]``.  A frame is traced line by line only while its code
    has lines left to run."""
    prefix = str(PACKAGE) + os.sep
    ours: Dict[CodeType, bool] = {}

    def on_line(frame, event, _arg):
        if event != "line":
            return on_line
        left = unrun[frame.f_code]
        left.discard(frame.f_lineno)
        return on_line if left else None

    def on_call(frame, _event, _arg):
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = is_function(code) and os.path.realpath(
                code.co_filename).startswith(prefix)
            if mine:
                unrun.setdefault(code, lines_of(code))
        return on_line if mine and unrun[code] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def run_workloads() -> None:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import WORKLOADS, Checks, NullTracer

    for name, workload in WORKLOADS.items():
        inp = workload.setup(1, "full")
        run = workload.body(inp, NullTracer())
        checks = Checks()
        workload.check(inp, run, checks)
        if checks.failures:
            raise SystemExit(f"reach: {name} failed its checks: "
                             f"{checks.failures}")


def run_bench() -> None:
    from repro.bench.__main__ import main

    if main(["--fast"]) != 0:
        raise SystemExit("reach: python -m repro.bench --fast failed")


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def run_ablations() -> None:
    import pytest

    for var in [v for v in os.environ if v.endswith("_BENCH_JSON")]:
        del os.environ[var]
    # --benchmark-disable: pedantic calls the target directly, where a
    # timed round would run it with sys.settrace cleared (each of these
    # files holds exactly one test, a benchmark test).
    code = pytest.main(["-q", "--benchmark-disable", "-p",
                        "no:cacheprovider", *ABLATIONS])
    if code != 0:
        raise SystemExit(f"reach: the ablations failed (pytest exit {code})")


def read_baseline() -> Tuple[Dict[str, Tuple[Optional[int], str]],
                              List[str]]:
    """``key -> (lines= count or None, reason)`` and the malformed lines
    (no reason given, or a count that is not a number)."""
    entries, bad = {}, []
    for line in BASELINE.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, _sep, reason = line.partition(" ")
        count = None
        if reason.startswith("lines="):
            field, _sep, reason = reason.partition(" ")
            try:
                count = int(field[len("lines="):])
            except ValueError:
                bad.append(line)
        if not reason.strip():
            bad.append(line)
        entries[key] = count, reason.strip()
    return entries, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write every unreached function and "
                        "every never-run line outside raise here")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    unrun: Dict[CodeType, Set[int]] = {}
    log = io.StringIO()
    try:
        with recording(unrun), contextlib.redirect_stdout(log):
            run_workloads()
            run_bench()
            run_examples()
            run_ablations()
    except BaseException:
        print(log.getvalue()[-20_000:])
        raise

    defined = functions()
    left: Dict[Tuple[str, int, str], Set[int]] = {}
    for code, lines in unrun.items():
        key = where(code)
        left[key] = left[key] & lines if key in left else set(lines)
    never: Dict[str, Set[int]] = {}
    for key, codes in defined.items():
        if any(where(code) in left for code in codes):
            never[key] = set().union(*(left.get(where(c), lines_of(c))
                                       for c in codes))
    unreached = sorted(set(defined) - set(never))
    total = sum(len(lines_of(c)) for cs in defined.values() for c in cs)
    missed = sum(len(lines_of(c)) for k in unreached for c in defined[k])
    print(f"reach: {len(never)} of {len(defined)} functions reached "
          f"({total - missed} of {total} lines); {len(unreached)} "
          f"unreached ({missed} lines)")

    raised = {rel: raise_lines(SRC / rel)
              for rel in {k.partition("::")[0] for k in never}}
    others: Dict[str, List[int]] = {}
    in_raise = 0
    for key, lines in never.items():
        inside = lines & raised[key.partition("::")[0]]
        in_raise += len(inside)
        if lines - inside:
            others[key] = sorted(lines - inside)
    n_others = sum(len(v) for v in others.values())
    print(f"reach: {in_raise + n_others} never-run lines in reached "
          f"functions: {in_raise} inside raise statements, {n_others} "
          f"others in {len(others)} functions")
    if args.out:
        Path(args.out).write_text(
            "".join(k + "\n" for k in unreached)
            + "".join(f"{k} lines={len(v)}: {' '.join(map(str, v))}\n"
                      for k, v in sorted(others.items())))

    baseline, bad = read_baseline()
    listed = {k for k, (count, _r) in baseline.items() if count is None}
    counts = {k: count for k, (count, _r) in baseline.items()
              if count is not None}
    new = [k for k in unreached if k not in listed]
    gone = sorted(set(baseline) - set(defined))
    fail = []
    for key in sorted(listed - set(unreached) - set(gone)):
        print(f"reach: {key} is reached now; drop it from {BASELINE.name}")
    for key in gone:
        fail.append(f"{key} is no longer defined; drop it from "
                    f"{BASELINE.name}")
    for line in bad:
        fail.append(f"{BASELINE.name} entry without a reason or with a "
                    f"malformed count: {line}")
    for key in new:
        fail.append(f"{key} ({len(lines_of(defined[key][0]))} lines) is "
                    f"reached by no workload, bench or example and not "
                    f"listed in {BASELINE.name} without lines=")
    for key, lines in sorted(others.items()):
        n, was = len(lines), counts.get(key)
        if was is None:
            fail.append(f"{key} has {n} never-run lines outside raise and "
                        f"no lines= entry in {BASELINE.name}")
        elif n > was:
            fail.append(f"{key} has {n} never-run lines outside raise, "
                        f"more than its lines={was}")
        elif n < was:
            print(f"reach: {key} has {n} never-run lines outside raise "
                  f"now; lower its entry from lines={was}")
    for key in sorted(set(counts) - set(others) - set(unreached)
                      - set(gone)):
        print(f"reach: {key} runs every line outside raise now; drop its "
              f"lines= entry")
    for message in fail:
        print(f"reach: FAIL {message}", file=sys.stderr)
    if fail:
        return 1
    print(f"reach: every unreached function and never-run line is listed "
          f"in {BASELINE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
