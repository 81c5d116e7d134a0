"""Which functions under ``src/repro`` nothing but the tests reaches.

One process runs, under a ``sys.setprofile`` / ``threading.setprofile``
hook that records every code object entered (simulated ranks are
threads):

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
A function that is unreached and not listed, a listed entry without a
reason, or a listed entry whose function is no longer defined fails the
check; a listed entry that is reached now is reported, so the baseline
can shrink.

Run from the repository root (``make reach``; about a minute)::

    python benchmarks/reach.py [--out unreached.txt]
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import runpy
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SKIP = ("analysis",)
BASELINE = ROOT / "reach.baseline"
ABLATIONS = [f"benchmarks/bench_ablation_{name}.py" for name in
             ("metadb", "datapath", "maintenance", "policy", "collective")]


def functions() -> Dict[str, List[CodeType]]:
    """``<file>::<qualname>`` -> its code (more than one for a name
    defined twice, a property's setter say), for every function defined
    under ``src/repro`` outside :data:`SKIP` (comprehensions, lambdas and
    class bodies are not functions)."""
    out: Dict[str, List[CodeType]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.split("/")[1] in SKIP:
            continue
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
            if code.co_flags & inspect.CO_OPTIMIZED \
                    and not code.co_name.startswith("<"):
                out.setdefault(f"{rel}::{code.co_qualname}", []).append(code)
    return out


def where(code: CodeType) -> Tuple[str, int, str]:
    """What identifies a function's code across two compilations."""
    return os.path.realpath(code.co_filename), code.co_firstlineno, \
        code.co_qualname


def body_lines(codes: List[CodeType]) -> int:
    """Source lines a function's code covers."""
    return sum(len({line for _s, _e, line in code.co_lines() if line})
               for code in codes)


@contextlib.contextmanager
def recording(seen: Set[CodeType]) -> Iterator[None]:
    """Record every code object entered, in this thread and in every
    thread started meanwhile."""
    def hook(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


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
    code = pytest.main(["-q", "--benchmark-only", "-p", "no:cacheprovider",
                        *ABLATIONS])
    if code != 0:
        raise SystemExit(f"reach: the ablations failed (pytest exit {code})")


def read_baseline() -> Tuple[Dict[str, str], List[str]]:
    """``key -> reason`` and the malformed lines (no reason given)."""
    entries, bad = {}, []
    for line in BASELINE.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, _sep, reason = line.partition(" ")
        if not reason.strip():
            bad.append(line)
        entries[key] = reason.strip()
    return entries, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write every unreached function here")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    seen: Set[CodeType] = set()
    log = io.StringIO()
    try:
        with recording(seen), contextlib.redirect_stdout(log):
            run_workloads()
            run_bench()
            run_examples()
            run_ablations()
    except BaseException:
        print(log.getvalue()[-20_000:])
        raise

    defined = functions()
    entered = {where(code) for code in seen}
    unreached = sorted(
        key for key, codes in defined.items()
        if not any(where(code) in entered for code in codes))
    total = sum(body_lines(c) for c in defined.values())
    missed = sum(body_lines(defined[k]) for k in unreached)
    print(f"reach: {len(defined) - len(unreached)} of {len(defined)} "
          f"functions reached ({total - missed} of {total} lines); "
          f"{len(unreached)} unreached ({missed} lines)")
    if args.out:
        Path(args.out).write_text("".join(k + "\n" for k in unreached))

    baseline, bad = read_baseline()
    new = [k for k in unreached if k not in baseline]
    gone = sorted(set(baseline) - set(defined))
    for key in sorted(set(baseline) - set(unreached) - set(gone)):
        print(f"reach: {key} is reached now; drop it from {BASELINE.name}")
    for key in gone:
        print(f"reach: FAIL {key} is no longer defined; drop it from "
              f"{BASELINE.name}", file=sys.stderr)
    for line in bad:
        print(f"reach: FAIL {BASELINE.name} entry without a reason: {line}",
              file=sys.stderr)
    for key in new:
        print(f"reach: FAIL {key} ({body_lines(defined[key])} lines) is "
              f"reached by no workload, bench or example and not in "
              f"{BASELINE.name}", file=sys.stderr)
    if new or bad or gone:
        return 1
    print(f"reach: every unreached function is listed in {BASELINE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
