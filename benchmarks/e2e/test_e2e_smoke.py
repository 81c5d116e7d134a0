"""Smoke test of the end-to-end benchmark: every workload at ``--size
tiny``, one untraced run and one traced run — what ``BENCHMARK.json``
declares is what ``run.py`` emits, nothing fails, the tracer attributes
the traced wall time and leaves the layers as it found them.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (benchmarks/e2e/run.py)

DECL = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECL["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declaration_is_well_formed():
    assert DECL["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DECL[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" for m in DECL["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECL["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_what_is_declared(workload):
    from repro.core.api import SDM
    from repro.simt.process import Process

    before = (SDM.write, Process.hold)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        record = bench.measure(bench.parse_args([
            "--workload", workload, "--size", "tiny", "--trace", str(trace),
            "--reps", "2" if trace else "1",
        ]))
        assert record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in DECL[group]}
        assert {n: m["unit"] for n, m in record["metrics"].items()} == units
    assert (SDM.write, Process.hold) == before  # tracer uninstalled
    # The traced run fails its own check above when more than 5 % of the
    # traced wall time is unattributed; restate it on the emitted numbers.
    layers = record["metrics"]
    attributed = sum(m["value"] for n, m in layers.items()
                     if n.count(".") == 1 and n.endswith(".wall_self_s"))
    stray = abs(layers["bench.unattributed_wall_s"]["value"])
    assert attributed / (attributed + stray) >= 0.95


def test_command_line_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", WORKLOADS[-1],
         "--size", "tiny", "--seed", "7", "--reps", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECL["end_to_end"]}
    assert all(set(m) == {"value", "unit"} and m["value"] > 0
               for m in result["metrics"].values())
