"""Ablation: the self-tuning policy tier vs every static setting.

Each of the two feedback loops :mod:`repro.core.policy` closes is
benched against a grid of static settings of the knob it replaces.  The
acceptance bar (enforced against the committed ``BENCH_policy.json`` by
``benchmarks/perfcheck.py``): the adaptive policy must be at
least as good as the *best* static setting on its own case, and beat the
*default* static setting by more than 5% on at least one case.  A static
number can win one regime; the point of the tier is that no static
number wins them all.

* **gap** — a two-phase read workload: phase A's views leave small
  (~320 B) holes worth bridging, phase B's leave 8 KiB holes that cost
  more to read-and-discard than the run overhead they save.  No static
  ``coalesce_gap`` wins both phases; the adaptive sentinel derives each
  read's gap from its own hole distribution.  Metric: critical-path
  virtual seconds of the two read phases.
* **maintenance** — a chunked instance (block-shuffled irregular write
  maps) read cold over and over through contiguous foreign views — the
  successive-analysis-jobs pattern, so every read pays the chunk index
  resolution (index blocks as large as the data) a canonical instance
  simply does not have.  The static tier stays chunked forever; the
  adaptive tier promotes the instance to background reorganization
  after ``PROMOTE_READS`` reads and the remaining reads run at
  canonical speed.  Metric: critical-path virtual seconds of the read
  loop.

Set ``POLICY_BENCH_JSON=<path>`` (the Makefile's ``bench-policy``
target points it at ``BENCH_policy.json``) to emit the matrix as JSON
for cross-PR tracking.
"""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from repro.bench.harness import ResultTable
from repro.config import origin2000
from repro.core import SDM, Organization, sdm_services
from repro.core.layout import CANONICAL, CHUNKED
from repro.dtypes import DOUBLE
from repro.mpi import mpirun
from repro.mpiio.runs import ADAPTIVE_GAP

# ---------------------------------------------------------------------------
# 1. adaptive coalesce_gap
# ---------------------------------------------------------------------------

GAP_GRID = (0, 64, 8192, 262144)
GAP_DEFAULT = 0
GAP_RANKS = 4
_RUNS_PER_RANK = 256
_BLOCK = 200            # elements per wanted block (1600 B)
_HOLE_A = 40            # elements per phase-A hole (320 B — worth bridging)
_HOLE_B = 1024          # elements per phase-B hole (8 KiB — not worth it)


def _holey_view(rank, nprocs, n, block, hole):
    """``_RUNS_PER_RANK`` wanted blocks inside this rank's even region,
    each separated by ``hole`` unwanted elements."""
    region = n // nprocs
    base = rank * region
    starts = base + np.arange(_RUNS_PER_RANK) * (block + hole)
    return (starts[:, None] + np.arange(block)[None, :]).reshape(-1)


def run_gap_case():
    n_a = GAP_RANKS * _RUNS_PER_RANK * (_BLOCK + _HOLE_A)
    n_b = GAP_RANKS * _RUNS_PER_RANK * (_BLOCK + _HOLE_B)

    def run_cell(hints, policy):
        def program(ctx):
            sdm = SDM(ctx, "benchgap", organization=Organization.LEVEL_2,
                      storage_order=CANONICAL, io_hints=hints, policy=policy)
            result = sdm.make_datalist(["small_holes", "large_holes"])
            sdm.associate_attributes(result[:1], data_type=DOUBLE,
                                     global_size=n_a)
            sdm.associate_attributes(result[1:], data_type=DOUBLE,
                                     global_size=n_b)
            handle = sdm.set_attributes(result)
            out = []
            for name, n, hole, phase in (
                ("small_holes", n_a, _HOLE_A, "read-small-holes"),
                ("large_holes", n_b, _HOLE_B, "read-large-holes"),
            ):
                # Write the whole region (holes included) contiguously;
                # only the holey read views are measured.
                region = n // ctx.size
                full = np.arange(ctx.rank * region, (ctx.rank + 1) * region,
                                 dtype=np.int64)
                sdm.data_view(handle, name, full)
                sdm.write(handle, name, 0, full * 1.5 + 0.25)
                wanted = _holey_view(ctx.rank, ctx.size, n, _BLOCK, hole)
                sdm.data_view(handle, name, wanted)
                back = np.empty(len(wanted))
                with ctx.phase(phase):
                    sdm.read(handle, name, 0, back)
                np.testing.assert_allclose(back, wanted * 1.5 + 0.25)
                out.append(back[0])
            sdm.finalize(handle)
            return out

        job = mpirun(program, GAP_RANKS, machine=origin2000(),
                     services=sdm_services())
        small = job.phase_max("read-small-holes")
        large = job.phase_max("read-large-holes")
        return {"read_small": small, "read_large": large,
                "read_total": small + large}

    cells = {"static": {}}
    for gap in GAP_GRID:
        cells["static"][str(gap)] = run_cell({"coalesce_gap": gap}, "static")
    adaptive = run_cell(None, "adaptive")
    cells["adaptive"] = adaptive
    cells["best_static"] = min(
        c["read_total"] for c in cells["static"].values()
    )
    cells["default_static"] = cells["static"][str(GAP_DEFAULT)]["read_total"]
    cells["win_vs_best_static"] = (
        cells["best_static"] / adaptive["read_total"]
    )
    cells["win_vs_default"] = (
        cells["default_static"] / adaptive["read_total"]
    )
    return cells


# ---------------------------------------------------------------------------
# 2. self-driving maintenance (read-count promotion)
# ---------------------------------------------------------------------------

MAINT_RANKS = 4
MAINT_ELEMENTS = 131_072
_SHUFFLE_BLOCK = 8
MAINT_READS = 8
_THINK_TIME = 0.05
"""Virtual seconds of compute between reads — the window background
promotion needs to land off the critical path."""


def _block_shuffled_maps(nprocs, n, seed=11):
    """Irregular write maps: each rank owns a random set of
    ``_SHUFFLE_BLOCK``-element blocks (whole blocks, so the gid set is
    genuinely non-arithmetic and every chunk stores a real index block).
    Chunked order scatters every contiguous foreign view across all
    chunks — the read pattern that pays index resolution on every cold
    read."""
    rng = np.random.default_rng(seed)
    blocks = rng.permutation(n // _SHUFFLE_BLOCK)
    return [
        (
            blocks[r::nprocs][:, None] * _SHUFFLE_BLOCK
            + np.arange(_SHUFFLE_BLOCK)[None, :]
        ).reshape(-1)
        for r in range(nprocs)
    ]


def run_maintenance_case():
    maps = _block_shuffled_maps(MAINT_RANKS, MAINT_ELEMENTS)

    def run_cell(policy):
        def program(ctx):
            sdm = SDM(ctx, "benchpol", organization=Organization.LEVEL_2,
                      storage_order=CHUNKED, reorganize_mode="background",
                      policy=policy)
            result = sdm.make_datalist(["d"])
            sdm.associate_attributes(result, data_type=DOUBLE,
                                     global_size=MAINT_ELEMENTS)
            handle = sdm.set_attributes(result)
            mine = maps[ctx.rank]
            sdm.data_view(handle, "d", mine)
            sdm.write(handle, "d", 0, mine * 0.5 + 1.0)
            fname = sdm.checkpoint_file(handle, "d", 0,
                                        storage_order=CHUNKED)
            # The hot read path: a contiguous foreign share, read cold
            # every round (each round models a fresh analysis job, so
            # the warm index-block cache cannot hide the chunked
            # instance's resolution traffic).
            region = MAINT_ELEMENTS // ctx.size
            share = np.arange(ctx.rank * region, (ctx.rank + 1) * region,
                              dtype=np.int64)
            sdm.data_view(handle, "d", share)
            back = np.empty(len(share))
            for _ in range(MAINT_READS):
                sdm.invalidate_chunked_caches(fname)
                with ctx.phase("read-loop"):
                    sdm.read(handle, "d", 0, back)
                np.testing.assert_allclose(back, share * 0.5 + 1.0)
                ctx.proc.hold(_THINK_TIME)
            sdm.drain_maintenance()
            pol = sdm._maint_policy
            n_promotions = 0 if pol is None else pol.n_promotions
            sdm.finalize(handle)
            return n_promotions

        job = mpirun(program, MAINT_RANKS, machine=origin2000(),
                     services=sdm_services())
        return {"read_loop": job.phase_max("read-loop"),
                "n_promotions": job.values[0]}

    cells = {"static": run_cell("static"), "adaptive": run_cell("adaptive")}
    cells["best_static"] = cells["static"]["read_loop"]
    cells["default_static"] = cells["static"]["read_loop"]
    cells["win_vs_best_static"] = (
        cells["best_static"] / cells["adaptive"]["read_loop"]
    )
    cells["win_vs_default"] = cells["win_vs_best_static"]
    return cells


# ---------------------------------------------------------------------------


def run_matrix():
    table = ResultTable(
        "Ablation (policy) - self-tuning loops vs every static setting"
    )
    gap = run_gap_case()
    for g, cell in gap["static"].items():
        table.add("ablation-policy", f"gap-static/{g}B",
                  "virtual-time", cell["read_total"], "s")
    table.add("ablation-policy", "gap-adaptive",
              "virtual-time", gap["adaptive"]["read_total"], "s")
    table.add("ablation-policy", "gap-win-vs-best-static",
              "ratio", gap["win_vs_best_static"], "x")

    maint = run_maintenance_case()
    table.add("ablation-policy", "maintenance-static",
              "virtual-time", maint["static"]["read_loop"], "s")
    table.add("ablation-policy", "maintenance-adaptive",
              "virtual-time", maint["adaptive"]["read_loop"], "s")
    table.add("ablation-policy", "maintenance-win-vs-static",
              "ratio", maint["win_vs_best_static"], "x")
    return table, {"gap": gap, "maintenance": maint}


def _round(obj):
    if isinstance(obj, dict):
        return {k: _round(v) for k, v in obj.items()}
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, (bool, int, str)):
        return obj
    return obj


def _emit_json(table, cases):
    """Write the matrix to $POLICY_BENCH_JSON for cross-PR tracking."""
    path = os.environ.get("POLICY_BENCH_JSON")
    if not path:
        return
    doc = {
        "benchmark": "ablation-policy",
        "gap_ranks": GAP_RANKS,
        "maintenance_ranks": MAINT_RANKS,
        "maintenance_reads": MAINT_READS,
        "rows": [asdict(row) for row in table.rows],
        "cases": _round(cases),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@pytest.mark.benchmark(group="ablation-policy")
def test_adaptive_policies_beat_every_static_setting(benchmark, report):
    table, cases = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    report(table)
    _emit_json(table, cases)
    # Each loop: at least as good as the best static setting of its knob.
    loops = {name: cases[name] for name in ("gap", "maintenance")}
    for name, case in loops.items():
        assert case["win_vs_best_static"] >= 1.0, (name, case)
    # And the tier must actually matter: >5% over the shipped defaults
    # on at least one loop.
    assert max(c["win_vs_default"] for c in loops.values()) > 1.05, cases
    # The maintenance win comes from the promotion actually firing.
    assert cases["maintenance"]["adaptive"]["n_promotions"] == 1, cases
    assert cases["maintenance"]["static"]["n_promotions"] == 0, cases
    benchmark.extra_info["gap_win"] = round(
        cases["gap"]["win_vs_best_static"], 3
    )
    benchmark.extra_info["maintenance_win"] = round(
        cases["maintenance"]["win_vs_best_static"], 3
    )
