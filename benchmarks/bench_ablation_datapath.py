"""Ablation: storage-order data path — chunked vs canonical writes.

The storage-order layer's claim: writing each rank's data in distribution
order (chunked, independent I/O, no interprocess exchange) beats writing
canonical global order (two-phase exchange on every write), and the
deferred exchange can be paid once, later, via ``SDM.reorganize``.

Each cell runs the same irregular checkpoint workload — a round-robin map
array, the worst interleaving for collective writes — on the origin2000
machine model at 2/4/8 ranks and reports simulated (virtual) seconds on
the critical path:

* ``write/canonical``   — two-phase exchange per write,
* ``write/chunked``     — exchange-free appends,
* ``reorganize``        — one-time conversion of every chunked instance,
* ``read/canonical`` and ``read/chunked`` — the read price of each
  representation (chunked reads resolve positions from the chunk maps,
  coalesce them into maximal byte runs, and gather collectively),
* ``read-gap``          — cold chunked/canonical read ratio (the number
  ``make perfcheck`` guards),
* ``read-runs``         — byte runs submitted to the I/O layer during
  each read: the coalescer must keep the chunked read at O(chunks), not
  O(elements).

Reads must return byte-identical arrays either way — the bench asserts it
— chunked writes must win from 4 ranks up, and the cold chunked read must
stay within 1.3x of canonical from 4 ranks up.

Two satellite cases pin the other datapath claims:

* **index case** (fully indexed permutation maps, 4-32 ranks) — a cold
  collective read must fetch each chunk index block exactly once, so the
  job-wide ``index_bytes_read`` delta stays within ``1.1x`` of the index
  size (per-rank resolution would read ``P`` copies);
* **churn case** (sliding-window write/reorganize) — first-fit extent
  reuse must hold the shared chunked file at ``(W+1)/W`` of its live
  bytes in steady state instead of growing without bound.

Every cell pins ``policy="static"`` so the self-tuning tier (benched on
its own in ``bench_ablation_policy.py``) cannot drift these baselines.

Set ``DATAPATH_BENCH_JSON=<path>`` (the Makefile's ``bench-datapath``
target points it at ``BENCH_datapath.json``) to emit the matrix as JSON
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
from repro.metadb.schema import SDMTables
from repro.mpi import mpirun

RANK_COUNTS = (2, 4, 8, 16, 32)
GLOBAL_ELEMENTS = 1_000_000
"""8 MB of doubles per instance — the scale of the paper's FUN3D datasets
(21–105 MB), large enough that bandwidth, not request latency, decides."""
TIMESTEPS = 5

INDEX_RANKS = (4, 8, 16, 32)
INDEX_ELEMENTS = 256_000
"""Permutation-split instance for the index-traffic case: every chunk is
indexed, so the index is exactly ``INDEX_ELEMENTS * 8`` bytes."""

CHURN_RANKS = 8
CHURN_ELEMENTS = 200_000
CHURN_WINDOW = 5
CHURN_TIMESTEPS = 15
"""Sliding-window churn: keep the last ``CHURN_WINDOW`` timesteps
chunked, reorganize (and thereby reap) everything older."""


def permutation_maps(nprocs, n, seed):
    """Equal-count random partition of ``range(n)``: every rank's map is
    a sorted random subset, so every chunk carries a real index block."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    share = n // nprocs
    return [
        np.sort(perm[r * share:(r + 1) * share]).astype(np.int64)
        for r in range(nprocs)
    ]


def run_case(nprocs, order, reorganize):
    """One simulated checkpoint run; returns critical-path phase seconds
    (plus job-wide I/O counters for the cold read) and the concatenated
    read-back of the final timestep."""

    def program(ctx):
        sdm = SDM(
            ctx, "bench", organization=Organization.LEVEL_2,
            storage_order=order, policy="static",
        )
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(
            result, data_type=DOUBLE, global_size=GLOBAL_ELEMENTS
        )
        handle = sdm.set_attributes(result)
        # Round-robin distribution: the worst interleaving for a
        # canonical (global-order) write, the common case for irregular
        # partitions.
        mine = np.arange(ctx.rank, GLOBAL_ELEMENTS, ctx.size, dtype=np.int64)
        sdm.data_view(handle, "d", mine)
        for t in range(TIMESTEPS):
            with ctx.phase("write"):
                sdm.write(handle, "d", t, mine * 1.0 + t)
        if reorganize:
            for t in range(TIMESTEPS):
                with ctx.phase("reorganize"):
                    sdm.reorganize(handle, "d", t)
        back = np.empty(len(mine))
        # Barrier-delimit the read so the job-wide fs counters isolate it:
        # the barrier after the snapshot guarantees every rank records
        # "before" before any rank's read touches the counters, and the
        # one after the read closes the window.
        fs = ctx.service("fs")
        before = fs.stats()
        ctx.comm.barrier()
        with ctx.phase("read"):
            sdm.read(handle, "d", TIMESTEPS - 1, back)
        ctx.comm.barrier()
        after = fs.stats()
        counters = {
            "read_runs_submitted": after["runs_submitted"] - before["runs_submitted"],
            "read_runs_serviced": after["runs_serviced"] - before["runs_serviced"],
            "read_requests": after["n_requests"] - before["n_requests"],
            "read_index_bytes": after["index_bytes_read"] - before["index_bytes_read"],
            "read_data_bytes": after["data_bytes_read"] - before["data_bytes_read"],
        }
        sdm.finalize(handle)
        return back, counters

    job = mpirun(program, nprocs, machine=origin2000(),
                 services=sdm_services())
    merged = np.empty(GLOBAL_ELEMENTS)
    for rank, (back, _c) in enumerate(job.values):
        merged[rank::nprocs] = back
    return {
        "write": job.phase_max("write"),
        "reorganize": job.phase_max("reorganize"),
        "read": job.phase_max("read"),
        **job.values[0][1],
    }, merged


def run_index_case(nprocs):
    """Cold collective read of a fully indexed instance: how many index
    bytes does resolution pull off disk, job-wide?  Returns the cell."""
    maps = permutation_maps(nprocs, INDEX_ELEMENTS, seed=1234)

    def program(ctx):
        sdm = SDM(
            ctx, "benchidx", organization=Organization.LEVEL_2,
            storage_order=CHUNKED, policy="static",
        )
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(
            result, data_type=DOUBLE, global_size=INDEX_ELEMENTS
        )
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        fname = sdm.write(handle, "d", 0, mine * 1.0)
        # Make the read genuinely cold: drop every warm index-block copy
        # the write left behind, then barrier-delimit the measurement so
        # the job-wide counter window contains exactly this read.
        sdm.invalidate_chunked_caches(fname)
        fs = ctx.service("fs")
        before = fs.stats()
        ctx.comm.barrier()
        back = np.empty(len(mine))
        with ctx.phase("read"):
            sdm.read(handle, "d", 0, back)
        ctx.comm.barrier()
        delta = fs.stats()["index_bytes_read"] - before["index_bytes_read"]
        sdm.finalize(handle)
        return back, delta

    job = mpirun(program, nprocs, machine=origin2000(),
                 services=sdm_services())
    for rank, (back, _d) in enumerate(job.values):
        np.testing.assert_allclose(back, maps[rank] * 1.0)
    index_bytes = INDEX_ELEMENTS * 8
    cold_bytes = job.values[0][1]
    return {
        "index_bytes_total": index_bytes,
        "index_bytes_cold_read": int(cold_bytes),
        "index_bytes_ratio": cold_bytes / index_bytes,
        "read": job.phase_max("read"),
    }


def run_churn_case(nprocs):
    """Sliding-window churn on one shared chunked file: write timestep
    ``t``, reorganize (flip + reap) timestep ``t - W``.  With first-fit
    extent reuse the file plateaus at ``W + 1`` instance regions; without
    it every write appends and the file grows ~3x the live bytes by the
    end.  Returns the cell."""
    maps = [
        permutation_maps(nprocs, CHURN_ELEMENTS, seed=100 + t)
        for t in range(CHURN_TIMESTEPS)
    ]

    def program(ctx):
        sdm = SDM(
            ctx, "benchchurn", organization=Organization.LEVEL_2,
            storage_order=CHUNKED, policy="static",
        )
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(
            result, data_type=DOUBLE, global_size=CHURN_ELEMENTS
        )
        handle = sdm.set_attributes(result)
        for t in range(CHURN_TIMESTEPS):
            mine = maps[t][ctx.rank]
            sdm.data_view(handle, "d", mine)
            with ctx.phase("churn-write"):
                sdm.write(handle, "d", t, mine * 1.0 + t)
            if t >= CHURN_WINDOW:
                with ctx.phase("churn-reorganize"):
                    sdm.reorganize(handle, "d", t - CHURN_WINDOW)
        # The newest in-window instance must read back through whatever
        # recycled extents it landed in.
        t = CHURN_TIMESTEPS - 1
        mine = maps[t][ctx.rank]
        sdm.data_view(handle, "d", mine)
        back = np.empty(len(mine))
        sdm.read(handle, "d", t, back)
        sdm.finalize(handle)
        return back

    job = mpirun(program, nprocs, machine=origin2000(),
                 services=sdm_services())
    t = CHURN_TIMESTEPS - 1
    for rank, back in enumerate(job.values):
        np.testing.assert_allclose(back, maps[t][rank] * 1.0 + t)
    tables = SDMTables(job.services["db"])
    fname = "benchchurn/d.chunked.dat"
    file_size = job.services["fs"].lookup(fname).size
    live_bytes = sum(r[4] for r in tables.executions_in_file(fname))
    return {
        "file_size": int(file_size),
        "live_bytes": int(live_bytes),
        "file_growth_ratio": file_size / live_bytes,
        "write": job.phase_max("churn-write"),
        "reorganize": job.phase_max("churn-reorganize"),
    }


def run_matrix():
    table = ResultTable(
        "Ablation (datapath) - chunked vs canonical storage order"
    )
    cells = {}
    for nprocs in RANK_COUNTS:
        canonical, canonical_data = run_case(nprocs, CANONICAL, False)
        chunked, chunked_data = run_case(nprocs, CHUNKED, False)
        reorg, reorg_data = run_case(nprocs, CHUNKED, True)
        # Identical bytes back regardless of on-disk representation.
        np.testing.assert_array_equal(canonical_data, chunked_data)
        np.testing.assert_array_equal(canonical_data, reorg_data)
        cells[nprocs] = {
            "write_canonical": canonical["write"],
            "write_chunked": chunked["write"],
            "write_speedup": canonical["write"] / chunked["write"],
            "reorganize": reorg["reorganize"],
            "read_canonical": canonical["read"],
            "read_chunked": chunked["read"],
            "read_gap": chunked["read"] / canonical["read"],
            "read_runs_chunked": chunked["read_runs_submitted"],
            "read_runs_canonical": canonical["read_runs_submitted"],
            "read_requests_chunked": chunked["read_requests"],
            "read_requests_canonical": canonical["read_requests"],
            "read_index_bytes_chunked": chunked["read_index_bytes"],
            "read_data_bytes_chunked": chunked["read_data_bytes"],
            "read_index_bytes_canonical": canonical["read_index_bytes"],
            "read_data_bytes_canonical": canonical["read_data_bytes"],
        }
        for config, value in (
            (f"write-canonical/{nprocs}p", canonical["write"]),
            (f"write-chunked/{nprocs}p", chunked["write"]),
            (f"reorganize/{nprocs}p", reorg["reorganize"]),
            (f"read-canonical/{nprocs}p", canonical["read"]),
            (f"read-chunked/{nprocs}p", chunked["read"]),
        ):
            table.add("ablation-datapath", config, "virtual-time", value, "s")
        table.add(
            "ablation-datapath", f"chunked-write-speedup/{nprocs}p",
            "speedup", cells[nprocs]["write_speedup"], "x",
        )
        table.add(
            "ablation-datapath", f"read-gap/{nprocs}p",
            "ratio", cells[nprocs]["read_gap"], "x",
        )
        table.add(
            "ablation-datapath", f"read-runs-chunked/{nprocs}p",
            "runs-submitted", float(chunked["read_runs_submitted"]), "runs",
        )
        table.add(
            "ablation-datapath", f"read-runs-canonical/{nprocs}p",
            "runs-submitted", float(canonical["read_runs_submitted"]), "runs",
        )
        table.add(
            "ablation-datapath", f"read-index-bytes-chunked/{nprocs}p",
            "bytes", float(chunked["read_index_bytes"]), "B",
        )
        table.add(
            "ablation-datapath", f"read-data-bytes-chunked/{nprocs}p",
            "bytes", float(chunked["read_data_bytes"]), "B",
        )
    index_cells = {}
    for nprocs in INDEX_RANKS:
        index_cells[nprocs] = run_index_case(nprocs)
        table.add(
            "ablation-datapath", f"index-bytes-ratio/{nprocs}p",
            "ratio", index_cells[nprocs]["index_bytes_ratio"], "x",
        )
    churn = run_churn_case(CHURN_RANKS)
    table.add(
        "ablation-datapath", f"file-growth-ratio/{CHURN_RANKS}p",
        "ratio", churn["file_growth_ratio"], "x",
    )
    return table, cells, index_cells, churn


def _emit_json(table, cells, index_cells, churn):
    """Write the matrix to $DATAPATH_BENCH_JSON for cross-PR tracking."""
    path = os.environ.get("DATAPATH_BENCH_JSON")
    if not path:
        return
    doc = {
        "benchmark": "ablation-datapath",
        "global_elements": GLOBAL_ELEMENTS,
        "timesteps": TIMESTEPS,
        "rank_counts": list(RANK_COUNTS),
        "rows": [asdict(row) for row in table.rows],
        "cells": {
            str(n): {k: round(v, 6) for k, v in by_key.items()}
            for n, by_key in cells.items()
        },
        "index_cells": {
            str(n): {k: round(v, 6) for k, v in by_key.items()}
            for n, by_key in index_cells.items()
        },
        "churn": {k: round(v, 6) for k, v in churn.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@pytest.mark.benchmark(group="ablation-datapath")
def test_chunked_writes_beat_canonical(benchmark, report):
    table, cells, index_cells, churn = benchmark.pedantic(
        run_matrix, rounds=1, iterations=1
    )
    report(table)
    _emit_json(table, cells, index_cells, churn)
    # The exchange-free write path must win from 4 ranks up (the
    # acceptance bar).  At 2 ranks the once-per-view index blocks can
    # offset the small exchange, so no claim is made there.
    for nprocs in RANK_COUNTS:
        if nprocs >= 4:
            assert cells[nprocs]["write_speedup"] > 1.0, cells[nprocs]
    # Reorganization is the deferred exchange: one conversion should not
    # dwarf the write savings — it stays within an order of magnitude of
    # a full canonical write phase.
    for nprocs in RANK_COUNTS:
        assert cells[nprocs]["reorganize"] < 10 * cells[nprocs]["write_canonical"]
    for nprocs in RANK_COUNTS:
        # The coalescer's request-count collapse: a chunked read submits
        # O(chunks) byte runs, not O(elements) — the canonical read's
        # per-element view runs are the contrast.
        assert cells[nprocs]["read_runs_chunked"] <= 64 * nprocs, cells[nprocs]
        if nprocs >= 4:
            # The read-gap acceptance bar (enforced against the committed
            # JSON by `make perfcheck`).
            assert cells[nprocs]["read_gap"] <= 1.3, cells[nprocs]
    # Collective resolution: a cold read pulls each index block off disk
    # exactly once job-wide — per-rank resolution would read P copies.
    for nprocs in INDEX_RANKS:
        assert index_cells[nprocs]["index_bytes_ratio"] <= 1.1, (
            index_cells[nprocs]
        )
    # First-fit reuse: the churned file plateaus near (W+1)/W of its live
    # bytes instead of growing ~(T/W)x under append-only placement.
    assert churn["file_growth_ratio"] <= 1.25, churn
    benchmark.extra_info["write_speedup_4p"] = round(
        cells[4]["write_speedup"], 2
    )
    benchmark.extra_info["write_speedup_8p"] = round(
        cells[8]["write_speedup"], 2
    )
    benchmark.extra_info["read_gap_4p"] = round(cells[4]["read_gap"], 2)
    benchmark.extra_info["read_gap_8p"] = round(cells[8]["read_gap"], 2)
    benchmark.extra_info["read_gap_32p"] = round(cells[32]["read_gap"], 2)
    benchmark.extra_info["index_bytes_ratio_32p"] = round(
        index_cells[32]["index_bytes_ratio"], 3
    )
    benchmark.extra_info["file_growth_ratio"] = round(
        churn["file_growth_ratio"], 3
    )
