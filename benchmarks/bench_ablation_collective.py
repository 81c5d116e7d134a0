"""Ablation: collective (two-phase) vs independent I/O for interleaved data.

SDM's entire performance story rests on handing noncontiguous interleaved
accesses to collective MPI-IO.  This bench writes a global array whose
elements are owned round-robin by rank (element-level interleaving — the
file layout "ordered by global node numbers" when ownership is scattered)
through three code paths:

* ``write_at_all`` — two-phase collective, what SDM emits;
* ``write_at`` on a RDWR handle — independent with data-sieving
  read-modify-write (lock-serialized, as ROMIO must);
* ``write_at`` on a WRONLY handle — independent, one request per run.

No time dilation: the pattern is synthetic, so it runs at true scale and
the factors are the machine model's own.

Set ``COLLECTIVE_BENCH_JSON=<path>`` (the Makefile's ``bench-collective``
target points it at ``BENCH_collective.json``) to emit the three
bandwidths and the two ratios as JSON.  Every cell is virtual-time, hence
deterministic and written unrounded: a change to the two-phase path that
moves no virtual cell regenerates the file byte for byte.
"""

import json
import os

import numpy as np
import pytest

from repro.bench.harness import ResultTable
from repro.config import origin2000
from repro.core import sdm_services
from repro.dtypes import FLOAT64, Contiguous
from repro.mpi import mpirun
from repro.mpiio import File, MODE_CREATE, MODE_RDWR, MODE_WRONLY

MB = 1024.0 * 1024.0
NPROCS = 8
ELEMENTS_PER_RANK = 4096
"""Each rank owns this many 8-byte elements, strided by NPROCS in the file."""


def run_paths():
    machine = origin2000()
    table = ResultTable(
        f"Ablation (collective vs independent) - element-interleaved writes "
        f"(P={NPROCS}, {ELEMENTS_PER_RANK} elems/rank)"
    )

    def make_program(mode_name):
        def program(ctx):
            fs = ctx.service("fs")
            amode = (
                MODE_CREATE | MODE_WRONLY
                if mode_name == "independent_wronly"
                else MODE_CREATE | MODE_RDWR
            )
            f = File.open(ctx.comm, fs, "inter.dat", amode)
            # Element k of this rank lives at global element k*P + rank.
            ft = Contiguous(1, FLOAT64).with_extent(8 * ctx.size)
            f.set_view(disp=8 * ctx.rank, etype=FLOAT64, filetype=ft)
            data = np.arange(ELEMENTS_PER_RANK, dtype=np.float64) + ctx.rank
            t0 = ctx.now
            if mode_name == "collective":
                f.write_at_all(0, data)
            else:
                f.write_at(0, data)
                ctx.comm.barrier()
            dt = ctx.now - t0
            f.close()
            return dt

        return program

    total_bytes = NPROCS * ELEMENTS_PER_RANK * 8
    results = {}
    for mode in ("collective", "independent_rdwr", "independent_wronly"):
        job = mpirun(make_program(mode), NPROCS, machine=machine,
                     services=sdm_services())
        bw = total_bytes / max(job.values) / MB
        results[mode] = bw
        table.add("ablation-collective", mode, "write", bw, "MB/s")
        # Correctness: the interleaved file must be exactly right either way.
        fs = job.services["fs"]
        whole = fs.lookup("inter.dat").store.read(0, total_bytes).view(np.float64)
        expect = np.empty(NPROCS * ELEMENTS_PER_RANK)
        for r in range(NPROCS):
            expect[r::NPROCS] = np.arange(ELEMENTS_PER_RANK) + r
        np.testing.assert_array_equal(whole, expect)
    return table, results


def _emit_json(results):
    """Write the cells to $COLLECTIVE_BENCH_JSON for cross-PR tracking."""
    path = os.environ.get("COLLECTIVE_BENCH_JSON")
    if not path:
        return
    cells = {f"{mode}_mbps": bw for mode, bw in results.items()}
    for mode in ("independent_rdwr", "independent_wronly"):
        cells[f"collective_vs_{mode}"] = results["collective"] / results[mode]
    doc = {
        "benchmark": "ablation-collective",
        "nprocs": NPROCS,
        "elements_per_rank": ELEMENTS_PER_RANK,
        "cells": cells,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@pytest.mark.benchmark(group="ablation-collective")
def test_collective_io_is_the_enabler(benchmark, report):
    table, results = benchmark.pedantic(run_paths, rounds=1, iterations=1)
    report(table)
    _emit_json(results)
    # Two-phase collective crushes both independent paths by an order of
    # magnitude on element-interleaved data.
    assert results["collective"] > 10.0 * results["independent_rdwr"]
    assert results["collective"] > 10.0 * results["independent_wronly"]
    benchmark.extra_info.update({k: round(v, 2) for k, v in results.items()})
