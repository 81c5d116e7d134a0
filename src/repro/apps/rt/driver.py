"""SDM-ported Rayleigh–Taylor template (the Figure 7 workload).

Per checkpoint the application writes two datasets:

* ``node_data`` — one double per mesh vertex, written "according to the
  global node number of the partitioned nodes" (irregular map-array view);
* ``triangle_data`` — one double per triangle, "written contiguously"
  (each rank owns a contiguous triangle block).

Level 1 puts each (dataset, step) in its own file; levels 2 and 3 are
identical here (the paper: "levels 2 and 3 are identical in this case",
since the two datasets already split cleanly into files).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.rt.model import (
    amplitudes_at, mode_patterns, triangle_field_from_nodes,
)
from repro.core.api import SDM
from repro.core.layout import Organization
from repro.core.ring import owned_nodes_of
from repro.dtypes.primitives import DOUBLE
from repro.mesh.generators import RTProblem
from repro.mpi.job import RankContext

__all__ = ["RTRunConfig", "RTRunResult", "run_rt_sdm"]


@dataclass
class RTRunConfig:
    """Knobs of one RT template run."""

    organization: Organization = Organization.LEVEL_2
    timesteps: int = 5
    dt: float = 0.1
    storage_order: str = "canonical"
    """Checkpoint data path ("canonical" or exchange-free "chunked")."""

    reorganize_after: bool = False
    """Convert every chunked checkpoint to canonical order after the
    timestep loop (the deferred exchange, paid once)."""

    reorganize_mode: str = "sync"
    """"sync" pays the exchange on the application ranks; "background"
    queues it (and the follow-up compaction) on the maintenance tier."""

    compact_after: bool = False
    """After reorganization, compact the chunked checkpoint files down
    to their live bytes."""


@dataclass
class RTRunResult:
    """Per-rank outcome."""

    bytes_written: int
    n_owned_nodes: int
    n_owned_triangles: int
    checksum: float


def _even_block(total: int, rank: int, size: int) -> tuple:
    base, rem = divmod(total, size)
    start = rank * base + min(rank, rem)
    count = base + (1 if rank < rem else 0)
    return start, count


def run_rt_sdm(
    ctx: RankContext,
    problem: RTProblem,
    part_vector: np.ndarray,
    config: RTRunConfig = None,
) -> RTRunResult:
    """Run the SDM-ported RT template on one rank (SPMD function)."""
    config = config or RTRunConfig()
    mesh = problem.mesh
    part_vector = np.asarray(part_vector, dtype=np.int64)

    sdm = SDM(
        ctx, "rt", organization=config.organization,
        problem_size=mesh.n_nodes, num_timesteps=config.timesteps,
        storage_order=config.storage_order,
        reorganize_mode=config.reorganize_mode,
    )
    result = sdm.make_datalist(["node_data", "triangle_data"])
    sdm.associate_attributes(
        [result[0]], data_type=DOUBLE, global_size=mesh.n_nodes
    )
    sdm.associate_attributes(
        [result[1]], data_type=DOUBLE, global_size=problem.n_triangles
    )
    handle = sdm.set_attributes(result)

    owned = owned_nodes_of(part_vector, ctx.rank)
    sdm.data_view(handle, "node_data", owned)
    tri_start, tri_count = _even_block(problem.n_triangles, ctx.rank, ctx.size)
    tri_map = np.arange(tri_start, tri_start + tri_count, dtype=np.int64)
    sdm.data_view(handle, "triangle_data", tri_map)
    my_triangles = problem.triangle_nodes[tri_start : tri_start + tri_count]

    # Whole-field evaluation is pure; each rank extracts its pieces.  The
    # modes' spatial patterns do not change with time: built once.
    patterns = mode_patterns(mesh.coords)
    checksum = 0.0
    bytes_written = 0
    for t in range(config.timesteps):
        time = (t + 1) * config.dt
        amplitudes = amplitudes_at(patterns, time)
        node_vals = amplitudes[owned]
        tri_vals = triangle_field_from_nodes(amplitudes, my_triangles)
        ctx.proc.hold(
            ctx.machine.compute.elements(len(owned) + len(tri_vals), 4.0)
        )
        with ctx.phase("write"):
            sdm.write(handle, "node_data", t, node_vals)
            sdm.write(handle, "triangle_data", t, tri_vals)
        bytes_written += (len(node_vals) + len(tri_vals)) * 8
        checksum += float(node_vals.sum()) + float(tri_vals.sum())

    if config.reorganize_after and config.storage_order == "chunked":
        with ctx.phase("reorganize"):
            for t in range(config.timesteps):
                sdm.reorganize(handle, "node_data", t)
                sdm.reorganize(handle, "triangle_data", t)
        if config.compact_after:
            files = sdm.chunked_checkpoint_files(
                handle, range(config.timesteps)
            )
            for fname in files:
                sdm.compact(fname, mode=config.reorganize_mode)

    sdm.finalize(handle)
    return RTRunResult(
        bytes_written=bytes_written,
        n_owned_nodes=len(owned),
        n_owned_triangles=tri_count,
        checksum=checksum,
    )
