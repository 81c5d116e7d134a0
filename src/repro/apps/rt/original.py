"""The original RT output path: strictly sequential per-process writes.

"In the original application, the write operation is performed
sequentially.  In other words, after seeking the starting position in a
file, processes write their local portion of data one by one."  A token
travels rank 0 → 1 → ... → P−1; each holder seeks and writes its portion
through a single stream — the single-controller bandwidth SDM's collective
writes blow past in Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.rt.driver import RTRunConfig, _even_block
from repro.apps.rt.model import (
    amplitudes_at, mode_patterns, triangle_field_from_nodes,
)
from repro.core.ring import owned_nodes_of
from repro.mesh.generators import RTProblem
from repro.mpi.job import RankContext
from repro.pfs.file import WR
from repro.pfs.filesystem import FileSystem

__all__ = ["run_rt_original"]


@dataclass
class RTOriginalResult:
    """Per-rank outcome of the original RT run."""

    bytes_written: int
    checksum: float


def run_rt_original(
    ctx: RankContext,
    problem: RTProblem,
    part_vector: np.ndarray,
    config: RTRunConfig = None,
) -> RTOriginalResult:
    """Run the original (sequential-write) RT template on one rank."""
    config = config or RTRunConfig()
    mesh = problem.mesh
    part_vector = np.asarray(part_vector, dtype=np.int64)
    fs: FileSystem = ctx.service("fs")
    comm = ctx.comm

    owned = owned_nodes_of(part_vector, ctx.rank)
    counts = comm.allgather(len(owned))
    node_block_start = int(sum(counts[: ctx.rank]))
    tri_start, tri_count = _even_block(problem.n_triangles, ctx.rank, ctx.size)
    my_triangles = problem.triangle_nodes[tri_start : tri_start + tri_count]

    token_tag = 555
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
            for name, values, start_elem in (
                ("node_data", node_vals, node_block_start),
                ("triangle_data", tri_vals, tri_start),
            ):
                fname = f"rt-orig/{name}.t{t:06d}"
                if ctx.rank == 0:
                    fs.create(ctx.proc, fname, exist_ok=True)
                else:
                    comm.recv(source=ctx.rank - 1, tag=token_tag)
                handle = fs.open(ctx.proc, fname, WR)
                fs.write_at(ctx.proc, handle, start_elem * 8, values)
                fs.close(ctx.proc, handle)
                if ctx.rank < ctx.size - 1:
                    comm.send(None, dest=ctx.rank + 1, tag=token_tag)
                comm.barrier()
                bytes_written += len(values) * 8
        checksum += float(node_vals.sum()) + float(tri_vals.sum())

    return RTOriginalResult(bytes_written=bytes_written, checksum=checksum)
