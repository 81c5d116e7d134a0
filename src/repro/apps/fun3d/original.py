"""The "original" FUN3D I/O structure (the paper's baseline).

Without SDM, the application's I/O is what Figure 5 labels *(Original)*:

* **Import** — process 0 alone reads every array from the mesh file (one
  sequential stream) and broadcasts it to everyone.
* **Index distribution** — every rank, holding the full edge list, makes
  *two* passes: one to count its edges (to size the allocation), one to
  store them — the count-then-read pattern SDM's ``realloc`` growth
  replaces.
* **Checkpoint writes** — processes write their portions one by one
  (token-passed sequential writes through a single stream).

Data results are identical to the SDM path; only the costs differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.apps.fun3d.kernel import edge_sweep, update_ghosts, localize
from repro.core.ring import _EXAMINE_OPS_PER_EDGE, LocalPartition, owned_nodes_of
from repro.mesh.generators import FUN3D_EDGE_ARRAYS, FUN3D_NODE_ARRAYS, Fun3dProblem
from repro.mesh.meshfile import MESH_FILE, mesh_file_layout
from repro.mpi.job import RankContext
from repro.pfs.file import RD, WR
from repro.pfs.filesystem import FileSystem

__all__ = ["run_fun3d_original", "OriginalRunResult"]


@dataclass
class OriginalRunResult:
    """Per-rank outcome of the original-application run."""

    n_local_edges: int
    n_local_nodes: int
    bytes_written: int
    checksum: float


def _rank0_read_bcast(
    ctx: RankContext, fs: FileSystem, fname: str, offset: int, nbytes: int, dtype
) -> np.ndarray:
    """Process 0 reads a whole array sequentially, then broadcasts it."""
    data = None
    if ctx.rank == 0:
        h = fs.open(ctx.proc, fname, RD)
        data = fs.read_at(ctx.proc, h, offset, nbytes).view(dtype)
        fs.close(ctx.proc, h)
    return ctx.comm.bcast(data, root=0)


def run_fun3d_original(
    ctx: RankContext,
    problem: Fun3dProblem,
    part_vector: np.ndarray,
    timesteps: int = 2,
    checkpoint_every: int = 1,
) -> OriginalRunResult:
    """Run the original (non-SDM) FUN3D template on one rank."""
    mesh = problem.mesh
    fs: FileSystem = ctx.service("fs")
    layout = mesh_file_layout(
        mesh.n_edges, mesh.n_nodes, list(FUN3D_EDGE_ARRAYS), list(FUN3D_NODE_ARRAYS)
    )
    compute = ctx.machine.compute
    part_vector = np.asarray(part_vector, dtype=np.int64)

    # ----------------------------------------------------------- import --
    with ctx.phase("import"):
        edge1 = _rank0_read_bcast(
            ctx, fs, MESH_FILE, layout.offset("edge1"), mesh.n_edges * 4, np.int32
        ).astype(np.int64)
        edge2 = _rank0_read_bcast(
            ctx, fs, MESH_FILE, layout.offset("edge2"), mesh.n_edges * 4, np.int32
        ).astype(np.int64)

    # ----------------------------------------------------- index distri --
    with ctx.phase("index_distri"):
        # Pass 1: count my edges (sizing pass the original needs).
        ctx.proc.hold(compute.elements(mesh.n_edges, _EXAMINE_OPS_PER_EDGE))
        keep = (part_vector[edge1] == ctx.rank) | (part_vector[edge2] == ctx.rank)
        n_mine = int(keep.sum())
        # Pass 2: store them into the exact-size allocation.
        ctx.proc.hold(compute.elements(mesh.n_edges, _EXAMINE_OPS_PER_EDGE))
        edge_map = np.flatnonzero(keep).astype(np.int64)
        le1, le2 = edge1[keep], edge2[keep]
        owned = owned_nodes_of(part_vector, ctx.rank)
        endpoints = (
            np.unique(np.concatenate([le1, le2]))
            if n_mine
            else np.empty(0, dtype=np.int64)
        )
        node_map = np.union1d(owned, endpoints)
        local = LocalPartition(
            edge_map=edge_map, edge1=le1, edge2=le2,
            node_map=node_map, owned_nodes=owned,
        )

    # Import data arrays: rank 0 reads, broadcasts; ranks pick their parts.
    edge_data: Dict[str, np.ndarray] = {}
    node_data: Dict[str, np.ndarray] = {}
    with ctx.phase("import"):
        for name in FUN3D_EDGE_ARRAYS:
            whole = _rank0_read_bcast(
                ctx, fs, MESH_FILE, layout.offset(name),
                mesh.n_edges * 8, np.float64,
            )
            ctx.proc.hold(compute.elements(len(local.edge_map)))
            edge_data[name] = whole[local.edge_map]
        for name in FUN3D_NODE_ARRAYS:
            whole = _rank0_read_bcast(
                ctx, fs, MESH_FILE, layout.offset(name),
                mesh.n_nodes * 8, np.float64,
            )
            ctx.proc.hold(compute.elements(len(local.node_map)))
            node_data[name] = whole[local.node_map]

    # ------------------------------------------------------ computation --
    e1l = localize(local.node_map, local.edge1)
    e2l = localize(local.node_map, local.edge2)
    x = edge_data[FUN3D_EDGE_ARRAYS[0]]
    y = node_data[FUN3D_NODE_ARRAYS[0]].copy()
    owned_sel = localize(local.node_map, owned)

    # Node-block offsets for sequential writes: rank r's owned values land
    # as one block, ordered by rank (the original's file layout).
    counts = ctx.comm.allgather(len(owned))
    my_block_start = int(sum(counts[: ctx.rank]))

    checksum = 0.0
    bytes_written = 0
    token_tag = 777
    for t in range(timesteps):
        p, q = edge_sweep(e1l, e2l, x, y, ctx)
        p, q = update_ghosts(ctx, local.node_map, part_vector, p, q)
        y = y + 1e-3 * p
        if (t + 1) % checkpoint_every == 0:
            fields = [
                ("p", p[owned_sel]), ("q", q[owned_sel]),
                ("r", p[owned_sel] - q[owned_sel]), ("s", p[owned_sel] * 0.5),
                ("res", np.repeat(p[owned_sel], 5)),
            ]
            with ctx.phase("write"):
                for name, values in fields:
                    fname = f"fun3d-orig/{name}.t{t:06d}"
                    elem_start = (
                        my_block_start * (5 if name == "res" else 1)
                    )
                    # Token-passed strictly sequential writes.
                    if ctx.rank == 0:
                        fs.create(ctx.proc, fname, exist_ok=True)
                    else:
                        ctx.comm.recv(source=ctx.rank - 1, tag=token_tag)
                    h = fs.open(ctx.proc, fname, WR)
                    fs.write_at(ctx.proc, h, elem_start * 8, values)
                    fs.close(ctx.proc, h)
                    if ctx.rank < ctx.size - 1:
                        ctx.comm.send(None, dest=ctx.rank + 1, tag=token_tag)
                    ctx.comm.barrier()
                    bytes_written += len(values) * 8
            checksum += float(p[owned_sel].sum())
    return OriginalRunResult(
        n_local_edges=local.n_local_edges,
        n_local_nodes=local.n_local_nodes,
        bytes_written=bytes_written,
        checksum=checksum,
    )
