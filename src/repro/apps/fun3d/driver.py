"""The SDM-ported FUN3D template (the flow of Figures 2 and 3).

Phases are timed under the paper's names so Figure 5 can be regenerated:

* ``import``       — reading edges and the eight data arrays,
* ``index_distri`` — partitioning the edges (ring, or history read),
* ``write`` / ``read`` — checkpoint output and read-back (Figure 6).

The checkpoint group mirrors the paper's output: four node-sized datasets
plus one five-times-node-sized dataset (the 4 x 21 MB + 105 MB of Section
4), written every ``checkpoint_every`` steps for ``timesteps`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.fun3d.kernel import edge_sweep, update_ghosts, localize
from repro.core.api import SDM
from repro.core.layout import Organization
from repro.dtypes.primitives import DOUBLE
from repro.mesh.generators import FUN3D_EDGE_ARRAYS, FUN3D_NODE_ARRAYS, Fun3dProblem
from repro.mesh.meshfile import MESH_FILE, mesh_file_layout
from repro.mpi.job import RankContext

__all__ = ["Fun3dRunConfig", "Fun3dRunResult", "run_fun3d_sdm"]

NODE_DATASETS = ("p", "q", "r", "s")
"""The four node-sized output datasets (the paper's 4 x 21 MB)."""

BIG_DATASET = "res"
BIG_FACTOR = 5
"""The single large dataset is 5x node size (the paper's 105 MB)."""


@dataclass
class Fun3dRunConfig:
    """Knobs of one FUN3D template run."""

    organization: Organization = Organization.LEVEL_2
    timesteps: int = 2
    checkpoint_every: int = 1
    register_history: bool = True
    read_back: bool = False
    """Also read every checkpoint back (the read half of Figure 6)."""

    wait_history: bool = False
    """Block (in virtual time) until this rank's history slice is on
    disk before continuing — read-your-writes on the registered history
    instead of busy-checking ``HistoryRegistration.done``."""


@dataclass
class Fun3dRunResult:
    """Per-rank outcome (inspected by tests and benchmarks)."""

    used_history: bool
    n_local_edges: int
    n_local_nodes: int
    bytes_written: int
    checksum: float
    read_checksum: Optional[float] = None


def run_fun3d_sdm(
    ctx: RankContext,
    problem: Fun3dProblem,
    part_vector: np.ndarray,
    config: Fun3dRunConfig = None,
) -> Fun3dRunResult:
    """Run the SDM-ported FUN3D template on one rank (SPMD function)."""
    config = config or Fun3dRunConfig()
    mesh = problem.mesh
    layout = mesh_file_layout(
        mesh.n_edges, mesh.n_nodes, list(FUN3D_EDGE_ARRAYS), list(FUN3D_NODE_ARRAYS)
    )
    sdm = SDM(
        ctx, "fun3d", organization=config.organization,
        problem_size=mesh.n_edges, num_timesteps=config.timesteps,
    )

    # ------------------------------------------------------- Figure 3 ----
    sdm.make_importlist(
        ["edge1", "edge2", *FUN3D_EDGE_ARRAYS, *FUN3D_NODE_ARRAYS],
        file_name=MESH_FILE,
        index_names=["edge1", "edge2"],
    )
    with ctx.phase("import"):
        chunk = sdm.import_index(
            "edge1", "edge2",
            layout.offset("edge1"), layout.offset("edge2"), mesh.n_edges,
        )
    with ctx.phase("index_distri"):
        sdm.partition_table(part_vector)
        local = sdm.partition_index(part_vector, chunk)
    used_history = chunk is None
    # spmdlint: ok(rank-branch) a history hit is a shared metadata decision, so import_index returns None on every rank or on none
    if config.register_history and not used_history:
        registration = sdm.index_registry(local)
        if config.wait_history:
            registration.wait(ctx.proc)

    edge_data: Dict[str, np.ndarray] = {}
    node_data: Dict[str, np.ndarray] = {}
    with ctx.phase("import"):
        for name in FUN3D_EDGE_ARRAYS:
            edge_data[name] = sdm.import_irregular(
                name, layout.offset(name), mesh.n_edges, local.edge_map
            )
        for name in FUN3D_NODE_ARRAYS:
            node_data[name] = sdm.import_irregular(
                name, layout.offset(name), mesh.n_nodes, local.node_map
            )
    sdm.release_importlist()

    # ------------------------------------------------------- Figure 2 ----
    result = sdm.make_datalist([*NODE_DATASETS, BIG_DATASET])
    sdm.associate_attributes(result[:4], data_type=DOUBLE,
                             global_size=mesh.n_nodes)
    sdm.associate_attributes(result[4:], data_type=DOUBLE,
                             global_size=BIG_FACTOR * mesh.n_nodes)
    handle = sdm.set_attributes(result)

    owned = local.owned_nodes
    for name in NODE_DATASETS:
        sdm.data_view(handle, name, owned)
    big_map = (owned[:, None] * BIG_FACTOR + np.arange(BIG_FACTOR)[None, :]).reshape(-1)
    sdm.data_view(handle, BIG_DATASET, big_map)

    e1l = localize(local.node_map, local.edge1)
    e2l = localize(local.node_map, local.edge2)
    x = edge_data[FUN3D_EDGE_ARRAYS[0]]
    y = node_data[FUN3D_NODE_ARRAYS[0]].copy()
    owned_sel = localize(local.node_map, owned)

    checksum = 0.0
    bytes_written = 0
    for t in range(config.timesteps):
        p, q = edge_sweep(e1l, e2l, x, y, ctx)
        p, q = update_ghosts(ctx, local.node_map, part_vector, p, q)
        y = y + 1e-3 * p  # advance the state so steps differ
        if (t + 1) % config.checkpoint_every == 0:
            fields = {
                "p": p[owned_sel],
                "q": q[owned_sel],
                "r": p[owned_sel] - q[owned_sel],
                "s": p[owned_sel] * 0.5,
            }
            with ctx.phase("write"):
                for name in NODE_DATASETS:
                    sdm.write(handle, name, t, fields[name])
                    bytes_written += len(owned) * 8
                big = np.repeat(fields["p"], BIG_FACTOR)
                sdm.write(handle, BIG_DATASET, t, big)
                bytes_written += len(big) * 8
            checksum += float(p[owned_sel].sum())

    read_checksum = None
    if config.read_back:
        # Reads must not race this rank's pending maintenance job, the
        # history write (a no-op when nothing is queued).
        sdm.drain_maintenance()
        read_checksum = 0.0
        for t in range(config.timesteps):
            if (t + 1) % config.checkpoint_every != 0:
                continue
            with ctx.phase("read"):
                for name in NODE_DATASETS:
                    buf = np.empty(len(owned))
                    sdm.read(handle, name, t, buf)
                    read_checksum += float(buf.sum())
                buf = np.empty(len(owned) * BIG_FACTOR)
                sdm.read(handle, BIG_DATASET, t, buf)
                read_checksum += float(buf.sum())

    sdm.finalize(handle)
    return Fun3dRunResult(
        used_history=used_history,
        n_local_edges=local.n_local_edges,
        n_local_nodes=local.n_local_nodes,
        bytes_written=bytes_written,
        checksum=checksum,
        read_checksum=read_checksum,
    )
