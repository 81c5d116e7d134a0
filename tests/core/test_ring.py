"""Ring index distribution: correctness against a direct reference."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.core.growable import GrowableArray
from repro.core.ring import EdgeChunk, owned_nodes_of, ring_partition_index
from repro.mesh import box_tet_mesh
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway


def reference_partition(edge1, edge2, part, rank):
    """Direct (non-distributed) computation of the paper's rule."""
    keep = (part[edge1] == rank) | (part[edge2] == rank)
    gids = np.flatnonzero(keep)
    le1, le2 = edge1[keep], edge2[keep]
    owned = np.flatnonzero(part == rank)
    node_map = np.union1d(owned, np.unique(np.concatenate([le1, le2])) if len(le1) else [])
    return gids, le1, le2, node_map


def chunked(edge1, edge2, rank, size):
    counts = np.full(size, len(edge1) // size)
    counts[: len(edge1) % size] += 1
    start = int(counts[:rank].sum())
    end = start + int(counts[rank])
    return EdgeChunk(
        edge1=edge1[start:end].astype(np.int64),
        edge2=edge2[start:end].astype(np.int64),
        gid_start=start,
    )


@pytest.mark.parametrize("nprocs", [1, 2, 4, 5])
def test_ring_matches_reference_on_mesh(nprocs):
    mesh = box_tet_mesh(4, 4, 4)
    g = Graph.from_edges(mesh.n_nodes, mesh.edge1, mesh.edge2)
    part = multilevel_kway(g, nprocs, seed=0) if nprocs > 1 else np.zeros(
        mesh.n_nodes, dtype=np.int64
    )

    def program(ctx):
        chunk = chunked(mesh.edge1, mesh.edge2, ctx.rank, ctx.size)
        local = ring_partition_index(ctx, part, chunk)
        return local

    job = mpirun(program, nprocs, machine=fast_test())
    for rank, local in enumerate(job.values):
        gids, le1, le2, node_map = reference_partition(
            mesh.edge1, mesh.edge2, part, rank
        )
        np.testing.assert_array_equal(local.edge_map, gids)
        np.testing.assert_array_equal(local.edge1, le1)
        np.testing.assert_array_equal(local.edge2, le2)
        np.testing.assert_array_equal(local.node_map, node_map)
        np.testing.assert_array_equal(local.owned_nodes, np.flatnonzero(part == rank))


def test_ring_paper_example_exact():
    """Figure 1: the worked example must come out exactly as printed."""
    edge1 = np.array([0, 1, 0, 1], dtype=np.int64)
    edge2 = np.array([1, 4, 3, 2], dtype=np.int64)
    part = np.array([0, 1, 1, 0, 1], dtype=np.int64)

    def program(ctx):
        chunk = chunked(edge1, edge2, ctx.rank, ctx.size)
        return ring_partition_index(ctx, part, chunk)

    job = mpirun(program, 2, machine=fast_test())
    p0, p1 = job.values
    assert p0.edge_map.tolist() == [0, 2]        # edges 0, 2 -> process 0
    assert p1.edge_map.tolist() == [0, 1, 3]     # edges 0, 1, 3 -> process 1
    assert p0.node_map.tolist() == [0, 1, 3]     # y(0) y(1) y(3)
    assert p1.node_map.tolist() == [0, 1, 2, 4]  # y(0) y(1) y(2) y(4)
    assert p0.owned_nodes.tolist() == [0, 3]
    assert p1.owned_nodes.tolist() == [1, 2, 4]


def test_every_edge_lands_somewhere_and_ghosts_replicate():
    mesh = box_tet_mesh(3, 3, 3)
    g = Graph.from_edges(mesh.n_nodes, mesh.edge1, mesh.edge2)
    part = multilevel_kway(g, 4, seed=2)

    def program(ctx):
        chunk = chunked(mesh.edge1, mesh.edge2, ctx.rank, ctx.size)
        return ring_partition_index(ctx, part, chunk)

    job = mpirun(program, 4, machine=fast_test())
    coverage = np.zeros(mesh.n_edges, dtype=int)
    for local in job.values:
        coverage[local.edge_map] += 1
    assert (coverage >= 1).all()
    # Cut edges appear exactly twice, internal edges exactly once.
    cross = part[mesh.edge1] != part[mesh.edge2]
    np.testing.assert_array_equal(coverage[cross], 2)
    np.testing.assert_array_equal(coverage[~cross], 1)


def test_ring_charges_time_for_examination_and_comm():
    mesh = box_tet_mesh(4, 4, 4)
    part = np.zeros(mesh.n_nodes, dtype=np.int64)
    part[mesh.n_nodes // 2 :] = 1

    def program(ctx):
        chunk = chunked(mesh.edge1, mesh.edge2, ctx.rank, ctx.size)
        t0 = ctx.now
        ring_partition_index(ctx, part, chunk)
        return ctx.now - t0

    job = mpirun(program, 2)  # origin2000 cost model
    assert min(job.values) > 0


def test_growable_array_doubles_and_tracks_copies():
    g = GrowableArray(np.int64, initial_capacity=4)
    for i in range(100):
        g.extend([i])
    assert g.n_grows == 5  # 4 -> 8 -> 16 -> 32 -> 64 -> 128
    assert g.bytes_copied == 8 * (4 + 8 + 16 + 32 + 64)
    np.testing.assert_array_equal(g.view(), np.arange(100))
    g2 = GrowableArray(np.float64, initial_capacity=2)
    g2.extend(np.arange(10, dtype=np.float64))
    assert g2.n_grows == 1  # one doubling loop: 2 -> 16
    np.testing.assert_array_equal(g2.view(), np.arange(10, dtype=np.float64))
