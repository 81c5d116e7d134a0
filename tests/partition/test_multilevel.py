"""Multilevel k-way partitioner: validity, balance, quality, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.mesh import box_tet_mesh
from repro.partition import (
    Graph,
    block_partition,
    edge_cut,
    imbalance,
    multilevel_kway,
    random_partition,
)
from repro.partition.coarsen import contract, heavy_edge_matching
from repro.partition.refine import refine_kway


def grid_graph(n):
    """n x n 4-connected grid."""
    ids = np.arange(n * n).reshape(n, n)
    e1 = np.concatenate([ids[:, :-1].reshape(-1), ids[:-1, :].reshape(-1)])
    e2 = np.concatenate([ids[:, 1:].reshape(-1), ids[1:, :].reshape(-1)])
    return Graph.from_edges(n * n, e1, e2)


def mesh_graph(cells):
    m = box_tet_mesh(cells, cells, cells)
    return Graph.from_edges(m.n_nodes, m.edge1, m.edge2)


# ---------------------------------------------------------------------------
# Coarsening
# ---------------------------------------------------------------------------

def test_heavy_edge_matching_is_a_matching():
    g = grid_graph(10)
    match = heavy_edge_matching(g, np.random.default_rng(0))
    for v in range(g.n):
        m = match[v]
        assert match[m] == v  # involution


def test_contract_preserves_total_vertex_weight():
    g = grid_graph(8)
    match = heavy_edge_matching(g, np.random.default_rng(1))
    coarse, cmap = contract(g, match)
    assert coarse.vwgt.sum() == g.vwgt.sum()
    assert coarse.n < g.n
    assert len(cmap) == g.n
    assert cmap.max() == coarse.n - 1


def test_contract_roughly_halves_grid():
    g = grid_graph(16)
    match = heavy_edge_matching(g, np.random.default_rng(2))
    coarse, _ = contract(g, match)
    assert coarse.n <= 0.65 * g.n  # grids match well


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def test_refine_never_increases_cut():
    g = grid_graph(12)
    rng = np.random.default_rng(3)
    part = rng.integers(0, 4, size=g.n).astype(np.int64)
    before = edge_cut(g, part)
    refined = refine_kway(g, part.copy(), 4)
    after = edge_cut(g, refined)
    assert after <= before


def test_refine_respects_balance_tolerance():
    g = grid_graph(12)
    part = block_partition(g.n, 4)
    refined = refine_kway(g, part.copy(), 4, tolerance=1.05)
    assert imbalance(refined, 4) <= 1.07  # small slack for integer rounding


# ---------------------------------------------------------------------------
# Full multilevel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4, 8])
def test_multilevel_valid_and_balanced_on_grid(k):
    g = grid_graph(20)
    part = multilevel_kway(g, k, seed=0)
    assert len(part) == g.n
    assert set(np.unique(part)) == set(range(k))
    assert imbalance(part, k) <= 1.10


def test_multilevel_beats_random_by_a_lot():
    g = grid_graph(24)
    k = 8
    ml_cut = edge_cut(g, multilevel_kway(g, k, seed=0))
    rnd_cut = edge_cut(g, random_partition(g.n, k, seed=0))
    assert ml_cut < rnd_cut / 5


def test_multilevel_near_optimal_on_grid_bisection():
    # Optimal bisection of an n x n grid cuts n edges.
    n = 16
    g = grid_graph(n)
    cut = edge_cut(g, multilevel_kway(g, 2, seed=0))
    assert cut <= 2.5 * n


def test_multilevel_on_tet_mesh_quality():
    g = mesh_graph(8)
    k = 8
    part = multilevel_kway(g, k, seed=1)
    assert imbalance(part, k) <= 1.10
    ml = edge_cut(g, part)
    blk = edge_cut(g, block_partition(g.n, k))
    # Structured numbering makes block decent; multilevel must be at least
    # comparable and far better than random.
    rnd = edge_cut(g, random_partition(g.n, k, seed=1))
    assert ml <= blk * 1.5
    assert ml < rnd / 3


def test_multilevel_deterministic_per_seed():
    g = grid_graph(12)
    a = multilevel_kway(g, 4, seed=42)
    b = multilevel_kway(g, 4, seed=42)
    np.testing.assert_array_equal(a, b)


def test_multilevel_k1_and_errors():
    g = grid_graph(4)
    np.testing.assert_array_equal(multilevel_kway(g, 1), np.zeros(16, dtype=np.int64))
    with pytest.raises(PartitionError):
        multilevel_kway(g, 0)
    with pytest.raises(PartitionError):
        multilevel_kway(g, 17)


def test_multilevel_disconnected_graph():
    # Two disjoint triangles plus isolated vertices.
    g = Graph.from_edges(8, [0, 1, 2, 4, 5, 6], [1, 2, 0, 5, 6, 4])
    part = multilevel_kway(g, 2, seed=0)
    assert len(part) == 8
    assert imbalance(part, 2) <= 1.5


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 12), st.integers(2, 4), st.integers(0, 10_000))
def test_multilevel_always_valid_property(n, k, seed):
    """Any grid, any k, any seed: output is a valid partition vector."""
    g = grid_graph(n)
    part = multilevel_kway(g, k, seed=seed)
    assert len(part) == g.n
    assert part.min() >= 0 and part.max() < k
    # Every part non-empty (n*n >> k here).
    assert len(np.unique(part)) == k
    assert imbalance(part, k) <= 1.25
