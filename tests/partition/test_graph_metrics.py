"""Graph construction and quality metrics."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition import (
    Graph,
    block_partition,
    edge_cut,
    ghost_stats,
    imbalance,
    random_partition,
)


def path_graph(n):
    e1 = np.arange(n - 1)
    e2 = np.arange(1, n)
    return Graph.from_edges(n, e1, e2)


def test_graph_from_edges_csr_structure():
    # Triangle 0-1-2 plus pendant 3.
    g = Graph.from_edges(4, [0, 1, 2, 2], [1, 2, 0, 3])
    assert g.n == 4
    assert len(g.adjncy) == 2 * 4  # each undirected edge twice
    assert sorted(g.adjncy[g.xadj[2] : g.xadj[3]].tolist()) == [0, 1, 3]
    assert g.xadj[4] - g.xadj[3] == 1  # vertex 3's degree


def test_graph_drops_self_loops_and_merges_parallel():
    g = Graph.from_edges(3, [0, 0, 1, 0], [0, 1, 2, 1], edge_weights=[5, 2, 1, 3])
    assert len(g.adjncy) == 2 * 2  # (0,1) merged, (1,2); self-loop dropped
    i = g.xadj[0] + g.adjncy[g.xadj[0] : g.xadj[1]].tolist().index(1)
    assert g.adjwgt[i] == 5  # 2+3 merged


def test_graph_invalid_inputs_rejected():
    with pytest.raises(PartitionError):
        Graph.from_edges(2, [0], [5])
    with pytest.raises(PartitionError):
        Graph.from_edges(0, [], [])
    with pytest.raises(PartitionError):
        Graph.from_edges(3, [0, 1], [1])
    with pytest.raises(PartitionError):
        Graph.from_edges(3, [0, 1], [1, 2], edge_weights=[1, -1])
    with pytest.raises(PartitionError):
        Graph.from_edges(3, [0, 1], [1, 2], vertex_weights=[1, -1, 1])


def test_edge_cut_known_values():
    g = path_graph(4)  # 0-1-2-3
    assert edge_cut(g, np.array([0, 0, 1, 1])) == 1
    assert edge_cut(g, np.array([0, 1, 0, 1])) == 3
    assert edge_cut(g, np.array([0, 0, 0, 0])) == 0


def test_edge_cut_respects_weights():
    g = Graph.from_edges(3, [0, 1], [1, 2], edge_weights=[10, 1])
    assert edge_cut(g, np.array([0, 1, 1])) == 10
    assert edge_cut(g, np.array([0, 0, 1])) == 1


def test_imbalance_perfect_and_skewed():
    assert imbalance(np.array([0, 0, 1, 1]), 2) == pytest.approx(1.0)
    assert imbalance(np.array([0, 0, 0, 1]), 2) == pytest.approx(1.5)


def test_block_partition_contiguous_balanced():
    part = block_partition(10, 3)
    assert (np.diff(part) >= 0).all()
    sizes = np.bincount(part, minlength=3)
    assert sizes.max() - sizes.min() <= 1


def test_random_partition_seeded_reproducible():
    a = random_partition(100, 4, seed=7)
    b = random_partition(100, 4, seed=7)
    c = random_partition(100, 4, seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) <= set(range(4))


def test_ghost_stats_paper_example():
    """The exact example of Figure 1: 5 nodes, 4 edges, 2 processes.

    edges: 0=(0,1) 1=(1,4) 2=(0,3) 3=(1,2); partitioning vector [0,1,1,0,1].
    Paper: nodes 0,3 -> p0 and 1,2,4 -> p1; edges 0,2 -> p0 and 0,1,3 -> p1
    (edge 0 is a ghost edge of both).
    """
    edge1 = np.array([0, 1, 0, 1])
    edge2 = np.array([1, 4, 3, 2])
    part = np.array([0, 1, 1, 0, 1])
    st = ghost_stats(edge1, edge2, part, 2)
    assert st.local_edges.tolist() == [2, 3]
    # p0 holds nodes 0,3 + ghost 1; p1 holds 1,2,4 + ghost 0.
    assert st.owned_nodes.tolist() == [2, 3]
    assert st.ghost_nodes.tolist() == [1, 1]
    assert st.replicated_edges == 1


def test_ghost_stats_no_cut_edges():
    st = ghost_stats([0, 2], [1, 3], np.array([0, 0, 1, 1]), 2)
    assert st.replicated_edges == 0
    assert st.total_ghosts == 0
