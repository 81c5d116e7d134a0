"""Box tet mesh generation: counts, invariants, validators."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.mesh import box_tet_mesh, validate_mesh


def test_unit_cube_counts():
    m = box_tet_mesh(1, 1, 1)
    assert m.n_nodes == 8
    assert len(m.tets) == 6
    # Kuhn subdivision of one cube: 12 cube edges + 6 face diagonals + 1
    # main diagonal = 19 edges.
    assert m.n_edges == 19
    assert validate_mesh(m) == []


def test_box_counts_scale():
    m = box_tet_mesh(3, 2, 4)
    assert m.n_nodes == 4 * 3 * 5
    assert len(m.tets) == 6 * 3 * 2 * 4
    assert validate_mesh(m) == []


def test_edge_node_ratio_matches_unstructured_cfd():
    m = box_tet_mesh(10, 10, 10)
    ratio = m.n_edges / m.n_nodes
    # Interior ratio is 7; the boundary pulls it down on small boxes.
    # The paper's FUN3D mesh is ~8.2 — same regime.
    assert 5.5 < ratio < 7.5


def test_edges_canonical_sorted_unique():
    m = box_tet_mesh(4, 4, 4)
    assert (m.edge1 < m.edge2).all()
    enc = m.edge1 * m.n_nodes + m.edge2
    assert (np.diff(enc) > 0).all()


def test_boundary_faces_form_closed_surface():
    n = 3
    m = box_tet_mesh(n, n, n)
    # Boundary of the box: each boundary cube face contributes 2 triangles.
    expected = 6 * n * n * 2
    assert len(m.boundary_faces) == expected


def test_mesh_connectivity_single_component():
    import networkx as nx

    m = box_tet_mesh(3, 3, 3)
    g = nx.Graph()
    g.add_nodes_from(range(m.n_nodes))
    g.add_edges_from(zip(m.edge1.tolist(), m.edge2.tolist()))
    assert nx.is_connected(g)


def test_invalid_dimensions_rejected():
    with pytest.raises(MeshError):
        box_tet_mesh(0, 1, 1)


def test_validator_catches_corruption():
    m = box_tet_mesh(2, 2, 2)
    m.edge1, m.edge2 = m.edge2.copy(), m.edge1.copy()  # break canonical order
    assert any("canonicalized" in p for p in validate_mesh(m))

    m2 = box_tet_mesh(2, 2, 2)
    m2.tets[0, 1] = m2.tets[0, 0]  # degenerate tet
    assert any("degenerate" in p for p in validate_mesh(m2))

    m3 = box_tet_mesh(2, 2, 2)
    m3.edge1 = m3.edge1[:-1]
    assert any("mismatch" in p for p in validate_mesh(m3))
