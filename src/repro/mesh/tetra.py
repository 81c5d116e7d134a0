"""Tetrahedral box meshes (Kuhn subdivision), fully vectorized."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MeshError

__all__ = ["TetMesh", "box_tet_mesh"]

# The six tetrahedra of the Kuhn subdivision of a unit cube, as chains
# 0 -> 7 through axis permutations.  Corner b is the cube vertex with bit
# pattern b = (dz<<2 | dy<<1 | dx).
_KUHN_PERMS = (
    (1, 2, 4), (1, 4, 2), (2, 1, 4), (2, 4, 1), (4, 1, 2), (4, 2, 1),
)


@dataclass
class TetMesh:
    """An unstructured tetrahedral mesh.

    Attributes
    ----------
    coords:
        float64 ``(n_nodes, 3)`` vertex coordinates.
    tets:
        int64 ``(T, 4)`` vertex ids, one row per tetrahedron.
    edge1, edge2:
        int64 arrays: unique undirected edges with ``edge1 < edge2``,
        lexicographically sorted — the indirection arrays of the paper.
    faces:
        int64 ``(n_faces, 3)`` unique triangular faces (sorted vertex ids).
    boundary_faces:
        int64 index array into ``faces``: faces on the mesh boundary.
    """

    coords: np.ndarray
    tets: np.ndarray
    edge1: np.ndarray
    edge2: np.ndarray
    faces: np.ndarray
    boundary_faces: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Number of vertices."""
        return len(self.coords)

    @property
    def n_edges(self) -> int:
        """Number of unique undirected edges."""
        return len(self.edge1)

    @property
    def n_faces(self) -> int:
        """Number of unique triangular faces."""
        return len(self.faces)


def box_tet_mesh(nx: int, ny: int, nz: int) -> TetMesh:
    """Tetrahedralize an ``nx x ny x nz``-cell box.

    Produces ``(nx+1)(ny+1)(nz+1)`` nodes and ``6*nx*ny*nz`` tets.  Node ids
    vary fastest along z — a structured numbering with good locality, like a
    mesh that has been through a bandwidth-reducing reordering.
    """
    if min(nx, ny, nz) < 1:
        raise MeshError(f"box dimensions must be >= 1, got {(nx, ny, nz)}")
    npx, npy, npz = nx + 1, ny + 1, nz + 1

    # Node coordinates.
    gx, gy, gz = np.meshgrid(
        np.arange(npx), np.arange(npy), np.arange(npz), indexing="ij"
    )
    coords = np.stack(
        [gx.reshape(-1), gy.reshape(-1), gz.reshape(-1)], axis=1
    ).astype(np.float64)

    def node_id(i, j, k):
        return (i * npy + j) * npz + k

    # Cube origins, flattened.
    ci, cj, ck = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    ci, cj, ck = ci.reshape(-1), cj.reshape(-1), ck.reshape(-1)
    corners = np.empty((8, len(ci)), dtype=np.int64)
    for b in range(8):
        dx, dy, dz = b & 1, (b >> 1) & 1, (b >> 2) & 1
        corners[b] = node_id(ci + dx, cj + dy, ck + dz)

    # Six tets per cube: 0 -> a -> a|b -> 7 along each axis permutation.
    tet_list = []
    for a, b, _c in _KUHN_PERMS:
        tet_list.append(
            np.stack(
                [corners[0], corners[a], corners[a | b], corners[7]], axis=1
            )
        )
    tets = np.concatenate(tet_list, axis=0)

    # Unique edges from tets: all 6 vertex pairs, canonicalized.
    n_nodes = npx * npy * npz
    pair_idx = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    e_a = np.concatenate([tets[:, i] for i, _ in pair_idx])
    e_b = np.concatenate([tets[:, j] for _, j in pair_idx])
    lo = np.minimum(e_a, e_b)
    hi = np.maximum(e_a, e_b)
    enc = np.unique(lo * n_nodes + hi)
    edge1 = (enc // n_nodes).astype(np.int64)
    edge2 = (enc % n_nodes).astype(np.int64)

    # Unique faces (sorted triples) with occurrence counts for boundary.
    f_ids = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    tri = np.concatenate([tets[:, list(f)] for f in f_ids], axis=0)
    tri = np.sort(tri, axis=1)
    enc_f = (tri[:, 0] * n_nodes + tri[:, 1]).astype(np.int64) * n_nodes + tri[:, 2]
    uniq, counts = np.unique(enc_f, return_counts=True)
    v0 = uniq // (n_nodes * n_nodes)
    rem = uniq % (n_nodes * n_nodes)
    faces = np.stack([v0, rem // n_nodes, rem % n_nodes], axis=1).astype(np.int64)
    boundary_faces = np.flatnonzero(counts == 1).astype(np.int64)

    return TetMesh(
        coords=coords,
        tets=tets.astype(np.int64),
        edge1=edge1,
        edge2=edge2,
        faces=faces,
        boundary_faces=boundary_faces,
    )
