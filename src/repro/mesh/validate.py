"""Structural mesh invariants (used by tests and property checks)."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.mesh.tetra import TetMesh

__all__ = ["validate_mesh"]


def validate_mesh(mesh: TetMesh) -> List[str]:
    """Check structural invariants; returns a list of violations (empty =
    valid).  Raises nothing — callers decide severity."""
    problems: List[str] = []
    n = mesh.n_nodes

    if mesh.tets.ndim != 2 or mesh.tets.shape[1] != 4:
        problems.append("tets must be (n, 4)")
    if len(mesh.edge1) != len(mesh.edge2):
        problems.append("edge1/edge2 length mismatch")

    for name, arr in (("tets", mesh.tets), ("edge1", mesh.edge1),
                      ("edge2", mesh.edge2), ("faces", mesh.faces)):
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            problems.append(f"{name} references out-of-range node ids")

    if len(mesh.edge1) != len(mesh.edge2):
        return problems  # downstream checks need aligned edge arrays

    # Edges canonical and unique.
    if len(mesh.edge1):
        if not (mesh.edge1 < mesh.edge2).all():
            problems.append("edges not canonicalized (edge1 < edge2)")
        enc = mesh.edge1 * n + mesh.edge2
        if len(np.unique(enc)) != len(enc):
            problems.append("duplicate edges")
        if not (np.diff(enc) > 0).all():
            problems.append("edges not sorted")

    # Tets non-degenerate: 4 distinct vertices each.
    if mesh.tets.size:
        sorted_tets = np.sort(mesh.tets, axis=1)
        if (np.diff(sorted_tets, axis=1) == 0).any():
            problems.append("degenerate tets (repeated vertex)")

    # Every tet edge must exist in the edge list.
    if mesh.tets.size and len(mesh.edge1):
        enc_edges = set((mesh.edge1 * n + mesh.edge2).tolist())
        pair_idx = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        a = np.concatenate([mesh.tets[:, i] for i, _ in pair_idx])
        b = np.concatenate([mesh.tets[:, j] for _, j in pair_idx])
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        missing = set(np.unique(lo * n + hi).tolist()) - enc_edges
        if missing:
            problems.append(f"{len(missing)} tet edges missing from edge list")

    # Boundary face indices valid.
    if mesh.boundary_faces.size and (
        mesh.boundary_faces.min() < 0 or mesh.boundary_faces.max() >= mesh.n_faces
    ):
        problems.append("boundary_faces indices out of range")

    return problems
