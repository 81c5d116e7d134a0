"""Unstructured tetrahedral meshes and the paper's mesh-file format.

The paper's applications run on irregular tetrahedral meshes (FUN3D's
18M-edge aircraft mesh; the Rayleigh–Taylor code's refined interface mesh).
Neither mesh is available, so this package generates synthetic equivalents
with the same structural properties:

* :func:`~repro.mesh.tetra.box_tet_mesh` — a box of hexahedra split into
  tetrahedra (Kuhn subdivision), yielding nodes, unique edges (edge/node
  ratio ~7, matching unstructured CFD meshes), tets, and faces — all
  vectorized numpy;
* :mod:`~repro.mesh.meshfile` — the header-less binary ``uns3d.msh`` layout
  of Figure 3 (edge1 | edge2 | edge arrays | node arrays) with explicit
  offset arithmetic, installed host-side into the simulated PFS as
  "pre-existing" input data;
* :mod:`~repro.mesh.generators` — ratio-preserving scaled stand-ins for the
  FUN3D and RT workloads;
* :mod:`~repro.mesh.validate` — structural invariants used by tests.
"""

from repro.mesh.tetra import TetMesh, box_tet_mesh
from repro.mesh.meshfile import MeshFileLayout, install_mesh_file, mesh_file_layout
from repro.mesh.generators import fun3d_like_problem, rt_like_problem
from repro.mesh.validate import validate_mesh

__all__ = [
    "TetMesh",
    "box_tet_mesh",
    "MeshFileLayout",
    "mesh_file_layout",
    "install_mesh_file",
    "fun3d_like_problem",
    "rt_like_problem",
    "validate_mesh",
]
