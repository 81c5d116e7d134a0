"""The ``uns3d.msh`` binary layout (paper, Figure 3).

The file is header-less: the application knows the counts and computes byte
offsets itself, exactly as the paper's pseudo-code does
(``file_offset = 2*totalEdges*sizeof(int)`` and so on).  Layout::

    edge1   : int32  x n_edges
    edge2   : int32  x n_edges
    <edge data arrays> : float64 x n_edges, one after another
    <node data arrays> : float64 x n_nodes, one after another

Mesh input files are *pre-existing* data (created outside SDM — that is
what "import" means in the paper), so :func:`install_mesh_file` writes the
bytes host-side into the simulated PFS without charging virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.errors import MeshError
from repro.pfs.filesystem import FileSystem
from repro.pfs.striping import StripeLayout
from repro.pfs.file import PFSFile

__all__ = [
    "MESH_FILE", "MeshFileLayout", "mesh_file_layout", "install_mesh_file",
]

MESH_FILE = "uns3d.msh"
"""The FUN3D mesh file's name in the simulated PFS: the drivers import
from it and the benches install it."""

INT_SIZE = 4
DOUBLE_SIZE = 8


@dataclass(frozen=True)
class MeshFileLayout:
    """Byte offsets of every array in a mesh file."""

    n_edges: int
    n_nodes: int
    edge_array_names: tuple
    node_array_names: tuple
    offsets: Dict[str, int]
    total_bytes: int

    def offset(self, name: str) -> int:
        """Byte offset of a named array."""
        try:
            return self.offsets[name]
        except KeyError:
            raise MeshError(f"mesh file has no array {name!r}") from None


def mesh_file_layout(
    n_edges: int,
    n_nodes: int,
    edge_array_names: Sequence[str],
    node_array_names: Sequence[str],
) -> MeshFileLayout:
    """Compute the offset table for a mesh file with the given arrays."""
    offsets: Dict[str, int] = {}
    pos = 0
    offsets["edge1"] = pos
    pos += n_edges * INT_SIZE
    offsets["edge2"] = pos
    pos += n_edges * INT_SIZE
    for name in edge_array_names:
        offsets[name] = pos
        pos += n_edges * DOUBLE_SIZE
    for name in node_array_names:
        offsets[name] = pos
        pos += n_nodes * DOUBLE_SIZE
    return MeshFileLayout(
        n_edges=n_edges,
        n_nodes=n_nodes,
        edge_array_names=tuple(edge_array_names),
        node_array_names=tuple(node_array_names),
        offsets=offsets,
        total_bytes=pos,
    )


def install_mesh_file(
    fs: FileSystem,
    name: str,
    edge1: np.ndarray,
    edge2: np.ndarray,
    edge_arrays: Dict[str, np.ndarray],
    node_arrays: Dict[str, np.ndarray],
) -> MeshFileLayout:
    """Create ``name`` in the PFS with the standard layout (host-side).

    Returns the layout so callers can compute import offsets.  No virtual
    time is charged: the file predates the simulated run.
    """
    e1 = np.ascontiguousarray(edge1, dtype=np.int32)
    e2 = np.ascontiguousarray(edge2, dtype=np.int32)
    if e1.shape != e2.shape or e1.ndim != 1:
        raise MeshError("edge1/edge2 must be equal-length 1-D arrays")
    n_edges = len(e1)
    n_nodes = None
    for arr_name, arr in edge_arrays.items():
        if len(arr) != n_edges:
            raise MeshError(
                f"edge array {arr_name!r} has {len(arr)} entries, "
                f"expected {n_edges}"
            )
    for arr_name, arr in node_arrays.items():
        if n_nodes is None:
            n_nodes = len(arr)
        elif len(arr) != n_nodes:
            raise MeshError(
                f"node array {arr_name!r} has {len(arr)} entries, "
                f"expected {n_nodes}"
            )
    if n_nodes is None:
        n_nodes = int(max(e1.max(), e2.max())) + 1 if n_edges else 0
    layout = mesh_file_layout(
        n_edges, n_nodes, list(edge_arrays), list(node_arrays)
    )
    # Host-side install: bypass the cost model, write real bytes.
    if fs.exists(name):
        raise MeshError(f"mesh file already exists: {name!r}")
    f = PFSFile(
        name,
        StripeLayout(
            stripe_size=fs.machine.storage.stripe_size,
            n_controllers=fs.machine.storage.n_controllers,
        ),
        ctime=fs.sim.now,
    )
    fs._files[name] = f
    f.store.write(layout.offset("edge1"), e1)
    f.store.write(layout.offset("edge2"), e2)
    for arr_name, arr in edge_arrays.items():
        f.store.write(
            layout.offset(arr_name), np.ascontiguousarray(arr, dtype=np.float64)
        )
    for arr_name, arr in node_arrays.items():
        f.store.write(
            layout.offset(arr_name), np.ascontiguousarray(arr, dtype=np.float64)
        )
    return layout
