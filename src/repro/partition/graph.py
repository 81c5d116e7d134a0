"""CSR graphs built from mesh edge lists (vectorized construction)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PartitionError

__all__ = ["Graph"]


class Graph:
    """Undirected weighted graph in CSR form.

    Attributes
    ----------
    n:
        Number of vertices.
    xadj:
        int64 array of length ``n+1``: adjacency-list offsets.
    adjncy:
        int64 array: concatenated neighbor lists.
    adjwgt:
        int64 array: edge weight per adjacency entry (symmetric).
    vwgt:
        int64 array of length ``n``: vertex weights.
    """

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        adjwgt: np.ndarray,
        vwgt: np.ndarray,
    ) -> None:
        self.xadj = xadj
        self.adjncy = adjncy
        self.adjwgt = adjwgt
        self.vwgt = vwgt
        self.n = len(xadj) - 1

    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edge1,
        edge2,
        edge_weights: Optional[np.ndarray] = None,
        vertex_weights: Optional[np.ndarray] = None,
    ) -> "Graph":
        """Build from parallel endpoint arrays (the mesh's edge1/edge2).

        Self-loops are dropped; parallel edges are merged with weights
        summed.  Weights must be non-negative (the partitioner minimises a
        cut).  Construction is fully vectorized.
        """
        e1 = np.asarray(edge1, dtype=np.int64)
        e2 = np.asarray(edge2, dtype=np.int64)
        if e1.shape != e2.shape or e1.ndim != 1:
            raise PartitionError("edge1/edge2 must be equal-length 1-D arrays")
        if n_vertices <= 0:
            raise PartitionError(f"n_vertices must be positive, got {n_vertices}")
        if len(e1) and (min(e1.min(), e2.min()) < 0 or max(e1.max(), e2.max()) >= n_vertices):
            raise PartitionError("edge endpoint out of range")
        w = (
            np.asarray(edge_weights, dtype=np.int64)
            if edge_weights is not None
            else np.ones(len(e1), dtype=np.int64)
        )
        if w.shape != e1.shape:
            raise PartitionError("edge_weights length mismatch")
        if len(w) and w.min() < 0:
            raise PartitionError("edge weights must be non-negative")
        keep = e1 != e2
        e1, e2, w = e1[keep], e2[keep], w[keep]
        # Symmetrize: each edge appears in both directions.
        src = np.concatenate([e1, e2])
        dst = np.concatenate([e2, e1])
        ww = np.concatenate([w, w])
        # Merge parallel edges: unique (src, dst) with summed weights.
        key = src * n_vertices + dst
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        uniq_mask = np.empty(len(key_s), dtype=bool)
        if len(key_s):
            uniq_mask[0] = True
            np.not_equal(key_s[1:], key_s[:-1], out=uniq_mask[1:])
        group = np.cumsum(uniq_mask) - 1 if len(key_s) else np.empty(0, dtype=np.int64)
        merged_w = (
            np.bincount(group, weights=ww[order]).astype(np.int64)
            if len(key_s)
            else np.empty(0, dtype=np.int64)
        )
        merged_key = key_s[uniq_mask] if len(key_s) else key_s
        msrc = merged_key // n_vertices
        mdst = merged_key % n_vertices
        counts = np.bincount(msrc, minlength=n_vertices)
        xadj = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
        )
        vwgt = (
            np.asarray(vertex_weights, dtype=np.int64)
            if vertex_weights is not None
            else np.ones(n_vertices, dtype=np.int64)
        )
        if len(vwgt) != n_vertices:
            raise PartitionError("vertex_weights length mismatch")
        if vwgt.min() < 0:
            raise PartitionError("vertex weights must be non-negative")
        return cls(xadj, mdst.astype(np.int64), merged_w, vwgt)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.adjncy) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Graph n={self.n} m={self.n_edges}>"
