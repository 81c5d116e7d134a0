"""Partition quality metrics: edge cut, imbalance, ghost statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.partition.graph import Graph

__all__ = ["edge_cut", "imbalance", "ghost_stats", "GhostStats"]


def _check_part(part: np.ndarray, n: int, k: int) -> np.ndarray:
    part = np.asarray(part)
    if len(part) != n:
        raise PartitionError(f"partition vector length {len(part)} != n {n}")
    if len(part) and (part.min() < 0 or part.max() >= k):
        raise PartitionError(f"partition ids outside [0, {k})")
    return part


def edge_cut(graph: Graph, part: np.ndarray) -> int:
    """Total weight of edges whose endpoints live in different parts."""
    part = np.asarray(part)
    if len(part) != graph.n:
        raise PartitionError("partition vector length mismatch")
    src = np.repeat(np.arange(graph.n), np.diff(graph.xadj))
    cut2 = int(graph.adjwgt[part[src] != part[graph.adjncy]].sum())
    return cut2 // 2  # each cut edge counted in both directions


def imbalance(part: np.ndarray, k: int, vwgt: np.ndarray = None) -> float:
    """Max part weight over ideal part weight (1.0 is perfect)."""
    part = np.asarray(part)
    if vwgt is None:
        vwgt = np.ones(len(part), dtype=np.int64)
    loads = np.bincount(part, weights=vwgt, minlength=k)
    total = float(vwgt.sum())
    if total == 0:
        return 1.0
    return float(loads.max()) * k / total


@dataclass(frozen=True)
class GhostStats:
    """Per-partition ghost statistics for an edge-based mesh computation.

    An edge is *local* to every part owning at least one endpoint (the
    paper's rule), so cut edges are replicated; a node referenced by a
    local edge but owned elsewhere is a ghost node.
    """

    owned_nodes: np.ndarray
    local_edges: np.ndarray
    ghost_nodes: np.ndarray
    replicated_edges: int

    @property
    def total_ghosts(self) -> int:
        """Sum of ghost nodes over parts (communication volume proxy)."""
        return int(self.ghost_nodes.sum())


def ghost_stats(edge1, edge2, part: np.ndarray, k: int) -> GhostStats:
    """Compute ghost statistics of an edge list under a node partition."""
    e1 = np.asarray(edge1, dtype=np.int64)
    e2 = np.asarray(edge2, dtype=np.int64)
    part = _check_part(part, int(max(e1.max(), e2.max())) + 1 if len(e1) else len(part), k)
    p1 = part[e1]
    p2 = part[e2]
    owned = np.bincount(part, minlength=k).astype(np.int64)
    # Edge assigned to p1's part always; additionally to p2's when different.
    local = np.bincount(p1, minlength=k).astype(np.int64)
    cross = p1 != p2
    local += np.bincount(p2[cross], minlength=k).astype(np.int64)
    # Ghost nodes per part: distinct nodes referenced via cut edges from the
    # other side.  Node e2 is a ghost of part p1 where p1 != p2 (and vice
    # versa); count distinct (part, node) pairs.
    gp = np.concatenate([p1[cross], p2[cross]])
    gn = np.concatenate([e2[cross], e1[cross]])
    if len(gp):
        pairs = np.unique(gp * (int(max(e1.max(), e2.max())) + 1) + gn)
        ghost_parts = pairs // (int(max(e1.max(), e2.max())) + 1)
        ghosts = np.bincount(ghost_parts, minlength=k).astype(np.int64)
    else:
        ghosts = np.zeros(k, dtype=np.int64)
    return GhostStats(
        owned_nodes=owned,
        local_edges=local,
        ghost_nodes=ghosts,
        replicated_edges=int(cross.sum()),
    )
