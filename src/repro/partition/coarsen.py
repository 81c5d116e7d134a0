"""Coarsening: heavy-edge matching and graph contraction."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.partition.graph import Graph

__all__ = ["heavy_edge_matching", "contract"]

UNMATCHED = -1


def heavy_edge_matching(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Greedy heavy-edge matching (HEM).

    Vertices are visited in random order; an unmatched vertex matches its
    unmatched neighbor of maximum edge weight (ties to the first seen).
    Returns ``match`` with ``match[v]`` = partner (or ``v`` itself if no
    partner was available).  Each visit reads its vertex's slice of the
    CSR arrays, O(degree), through zero-copy views: the walk touches each
    edge about once, so a list copy of the whole graph would cost memory
    for no speed.
    """
    xadj, adjncy, adjwgt = graph.xadj.tolist(), memoryview(graph.adjncy), memoryview(graph.adjwgt)
    match = [UNMATCHED] * graph.n
    for v in rng.permutation(graph.n).tolist():
        if match[v] != UNMATCHED:
            continue
        best, best_w = v, -1
        lo, hi = xadj[v], xadj[v + 1]
        for u, w in zip(adjncy[lo:hi], adjwgt[lo:hi]):
            if w > best_w and match[u] == UNMATCHED and u != v:
                best, best_w = u, w
        match[v] = best
        match[best] = v
    return np.array(match, dtype=np.int64)


def contract(graph: Graph, match: np.ndarray) -> Tuple[Graph, np.ndarray]:
    """Contract matched pairs into coarse vertices.

    Returns ``(coarse_graph, cmap)`` where ``cmap[v]`` is the coarse vertex
    of fine vertex ``v``.  Coarse vertex weights are sums; internal (matched)
    edges disappear; parallel edges merge with weights summed (handled by
    :meth:`Graph.from_edges`).
    """
    n = graph.n
    # Number coarse vertices: one per matched pair / singleton, in order of
    # the smaller endpoint.
    reps = np.minimum(np.arange(n, dtype=np.int64), match)
    is_rep = reps == np.arange(n)
    cmap_rep = np.cumsum(is_rep) - 1
    cmap = cmap_rep[reps]
    n_coarse = int(is_rep.sum())
    # Coarse vertex weights.
    cvwgt = np.bincount(cmap, weights=graph.vwgt, minlength=n_coarse).astype(np.int64)
    # Fine adjacency in coarse ids (directed copies; from_edges merges).
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    csrc = cmap[src]
    cdst = cmap[graph.adjncy]
    keep = csrc < cdst  # one direction only; drops contracted (equal) pairs
    coarse = Graph.from_edges(
        n_coarse,
        csrc[keep],
        cdst[keep],
        edge_weights=graph.adjwgt[keep],
        vertex_weights=cvwgt,
    )
    return coarse, cmap
