"""Initial partitioning of the coarsest graph: greedy graph growing.

Seeds are spread farthest-first: one array holds every vertex's BFS
distance to its nearest seed so far, each new seed's BFS stops wherever
it does not shorten a distance, and the next seed is the vertex farthest
from all seeds (the lowest-numbered on ties).  Only the first seed's
connected component supplies seeds.  Regions then grow one frontier
vertex at a time, always extending the currently lightest part (greedy
graph growing partitioning, GGGP-style).  Unreached vertices
(disconnected components) back-fill the lightest parts.

The CSR arrays are read into lists once per call (one BFS per seed walks
the edges many times over), so every walk costs O(degree) list reads per
vertex it visits.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from repro.partition.graph import Graph

__all__ = ["greedy_grow"]


def _bfs_far_vertex(xadj: List[int], adjncy: List[int], start: int) -> int:
    """The vertex a BFS from ``start`` discovers last (one at maximal distance)."""
    seen = [False] * (len(xadj) - 1)
    seen[start] = True
    frontier = [start]
    last = start
    while frontier:
        nxt: List[int] = []
        for v in frontier:
            for u in adjncy[xadj[v] : xadj[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    nxt.append(u)
        if nxt:
            last = nxt[-1]
        frontier = nxt
    return last


def _shorten(xadj: List[int], adjncy: List[int], near: List[int], seed: int) -> List[int]:
    """BFS from a new ``seed`` that stops wherever it does not shorten ``near``.

    ``near[v]`` is ``v``'s distance to its nearest seed.  A vertex the new
    seed brings closer lies on a shortest path whose every vertex it also
    brings closer, so the cut-off BFS sets exactly the distances a full one
    would lower.  Returns the vertices whose distance changed.
    """
    near[seed] = 0
    changed = [seed]
    frontier = [seed]
    d = 0
    while frontier:
        d += 1
        nxt: List[int] = []
        for v in frontier:
            for u in adjncy[xadj[v] : xadj[v + 1]]:
                if d < near[u]:
                    near[u] = d
                    nxt.append(u)
        changed += nxt
        frontier = nxt
    return changed


def _spread_seeds(
    xadj: List[int], adjncy: List[int], k: int, rng: np.random.Generator
) -> List[int]:
    """k seeds via farthest-first traversal from a random start."""
    n = len(xadj) - 1
    seeds = [_bfs_far_vertex(xadj, adjncy, int(rng.integers(n)))]
    near = [n] * n  # n: farther than any path, until a seed's BFS arrives
    # The same distances as an array for argmax; -1 off the first seed's
    # component keeps those vertices from ever being picked.
    dist = np.full(n, -1, dtype=np.int64)
    for _ in range(k - 1):
        changed = _shorten(xadj, adjncy, near, seeds[-1])
        dist[changed] = [near[v] for v in changed]
        seeds.append(int(np.argmax(dist)))
    return seeds


def greedy_grow(graph: Graph, k: int, rng: np.random.Generator) -> np.ndarray:
    """Grow ``k`` balanced regions from spread seeds; returns part vector."""
    n = graph.n
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64) % k
    xadj, adjncy, vwgt = graph.xadj.tolist(), graph.adjncy.tolist(), graph.vwgt.tolist()
    part = [-1] * n
    loads = [0] * k
    frontiers: List[List[int]] = []
    for p, s in enumerate(_spread_seeds(xadj, adjncy, k, rng)):
        if part[s] != -1:
            s = part.index(-1)  # seed collision (tiny graphs): first free vertex
        part[s] = p
        loads[p] += vwgt[s]
        frontiers.append([s])
    # Grow: repeatedly extend the lightest part (lowest id on ties) by one
    # unassigned neighbor of its newest frontier vertex; a part whose
    # frontier runs dry leaves the heap.
    heap = [(loads[p], p) for p in range(k)]
    heapq.heapify(heap)
    assigned = k
    while assigned < n and heap:
        _, p = heapq.heappop(heap)
        frontier = frontiers[p]
        while frontier:
            v = frontier[-1]
            u = next((u for u in adjncy[xadj[v] : xadj[v + 1]] if part[u] == -1), -1)
            if u < 0:
                frontier.pop()
                continue
            part[u] = p
            loads[p] += vwgt[u]
            frontier.append(u)
            assigned += 1
            break
        if frontier:
            heapq.heappush(heap, (loads[p], p))
    # Back-fill disconnected leftovers onto the lightest parts.
    heap = [(load, p) for p, load in enumerate(loads)]
    heapq.heapify(heap)
    for v in range(n):
        if part[v] == -1:
            load, p = heap[0]
            part[v] = p
            heapq.heapreplace(heap, (load + vwgt[v], p))
    return np.array(part, dtype=np.int64)
