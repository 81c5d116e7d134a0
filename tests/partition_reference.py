"""The partition kernels the O(degree) walks replaced, kept as their oracle.

Each function is the earlier implementation of the kernel it stands
for: ``refine_kway`` and ``balance_kway`` build a dense per-part
connection vector per vertex and ``argmax`` it, ``_spread_seeds`` runs a
full BFS per seed, and matching and growth index numpy arrays one edge
at a time.  Where they called the per-vertex ``Graph`` accessors (since
deleted) they slice the CSR arrays.  A test swaps them into
``repro.partition.multilevel`` with ``monkeypatch`` or calls them beside
the kernels (``tests/partition/test_partition_reference.py``; ``tests/``
is on ``sys.path`` through its ``conftest.py``).
"""

import heapq
from typing import List, Tuple

import numpy as np

UNMATCHED = -1


def _neighbors(graph, v):
    return graph.adjncy[graph.xadj[v] : graph.xadj[v + 1]]


def heavy_edge_matching(graph, rng):
    n = graph.n
    match = np.full(n, UNMATCHED, dtype=np.int64)
    order = rng.permutation(n)
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    for v in order.tolist():
        if match[v] != UNMATCHED:
            continue
        best = -1
        best_w = -1
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            if match[u] == UNMATCHED and u != v:
                w = adjwgt[i]
                if w > best_w:
                    best_w = w
                    best = u
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return match


def _bfs_far_vertex(graph, start):
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = [start]
    last = start
    while frontier:
        nxt: List[int] = []
        for v in frontier:
            for u in _neighbors(graph, v).tolist():
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
                    last = u
        frontier = nxt
    return last


def _spread_seeds(graph, k, rng):
    first = int(rng.integers(graph.n))
    seeds = [_bfs_far_vertex(graph, first)]
    n = graph.n
    dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    for _ in range(k - 1):
        # A full BFS from the newest seed, folded into the running minimum.
        newest = seeds[-1]
        d = np.full(n, -1, dtype=np.int64)
        d[newest] = 0
        frontier = [newest]
        while frontier:
            nxt: List[int] = []
            for v in frontier:
                for u in _neighbors(graph, v).tolist():
                    if d[u] < 0:
                        d[u] = d[v] + 1
                        nxt.append(u)
            frontier = nxt
        reached = d >= 0
        dist[reached] = np.minimum(dist[reached], d[reached])
        dist[~reached & (dist == np.iinfo(np.int64).max)] = -2  # unreachable
        candidates = np.where(dist >= 0)[0]
        if len(candidates) == 0:
            seeds.append(int(rng.integers(n)))
        else:
            seeds.append(int(candidates[np.argmax(dist[candidates])]))
    return seeds[:k]


def greedy_grow(graph, k, rng):
    n = graph.n
    part = np.full(n, -1, dtype=np.int64)
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64) % k
    seeds = _spread_seeds(graph, k, rng)
    loads = np.zeros(k, dtype=np.int64)
    frontiers: List[List[int]] = [[] for _ in range(k)]
    for p, s in enumerate(seeds):
        if part[s] != -1:
            s = int(np.where(part == -1)[0][0])
        part[s] = p
        loads[p] += int(graph.vwgt[s])
        frontiers[p] = [s]
    heap = [(int(loads[p]), p) for p in range(k)]
    heapq.heapify(heap)
    assigned = int((part != -1).sum())
    stale_rounds = 0
    while assigned < n and heap:
        load, p = heapq.heappop(heap)
        if load != loads[p]:
            heapq.heappush(heap, (int(loads[p]), p))
            stale_rounds += 1
            if stale_rounds > 4 * k:
                break
            continue
        stale_rounds = 0
        grown = False
        frontier = frontiers[p]
        while frontier and not grown:
            v = frontier[-1]
            for u in _neighbors(graph, v).tolist():
                if part[u] == -1:
                    part[u] = p
                    loads[p] += int(graph.vwgt[u])
                    frontier.append(u)
                    assigned += 1
                    grown = True
                    break
            if not grown:
                frontier.pop()
        if grown or frontier:
            heapq.heappush(heap, (int(loads[p]), p))
    for v in np.where(part == -1)[0].tolist():
        p = int(np.argmin(loads))
        part[v] = p
        loads[p] += int(graph.vwgt[v])
    return part


def _dense_connections(graph, part, v, k) -> Tuple[np.ndarray, int]:
    """Per-part connection weights of v and its internal degree."""
    conn = np.zeros(k, dtype=np.int64)
    lo, hi = graph.xadj[v], graph.xadj[v + 1]
    np.add.at(conn, part[graph.adjncy[lo:hi]], graph.adjwgt[lo:hi])
    return conn, int(conn[part[v]])


def refine_kway(graph, part, k, *, passes=4, tolerance=1.05):
    n = graph.n
    part = np.asarray(part, dtype=np.int64)
    loads = np.bincount(part, weights=graph.vwgt, minlength=k).astype(np.int64)
    max_load = int(np.ceil(tolerance * int(graph.vwgt.sum()) / k))
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    for _ in range(passes):
        boundary = np.unique(src[part[src] != part[graph.adjncy]])
        if len(boundary) == 0:
            break
        moved = 0
        for v in boundary.tolist():
            pv = int(part[v])
            conn, internal = _dense_connections(graph, part, v, k)
            conn[pv] = -1  # exclude own part from targets
            target = int(np.argmax(conn))
            gain = int(conn[target]) - internal
            if gain <= 0:
                continue
            wv = int(graph.vwgt[v])
            if loads[target] + wv > max_load:
                continue
            if loads[pv] - wv < 0:
                continue
            part[v] = target
            loads[pv] -= wv
            loads[target] += wv
            moved += 1
        if moved == 0:
            break
    return part


def balance_kway(graph, part, k, *, tolerance=1.05):
    n = graph.n
    part = np.asarray(part, dtype=np.int64)
    loads = np.bincount(part, weights=graph.vwgt, minlength=k).astype(np.int64)
    max_load = int(np.ceil(tolerance * int(graph.vwgt.sum()) / k))
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    for _ in range(8):
        if (loads <= max_load).all():
            return part
        boundary = np.unique(src[part[src] != part[graph.adjncy]])
        progress = False
        for v in boundary.tolist():
            pv = int(part[v])
            if loads[pv] <= max_load:
                continue
            wv = int(graph.vwgt[v])
            conn, _internal = _dense_connections(graph, part, v, k)
            eligible = loads + wv <= max_load
            eligible[pv] = False
            if not eligible.any():
                continue
            masked = np.where(eligible, conn, -1)
            target = int(np.argmax(masked))
            if masked[target] < 0:
                target = int(np.argmin(np.where(eligible, loads, np.iinfo(np.int64).max)))
            part[v] = target
            loads[pv] -= wv
            loads[target] += wv
            progress = True
        if not progress:
            break
    for v in np.argsort(graph.vwgt).tolist():
        pv = int(part[v])
        if loads[pv] <= max_load:
            continue
        wv = int(graph.vwgt[v])
        target = int(np.argmin(loads))
        if target == pv or loads[target] + wv > max_load:
            continue
        part[v] = target
        loads[pv] -= wv
        loads[target] += wv
        if (loads <= max_load).all():
            break
    return part
