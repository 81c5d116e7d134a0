"""Boundary refinement and balancing: greedy KL/FM-style passes.

Each refinement pass visits the boundary vertices (those with a neighbor
in another part) in ascending order and moves a vertex to its
most-connected other part (the lowest part id on ties) when that strictly
reduces the cut and keeps part weights within the balance tolerance.  A
handful of passes at each uncoarsening level is the classic METIS recipe.

A pass starts by computing every boundary vertex's best move at once,
vectorised over the edge list; during the pass a vertex is re-evaluated,
over its own adjacency, only if a neighbor has moved since.  Balancing
evaluates a vertex over its adjacency the same way.  So a pass costs
O(edges) plus O(degree) per move, whatever ``k``.  Edge and vertex
weights are non-negative (``Graph.from_edges`` checks), which the tie
rules and the re-evaluation bound rely on.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.partition.graph import Graph

__all__ = ["refine_kway", "balance_kway"]


class _Level:
    """One graph's adjacency (zero-copy views of ``adjncy``/``adjwgt``) and
    its live part vector.

    ``part`` (the caller's array, changed in place) and ``parts`` (a list
    copy for fast reads) change together in :meth:`move`.  ``stale[u]``
    bounds how far the moves since the pass began can have raised ``u``'s
    gain: a neighbor moving across an edge of weight w takes w from one of
    ``u``'s connections and gives it to another, which raises the best
    external connection by at most w and lowers the internal one by at
    most w, so the gain rises by at most 2w.
    """

    def __init__(self, graph: Graph, part: np.ndarray) -> None:
        self.graph = graph
        self.xadj: List[int] = graph.xadj.tolist()
        self.adjncy = memoryview(graph.adjncy)
        self.adjwgt = memoryview(graph.adjwgt)
        self.vwgt: List[int] = graph.vwgt.tolist()
        self.src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.xadj))
        self.part = part
        self.parts: List[int] = part.tolist()
        self.stale: Dict[int, int] = {}

    def connections(self, v: int) -> Dict[int, int]:
        """Edge weight from ``v`` into each part it touches, by today's parts."""
        parts, conn = self.parts, {}
        lo, hi = self.xadj[v], self.xadj[v + 1]
        for u, w in zip(self.adjncy[lo:hi], self.adjwgt[lo:hi]):
            p = parts[u]
            conn[p] = conn.get(p, 0) + w
        return conn

    def boundary(self) -> np.ndarray:
        """Vertices with a neighbor in another part, ascending."""
        cross = self.part[self.src] != self.part[self.graph.adjncy]
        return np.unique(self.src[cross])

    def best_moves(self, k: int) -> Tuple[List[int], List[int], List[int]]:
        """Every boundary vertex's ``(vertex, target, gain)`` at once.

        The target is the other part ``v`` is most connected to, the
        lowest id on ties (:func:`_strongest`'s rule); the gain is that
        connection minus ``v``'s internal one.  Vertices ascend.
        """
        graph, part = self.graph, self.part
        to = part[graph.adjncy]
        cross = part[self.src] != to
        # Internal connection: a prefix sum over the edges that stay home.
        home = np.concatenate(([0], np.cumsum(np.where(cross, 0, graph.adjwgt))))
        internal = home[graph.xadj[1:]] - home[graph.xadj[:-1]]
        key = self.src[cross] * k + to[cross]
        order = np.argsort(key, kind="stable")
        key = key[order]
        head = np.flatnonzero(np.diff(key, prepend=-1))
        conn = np.add.reduceat(graph.adjwgt[cross][order], head)
        vert, target = np.divmod(key[head], k)
        # Entries ascend by (vertex, part): the first entry that reaches
        # its vertex's maximum is the lowest part id among the strongest.
        head = np.flatnonzero(np.diff(vert, prepend=-1))
        strongest = np.maximum.reduceat(conn, head)
        top = np.flatnonzero(conn == np.repeat(strongest, np.diff(head, append=len(vert))))
        top = top[np.diff(vert[top], prepend=-1) != 0]
        vert = vert[top]
        gain = conn[top] - internal[vert]
        return vert.tolist(), target[top].tolist(), gain.tolist()

    def best_move(self, v: int) -> Tuple[int, int]:
        """``(target, gain)`` of :meth:`best_moves` for one vertex, by today's parts."""
        conn = self.connections(v)
        internal = conn.pop(self.parts[v], 0)
        if not conn:
            return -1, 0
        target = _strongest(conn)
        return target, conn[target] - internal

    def move(self, v: int, target: int, loads) -> None:
        """Move ``v`` to ``target``, carrying its weight between ``loads``."""
        wv = self.vwgt[v]
        loads[self.parts[v]] -= wv
        loads[target] += wv
        self.part[v] = target
        self.parts[v] = target
        lo, hi = self.xadj[v], self.xadj[v + 1]
        stale = self.stale
        for u, w in zip(self.adjncy[lo:hi], self.adjwgt[lo:hi]):
            stale[u] = stale.get(u, 0) + 2 * w


def _strongest(conn: Dict[int, int]) -> int:
    """The part of largest connection, lowest id on ties (``np.argmax``'s pick)."""
    best = max(conn.values())
    return min(p for p, w in conn.items() if w == best)


def _max_load(graph: Graph, k: int, tolerance: float) -> int:
    return int(np.ceil(tolerance * int(graph.vwgt.sum()) / k))


def refine_kway(
    graph: Graph,
    part: np.ndarray,
    k: int,
    *,
    passes: int = 4,
    tolerance: float = 1.05,
) -> np.ndarray:
    """Greedy k-way boundary refinement in place; returns ``part``.

    ``tolerance`` bounds max part weight at ``tolerance * ideal``.
    """
    part = np.asarray(part, dtype=np.int64)
    loads = np.bincount(part, weights=graph.vwgt, minlength=k).astype(np.int64).tolist()
    max_load = _max_load(graph, k, tolerance)
    level = _Level(graph, part)
    for _ in range(passes):
        moves = level.best_moves(k)
        level.stale.clear()
        moved = 0
        for v, target, gain in zip(*moves):
            # Re-evaluate a vertex whose neighbors moved, unless even the
            # largest rise they can have caused leaves its gain <= 0.
            rise = level.stale.get(v)
            if rise is not None and gain + rise > 0:
                target, gain = level.best_move(v)
            if gain <= 0 or loads[target] + level.vwgt[v] > max_load:
                continue
            level.move(v, target, loads)
            moved += 1
        if moved == 0:
            break
    return part


def balance_kway(
    graph: Graph,
    part: np.ndarray,
    k: int,
    *,
    tolerance: float = 1.05,
) -> np.ndarray:
    """Push overweight parts under ``tolerance * ideal`` in place.

    Boundary vertices move first (minimal cut damage): to the most-connected
    part that can take them, else to the lowest-numbered one that can.  If
    a part is still overweight with no boundary escape (disconnected lumps),
    arbitrary vertices are forced to the lightest part.  With unit vertex
    weights (the finest level) this always terminates within tolerance.
    """
    part = np.asarray(part, dtype=np.int64)
    loads = np.bincount(part, weights=graph.vwgt, minlength=k).astype(np.int64)
    max_load = _max_load(graph, k, tolerance)
    if (loads <= max_load).all():
        return part
    level = _Level(graph, part)
    for _ in range(8):
        progress = False
        for v in level.boundary().tolist():
            if loads[level.parts[v]] <= max_load:
                continue
            wv = level.vwgt[v]
            # An overweight part can never take wv, so v's own is excluded.
            room = {
                p: w
                for p, w in level.connections(v).items()
                if w > 0 and loads[p] + wv <= max_load
            }
            if room:
                target = _strongest(room)
            else:
                fits = np.flatnonzero(loads + wv <= max_load)
                if len(fits) == 0:
                    continue
                target = int(fits[0])
            level.move(v, target, loads)
            progress = True
        if (loads <= max_load).all():
            return part
        if not progress:
            break
    # Forced rebalance for anything still overweight.
    for v in np.argsort(graph.vwgt).tolist():  # move light vertices first
        pv = level.parts[v]
        if loads[pv] <= max_load:
            continue
        wv = level.vwgt[v]
        target = int(np.argmin(loads))
        if target == pv or loads[target] + wv > max_load:
            continue
        level.move(v, target, loads)
        if (loads <= max_load).all():
            break
    return part
