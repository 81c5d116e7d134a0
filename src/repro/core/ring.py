"""Ring-oriented index (edge) distribution — paper Section 3.2.

Each rank starts with the contiguous 1/P chunk of the edge arrays it
imported.  The chunks then travel around a ring: at each of P steps a rank
examines the chunk it currently holds, keeps every edge with at least one
endpoint it owns (ghost edges are therefore replicated on both sides, one
level deep), and passes the chunk on.  After P steps every rank has seen
every edge exactly once.

Kept edges append into :class:`~repro.core.growable.GrowableArray` buffers
(capacity doubling — the single-pass ``realloc`` strategy the paper credits
for beating the original two-pass count-then-read).

Costs charged: per-edge examination (vectorized compute), growth copies
(memcpy), and the ring exchanges (real sendrecv traffic through the MPI
model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analysis.catalog import collective
from repro.core.growable import GrowableArray
from repro.errors import PartitionError
from repro.mpi.job import RankContext

__all__ = ["EdgeChunk", "LocalPartition", "ring_partition_index", "owned_nodes_of"]

_EXAMINE_OPS_PER_EDGE = 24.0
"""Cost model: element-ops charged per examined edge.

Covers the two partition-vector lookups, the keep test, and the list
management / locality misses real partitioning code pays per edge
(~0.5 µs/edge at the Origin2000's irregular-access rate).  Calibrated so
the original's two-pass distribution over 18M edges lands on Figure 5's
``index distri.`` bar."""


@dataclass
class EdgeChunk:
    """A contiguous slice of the global edge arrays (one rank's import)."""

    edge1: np.ndarray
    edge2: np.ndarray
    gid_start: int
    """Global id of the first edge in this chunk."""


@dataclass
class LocalPartition:
    """One rank's outcome of the index distribution.

    All maps are sorted by global id.  ``node_map`` contains owned nodes
    plus one level of ghosts (the union of local-edge endpoints with the
    owned set), matching the paper's Figure 1 example.
    """

    edge_map: np.ndarray
    """Global ids of local edges (ghosts included), sorted."""

    edge1: np.ndarray
    """First endpoints aligned with ``edge_map``."""

    edge2: np.ndarray
    """Second endpoints aligned with ``edge_map``."""

    node_map: np.ndarray
    """Owned + ghost node ids, sorted."""

    owned_nodes: np.ndarray
    """Nodes assigned to this rank by the partitioning vector, sorted."""

    @property
    def n_local_edges(self) -> int:
        """Local (owned + ghost) edge count — ``SDM_partition_index_size``."""
        return len(self.edge_map)

    @property
    def n_local_nodes(self) -> int:
        """Local (owned + ghost) node count — ``SDM_partition_data_size``."""
        return len(self.node_map)


def owned_nodes_of(part_vector: np.ndarray, rank: int) -> np.ndarray:
    """Nodes the partitioning vector assigns to ``rank`` (sorted)."""
    return np.flatnonzero(np.asarray(part_vector) == rank).astype(np.int64)


@collective
def ring_partition_index(
    ctx: RankContext,
    part_vector: np.ndarray,
    chunk: EdgeChunk,
) -> LocalPartition:
    """Run the ring distribution; returns this rank's local partition."""
    part_vector = np.asarray(part_vector, dtype=np.int64)
    comm = ctx.comm
    rank, size = ctx.rank, ctx.size
    if len(chunk.edge1) != len(chunk.edge2):
        raise PartitionError("edge chunk arrays must have equal length")

    kept_gids = GrowableArray(np.int64)
    kept_e1 = GrowableArray(np.int64)
    kept_e2 = GrowableArray(np.int64)

    # Chunks travel as int32 endpoint arrays only (the file's element type);
    # each chunk is a contiguous global-id range, so its ids are derivable
    # from its owner's start offset — no id array needs to ride the ring.
    e1 = np.ascontiguousarray(chunk.edge1, dtype=np.int32)
    e2 = np.ascontiguousarray(chunk.edge2, dtype=np.int32)
    starts = comm.allgather(chunk.gid_start)
    compute = ctx.machine.compute

    for step in range(size):
        holder = (rank - step) % size  # whose chunk we currently hold
        if len(e1):
            # Examine: keep edges with at least one owned endpoint.
            ctx.proc.hold(compute.elements(len(e1), _EXAMINE_OPS_PER_EDGE))
            e1_64 = e1.astype(np.int64)
            e2_64 = e2.astype(np.int64)
            keep = (part_vector[e1_64] == rank) | (part_vector[e2_64] == rank)
            if keep.any():
                gids = starts[holder] + np.flatnonzero(keep).astype(np.int64)
                before = kept_gids.bytes_copied + kept_e1.bytes_copied + kept_e2.bytes_copied
                kept_gids.extend(gids)
                kept_e1.extend(e1_64[keep])
                kept_e2.extend(e2_64[keep])
                grown = (
                    kept_gids.bytes_copied + kept_e1.bytes_copied + kept_e2.bytes_copied
                ) - before
                if grown:
                    ctx.proc.hold(compute.copy_time(grown))
        if size > 1:
            # Pass the chunk to the next rank on the ring.
            e1, e2 = comm.ring_shift((e1, e2))

    # Sort local edges by global id for monotone file views.
    order = np.argsort(kept_gids.view(), kind="stable")
    edge_map = kept_gids.view()[order].copy()
    le1 = kept_e1.view()[order].copy()
    le2 = kept_e2.view()[order].copy()
    ctx.proc.hold(compute.elements(max(len(edge_map), 1), 2.0))  # sort pass

    owned = owned_nodes_of(part_vector, rank)
    endpoints = np.unique(np.concatenate([le1, le2])) if len(le1) else np.empty(
        0, dtype=np.int64
    )
    node_map = np.union1d(owned, endpoints)
    return LocalPartition(
        edge_map=edge_map,
        edge1=le1,
        edge2=le2,
        node_map=node_map,
        owned_nodes=owned,
    )
