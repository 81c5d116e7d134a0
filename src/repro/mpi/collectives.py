"""Collective algorithms: real data movement, modelled completion times.

Each collective is executed as a **rendezvous**: every rank deposits its
contribution at a per-call site; the last rank to arrive computes all
results and completion times and wakes everyone.  Data movement is therefore
exact (the values each rank receives are precisely what MPI semantics
dictate), while the *time* each rank completes at follows the textbook
algorithm the real implementation would use:

==============  =====================================  ========================
collective      algorithm modelled                      completion cost
==============  =====================================  ========================
barrier         dissemination                           ``L·α``
bcast           binomial tree                           ``L·(α + n/β)``
reduce          binomial tree (reversed)                ``L·(α + n/β + γ·n)``
allreduce       recursive doubling                      ``L·(α + n/β + γ·n)``
gather          binomial tree                           ``L·α + Σ n_r/β``
allgather       gather + bcast of concatenation         sum of the two
scatter         binomial tree                           ``L·α + Σ n_r/β``
alltoallv       pairwise exchange, P−1 rounds           ``Σ_s (α + max_i n_{i,i⊕s}/β)``
scan            recursive doubling                      ``L·(α + n/β + γ·n)``
==============  =====================================  ========================

with ``L = ⌈log₂ P⌉``, ``α`` latency, ``β`` bandwidth, ``γ`` per-element
reduction cost, and all times measured from the *last* rank's arrival (a
collective cannot finish before everyone shows up).

This costs O(P) simulator events per collective instead of the O(P log P) to
O(P²) thread handoffs a message-by-message implementation would need — the
difference between benchmarks that run in seconds and in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import MachineModel
from repro.errors import MPICollectiveMismatch
from repro.mpi.nbytes import payload_nbytes, sequence_nbytes
from repro.mpi.ops import ReduceOp
from repro.simt.process import Process

__all__ = ["CollectiveSite", "COMPUTE_FNS"]

Results = Dict[int, Any]
Completions = Dict[int, float]
ComputeFn = Callable[["CollectiveSite", MachineModel, int], Tuple[Results, Completions]]


@dataclass
class _Entry:
    proc: Process
    payload: Any
    nbytes: int
    arrive: float
    parts: Optional[List[int]] = None  # alltoallv: bytes per destination


class CollectiveSite:
    """Per-call rendezvous state for one collective operation."""

    def __init__(self, op: str, size: int) -> None:
        self.op = op
        self.size = size
        self.entries: Dict[int, _Entry] = {}
        self.root: int | None = None
        self.reduce_op: ReduceOp | None = None

    def deposit(self, rank: int, proc: Process, payload: Any, now: float) -> None:
        """Record rank's contribution; payload size is measured once here
        (an ``alltoallv`` list per destination, for the byte matrix)."""
        if rank in self.entries:
            raise MPICollectiveMismatch(
                f"rank {rank} entered collective {self.op!r} twice"
            )
        if self.op == "alltoallv":  # always a list (Communicator.alltoallv)
            parts = [payload_nbytes(obj) for obj in payload]
            entry = _Entry(proc, payload, sequence_nbytes(parts), now, parts)
        else:
            entry = _Entry(proc, payload, payload_nbytes(payload), now)
        self.entries[rank] = entry

    @property
    def complete(self) -> bool:
        return len(self.entries) == self.size

    def last_arrival(self) -> float:
        return max(e.arrive for e in self.entries.values())


def _log2ceil(p: int) -> int:
    return int(math.ceil(math.log2(p))) if p > 1 else 0


def _uniform(site: CollectiveSite, t: float, value_of) -> Tuple[Results, Completions]:
    results = {r: value_of(r) for r in site.entries}
    completions = {r: max(t, site.entries[r].arrive) for r in site.entries}
    return results, completions


# ---------------------------------------------------------------------------
# Individual collectives
# ---------------------------------------------------------------------------

def _barrier(site: CollectiveSite, m: MachineModel, size: int):
    t = site.last_arrival() + _log2ceil(size) * m.network.latency
    return _uniform(site, t, lambda r: None)


def _bcast(site: CollectiveSite, m: MachineModel, size: int):
    root = site.root or 0
    n = site.entries[root].nbytes
    depth = _log2ceil(size)
    t = site.last_arrival() + depth * m.network.transfer_time(n)
    payload = site.entries[root].payload
    return _uniform(site, t, lambda r: payload)


def _fold(site: CollectiveSite, upto: int | None = None) -> Any:
    """Deterministic left fold of payloads in rank order."""
    op = site.reduce_op
    acc = None
    for r in sorted(site.entries):
        if upto is not None and r > upto:
            break
        v = site.entries[r].payload
        acc = v if acc is None else op(acc, v)
    return acc


def _reduce_cost(m: MachineModel, n: int, size: int) -> float:
    depth = _log2ceil(size)
    per_hop = m.network.transfer_time(n) + m.compute.elements(max(n // 8, 1))
    return depth * per_hop


def _reduce(site: CollectiveSite, m: MachineModel, size: int):
    root = site.root or 0
    n = max(e.nbytes for e in site.entries.values())
    t = site.last_arrival() + _reduce_cost(m, n, size)
    total = _fold(site)
    return _uniform(site, t, lambda r: total if r == root else None)


def _allreduce(site: CollectiveSite, m: MachineModel, size: int):
    n = max(e.nbytes for e in site.entries.values())
    t = site.last_arrival() + _reduce_cost(m, n, size)
    total = _fold(site)
    return _uniform(site, t, lambda r: total)


def _scan(site: CollectiveSite, m: MachineModel, size: int):
    n = max(e.nbytes for e in site.entries.values())
    t = site.last_arrival() + _reduce_cost(m, n, size)
    prefix = {r: _fold(site, upto=r) for r in site.entries}
    return _uniform(site, t, lambda r: prefix[r])


def _exscan(site: CollectiveSite, m: MachineModel, size: int):
    n = max(e.nbytes for e in site.entries.values())
    t = site.last_arrival() + _reduce_cost(m, n, size)
    prefix = {
        r: (None if r == 0 else _fold(site, upto=r - 1))
        for r in site.entries
    }
    return _uniform(site, t, lambda r: prefix[r])


def _gather(site: CollectiveSite, m: MachineModel, size: int):
    root = site.root or 0
    other_bytes = sum(e.nbytes for r, e in site.entries.items() if r != root)
    t = (
        site.last_arrival()
        + _log2ceil(size) * m.network.latency
        + other_bytes / m.network.bandwidth
    )
    ordered = [site.entries[r].payload for r in range(size)]
    return _uniform(site, t, lambda r: ordered if r == root else None)


def _allgather(site: CollectiveSite, m: MachineModel, size: int):
    total = sum(e.nbytes for e in site.entries.values())
    depth = _log2ceil(size)
    t_gather = depth * m.network.latency + total / m.network.bandwidth
    t_bcast = depth * m.network.transfer_time(total)
    t = site.last_arrival() + t_gather + t_bcast
    ordered = [site.entries[r].payload for r in range(size)]
    return _uniform(site, t, lambda r: ordered)


def _scatter(site: CollectiveSite, m: MachineModel, size: int):
    root = site.root or 0
    chunks = site.entries[root].payload
    if chunks is None or len(chunks) != size:
        raise MPICollectiveMismatch(
            f"scatter root payload must be a sequence of length {size}"
        )
    total = sum(payload_nbytes(c) for c in chunks)
    t = (
        site.last_arrival()
        + _log2ceil(size) * m.network.latency
        + total / m.network.bandwidth
    )
    return _uniform(site, t, lambda r: chunks[r])


def _alltoallv(site: CollectiveSite, m: MachineModel, size: int):
    # Validate shapes and build the P x P byte matrix.
    for r, e in site.entries.items():
        if e.payload is None or len(e.payload) != size:
            raise MPICollectiveMismatch(
                f"alltoallv rank {r} payload must be a sequence of length {size}"
            )
    bmat = np.zeros((size, size), dtype=np.float64)
    for src, e in site.entries.items():
        bmat[src] = e.parts
    # Pairwise-exchange rounds: in round s each rank i exchanges with (i+s)%P.
    alpha, beta = m.network.latency, m.network.bandwidth
    idx = np.arange(size)
    partner = (idx + idx[1:, None]) % size  # row s-1: the peers of round s
    duration = 0.0
    # Summed in round order on purpose: a pairwise np.sum would move the
    # virtual clock in its last digits.
    for round_bytes in bmat[idx, partner].max(axis=1).tolist():
        duration += alpha + round_bytes / beta
    t = site.last_arrival() + duration
    recv = {
        r: [site.entries[src].payload[r] for src in range(size)]
        for r in site.entries
    }
    return _uniform(site, t, lambda r: recv[r])


COMPUTE_FNS: Dict[str, ComputeFn] = {
    "barrier": _barrier,
    "bcast": _bcast,
    "reduce": _reduce,
    "allreduce": _allreduce,
    "scan": _scan,
    "exscan": _exscan,
    "gather": _gather,
    "allgather": _allgather,
    "scatter": _scatter,
    "alltoallv": _alltoallv,
}
