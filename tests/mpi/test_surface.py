"""The simulated MPI surface, pinned to literal lists.

``repro.mpi`` carries the calls SDM, its drivers and its benchmarks make
and nothing more: the paper's ring (``ring_shift`` over ``sendrecv``,
itself ``isend`` → ``recv`` → ``Request.wait``), the drivers' blocking
``send`` / ``recv`` token, and eight collectives.  Receives name their
source and tag exactly.  An MPI call coming back — a wildcard, a probe,
another collective — shows up here as a reviewed edit that names its
caller, not as a quiet new method.
"""

import inspect

import repro.mpi
from repro.mpi import Communicator, Request, ops
from repro.mpi.collectives import COMPUTE_FNS


def _public(cls):
    return sorted(name for name in vars(cls) if not name.startswith("_"))


def test_package_names():
    assert repro.mpi.__all__ == [
        "Request", "Communicator", "SUM", "MAX", "MIN", "PhaseTimer",
        "RankContext", "JobResult", "mpirun",
    ]
    assert ops.__all__ == ["SUM", "MAX", "MIN", "ReduceOp"]


def test_communicator_methods():
    assert _public(Communicator) == [
        "allgather", "allreduce", "alltoallv", "barrier", "bcast", "exscan",
        "gather", "isend", "rank", "recv", "ring_shift", "send", "sendrecv",
        "size", "split",
    ]
    assert _public(Request) == ["wait"]


def test_collective_cost_models():
    # split rides on allgather; it has no cost model of its own.
    assert sorted(COMPUTE_FNS) == [
        "allgather", "allreduce", "alltoallv", "barrier", "bcast", "exscan",
        "gather",
    ]


def test_receives_match_exactly():
    assert str(inspect.signature(Communicator.recv)) == (
        "(self, source: 'int', tag: 'int' = 0) -> 'Any'"
    )
    assert str(inspect.signature(Communicator.sendrecv)) == (
        "(self, obj: 'Any', dest: 'int', source: 'int', sendtag: 'int' = 0, "
        "recvtag: 'int' = 0) -> 'Any'"
    )
