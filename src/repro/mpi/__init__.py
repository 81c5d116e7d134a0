"""Simulated MPI over the :mod:`repro.simt` kernel.

This package provides the message-passing substrate SDM is written against:
the calls SDM, its drivers and its benchmarks make, and no others.  It
follows mpi4py's conventions where they matter to the paper:

* **Point-to-point** — :meth:`Communicator.send` / :meth:`recv` /
  :meth:`isend` / :meth:`sendrecv` and the paper's
  :meth:`~Communicator.ring_shift`.  A receive names its source and tag
  exactly (no wildcards), and MPI's per-(source, destination)
  non-overtaking guarantee holds.  Payloads are arbitrary Python objects
  (numpy arrays travel by reference — the simulation charges transfer time
  for their ``nbytes`` but does not copy them).
* **Collectives** — barrier, bcast, allreduce (SUM / MIN / MAX), exscan,
  gather, allgather, alltoallv and split.  Data movement is real;
  completion *times* follow the standard algorithms (dissemination barrier,
  binomial trees, recursive doubling, pairwise exchange) computed
  analytically so a 64-rank alltoallv costs O(P) simulator events instead
  of O(P²) thread handoffs.
* **Jobs** — :func:`mpirun` launches an SPMD function on ``nprocs`` simulated
  ranks, wiring up shared services (file system, metadata DB) and per-rank
  phase timers, and returns per-rank results plus timing breakdowns.

Example::

    from repro.mpi import mpirun

    def program(ctx):
        data = ctx.comm.bcast([1, 2, 3] if ctx.rank == 0 else None, root=0)
        return sum(data) * ctx.rank

    job = mpirun(program, nprocs=4)
    assert job.values == [0, 6, 12, 18]
"""

from repro.mpi.request import Request
from repro.mpi.communicator import Communicator
from repro.mpi.ops import MAX, MIN, SUM
from repro.mpi.phases import PhaseTimer
from repro.mpi.job import JobResult, RankContext, mpirun

__all__ = [
    "Request",
    "Communicator",
    "SUM",
    "MAX",
    "MIN",
    "PhaseTimer",
    "RankContext",
    "JobResult",
    "mpirun",
]
