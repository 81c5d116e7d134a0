"""SPMD job launcher: run a rank function on P simulated processes.

:func:`mpirun` is the simulated analogue of ``mpiexec -n P python app.py``:
it builds a fresh :class:`~repro.simt.Simulator`, a shared
:class:`~repro.mpi.transport.Transport`, optional shared *services* (the
parallel file system, the metadata database — anything all ranks must see),
then spawns ``nprocs`` rank processes and runs to completion.

The rank function receives a :class:`RankContext` and may return a value;
returns, phase timings, and the final virtual clock come back in a
:class:`JobResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.verifier import SPMDVerifier, spmd_verify_enabled
from repro.config import MachineModel, origin2000
from repro.errors import SimParticipantLost
from repro.mpi.communicator import Communicator
from repro.mpi.phases import PhaseTimer
from repro.mpi.transport import Transport
from repro.simt.simulator import FaultPlan, Simulator
from repro.simt.trace import Trace

__all__ = ["RankContext", "JobResult", "mpirun"]

ServicesFactory = Callable[[Simulator, MachineModel], Dict[str, Any]]


@dataclass
class RankContext:
    """Everything one simulated rank needs: identity, MPI, services, timing."""

    rank: int
    size: int
    comm: Communicator
    proc: Any
    machine: MachineModel
    services: Dict[str, Any]
    timer: PhaseTimer

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.proc.now

    def phase(self, name: str):
        """Context manager charging the body's virtual time to ``name``."""
        return self.timer.phase(name)

    def service(self, name: str) -> Any:
        """Look up a shared service (e.g. ``"fs"``, ``"db"``) by name."""
        return self.services[name]


@dataclass
class JobResult:
    """Outcome of an :func:`mpirun` job."""

    nprocs: int
    machine: MachineModel
    values: List[Any]
    elapsed: float
    phase_totals: List[Dict[str, float]]
    services: Dict[str, Any]
    sim: Simulator = field(repr=False, default=None)
    crashed: List[str] = field(default_factory=list)
    """Names of processes killed by the job's :class:`FaultPlan` (empty for
    fault-free runs).  Crashed ranks have ``values[r] is None``."""
    fault_log: List[Any] = field(default_factory=list)
    """Every fault-point hit recorded while a plan was installed:
    ``(process name, point, nth)`` — replayable as crash schedules."""

    def phase_max(self, name: str) -> float:
        """Max-over-ranks total for a phase — the cost on the critical path
        (what the paper's stacked bars report)."""
        return max((p.get(name, 0.0) for p in self.phase_totals), default=0.0)


def mpirun(
    fn: Callable[[RankContext], Any],
    nprocs: int,
    machine: Optional[MachineModel] = None,
    services: Optional[ServicesFactory] = None,
    trace: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> JobResult:
    """Run ``fn(ctx)`` as an SPMD program on ``nprocs`` simulated ranks.

    Parameters
    ----------
    fn:
        The rank program.  Runs once per rank; its return value is collected.
    nprocs:
        Number of ranks.
    machine:
        Cost model (defaults to :func:`repro.config.origin2000`).
    services:
        Optional factory called once as ``services(sim, machine)`` before
        ranks start; the returned dict is visible to every rank through
        :meth:`RankContext.service`.
    trace:
        Enable the simulator's trace log.
    fault_plan:
        Optional :class:`~repro.simt.simulator.FaultPlan` installing a
        crash schedule.  With a plan installed the job is *crash
        tolerant*: a rank killed at a fault point does not abort the
        job — the run ends when the survivors finish or stall on the
        dead rank, and the result reports :attr:`JobResult.crashed` and
        the full :attr:`JobResult.fault_log` instead of raising.

    Raises
    ------
    repro.errors.SimProcessCrashed
        If any rank raised; the original exception is chained.
    repro.errors.SPMDVerificationError
        With ``SPMD_VERIFY=1`` in the environment: if the per-context
        collective sequences the ranks issued do not match at job end.
        (Mid-job signature mismatches are raised inside the offending
        rank and so surface chained under ``SimProcessCrashed``.)
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    machine = machine if machine is not None else origin2000()
    verify = spmd_verify_enabled()
    # The verifier files its signatures through the trace, so turning
    # verification on implies recording (the records are what the
    # trace -> finding pretty-printer and the deadlock report consume).
    sim = Simulator(trace=Trace(enabled=trace or verify))
    transport = Transport(sim, machine, nprocs)
    if verify:
        transport.verifier = SPMDVerifier(nprocs, trace=sim.trace)
        sim.deadlock_reporters.append(transport.verifier.deadlock_report)
    shared: Dict[str, Any] = services(sim, machine) if services is not None else {}

    contexts: List[Optional[RankContext]] = [None] * nprocs

    def rank_main(proc, r: int):
        comm = Communicator(transport, r, proc)
        ctx = RankContext(
            rank=r,
            size=nprocs,
            comm=comm,
            proc=proc,
            machine=machine,
            services=shared,
            timer=PhaseTimer(proc),
        )
        contexts[r] = ctx
        return fn(ctx)

    sim.fault_plan = fault_plan
    procs = [sim.spawn(rank_main, r, name=f"rank{r}") for r in range(nprocs)]
    try:
        elapsed = sim.run()
    except SimParticipantLost:
        if fault_plan is None:  # pragma: no cover - defensive
            raise
        # Survivors stalled on a fault-killed rank: an expected outcome
        # under an installed plan, not a job failure.  The job ends at
        # the stall time; recovery happens in a follow-on job seeded
        # from this one's services.
        elapsed = sim.now
    crashed = [p.name for p in sim._procs if p.crashed]
    if transport.verifier is not None and not crashed:
        # Crashed ranks leave open collective sites and shorter
        # per-context sequences by construction; the sanitizer's
        # end-of-job uniformity check only makes sense fault-free.
        transport.verifier.final_check()
    return JobResult(
        nprocs=nprocs,
        machine=machine,
        values=[p.result for p in procs],
        elapsed=elapsed,
        phase_totals=[
            (contexts[r].timer.as_dict() if contexts[r] is not None else {})
            for r in range(nprocs)
        ],
        services=shared,
        sim=sim,
        crashed=crashed,
        fault_log=list(sim.fault_log),
    )
