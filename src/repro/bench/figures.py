"""Runners regenerating each figure of the paper's evaluation section.

Every runner builds a ratio-preserving scaled problem, time-dilates the
machine model by the scale factor (see
:func:`~repro.bench.harness.scaled_machine`), runs the relevant
configurations, and returns a :class:`~repro.bench.harness.ResultTable`
whose values are directly comparable to the paper's axes.

Paper reference values are approximate — the paper reports them only as bar
charts — and are marked as such in the rows.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.fun3d.driver import Fun3dRunConfig, run_fun3d_sdm
from repro.apps.fun3d.original import run_fun3d_original
from repro.apps.rt.driver import RTRunConfig, run_rt_sdm
from repro.apps.rt.original import run_rt_original
from repro.bench.harness import ResultTable, scaled_machine
from repro.config import MachineModel, origin2000
from repro.core import Organization, sdm_services, snapshot_services
from repro.mesh import (
    MESH_FILE,
    fun3d_like_problem,
    install_mesh_file,
    rt_like_problem,
)
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway

__all__ = ["PAPER", "run_fig5", "run_fig6", "run_fig7"]

MB = 1024.0 * 1024.0

PAPER = {
    # FUN3D workload constants (Section 4).
    "fun3d_edges": 18_000_000,
    "fun3d_nodes": 2_600_000,
    "fun3d_import_bytes": 807 * MB,
    "fun3d_checkpoint_bytes": 379 * MB,
    # RT workload constants.
    "rt_nodes": int(36 * MB / 8),
    "rt_step_bytes": (36 + 74) * MB,
    "rt_total_bytes": 550 * MB,
    # Approximate values read off the figures (bar charts).
    "fig5": {
        ("original", "index_distri"): 18.0,
        ("original", "import"): 68.0,
        ("sdm_no_history", "index_distri"): 12.0,
        ("sdm_no_history", "import"): 28.0,
        ("sdm_with_history", "index_distri"): 5.0,
        ("sdm_with_history", "import"): 21.0,
    },
    "fig6": {
        ("level1", "write"): 85.0,
        ("level2", "write"): 90.0,
        ("level3", "write"): 100.0,
        ("level1", "read"): 125.0,
        ("level2", "read"): 135.0,
        ("level3", "read"): 145.0,
    },
    "fig7": {
        ("original", 32): 12.0,
        ("original", 64): 10.0,
        ("level1", 32): 75.0,
        ("level1", 64): 62.0,
        ("level23", 32): 78.0,
        ("level23", 64): 65.0,
    },
}

_APPROX = "paper value approximate (read off bar chart)"


def _fun3d_setup(cells: int, nprocs: int, seed: int = 1):
    problem = fun3d_like_problem(cells)
    g = Graph.from_edges(
        problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2
    )
    part = multilevel_kway(g, nprocs, seed=seed)
    return problem, part


def _fun3d_services(problem, seed_from=None):
    base = sdm_services(seed_from=seed_from)

    def factory(sim, machine):
        services = base(sim, machine)
        if not services["fs"].exists(MESH_FILE):
            install_mesh_file(
                services["fs"], MESH_FILE,
                problem.mesh.edge1, problem.mesh.edge2,
                problem.edge_arrays, problem.node_arrays,
            )
        return services

    return factory


def run_fig5(
    nprocs: int = 64,
    cells: int = 20,
    machine: Optional[MachineModel] = None,
) -> ResultTable:
    """Figure 5: time to import + partition the FUN3D mesh, three ways."""
    problem, part = _fun3d_setup(cells, nprocs)
    scale = PAPER["fun3d_edges"] / problem.mesh.n_edges
    m = scaled_machine(machine or origin2000(), scale)
    table = ResultTable(
        f"Figure 5 - FUN3D import + index distribution "
        f"(P={nprocs}, {problem.mesh.n_edges} edges, scale x{scale:.0f})"
    )

    no_writes = Fun3dRunConfig(
        timesteps=1, checkpoint_every=2, register_history=True
    )

    def orig_prog(ctx):
        return run_fun3d_original(
            ctx, problem, part, timesteps=1, checkpoint_every=2
        )

    def sdm_prog(ctx):
        return run_fun3d_sdm(ctx, problem, part, no_writes)

    job_orig = mpirun(orig_prog, nprocs, machine=m,
                      services=_fun3d_services(problem))
    job_cold = mpirun(sdm_prog, nprocs, machine=m,
                      services=_fun3d_services(problem))
    snap = snapshot_services(job_cold)
    job_warm = mpirun(sdm_prog, nprocs, machine=m,
                      services=_fun3d_services(problem, seed_from=snap))
    assert all(not r.used_history for r in job_cold.values)
    assert all(r.used_history for r in job_warm.values)

    for config, job in (
        ("original", job_orig),
        ("sdm_no_history", job_cold),
        ("sdm_with_history", job_warm),
    ):
        for metric in ("index_distri", "import"):
            table.add(
                "fig5", config, metric, job.phase_max(metric), "s",
                paper_value=PAPER["fig5"][(config, metric)], note=_APPROX,
            )
        table.add(
            "fig5", config, "total",
            job.phase_max("index_distri") + job.phase_max("import"), "s",
            paper_value=(
                PAPER["fig5"][(config, "index_distri")]
                + PAPER["fig5"][(config, "import")]
            ),
            note=_APPROX,
        )
    return table


def run_fig6(
    nprocs: int = 64,
    cells: int = 20,
    machine: Optional[MachineModel] = None,
) -> ResultTable:
    """Figure 6: FUN3D checkpoint write+read bandwidth per organization."""
    problem, part = _fun3d_setup(cells, nprocs)
    scale = PAPER["fun3d_edges"] / problem.mesh.n_edges
    m = scaled_machine(machine or origin2000(), scale)
    table = ResultTable(
        f"Figure 6 - FUN3D I/O bandwidth by file organization "
        f"(P={nprocs}, scale x{scale:.0f})"
    )

    levels = {
        "level1": Organization.LEVEL_1,
        "level2": Organization.LEVEL_2,
        "level3": Organization.LEVEL_3,
    }
    for config, level in levels.items():
        cfg = Fun3dRunConfig(
            organization=level, timesteps=2, checkpoint_every=1,
            register_history=False, read_back=True,
        )

        def program(ctx, cfg=cfg):
            return run_fun3d_sdm(ctx, problem, part, cfg)

        job = mpirun(program, nprocs, machine=m,
                     services=_fun3d_services(problem))
        total_bytes = sum(r.bytes_written for r in job.values)
        paper_equiv_bytes = total_bytes * scale
        for metric in ("write", "read"):
            bw = paper_equiv_bytes / job.phase_max(metric) / MB
            table.add(
                "fig6", config, metric, bw, "MB/s",
                paper_value=PAPER["fig6"][(config, metric)], note=_APPROX,
            )
    return table


def run_fig7(
    proc_counts=(32, 64),
    cells: int = 16,
    machine: Optional[MachineModel] = None,
) -> ResultTable:
    """Figure 7: RT write bandwidth — original vs SDM L1 vs L2/3, by P."""
    problem = rt_like_problem(cells)
    g = Graph.from_edges(
        problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2
    )
    scale = PAPER["rt_nodes"] / problem.mesh.n_nodes
    m = scaled_machine(machine or origin2000(), scale)
    table = ResultTable(
        f"Figure 7 - RT write bandwidth "
        f"({problem.mesh.n_nodes} nodes, scale x{scale:.0f})"
    )

    for nprocs in proc_counts:
        part = multilevel_kway(g, nprocs, seed=1)
        configs = {
            "original": lambda ctx: run_rt_original(
                ctx, problem, part, RTRunConfig(timesteps=5)
            ),
            "level1": lambda ctx: run_rt_sdm(
                ctx, problem, part,
                RTRunConfig(organization=Organization.LEVEL_1, timesteps=5),
            ),
            "level23": lambda ctx: run_rt_sdm(
                ctx, problem, part,
                RTRunConfig(organization=Organization.LEVEL_2, timesteps=5),
            ),
        }
        for config, program in configs.items():
            job = mpirun(program, nprocs, machine=m, services=sdm_services())
            total_bytes = sum(r.bytes_written for r in job.values)
            bw = total_bytes * scale / job.phase_max("write") / MB
            table.add(
                "fig7", f"{config}/P{nprocs}", "write", bw, "MB/s",
                paper_value=PAPER["fig7"].get((config, nprocs)), note=_APPROX,
            )
    return table
