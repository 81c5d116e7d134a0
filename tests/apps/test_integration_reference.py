"""Whole-system integration: distributed SDM output vs a sequential
reference computed with plain numpy (no MPI, no SDM, no simulation)."""

import numpy as np
import pytest

from repro.apps.fun3d import Fun3dRunConfig, run_fun3d_sdm
from repro.apps.fun3d.kernel import edge_sweep
from repro.config import fast_test
from repro.core import Organization, sdm_services
from repro.core.layout import checkpoint_file_name
from repro.mesh import fun3d_like_problem, install_mesh_file
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway

NPROCS = 6
TIMESTEPS = 3


@pytest.fixture(scope="module")
def problem():
    return fun3d_like_problem(4)


@pytest.fixture(scope="module")
def part(problem):
    g = Graph.from_edges(
        problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2
    )
    return multilevel_kway(g, NPROCS, seed=5)


def sequential_reference(problem, timesteps):
    """The same physics, computed on one CPU with global arrays."""
    mesh = problem.mesh
    x = problem.edge_arrays["xe0"]
    y = problem.node_arrays["yn0"].copy()
    per_step = {}
    for t in range(timesteps):
        p, q = edge_sweep(mesh.edge1, mesh.edge2, x, y)
        y = y + 1e-3 * p
        per_step[t] = {
            "p": p.copy(),
            "q": q.copy(),
            "r": p - q,
            "s": p * 0.5,
            "res": np.repeat(p, 5),
        }
    return per_step


@pytest.mark.parametrize("level", list(Organization))
def test_sdm_files_equal_sequential_reference(problem, part, level):
    """Every dataset, every timestep, every organization level: the bytes
    SDM puts on the simulated PFS equal the sequential computation."""
    mesh = problem.mesh
    reference = sequential_reference(problem, TIMESTEPS)

    def services(sim, machine):
        built = sdm_services()(sim, machine)
        install_mesh_file(
            built["fs"], "uns3d.msh", mesh.edge1, mesh.edge2,
            problem.edge_arrays, problem.node_arrays,
        )
        return built

    cfg = Fun3dRunConfig(
        organization=level, timesteps=TIMESTEPS, checkpoint_every=1,
        register_history=False,
    )
    job = mpirun(lambda ctx: run_fun3d_sdm(ctx, problem, part, cfg),
                 NPROCS, machine=fast_test(), services=services)
    fs = job.services["fs"]

    from repro.metadb.schema import SDMTables

    tables = SDMTables(job.services["db"])
    for t in range(TIMESTEPS):
        for name in ("p", "q", "r", "s", "res"):
            where = tables.lookup_execution_version(1, name, t)[:3]
            assert where is not None, (level, name, t)
            fname, base, nbytes = where
            data = fs.lookup(fname).store.read(base, nbytes).view(np.float64)
            np.testing.assert_allclose(
                data, reference[t][name], atol=1e-9,
                err_msg=f"level={level} dataset={name} t={t}",
            )


def test_history_and_no_history_runs_write_identical_files(problem, part):
    """Using the history file must not change a single output byte."""
    from repro.core import snapshot_services

    def services(seed_from=None):
        base = sdm_services(seed_from=seed_from)

        def factory(sim, machine):
            built = base(sim, machine)
            if not built["fs"].exists("uns3d.msh"):
                install_mesh_file(
                    built["fs"], "uns3d.msh", problem.mesh.edge1,
                    problem.mesh.edge2, problem.edge_arrays,
                    problem.node_arrays,
                )
            return built

        return factory

    cfg = Fun3dRunConfig(timesteps=2, register_history=True)
    job1 = mpirun(lambda ctx: run_fun3d_sdm(ctx, problem, part, cfg),
                  NPROCS, machine=fast_test(), services=services())
    snap = snapshot_services(job1)
    job2 = mpirun(lambda ctx: run_fun3d_sdm(ctx, problem, part, cfg),
                  NPROCS, machine=fast_test(), services=services(snap))
    assert all(r.used_history for r in job2.values)

    fs1, fs2 = job1.services["fs"], job2.services["fs"]
    for t in range(2):
        for name in ("p", "q", "res"):
            fname = checkpoint_file_name("fun3d", 1, name, t,
                                         Organization.LEVEL_2)
            a = fs1.lookup(fname).store.read(0, fs1.lookup(fname).size)
            # Run 2 appended to the same snapshot-carried files; its last
            # instance must equal run 1's (same physics, same layout).
            b = fs2.lookup(fname).store.read(0, fs2.lookup(fname).size)
            np.testing.assert_array_equal(a, b[: len(a)])
