"""FUN3D template: kernel correctness, SDM vs original equivalence, timing."""

import numpy as np
import pytest

from repro.apps.fun3d import (
    Fun3dRunConfig,
    edge_sweep,
    update_ghosts,
    localize,
    run_fun3d_original,
    run_fun3d_sdm,
)
from repro.config import fast_test, origin2000
from repro.core import Organization, sdm_services, snapshot_services
from repro.mesh import fun3d_like_problem, install_mesh_file
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway

NPROCS = 4


@pytest.fixture(scope="module")
def problem():
    return fun3d_like_problem(3)


@pytest.fixture(scope="module")
def part(problem):
    g = Graph.from_edges(problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2)
    return multilevel_kway(g, NPROCS, seed=0)


def services_for(problem, seed_from=None):
    base = sdm_services(seed_from=seed_from)

    def factory(sim, machine):
        services = base(sim, machine)
        if not services["fs"].exists("uns3d.msh"):
            install_mesh_file(
                services["fs"], "uns3d.msh",
                problem.mesh.edge1, problem.mesh.edge2,
                problem.edge_arrays, problem.node_arrays,
            )
        return services

    return factory


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def test_localize_translates_global_to_local():
    node_map = np.array([2, 5, 9, 11], dtype=np.int64)
    np.testing.assert_array_equal(
        localize(node_map, np.array([9, 2, 11])), [2, 0, 3]
    )


def test_edge_sweep_antisymmetric_flux_conserves():
    """p contributions cancel in the global sum (conservation)."""
    e1 = np.array([0, 1, 2])
    e2 = np.array([1, 2, 3])
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([1.0, 4.0, 9.0, 16.0])
    p, q = edge_sweep(e1, e2, x, y)
    assert abs(p.sum()) < 1e-12
    # Hand-check node 1: +flux(edge0 into e2 side is -) ...
    f = x * (y[e1] - y[e2])
    assert p[1] == pytest.approx(-f[0] + f[1])


def test_ghost_exchange_completes_owned_sums(part, problem):
    """Sequential reference: sweep on the whole mesh equals the distributed
    sweep + ghost exchange at owned positions."""
    mesh = problem.mesh
    x_glob = problem.edge_arrays["xe0"]
    y_glob = problem.node_arrays["yn0"]
    p_ref, q_ref = edge_sweep(mesh.edge1, mesh.edge2, x_glob, y_glob)

    def program(ctx):
        keep = (part[mesh.edge1] == ctx.rank) | (part[mesh.edge2] == ctx.rank)
        le1, le2 = mesh.edge1[keep], mesh.edge2[keep]
        owned = np.flatnonzero(part == ctx.rank)
        node_map = np.union1d(owned, np.unique(np.concatenate([le1, le2])))
        e1l, e2l = localize(node_map, le1), localize(node_map, le2)
        p, q = edge_sweep(e1l, e2l, x_glob[keep], y_glob[node_map])
        p, q = update_ghosts(ctx, node_map, part, p, q)
        sel = localize(node_map, owned)
        return owned, p[sel], q[sel]

    job = mpirun(program, NPROCS, machine=fast_test())
    for owned, p_loc, q_loc in job.values:
        np.testing.assert_allclose(p_loc, p_ref[owned], atol=1e-9)
        np.testing.assert_allclose(q_loc, q_ref[owned], atol=1e-9)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def test_sdm_and_original_produce_identical_results(problem, part):
    """Same physics, different I/O paths: checksums must agree."""

    def sdm_prog(ctx):
        return run_fun3d_sdm(
            ctx, problem, part,
            Fun3dRunConfig(register_history=False, timesteps=2),
        )

    def orig_prog(ctx):
        return run_fun3d_original(ctx, problem, part, timesteps=2)

    sdm_job = mpirun(sdm_prog, NPROCS, machine=fast_test(),
                     services=services_for(problem))
    orig_job = mpirun(orig_prog, NPROCS, machine=fast_test(),
                      services=services_for(problem))
    for s, o in zip(sdm_job.values, orig_job.values):
        assert s.checksum == pytest.approx(o.checksum, rel=1e-12)
        assert s.n_local_edges == o.n_local_edges
        assert s.n_local_nodes == o.n_local_nodes
        assert s.bytes_written == o.bytes_written


def test_sdm_read_back_matches_written(problem, part):
    def program(ctx):
        return run_fun3d_sdm(
            ctx, problem, part,
            Fun3dRunConfig(register_history=False, read_back=True),
        )

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=services_for(problem))
    for r in job.values:
        assert r.read_checksum is not None
        assert np.isfinite(r.read_checksum)


def test_sdm_import_faster_than_original():
    """Figure 5's headline: parallel MPI-IO import beats rank-0+broadcast.

    Needs a problem big enough that data transfer dominates the fixed
    per-operation costs (at toy sizes open/view overheads make the two
    paths comparable — the full-scale split is the Figure 5 benchmark).
    """
    machine = origin2000()
    big = fun3d_like_problem(16)
    g = Graph.from_edges(big.mesh.n_nodes, big.mesh.edge1, big.mesh.edge2)
    big_part = multilevel_kway(g, NPROCS, seed=0)

    def sdm_prog(ctx):
        return run_fun3d_sdm(
            ctx, big, big_part,
            Fun3dRunConfig(register_history=False, timesteps=1),
        )

    def orig_prog(ctx):
        return run_fun3d_original(ctx, big, big_part, timesteps=1)

    sdm_job = mpirun(sdm_prog, NPROCS, machine=machine,
                     services=services_for(big))
    orig_job = mpirun(orig_prog, NPROCS, machine=machine,
                      services=services_for(big))
    assert sdm_job.phase_max("import") < orig_job.phase_max("import")
    # The index-distribution split (1-pass realloc + ring vs 2-pass over the
    # full list) only separates cleanly at full benchmark scale — Figure 5's
    # bench asserts it there.


def test_history_reuse_in_second_run(problem, part):
    def program(ctx):
        return run_fun3d_sdm(
            ctx, problem, part, Fun3dRunConfig(register_history=True, timesteps=1)
        )

    job1 = mpirun(program, NPROCS, machine=fast_test(),
                  services=services_for(problem))
    assert all(not r.used_history for r in job1.values)
    snap = snapshot_services(job1)
    job2 = mpirun(program, NPROCS, machine=fast_test(),
                  services=services_for(problem, seed_from=snap))
    assert all(r.used_history for r in job2.values)
    for a, b in zip(job1.values, job2.values):
        assert a.checksum == pytest.approx(b.checksum, rel=1e-12)
