"""RT template: model determinism, SDM vs original, file contents."""

import numpy as np
import pytest

from repro.apps.rt import RTRunConfig, run_rt_original, run_rt_sdm
from repro.apps.rt.model import (
    ATWOOD, GRAVITY, WAVENUMBERS, amplitudes_at, evolve_interface,
    mode_patterns, triangle_field_from_nodes,
)
from repro.config import fast_test, origin2000
from repro.core import Organization, sdm_services
from repro.core.layout import checkpoint_file_name
from repro.mesh import rt_like_problem
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway

NPROCS = 4


@pytest.fixture(scope="module")
def problem():
    return rt_like_problem(4)


@pytest.fixture(scope="module")
def part(problem):
    g = Graph.from_edges(
        problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2
    )
    return multilevel_kway(g, NPROCS, seed=0)


def test_interface_amplitudes_grow_in_time(problem):
    coords = problem.mesh.coords
    a1 = np.abs(evolve_interface(coords, 0.1)).max()
    a2 = np.abs(evolve_interface(coords, 0.5)).max()
    assert a2 > a1


def reference_amplitudes(coords, time):
    """The per-step evaluation the kept mode patterns replaced: every
    mode's ``sin x cos`` recomputed at each call."""
    total = np.zeros(len(coords))
    for kx, ky in WAVENUMBERS:
        growth = np.sqrt(ATWOOD * GRAVITY * np.hypot(kx, ky))
        total += 1e-3 * np.exp(growth * time) * (
            np.sin(kx * coords[:, 0]) * np.cos(ky * coords[:, 1]))
    return total


def test_patterns_built_once_give_the_per_step_values_bit_for_bit():
    # rt_lifecycle's mesh (16 cells, 4 913 nodes) and its ten steps.
    coords = rt_like_problem(16).mesh.coords
    patterns = mode_patterns(coords)
    dt = RTRunConfig().dt
    for t in range(10):
        time = (t + 1) * dt
        expect = reference_amplitudes(coords, time).tobytes()
        assert amplitudes_at(patterns, time).tobytes() == expect
        assert evolve_interface(coords, time).tobytes() == expect


def test_triangle_field_is_vertex_mean():
    nodes = np.array([1.0, 2.0, 3.0, 4.0])
    tris = np.array([[0, 1, 2], [1, 2, 3]])
    np.testing.assert_allclose(
        triangle_field_from_nodes(nodes, tris), [2.0, 3.0]
    )


def test_sdm_rt_writes_correct_global_files(problem, part):
    """node_data lands in global node order; triangle_data contiguously."""
    mesh = problem.mesh

    def program(ctx):
        return run_rt_sdm(
            ctx, problem, part,
            RTRunConfig(organization=Organization.LEVEL_1, timesteps=2),
        )

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=sdm_services())
    fs = job.services["fs"]
    t = 1
    amplitudes = evolve_interface(mesh.coords, (t + 1) * 0.1)
    fname = checkpoint_file_name("rt", 1, "node_data", t, Organization.LEVEL_1)
    node_file = fs.lookup(fname).store.read(0, mesh.n_nodes * 8).view(np.float64)
    np.testing.assert_allclose(node_file, amplitudes, atol=1e-12)
    fname = checkpoint_file_name("rt", 1, "triangle_data", t, Organization.LEVEL_1)
    tri_file = fs.lookup(fname).store.read(
        0, problem.n_triangles * 8
    ).view(np.float64)
    expect = triangle_field_from_nodes(amplitudes, problem.triangle_nodes)
    np.testing.assert_allclose(tri_file, expect, atol=1e-12)


def test_rt_original_and_sdm_checksums_agree(problem, part):
    def sdm_prog(ctx):
        return run_rt_sdm(ctx, problem, part, RTRunConfig(timesteps=3))

    def orig_prog(ctx):
        return run_rt_original(ctx, problem, part, RTRunConfig(timesteps=3))

    sdm_job = mpirun(sdm_prog, NPROCS, machine=fast_test(), services=sdm_services())
    orig_job = mpirun(orig_prog, NPROCS, machine=fast_test(), services=sdm_services())
    for s, o in zip(sdm_job.values, orig_job.values):
        assert s.checksum == pytest.approx(o.checksum, rel=1e-12)
        assert s.bytes_written == o.bytes_written


def test_rt_chunked_storage_order_checksums_agree(problem, part):
    """The RT driver's storage_order knob: triangle_data's contiguous
    blocks become dense (index-free) chunks, node_data irregular ones;
    checksums match the canonical run exactly."""

    def make_prog(order):
        def program(ctx):
            return run_rt_sdm(
                ctx, problem, part,
                RTRunConfig(timesteps=3, storage_order=order),
            )
        return program

    canonical = mpirun(make_prog("canonical"), NPROCS, machine=fast_test(),
                       services=sdm_services())
    chunked = mpirun(make_prog("chunked"), NPROCS, machine=fast_test(),
                     services=sdm_services())
    for c, k in zip(canonical.values, chunked.values):
        assert k.checksum == pytest.approx(c.checksum, rel=1e-12)
        assert k.bytes_written == c.bytes_written
    from repro.metadb.schema import SDMTables

    tables = SDMTables(chunked.services["db"])
    tri_chunks = tables.chunks_for(1, "triangle_data", 0)
    assert tri_chunks and all(
        c.index_offset == c.data_offset for c in tri_chunks
    )  # contiguous blocks: dense chunks, no index bytes


def test_sdm_write_bandwidth_beats_original():
    """Figure 7's headline: collective writes >> sequential writes.

    Uses 8 ranks and a moderate mesh so data transfer (not per-statement
    metadata costs) decides; the full-scale factor is the Figure 7 bench.
    """
    machine = origin2000()
    big = rt_like_problem(12)
    g = Graph.from_edges(big.mesh.n_nodes, big.mesh.edge1, big.mesh.edge2)
    big_part = multilevel_kway(g, 8, seed=0)

    def sdm_prog(ctx):
        return run_rt_sdm(ctx, big, big_part, RTRunConfig(timesteps=2))

    def orig_prog(ctx):
        return run_rt_original(ctx, big, big_part, RTRunConfig(timesteps=2))

    sdm_job = mpirun(sdm_prog, 8, machine=machine, services=sdm_services())
    orig_job = mpirun(orig_prog, 8, machine=machine, services=sdm_services())
    assert sdm_job.phase_max("write") < 0.7 * orig_job.phase_max("write")


def test_rt_level1_vs_level23_file_counts(problem, part):
    for level, expected in ((Organization.LEVEL_1, 4), (Organization.LEVEL_2, 2)):
        def program(ctx, level=level):
            return run_rt_sdm(
                ctx, problem, part, RTRunConfig(organization=level, timesteps=2)
            )

        job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
        files = job.services["fs"].list_files()
        assert len(files) == expected, (level, files)
