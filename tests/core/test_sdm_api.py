"""End-to-end SDM API tests: the full Figure 2 + Figure 3 flow."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services, snapshot_services
from repro.core.layout import checkpoint_file_name
from repro.dtypes import DOUBLE
from repro.errors import SDMStateError, SDMUnknownDataset, SimProcessCrashed
from repro.mesh import box_tet_mesh, install_mesh_file, mesh_file_layout
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway

NPROCS = 4


def make_problem(cells=3, k=NPROCS, seed=0):
    mesh = box_tet_mesh(cells, cells, cells)
    g = Graph.from_edges(mesh.n_nodes, mesh.edge1, mesh.edge2)
    part = multilevel_kway(g, k, seed=seed)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(mesh.n_edges)   # edge data
    y = rng.standard_normal(mesh.n_nodes)   # node data
    return mesh, part, x, y


def seeded_services(mesh, x, y):
    """Services factory that pre-installs the mesh input file."""
    base = sdm_services()

    def factory(sim, machine):
        services = base(sim, machine)
        install_mesh_file(
            services["fs"], "uns3d.msh", mesh.edge1, mesh.edge2,
            {"x": x}, {"y": y},
        )
        return services

    return factory


def figure3_flow(ctx, mesh, part, organization=Organization.LEVEL_2,
                 register_history=True):
    """The paper's Figure 3: import, partition, distribute data."""
    layout = mesh_file_layout(mesh.n_edges, mesh.n_nodes, ["x"], ["y"])
    sdm = SDM(ctx, "fun3d", organization=organization)
    sdm.make_importlist(
        ["edge1", "edge2", "x", "y"], file_name="uns3d.msh",
        index_names=["edge1", "edge2"],
    )
    chunk = sdm.import_index(
        "edge1", "edge2", layout.offset("edge1"), layout.offset("edge2"),
        mesh.n_edges,
    )
    vector = sdm.partition_table(part)
    local = sdm.partition_index(part, chunk)
    if register_history and chunk is not None:
        sdm.index_registry(local)
    x_local = sdm.import_irregular(
        "x", layout.offset("x"), mesh.n_edges, local.edge_map
    )
    y_local = sdm.import_irregular(
        "y", layout.offset("y"), mesh.n_nodes, local.node_map
    )
    sdm.release_importlist()
    return sdm, local, vector, x_local, y_local


def test_full_import_partition_distribute_flow():
    mesh, part, x, y = make_problem()

    def program(ctx):
        sdm, local, vector, x_local, y_local = figure3_flow(ctx, mesh, part)
        sdm.finalize()
        return local, x_local, y_local

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=seeded_services(mesh, x, y))
    for rank, (local, x_local, y_local) in enumerate(job.values):
        np.testing.assert_allclose(x_local, x[local.edge_map])
        np.testing.assert_allclose(y_local, y[local.node_map])
        assert local.n_local_edges == len(local.edge_map)


def test_write_read_roundtrip_all_levels():
    mesh, part, x, y = make_problem()

    def make_program(level):
        def program(ctx):
            sdm, local, vector, _, _ = figure3_flow(
                ctx, mesh, part, organization=level, register_history=False
            )
            result = sdm.make_datalist(["p", "q"])
            sdm.associate_attributes(
                result, data_type=DOUBLE, global_size=mesh.n_nodes
            )
            handle = sdm.set_attributes(result)
            # Write owned nodes only (values complete after exchange).
            owned = local.owned_nodes
            sdm.data_view(handle, "p", owned)
            sdm.data_view(handle, "q", owned)
            for t in range(2):
                sdm.write(handle, "p", t, owned * 1.0 + t)
                sdm.write(handle, "q", t, owned * 2.0 + t)
            # Read back timestep 1.
            p_back = np.empty(len(owned))
            q_back = np.empty(len(owned))
            sdm.read(handle, "p", 1, p_back)
            sdm.read(handle, "q", 1, q_back)
            sdm.finalize(handle)
            return owned, p_back, q_back
        return program

    for level in Organization:
        job = mpirun(make_program(level), NPROCS, machine=fast_test(),
                     services=seeded_services(mesh, x, y))
        for owned, p_back, q_back in job.values:
            np.testing.assert_allclose(p_back, owned * 1.0 + 1)
            np.testing.assert_allclose(q_back, owned * 2.0 + 1)


def test_file_count_per_organization_level():
    """Paper: 2 steps x {p, q} -> L1: 4 files, L2: 2, L3: 1."""
    mesh, part, x, y = make_problem()

    def make_program(level):
        def program(ctx):
            sdm, local, _, _, _ = figure3_flow(
                ctx, mesh, part, organization=level, register_history=False
            )
            result = sdm.make_datalist(["p", "q"])
            sdm.associate_attributes(result, data_type=DOUBLE,
                                     global_size=mesh.n_nodes)
            handle = sdm.set_attributes(result)
            sdm.data_view(handle, "p", local.owned_nodes)
            sdm.data_view(handle, "q", local.owned_nodes)
            for t in range(2):
                sdm.write(handle, "p", t, local.owned_nodes * 1.0)
                sdm.write(handle, "q", t, local.owned_nodes * 1.0)
            sdm.finalize(handle)
            return None
        return program

    expected = {Organization.LEVEL_1: 4, Organization.LEVEL_2: 2,
                Organization.LEVEL_3: 1}
    for level, n_files in expected.items():
        job = mpirun(make_program(level), NPROCS, machine=fast_test(),
                     services=seeded_services(mesh, x, y))
        fs = job.services["fs"]
        ckpt_files = [f for f in fs.list_files() if f != "uns3d.msh"]
        assert len(ckpt_files) == n_files, (level, ckpt_files)


def test_level23_offsets_recorded_in_execution_table():
    mesh, part, x, y = make_problem()

    def program(ctx):
        sdm, local, _, _, _ = figure3_flow(
            ctx, mesh, part, organization=Organization.LEVEL_3,
            register_history=False,
        )
        result = sdm.make_datalist(["p", "q"])
        sdm.associate_attributes(result, data_type=DOUBLE,
                                 global_size=mesh.n_nodes)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "p", local.owned_nodes)
        sdm.data_view(handle, "q", local.owned_nodes)
        for t in range(2):
            sdm.write(handle, "p", t, local.owned_nodes * 1.0)
            sdm.write(handle, "q", t, local.owned_nodes * 1.0)
        sdm.finalize(handle)
        return sdm.runid

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=seeded_services(mesh, x, y))
    from repro.metadb.schema import SDMTables

    tables = SDMTables(job.services["db"])
    runid = job.values[0]
    nbytes = mesh.n_nodes * 8
    # Four instances packed back to back in one group file.
    offsets = [
        tables.lookup_execution_version(runid, ds, t)[1]
        for t in range(2) for ds in ("p", "q")
    ]
    assert offsets == [0, nbytes, 2 * nbytes, 3 * nbytes]


def test_global_file_contents_ordered_by_node_number():
    """Paper: results written 'in the order of global node numbers'."""
    mesh, part, x, y = make_problem()

    def program(ctx):
        sdm, local, _, _, _ = figure3_flow(
            ctx, mesh, part, organization=Organization.LEVEL_1,
            register_history=False,
        )
        result = sdm.make_datalist(["p"])
        sdm.associate_attributes(result, data_type=DOUBLE,
                                 global_size=mesh.n_nodes)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "p", local.owned_nodes)
        sdm.write(handle, "p", 0, local.owned_nodes * 10.0)
        sdm.finalize(handle)
        return None

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=seeded_services(mesh, x, y))
    fs = job.services["fs"]
    fname = checkpoint_file_name("fun3d", 1, "p", 0, Organization.LEVEL_1)
    data = fs.lookup(fname).store.read(0, mesh.n_nodes * 8).view(np.float64)
    np.testing.assert_allclose(data, np.arange(mesh.n_nodes) * 10.0)


def test_unsorted_map_array_permutation_roundtrip():
    """User map arrays need not be sorted; SDM permutes internally."""
    mesh, part, x, y = make_problem()

    def program(ctx):
        sdm = SDM(ctx, "perm", organization=Organization.LEVEL_1)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=16)
        handle = sdm.set_attributes(result)
        # Deliberately unsorted, rank-disjoint map.
        mine = np.array([3, 0, 2, 1], dtype=np.int64) + 4 * ctx.rank
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0 + 0.5)
        back = np.empty(4)
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return mine, back

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=seeded_services(mesh, x, y))
    for mine, back in job.values:
        np.testing.assert_allclose(back, mine * 1.0 + 0.5)


def test_write_without_view_rejected():
    def program(ctx):
        sdm = SDM(ctx, "bad")
        result = sdm.make_datalist(["p"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=10)
        handle = sdm.set_attributes(result)
        sdm.write(handle, "p", 0, np.zeros(1))

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, SDMStateError)


@pytest.mark.parametrize("order", ["canonical", "chunked"])
def test_read_rejects_buffer_of_wrong_length(order):
    """Regression: a read into a buffer longer than the view used to
    broadcast the view's one element over the whole buffer.  It must be
    refused before any collective, exactly as ``write`` refuses it."""

    def program(ctx):
        sdm = SDM(ctx, "bad", storage_order=order)
        result = sdm.make_datalist(["p"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=2)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "p", np.array([ctx.rank], dtype=np.int64))
        sdm.write(handle, "p", 0, np.array([10.0]))
        sdm.read(handle, "p", 0, np.empty(5))

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, SDMStateError)
    assert str(ei.value.__cause__) == (
        "buffer for 'p' has 5 elements, view expects 1"
    )


def test_write_unknown_dataset_rejected():
    def program(ctx):
        sdm = SDM(ctx, "bad")
        result = sdm.make_datalist(["p"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=10)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "nope", np.arange(2))

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, SDMUnknownDataset)


def test_set_attributes_requires_global_size():
    def program(ctx):
        sdm = SDM(ctx, "bad")
        result = sdm.make_datalist(["p"])
        sdm.set_attributes(result)  # no global_size set

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, SDMStateError)


def test_runids_increment_across_runs_sharing_a_database():
    mesh, part, x, y = make_problem()

    def program(ctx):
        sdm = SDM(ctx, "app")
        return sdm.runid

    job1 = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    snap = snapshot_services(job1)
    job2 = mpirun(program, 2, machine=fast_test(),
                  services=sdm_services(seed_from=snap))
    assert job1.values == [1, 1]
    assert job2.values == [2, 2]
