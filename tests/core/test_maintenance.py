"""The maintenance service layer: background reorganization off the
critical path, chunked-file compaction over free extents, snapshot-
surviving work queues, and index-block cache maintenance."""

import json

import numpy as np
import pytest

from repro.apps.fun3d import Fun3dRunConfig, run_fun3d_sdm
from repro.config import fast_test, origin2000
from repro.core import (
    SDM,
    Organization,
    sdm_services,
    snapshot_services,
)
from repro.core.layout import CANONICAL, CHUNKED
from repro.dtypes import DOUBLE
from repro.errors import SDMStateError, SimProcessCrashed
from repro.mesh import box_tet_mesh, install_mesh_file, mesh_file_layout
from repro.metadb.schema import SDMTables
from repro.mpi import mpirun
from repro.partition import Graph, multilevel_kway
from repro.simt import FaultPlan

NPROCS = 4
GLOBAL = 32


def irregular_maps(nprocs=NPROCS, n=GLOBAL, seed=3):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), nprocs - 1, replace=False))
    return [p.astype(np.int64) for p in np.split(perm, cuts)]


def checkpoint_program(maps, n=GLOBAL, level=Organization.LEVEL_2,
                       timesteps=3, body=None):
    """Write ``timesteps`` chunked instances, run ``body(sdm, handle)``,
    read everything back."""

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=level, storage_order=CHUNKED,
                  reorganize_mode="background")
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(timesteps):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        extra = body(sdm, handle) if body is not None else None
        backs = []
        for t in range(timesteps):
            back = np.empty(len(mine))
            sdm.read(handle, "d", t, back)
            backs.append(back)
        sdm.finalize(handle)
        return mine, backs, extra

    return program


# ---------------------------------------------------------------------------
# Background reorganization
# ---------------------------------------------------------------------------


def test_background_reorganize_flips_metadata_and_preserves_reads():
    maps = irregular_maps()

    def body(sdm, handle):
        for t in range(2):
            sdm.reorganize(handle, "d", t)  # enqueued, constructor mode
        sdm.drain_maintenance()

    job = mpirun(checkpoint_program(maps, body=body), NPROCS,
                 machine=fast_test(), services=sdm_services())
    for mine, backs, _ in job.values:
        for t, back in enumerate(backs):
            np.testing.assert_allclose(back, mine * 1.0 + t)
    tables = SDMTables(job.services["db"])
    for t in range(2):
        assert tables.chunks_for(1, "d", t) == []
        fname, base, nbytes = tables.lookup_execution_version(1, "d", t)[:3]
        assert fname == "dp/d.dat"
        data = (
            job.services["fs"].lookup(fname).store
            .read(base, GLOBAL * 8).view(np.float64)
        )
        np.testing.assert_allclose(data, np.arange(GLOBAL) * 1.0 + t)
    # Timestep 2 was never enqueued: still chunked.
    assert tables.chunks_for(1, "d", 2) != []
    # The queue is drained: no pending rows survive.
    assert tables.pending_maintenance() == []


def test_background_enqueue_is_cheap_and_work_completes_after_ranks_exit():
    """The critical-path claim: enqueueing costs metadata only (a
    locate probe plus the queue row), independent of data size; the
    exchange itself runs on the workers, which the simulator still waits
    for after the application ranks finish — without any drain."""
    n = 64 * 1024  # large enough that the exchange dwarfs the metadata
    maps = irregular_maps(n=n, seed=5)

    def make_program(mode):
        def program(ctx):
            sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                      storage_order=CHUNKED)
            result = sdm.make_datalist(["d"])
            sdm.associate_attributes(result, data_type=DOUBLE,
                                     global_size=n)
            handle = sdm.set_attributes(result)
            mine = maps[ctx.rank]
            sdm.data_view(handle, "d", mine)
            sdm.write(handle, "d", 0, mine * 1.0)
            t0 = ctx.now
            sdm.reorganize(handle, "d", 0, mode=mode)
            cost = ctx.now - t0
            sdm.finalize(handle)
            return cost

        return program

    sync = mpirun(make_program("sync"), NPROCS, machine=origin2000(),
                  services=sdm_services())
    background = mpirun(make_program("background"), NPROCS,
                        machine=origin2000(), services=sdm_services())
    for bg_cost in background.values:
        assert bg_cost < min(sync.values) * 0.2
    # The flip still happened — after the ranks exited.
    tables = SDMTables(background.services["db"])
    assert tables.chunks_for(1, "d", 0) == []
    assert tables.lookup_execution_version(1, "d", 0)[0] == "dp/d.dat"
    assert tables.pending_maintenance() == []


def test_unknown_reorganize_mode_rejected():
    def program(ctx):
        SDM(ctx, "dp", reorganize_mode="later")

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, SDMStateError)


# ---------------------------------------------------------------------------
# Free extents and compaction
# ---------------------------------------------------------------------------


def test_reorganize_records_interior_extent_and_reclaims_topmost():
    """An interior freed region becomes an extent_table row; freeing the
    topmost region retreats the cursor and strands no extents."""
    maps = irregular_maps()

    def body(sdm, handle):
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        # t0 is interior (t1, t2 live above): extent recorded.
        sdm.reorganize(handle, "d", 0, mode="sync")
        free_mid = None
        if sdm.ctx.rank == 0:
            free_mid = sdm.tables.free_bytes_in(fname, proc=sdm.ctx.proc)
        free_mid = sdm.comm.bcast(free_mid, root=0)
        # t2 is topmost: the cursor retreats instead.
        sdm.reorganize(handle, "d", 2, mode="sync")
        free_after = None
        cursor = None
        if sdm.ctx.rank == 0:
            free_after = sdm.tables.free_bytes_in(fname, proc=sdm.ctx.proc)
            cursor = sdm.tables.max_offset_in_file(fname, proc=sdm.ctx.proc)
        return sdm.comm.bcast((free_mid, free_after, cursor), root=0)

    job = mpirun(checkpoint_program(maps, body=body), NPROCS,
                 machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    for mine, backs, (free_mid, free_after, cursor) in job.values:
        # t0's region held index blocks + data.
        assert free_mid > GLOBAL * 8
        assert free_after == free_mid  # t2's region retreated, not recorded
        for t, back in enumerate(backs):
            np.testing.assert_allclose(back, mine * 1.0 + t)
    # Only t1 lives in the chunked file now; the cursor sits at its end.
    where = tables.lookup_execution_version(1, "d", 1)[:3]
    assert where[0] == "dp/d.chunked.dat"
    assert cursor == where[1] + where[2]


def test_compaction_packs_live_bytes_and_zeroes_extents():
    """Reorganize interior instances, compact, and the file shrinks to
    exactly its live bytes with every read still byte-identical —
    including chunks whose shared index blocks sat in the dead region."""
    maps = irregular_maps()

    def body(sdm, handle):
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        # t0 wrote the shared index blocks; freeing it strands t1/t2's
        # shared references in a dead region — the hard compaction case.
        sdm.reorganize(handle, "d", 0)
        sdm.compact(fname)  # queued behind the reorganize
        sdm.drain_maintenance()
        return fname

    job = mpirun(checkpoint_program(maps, body=body), NPROCS,
                 machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    fs = job.services["fs"]
    for mine, backs, fname in job.values:
        for t, back in enumerate(backs):
            np.testing.assert_allclose(back, mine * 1.0 + t)
    fname = job.values[0][2]
    assert tables.free_bytes_in(fname) == 0
    # Live bytes = the two surviving instances, back to back from 0.
    rows = tables.executions_in_file(fname)
    assert [r[2] for r in rows] == [1, 2]  # timesteps, ascending base
    assert rows[0][3] == 0
    live = sum(r[4] for r in rows)
    assert fs.lookup(fname).size == live
    # Chunk maps point inside the packed file.
    for row in rows:
        for ch in tables.chunks_for(1, "d", row[2]):
            assert 0 <= ch.index_offset <= ch.data_offset < live


def test_compaction_preserves_index_block_sharing():
    """Two live instances sharing one index block keep sharing it after
    the slide — the packed file stores each map once."""
    maps = irregular_maps()

    def body(sdm, handle):
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        sdm.reorganize(handle, "d", 0)
        sdm.compact(fname)
        sdm.drain_maintenance()
        return fname

    job = mpirun(checkpoint_program(maps, body=body), NPROCS,
                 machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    fname = job.values[0][2]
    c1 = {c.rank: c for c in tables.chunks_for(1, "d", 1)}
    c2 = {c.rank: c for c in tables.chunks_for(1, "d", 2)}
    shared = [
        r for r in c1
        if c1[r].index_offset != c1[r].data_offset
        and c2[r].index_offset == c1[r].index_offset
    ]
    assert shared  # irregular maps: at least one non-dense shared block


def test_compacting_fully_dead_file_truncates_to_zero():
    maps = irregular_maps()

    def body(sdm, handle):
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        for t in range(3):
            sdm.reorganize(handle, "d", t)
        sdm.compact(fname)
        sdm.drain_maintenance()
        return fname

    job = mpirun(checkpoint_program(maps, body=body), NPROCS,
                 machine=fast_test(), services=sdm_services())
    fname = job.values[0][2]
    assert job.services["fs"].lookup(fname).size == 0
    tables = SDMTables(job.services["db"])
    assert tables.free_bytes_in(fname) == 0
    for mine, backs, _ in job.values:
        for t, back in enumerate(backs):
            np.testing.assert_allclose(back, mine * 1.0 + t)


def test_compacting_unknown_file_is_noop():
    def program(ctx):
        sdm = SDM(ctx, "dp", storage_order=CHUNKED)
        sdm.compact("dp/never-written.chunked.dat", mode="sync")
        sdm.finalize()
        return True

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert all(job.values)


def test_chunked_writes_after_compaction_roundtrip():
    """The append cursor lands at the packed end; post-compaction writes
    and reads (write-side reference cache included) stay correct."""
    maps = irregular_maps()

    def body(sdm, handle):
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        sdm.reorganize(handle, "d", 0)
        sdm.compact(fname)
        sdm.drain_maintenance()
        mine = maps[sdm.ctx.rank]
        sdm.write(handle, "d", 3, mine * 1.0 + 3)
        back = np.empty(len(mine))
        sdm.read(handle, "d", 3, back)
        return back

    job = mpirun(checkpoint_program(maps, body=body), NPROCS,
                 machine=fast_test(), services=sdm_services())
    for mine, backs, back3 in job.values:
        for t, back in enumerate(backs):
            np.testing.assert_allclose(back, mine * 1.0 + t)
        np.testing.assert_allclose(back3, mine * 1.0 + 3)


# ---------------------------------------------------------------------------
# Snapshot-surviving queues
# ---------------------------------------------------------------------------


def test_unrun_backlog_survives_snapshot_and_next_job_adopts_it():
    maps = irregular_maps()

    def body(sdm, handle):
        sdm.reorganize(handle, "d", 0)  # recorded, never run: see below

    # Rank 0 dies between inserting the queue row and spawning a worker
    # for it, so the job ends with the reorganize recorded but not run.
    producer = mpirun(
        checkpoint_program(maps, body=body), NPROCS, machine=fast_test(),
        services=sdm_services(),
        fault_plan=FaultPlan("maint:enqueued", victim="rank0"),
    )
    assert "rank0" in producer.crashed
    t1 = SDMTables(producer.services["db"])
    pending = t1.pending_maintenance()
    assert [j.kind for j in pending] == ["reorganize"]
    assert t1.chunks_for(1, "d", 0) != []

    snap = snapshot_services(producer)
    assert "maintenance_table" in json.loads(snap.db_dump)["tables"]

    def later(ctx):
        sdm = SDM(ctx, "other-app")  # a different application entirely
        sdm.drain_maintenance()
        sdm.finalize()

    consumer = mpirun(later, NPROCS, machine=fast_test(),
                      services=sdm_services(seed_from=snap))
    t2 = SDMTables(consumer.services["db"])
    assert t2.pending_maintenance() == []
    assert t2.chunks_for(1, "d", 0) == []
    fname, base, nbytes = t2.lookup_execution_version(1, "d", 0)[:3]
    assert fname == "dp/d.dat"
    data = (
        consumer.services["fs"].lookup(fname).store
        .read(base, GLOBAL * 8).view(np.float64)
    )
    np.testing.assert_allclose(data, np.arange(GLOBAL) * 1.0)
    assert consumer.services["maint"].n_adopted == 1


# ---------------------------------------------------------------------------
# Index-block cache maintenance
# ---------------------------------------------------------------------------


def test_index_cache_serves_warm_reads_without_file_traffic():
    n = 32
    # Genuinely irregular maps: constant-stride maps are arithmetic chunks
    # now and store no index block at all, leaving nothing to cache.
    maps = irregular_maps(n=n, seed=11)

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(2):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        fs = ctx.service("fs")
        back = np.empty(len(mine))
        before = fs.bytes_read
        sdm.read(handle, "d", 0, back)  # cold: fetches the index blocks
        cold_bytes = fs.bytes_read - before
        before = fs.bytes_read
        sdm.read(handle, "d", 1, back)  # warm: t1 shares t0's blocks
        warm_bytes = fs.bytes_read - before
        sdm.finalize(handle)
        return cold_bytes, warm_bytes, sdm.index_cache.hits, back

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=sdm_services())
    for cold, warm, hits, back in job.values:
        assert hits > 0
        assert warm < cold  # index-block fetches gone: data bytes only


def test_index_cache_dropped_when_cursor_retreats_over_blocks():
    """Reorganize reclaims the file, a dense write overwrites the cached
    blocks' bytes, and a re-view read must re-fetch, not serve stale
    gids."""
    n = 64
    maps = irregular_maps(n=n, seed=13)  # irregular: index blocks exist

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        irregular = maps[ctx.rank]
        sdm.data_view(handle, "d", irregular)
        sdm.write(handle, "d", 0, irregular * 1.0)
        back = np.empty(len(irregular))
        sdm.read(handle, "d", 0, back)  # caches t0's index blocks
        sdm.reorganize(handle, "d", 0, mode="sync")  # cursor retreats to 0
        block = n // ctx.size
        dense = np.arange(ctx.rank * block, (ctx.rank + 1) * block,
                          dtype=np.int64)
        sdm.data_view(handle, "d", dense)
        sdm.write(handle, "d", 1, dense * 2.0)
        sdm.data_view(handle, "d", irregular)
        sdm.write(handle, "d", 2, irregular * 3.0)
        back2 = np.empty(len(irregular))
        sdm.read(handle, "d", 2, back2)
        sdm.finalize(handle)
        return irregular, back2

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=sdm_services())
    for irregular, back2 in job.values:
        np.testing.assert_allclose(back2, irregular * 3.0)


def test_cache_registry_forgets_finalized_clients():
    """The registry lives on the job's maintenance service, which
    outlives every client: a finalized SDM, a released catalog and a
    finished worker job must take their caches out of it, or a job
    opening clients in sequence keeps every one's blocks alive and walks
    them on every flip."""
    from repro.core.catalog import SDMCatalog

    def reachable(registry):
        return len(registry._caches)

    def program(ctx):
        registry = ctx.service("maint").caches
        seen = []
        for app in ("first", "second"):
            sdm = SDM(ctx, app, storage_order=CHUNKED)
            catalog = SDMCatalog.attach(ctx)
            ctx.comm.barrier()  # every rank's clients are registered
            seen.append(reachable(registry))
            ctx.comm.barrier()
            result = sdm.make_datalist(["d"])
            sdm.associate_attributes(result, data_type=DOUBLE, global_size=8)
            handle = sdm.set_attributes(result)
            mine = np.arange(4, dtype=np.int64) + 4 * ctx.rank
            sdm.data_view(handle, "d", mine)
            sdm.write(handle, "d", 0, mine * 1.0)
            # The worker's per-job host registers a block cache of its own.
            sdm.reorganize(handle, "d", 0, mode="background")
            sdm.drain_maintenance()
            catalog.release()
            sdm.finalize(handle)
            seen.append(reachable(registry))
        return seen

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    # One registry serves both ranks: one cache per SDM and per catalog
    # on each rank while a round's clients are live, none once they are
    # gone.
    assert reachable(job.services["maint"].caches) == 0
    assert job.values[0][1::2] == [0, 0]
    assert job.values[0][0] == 4
    # two reorganize jobs, each executed by both ranks' workers
    assert job.services["maint"].stats()["executed"] == 2 * 2


# ---------------------------------------------------------------------------
# History writes as maintenance clients
# ---------------------------------------------------------------------------


def _history_setup(cells=3):
    mesh = box_tet_mesh(cells, cells, cells)
    g = Graph.from_edges(mesh.n_nodes, mesh.edge1, mesh.edge2)
    part = multilevel_kway(g, NPROCS, seed=0)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(mesh.n_edges), rng.standard_normal(mesh.n_nodes)

    def services():
        base = sdm_services()

        def factory(sim, machine):
            services = base(sim, machine)
            install_mesh_file(services["fs"], "uns3d.msh", mesh.edge1,
                              mesh.edge2, {"x": x}, {"y": y})
            return services

        return factory

    return mesh, part, services


def test_history_wait_blocks_until_slice_is_on_disk():
    mesh, part, services = _history_setup()
    layout = mesh_file_layout(mesh.n_edges, mesh.n_nodes, ["x"], ["y"])

    def program(ctx):
        sdm = SDM(ctx, "fun3d")
        sdm.make_importlist(["edge1", "edge2", "x", "y"],
                            file_name="uns3d.msh",
                            index_names=["edge1", "edge2"])
        chunk = sdm.import_index("edge1", "edge2", layout.offset("edge1"),
                                 layout.offset("edge2"), mesh.n_edges)
        local = sdm.partition_index(part, chunk)
        reg = sdm.index_registry(local)
        was_done = reg.done
        reg.wait(ctx.proc)  # blocks in virtual time on the worker
        now_done = reg.done
        # Read-your-writes: this rank's slice is on disk after wait().
        fs = ctx.service("fs")
        size_after_wait = fs.lookup(reg.file_name).size
        reg.wait(ctx.proc)  # second wait returns immediately
        sdm.finalize()
        return was_done, now_done, size_after_wait

    job = mpirun(program, NPROCS, machine=origin2000(), services=services())
    assert any(not was for was, _, _ in job.values)  # genuinely async
    for _, now_done, size in job.values:
        assert now_done
        assert size > 0


def test_fun3d_driver_background_maintenance_roundtrip():
    """The driver knobs compose: chunked writes, background reorganize,
    compaction, and read-back in one run."""
    mesh, part, services = _history_setup()
    problem = None
    from repro.mesh import fun3d_like_problem

    problem = fun3d_like_problem(3)
    g = Graph.from_edges(problem.mesh.n_nodes, problem.mesh.edge1,
                         problem.mesh.edge2)
    part = multilevel_kway(g, NPROCS, seed=1)
    base = sdm_services()

    def factory(sim, machine):
        built = base(sim, machine)
        install_mesh_file(built["fs"], "uns3d.msh", problem.mesh.edge1,
                          problem.mesh.edge2, problem.edge_arrays,
                          problem.node_arrays)
        return built

    cfg_sync = Fun3dRunConfig(timesteps=2, storage_order="chunked",
                              reorganize_after=True, read_back=True,
                              register_history=False)
    cfg_bg = Fun3dRunConfig(timesteps=2, storage_order="chunked",
                            reorganize_after=True, reorganize_mode="background",
                            compact_after=True, read_back=True,
                            register_history=False)
    sync = mpirun(lambda ctx: run_fun3d_sdm(ctx, problem, part, cfg_sync),
                  NPROCS, machine=fast_test(), services=lambda s, m: factory(s, m))
    bg = mpirun(lambda ctx: run_fun3d_sdm(ctx, problem, part, cfg_bg),
                NPROCS, machine=fast_test(), services=lambda s, m: factory(s, m))
    for r_sync, r_bg in zip(sync.values, bg.values):
        assert r_bg.read_checksum == pytest.approx(r_sync.read_checksum)
    # Background run compacted its chunked files down to live bytes.
    tables = SDMTables(bg.services["db"])
    fs = bg.services["fs"]
    for fname in fs.list_files():
        if ".chunked" in fname:
            assert fs.lookup(fname).size == tables.free_bytes_in(fname) == 0


def test_catalog_cache_invalidated_by_compaction():
    """A catalog viewer's index-block cache must not survive a compaction
    that moves blocks under it (regression: the catalog cache is
    registered with the maintenance service like SDM's)."""
    from repro.core.catalog import SDMCatalog

    maps = irregular_maps()

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(3):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        catalog = SDMCatalog.attach(ctx)
        first = catalog.read_slice(1, "d", 1, mine)  # caches t0's blocks
        # Reorganize t0 (the block writer) and compact: blocks move.
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        sdm.reorganize(handle, "d", 0, mode="sync")
        sdm.compact(fname, mode="sync")
        second = catalog.read_slice(1, "d", 1, mine)
        sdm.finalize(handle)
        return mine, first, second

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=sdm_services())
    for mine, first, second in job.values:
        np.testing.assert_allclose(first, mine * 1.0 + 1)
        np.testing.assert_allclose(second, mine * 1.0 + 1)


def test_background_reorganize_of_canonical_instance_is_local_noop():
    """Already-canonical instances never reach the worker queue; the call
    returns the canonical file like the sync fast path."""
    maps = irregular_maps()

    def body(sdm, handle):
        sdm.reorganize(handle, "d", 0, mode="sync")
        n_before = sdm.maintenance.n_enqueued
        fname = sdm.reorganize(handle, "d", 0, mode="background")
        return fname, sdm.maintenance.n_enqueued - n_before

    job = mpirun(checkpoint_program(maps, body=body), NPROCS,
                 machine=fast_test(), services=sdm_services())
    for mine, backs, (fname, enqueued) in job.values:
        assert fname == "dp/d.dat"
        assert enqueued == 0
        for t, back in enumerate(backs):
            np.testing.assert_allclose(back, mine * 1.0 + t)


def test_divergent_enqueue_parameters_rejected():
    """Ranks enqueueing the same kind with different parameters at the
    same queue position is a program-order error, not a silent collapse
    onto the first enqueuer's job."""

    def program(ctx):
        sdm = SDM(ctx, "dp", storage_order=CHUNKED)
        sdm.compact(f"dp/rank{ctx.rank}.chunked.dat", mode="background")

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, SDMStateError)


def test_sync_compaction_drains_readers_on_another_communicator():
    """A synchronous in-place compaction drains the job's in-flight reads
    too: its caller is not mid-read, but a catalog on the other half of
    a ``comm.split`` may be (regression: the sync path skipped the read
    gate, and the readers got slid bytes)."""
    from repro.core.catalog import SDMCatalog

    nprocs, n = 8, 4096
    maps = irregular_maps(nprocs, n, seed=11)

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(3):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        sdm.reorganize(handle, "d", 0, mode="sync")  # frees t0's region
        sdm.finalize(handle)
        compactor = ctx.rank < nprocs // 2
        ctx.comm = ctx.comm.split(color=int(compactor), key=ctx.rank)
        if compactor:
            SDM(ctx, "dp", organization=Organization.LEVEL_2,
                storage_order=CHUNKED).compact(fname, mode="sync")
            return None
        catalog = SDMCatalog.attach(ctx, snapshot=False)
        gids = np.arange(n, dtype=np.int64)
        wrong = []
        for i in range(40):
            for t in (1, 2):
                back = catalog.read_slice(1, "d", t, gids)
                if not np.array_equal(back, gids + float(t)):
                    wrong.append((i, t))
        catalog.release()
        return wrong

    job = mpirun(program, nprocs, machine=fast_test(),
                 services=sdm_services())
    assert job.values[nprocs // 2:] == [[]] * (nprocs // 2)
    tables = SDMTables(job.services["db"])
    fname = "dp/d.chunked.dat"
    assert tables.free_bytes_in(fname) == 0  # the slide did happen
    live = sum(r[4] for r in tables.executions_in_file(fname))
    assert job.services["fs"].lookup(fname).size == live
