"""Crash recovery across jobs: orphaned queue rows, interrupted flips,
leaked leases and pins, and the shutdown leak audit.

The pattern throughout: job 1 runs under a :class:`FaultPlan` that kills
one process at a registered fault point, its services are snapshotted
exactly as the history-file experiments carry state between runs, and
job 2 starts from the snapshot — recovery happens at the maintenance
service's attach (stale boot generations) and is observable through
``stats()`` counters and byte-identical reads."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services, snapshot_services
from repro.core.catalog import SDMCatalog
from repro.core.layout import CHUNKED
from repro.dtypes import DOUBLE
from repro.metadb.schema import SDMTables
from repro.mpi import mpirun
from repro.simt import FaultPlan

NPROCS = 4
GLOBAL = 32


def irregular_maps(nprocs=NPROCS, n=GLOBAL, seed=3):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), nprocs - 1, replace=False))
    return [p.astype(np.int64) for p in np.split(perm, cuts)]


def producer_program(maps, n=GLOBAL, timesteps=2):
    """Chunked writes, then a background reorganize of timestep 0."""

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED, reorganize_mode="background",
                  snapshot=True)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(timesteps):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        sdm.reorganize(handle, "d", 0)
        back = np.empty(len(mine))
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return mine, back

    return program


def consumer_program(ctx):
    """A later job: attach, let adoption/recovery run, drain, leave."""
    sdm = SDM(ctx, "other-app")
    sdm.drain_maintenance()
    sdm.finalize()
    return sdm.stats()


def reorganized_data(job):
    tables = SDMTables(job.services["db"])
    fname, base, _nbytes = tables.lookup_execution_version(1, "d", 0)[:3]
    assert fname == "dp/d.dat"
    return (
        job.services["fs"].lookup(fname).store
        .read(base, GLOBAL * 8).view(np.float64)
    )


def crashed_producer(point, victim):
    maps = irregular_maps()
    job = mpirun(
        producer_program(maps), NPROCS, machine=fast_test(),
        services=sdm_services(),
        fault_plan=FaultPlan(point, victim=victim),
    )
    assert victim in job.crashed
    return job


# ---------------------------------------------------------------------------
# Orphaned maintenance rows: crash between queue insert and worker spawn
# ---------------------------------------------------------------------------


def test_enqueue_crash_leaves_row_for_next_job_to_adopt():
    """The orphan-adoption contract's crash window: rank 0 dies right
    after ``record_maintenance`` inserts the queue row, before any
    worker spawns for it.  The row is the pending work — the next job's
    attach adopts and executes it."""
    producer = crashed_producer("maint:enqueued", "rank0")
    t1 = SDMTables(producer.services["db"])
    assert [j.kind for j in t1.pending_maintenance()] == ["reorganize"]
    # The dead rank's snapshot pin is still in pin_table — the crash
    # skipped finalize.
    assert any(c == "sdm:dp:r1" for _p, c, _e in t1.all_pins())

    snap = snapshot_services(producer)
    consumer = mpirun(consumer_program, NPROCS, machine=fast_test(),
                      services=sdm_services(seed_from=snap))
    maint = consumer.services["maint"]
    assert maint.stats()["adopted"] == 1
    t2 = SDMTables(consumer.services["db"])
    assert t2.pending_maintenance() == []
    assert t2.chunks_for(1, "d", 0) == []
    np.testing.assert_allclose(reorganized_data(consumer),
                               np.arange(GLOBAL) * 1.0)
    # The abandoned pin was from a dead boot generation: reaped at attach.
    assert maint.stats()["pins_expired"] >= 1
    assert t2.all_pins() == []


def test_recovery_totals_are_per_job_not_per_client():
    """The attach sweep expires the dead job's pin on the service's
    behalf; every rank's SDM reports the same recovery totals as the
    service, because the job has one metadata accessor."""
    snap = snapshot_services(crashed_producer("maint:enqueued", "rank0"))
    consumer = mpirun(consumer_program, NPROCS, machine=fast_test(),
                      services=sdm_services(seed_from=snap))
    maint = consumer.services["maint"].stats()
    assert maint["pins_expired"] >= 1
    keys = ("leases_stolen", "flips_rolled_back", "flips_rolled_forward",
            "pins_expired")
    for stats in consumer.values:
        assert {k: stats[k] for k in keys} == {k: maint[k] for k in keys}


# ---------------------------------------------------------------------------
# Interrupted flips: roll back before the commit point, forward after
# ---------------------------------------------------------------------------


def test_crash_before_commit_rolls_back_then_adoption_retries():
    """The maintenance worker dies holding the flip lease with only the
    intent journaled: attach recovery releases the stale lease and rolls
    the flip back (reads stay chunked and correct), then adopts the
    surviving queue row and re-runs the reorganize to completion."""
    producer = crashed_producer("flip:intent", "maint-w0")
    # The producer's own reads, issued while the flip hung, were right.
    for mine, back in (v for v in producer.values if v is not None):
        np.testing.assert_allclose(back, mine * 1.0)
    t1 = SDMTables(producer.services["db"])
    # Reorganize journals its intent against the file it is emptying.
    assert t1.files_with_flip_intents() == ["dp/d.chunked.dat"]
    assert any(h.startswith("maint:") for _f, h, _b in t1.all_leases())

    snap = snapshot_services(producer)
    consumer = mpirun(consumer_program, NPROCS, machine=fast_test(),
                      services=sdm_services(seed_from=snap))
    maint = consumer.services["maint"]
    assert maint.stats()["leases_recovered"] == 1
    assert maint.stats()["flips_rolled_back"] == 1
    t2 = SDMTables(consumer.services["db"])
    assert t2.files_with_flip_intents() == []
    assert t2.all_leases() == []
    # Adoption retried the job after the rollback: reorganize complete.
    assert maint.stats()["adopted"] == 1
    assert t2.chunks_for(1, "d", 0) == []
    np.testing.assert_allclose(reorganized_data(consumer),
                               np.arange(GLOBAL) * 1.0)


def test_crash_after_commit_rolls_forward():
    """Death after ``commit_flip`` but before the reap: the flip is
    published, so recovery finishes the reap instead of undoing the
    flip — the committed metadata wins and no dead versions linger."""
    producer = crashed_producer("flip:published", "maint-w0")
    t1 = SDMTables(producer.services["db"])
    assert t1.files_with_flip_intents() == []

    snap = snapshot_services(producer)
    consumer = mpirun(consumer_program, NPROCS, machine=fast_test(),
                      services=sdm_services(seed_from=snap))
    maint = consumer.services["maint"]
    assert maint.stats()["leases_recovered"] == 1
    assert maint.stats()["flips_rolled_forward"] == 1
    t2 = SDMTables(consumer.services["db"])
    assert t2.all_leases() == []
    assert t2.executions_in_file("dp/d.chunked.dat", dead=True) == []
    assert t2.chunks_for(1, "d", 0) == []
    np.testing.assert_allclose(reorganized_data(consumer),
                               np.arange(GLOBAL) * 1.0)


# ---------------------------------------------------------------------------
# Shutdown leak audit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("client", ["sdm", "catalog"])
def test_shutdown_audit_reports_leaks_on_every_rank(client):
    """Both pinned client kinds shut down and audit through the one
    host: their own pin goes, planted strays are counted, and both
    report them in one stats shape."""

    def program(ctx):
        if client == "sdm":
            owner = SDM(ctx, "leaky", snapshot=True)
            holder, shutdown = owner.lease_holder, owner.finalize
        else:
            SDM(ctx, "leaky").finalize()
            owner = SDMCatalog.attach(ctx)
            holder, shutdown = "catalog:reap", owner.release
        assert owner.pin.epoch == 0
        if ctx.rank == 0:
            # Simulate a client bug: rows in this client's name that no
            # release will ever match.
            owner.tables.create_pin(owner.pin.client, 0, proc=ctx.proc,
                                    now=ctx.proc.now)
            assert owner.tables.try_acquire_lease(
                "stray.L3", holder, proc=ctx.proc, now=ctx.proc.now,
            )
        shutdown()
        assert owner.pin.epoch is None
        other = (SDMCatalog.attach(ctx, snapshot=False) if client == "sdm"
                 else SDM(ctx, "other"))
        return owner.stats(), set(other.stats())

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    for stats, other_keys in job.values:
        assert stats["leaked_leases"] == 1
        assert stats["leaked_pins"] == 1
        assert set(stats) == other_keys  # SDM and SDMCatalog: one shape
    tables = SDMTables(job.services["db"])
    assert len(tables.all_pins()) == 1  # the stray; the client's own is gone


@pytest.mark.parametrize("snapshot", [False, True])
def test_clean_run_audits_zero_leaks(snapshot):
    maps = irregular_maps(nprocs=2)

    def program(ctx):
        sdm = SDM(ctx, "clean", storage_order=CHUNKED, snapshot=snapshot)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)
        sdm.finalize(handle)
        cat = SDMCatalog.attach(ctx)
        data = cat.read_global(1, "d", 0)
        cat.release()
        return sdm.stats(), cat.stats(), data

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    for sdm_stats, cat_stats, data in job.values:
        for stats in (sdm_stats, cat_stats):
            assert stats["leaked_leases"] == 0
            assert stats["leaked_pins"] == 0
        np.testing.assert_allclose(data, np.arange(GLOBAL) * 1.0)
    tables = SDMTables(job.services["db"])
    assert tables.all_leases() == []
    assert tables.all_pins() == []
