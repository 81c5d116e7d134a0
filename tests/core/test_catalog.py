"""SDMCatalog: browsing and reading past runs through metadata alone."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services, snapshot_services
from repro.core.catalog import SDMCatalog
from repro.dtypes import DOUBLE, INT32
from repro.errors import DatatypeError, SDMUnknownDataset, SimProcessCrashed
from repro.mpi import mpirun

NPROCS = 4
GLOBAL = 40


def producer(level=Organization.LEVEL_3, timesteps=3):
    def program(ctx):
        sdm = SDM(ctx, "producer", organization=level, dimension=3,
                  problem_size=GLOBAL, num_timesteps=timesteps)
        result = sdm.make_datalist(["temp", "vel"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        lo = ctx.rank * (GLOBAL // ctx.size)
        mine = np.arange(lo, lo + GLOBAL // ctx.size, dtype=np.int64)
        sdm.data_view(handle, "temp", mine)
        sdm.data_view(handle, "vel", mine)
        for t in range(timesteps):
            sdm.write(handle, "temp", t, mine * 1.0 + 100 * t)
            sdm.write(handle, "vel", t, mine * -1.0)
        sdm.finalize(handle)
        return sdm.runid

    return program


@pytest.fixture(scope="module")
def produced():
    job = mpirun(producer(), NPROCS, machine=fast_test(), services=sdm_services())
    return snapshot_services(job)


def run_catalog(fn, snap, nprocs=NPROCS):
    return mpirun(fn, nprocs, machine=fast_test(),
                  services=sdm_services(seed_from=snap))


def test_runs_and_datasets_listing(produced):
    def program(ctx):
        cat = SDMCatalog.attach(ctx)
        runs = cat.runs()
        datasets = cat.datasets(runs[0].runid)
        return runs, datasets

    job = run_catalog(program, produced, nprocs=2)
    runs, datasets = job.values[0]
    assert len(runs) == 1
    assert runs[0].application == "producer"
    assert runs[0].problem_size == GLOBAL
    assert [d.name for d in datasets] == ["temp", "vel"]
    assert all(d.data_type is DOUBLE for d in datasets)
    assert all(d.global_size == GLOBAL for d in datasets)


def test_timesteps_listing(produced):
    def program(ctx):
        cat = SDMCatalog.attach(ctx)
        return cat.timesteps(1, "temp"), cat.timesteps(1, "nothing")

    job = run_catalog(program, produced, nprocs=2)
    steps, missing = job.values[0]
    assert steps == [0, 1, 2]
    assert missing == []


def test_read_slice_arbitrary_subset(produced):
    def program(ctx):
        cat = SDMCatalog.attach(ctx)
        rng = np.random.default_rng(ctx.rank)
        mine = np.sort(rng.choice(GLOBAL, size=7, replace=False))
        vals = cat.read_slice(1, "temp", 2, mine)
        return mine, vals

    job = run_catalog(program, produced)
    for mine, vals in job.values:
        np.testing.assert_allclose(vals, mine * 1.0 + 200)


def test_read_global_every_rank_gets_everything(produced):
    def program(ctx):
        cat = SDMCatalog.attach(ctx)
        return cat.read_global(1, "vel", 0)

    job = run_catalog(program, produced)
    for vals in job.values:
        np.testing.assert_allclose(vals, -np.arange(GLOBAL, dtype=np.float64))


def test_load_group_rehydrates_for_sdm_read(produced):
    """A new run can read an old run's data via a rehydrated group."""

    def program(ctx):
        cat = SDMCatalog.attach(ctx)
        group = cat.load_group(1)
        sdm = SDM(ctx, "analyzer")
        lo = ctx.rank * (GLOBAL // ctx.size)
        mine = np.arange(lo, lo + GLOBAL // ctx.size, dtype=np.int64)
        sdm.data_view(group, "temp", mine)
        buf = np.empty(len(mine))
        sdm.read(group, "temp", 1, buf, runid=1)
        sdm.finalize()
        return mine, buf

    job = run_catalog(program, produced)
    for mine, buf in job.values:
        np.testing.assert_allclose(buf, mine * 1.0 + 100)


def test_unknown_dataset_and_timestep_raise(produced):
    def program(ctx):
        cat = SDMCatalog.attach(ctx)
        cat.read_slice(1, "ghost_dataset", 0, np.arange(2))

    with pytest.raises(SimProcessCrashed) as ei:
        run_catalog(program, produced, nprocs=2)
    assert isinstance(ei.value.__cause__, SDMUnknownDataset)

    def program2(ctx):
        cat = SDMCatalog.attach(ctx)
        cat.read_slice(1, "temp", 99, np.arange(2))

    with pytest.raises(SimProcessCrashed) as ei:
        run_catalog(program2, produced, nprocs=2)
    assert isinstance(ei.value.__cause__, SDMUnknownDataset)


def test_catalog_works_on_split_subcommunicators(produced):
    """Regression: catalog reads must be communicator-relative, so analyst
    subgroups created with comm.split can each read their own dataset."""

    def program(ctx):
        cat = SDMCatalog.attach(ctx)
        team = ctx.comm.split(color=ctx.rank % 2, key=ctx.rank)
        name = "temp" if ctx.rank % 2 == 0 else "vel"
        saved = ctx.comm
        ctx.comm = team
        try:
            data = cat.read_global(1, name, 0)
        finally:
            ctx.comm = saved
        return name, data

    job = run_catalog(program, produced)
    for name, data in job.values:
        if name == "temp":
            np.testing.assert_allclose(data, np.arange(GLOBAL, dtype=np.float64))
        else:
            np.testing.assert_allclose(data, -np.arange(GLOBAL, dtype=np.float64))


def test_catalog_sees_multiple_runs(produced):
    # Produce a second run on top of the first snapshot.
    job = mpirun(producer(level=Organization.LEVEL_1, timesteps=1), NPROCS,
                 machine=fast_test(), services=sdm_services(seed_from=produced))
    snap2 = snapshot_services(job)

    def program(ctx):
        cat = SDMCatalog.attach(ctx)
        return [(r.runid, r.application) for r in cat.runs()]

    job2 = run_catalog(program, snap2, nprocs=2)
    assert job2.values[0] == [(1, "producer"), (2, "producer")]


@pytest.mark.parametrize("call", ["datasets", "read_slice", "read_global"])
def test_unknown_element_type_name_is_rejected(call):
    """Regression: the element type comes from a snapshot's
    access_pattern_table, which is outside input.  An INT32 instance whose
    type name was edited to one no primitive carries must raise
    DatatypeError from browsing and reading alike, not come back as
    FLOAT64 reinterpretations of its bytes."""

    def produce(ctx):
        sdm = SDM(ctx, "ints")
        result = sdm.make_datalist(["ids"])
        sdm.associate_attributes(result, data_type=INT32, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        lo = ctx.rank * (GLOBAL // ctx.size)
        mine = np.arange(lo, lo + GLOBAL // ctx.size, dtype=np.int64)
        sdm.data_view(handle, "ids", mine)
        sdm.write(handle, "ids", 0, mine.astype(np.int32))
        sdm.finalize(handle)

    job = mpirun(produce, 2, machine=fast_test(), services=sdm_services())
    job.services["db"].execute(
        "UPDATE access_pattern_table SET data_type = ? WHERE dataset = ?",
        ("INT16", "ids"),
    )
    calls = {
        "datasets": lambda cat: cat.datasets(1),
        "read_slice": lambda cat: cat.read_slice(1, "ids", 0, np.arange(4)),
        "read_global": lambda cat: cat.read_global(1, "ids", 0),
    }

    def program(ctx):
        calls[call](SDMCatalog.attach(ctx))

    with pytest.raises(SimProcessCrashed) as ei:
        run_catalog(program, snapshot_services(job), nprocs=2)
    assert isinstance(ei.value.__cause__, DatatypeError)
