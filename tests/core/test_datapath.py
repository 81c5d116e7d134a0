"""The storage-order data path: chunked writes, assembly reads, reorganize.

The contract under test: a chunked write ships *no* data between ranks
(transport counters prove it), yet reads return exactly what a canonical
write would serve — before and after :meth:`SDM.reorganize` — and the
metadata flips representations atomically.
"""

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services, snapshot_services
from repro.core.catalog import SDMCatalog
from repro.core.groups import DataGroup
from repro.core.layout import CANONICAL, CHUNKED, checkpoint_file_name
from repro.dtypes import DOUBLE
from repro.errors import SDMStateError, SimProcessCrashed
from repro.metadb.schema import SDMTables
from repro.mpi import mpirun
from repro.mpiio.consts import MODE_RDONLY
from repro.mpiio.file import File
from repro.mpiio.runs import ADAPTIVE_GAP

NPROCS = 4
GLOBAL = 32


def irregular_maps(nprocs=NPROCS, n=GLOBAL, seed=3):
    """Rank-disjoint, deliberately unsorted irregular maps covering [0, n)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), nprocs - 1, replace=False))
    return [p.astype(np.int64) for p in np.split(perm, cuts)]


def simple_program(order, level, *, reorganize=False, maps=None, n=GLOBAL):
    maps = irregular_maps() if maps is None else maps

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=level, storage_order=order)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        counts0 = dict(ctx.comm.transport.coll_counts)
        for t in range(2):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        a2a_writes = (
            ctx.comm.transport.coll_counts.get("alltoallv", 0)
            - counts0.get("alltoallv", 0)
        )
        if reorganize:
            for t in range(2):
                sdm.reorganize(handle, "d", t)
        back = np.empty(len(mine))
        sdm.read(handle, "d", 1, back)
        sdm.finalize(handle)
        return mine, back, a2a_writes

    return program


@pytest.mark.parametrize("level", list(Organization))
@pytest.mark.parametrize("order", [CANONICAL, CHUNKED])
def test_write_read_roundtrip_both_orders(order, level):
    job = mpirun(simple_program(order, level), NPROCS, machine=fast_test(),
                 services=sdm_services())
    for mine, back, _ in job.values:
        np.testing.assert_allclose(back, mine * 1.0 + 1)


@pytest.mark.parametrize("level", list(Organization))
def test_reorganize_then_read_roundtrip(level):
    job = mpirun(simple_program(CHUNKED, level, reorganize=True), NPROCS,
                 machine=fast_test(), services=sdm_services())
    for mine, back, _ in job.values:
        np.testing.assert_allclose(back, mine * 1.0 + 1)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_reorganize_on_fewer_ranks_keeps_highest_writer(workers):
    """Regression: four writers' windows overlap, each value tagged with
    its writer rank, and a follow-up job reorganizes on ``workers`` ranks.
    The deferred exchange must resolve every overlap to the highest
    writer, as the chunked read does, however many ranks run it: dealing
    chunks round-robin let the highest *worker* win instead (writer 1
    over writer 2 on 2 ranks, writer 2 over writer 3 on 3)."""
    n = 16
    windows = [np.arange(lo, hi, dtype=np.int64)
               for lo, hi in ((0, 6), (3, 9), (6, 12), (9, 16))]
    expected = np.repeat([0.0, 1.0, 2.0, 3.0], [3, 3, 3, 7])

    def produce(ctx):
        sdm = SDM(ctx, "dp", storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = windows[ctx.rank]
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, np.full(len(mine), float(ctx.rank)))
        sdm.data_view(handle, "d", np.arange(n))
        back = np.empty(n)
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return back

    job = mpirun(produce, 4, machine=fast_test(), services=sdm_services())
    for back in job.values:
        np.testing.assert_array_equal(back, expected)

    def reorganize(ctx):
        catalog = SDMCatalog.attach(ctx, snapshot=False)
        sdm = SDM(ctx, "reorg")
        sdm.reorganize(catalog.load_group(1), "d", 0, runid=1)
        data = catalog.read_global(1, "d", 0)
        catalog.release()
        sdm.finalize()
        return data

    after = mpirun(reorganize, workers, machine=fast_test(),
                   services=sdm_services(seed_from=snapshot_services(job)))
    assert SDMTables(after.services["db"]).chunks_for(1, "d", 0) == []
    for data in after.values:
        np.testing.assert_array_equal(data, expected)


def test_chunked_write_does_no_data_exchange():
    """The write-path claim: canonical writes exchange through alltoallv
    (two-phase I/O), chunked writes never touch it."""
    canonical = mpirun(simple_program(CANONICAL, Organization.LEVEL_2),
                       NPROCS, machine=fast_test(), services=sdm_services())
    chunked = mpirun(simple_program(CHUNKED, Organization.LEVEL_2),
                     NPROCS, machine=fast_test(), services=sdm_services())
    for _, _, a2a in canonical.values:
        assert a2a > 0
    for _, _, a2a in chunked.values:
        assert a2a == 0


def test_chunk_table_records_every_rank_block():
    maps = irregular_maps()
    job = mpirun(simple_program(CHUNKED, Organization.LEVEL_2, maps=maps),
                 NPROCS, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    chunks = tables.chunks_for(1, "d", 0)
    assert [c.rank for c in chunks] == list(range(NPROCS))
    t0_bytes = 0
    for rank, c in enumerate(chunks):
        mine = np.sort(maps[rank])
        steps = np.diff(mine)
        arithmetic = len(mine) <= 1 or (steps == steps[0]).all()
        assert c.num_elements == len(mine)
        assert (c.gid_min, c.gid_max) == (int(mine[0]), int(mine[-1]))
        if arithmetic:  # constant stride: no index block stored
            assert c.data_offset == c.index_offset
            t0_bytes += 8 * len(mine)
        else:
            assert c.data_offset == c.index_offset + 8 * len(mine)
            t0_bytes += 16 * len(mine)
    # The execution row covers index + data bytes so later appends clear it.
    where = tables.lookup_execution_version(1, "d", 0)[:3]
    assert where[2] == t0_bytes
    # Timestep 1 appended after timestep 0's chunks — and, the view being
    # unchanged, shares timestep 0's index blocks instead of rewriting
    # them (reference-not-copy): its region holds data bytes only.
    t1 = tables.lookup_execution_version(1, "d", 1)[:3]
    assert t1[1] == t0_bytes
    assert t1[2] == GLOBAL * 8
    for c0, c1 in zip(chunks, tables.chunks_for(1, "d", 1)):
        if c0.index_offset != c0.data_offset:  # dense chunks have no block
            assert c1.index_offset == c0.index_offset
        assert c1.data_offset >= t0_bytes


def test_dense_chunks_store_no_index_block():
    """Contiguous-range maps (the RT triangle pattern) elide the index
    block entirely: index_offset == data_offset and the instance region
    holds exactly the data bytes."""
    n = 16

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = np.arange(ctx.rank * 4, ctx.rank * 4 + 4, dtype=np.int64)
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)
        back = np.empty(4)
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return mine, back

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    for c in tables.chunks_for(1, "d", 0):
        assert c.index_offset == c.data_offset
    assert tables.lookup_execution_version(1, "d", 0)[2] == n * 8
    for mine, back in job.values:
        np.testing.assert_allclose(back, mine * 1.0)


def test_strided_chunks_store_no_index_block_and_read_back():
    """Constant-stride maps (round-robin/block-cyclic) are arithmetic
    chunks: no index block on disk, ``gid_step`` recorded in the chunk
    row, positions computed at read time."""
    n = 32

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = np.arange(ctx.rank, n, ctx.size, dtype=np.int64)
        sdm.data_view(handle, "d", mine)
        for t in range(2):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        back = np.empty(len(mine))
        sdm.read(handle, "d", 1, back)
        # A foreign dense view crossing every strided chunk.
        block = n // ctx.size
        share = np.arange(ctx.rank * block, (ctx.rank + 1) * block,
                          dtype=np.int64)
        sdm.data_view(handle, "d", share)
        whole = np.empty(block)
        sdm.read(handle, "d", 0, whole)
        sdm.finalize(handle)
        return mine, back, share, whole

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    for t in range(2):
        for c in tables.chunks_for(1, "d", t):
            assert c.index_offset == c.data_offset  # no index block
            assert c.gid_step == NPROCS
        # The instance region holds exactly the data bytes.
        assert tables.lookup_execution_version(1, "d", t)[2] == n * 8
    fname = tables.lookup_execution_version(1, "d", 0)[0]
    assert job.services["fs"].lookup(fname).size == 2 * n * 8
    for mine, back, share, whole in job.values:
        np.testing.assert_allclose(back, mine * 1.0 + 1)
        np.testing.assert_allclose(whole, share * 1.0)


def test_strided_chunks_reorganize_to_global_order():
    n = 24
    maps = [np.arange(r, n, NPROCS, dtype=np.int64) for r in range(NPROCS)]
    job = mpirun(
        simple_program(CHUNKED, Organization.LEVEL_2, reorganize=True,
                       maps=maps, n=n),
        NPROCS, machine=fast_test(), services=sdm_services(),
    )
    tables = SDMTables(job.services["db"])
    for t in range(2):
        assert tables.chunks_for(1, "d", t) == []
        fname, base, _nbytes = tables.lookup_execution_version(1, "d", t)[:3]
        data = (
            job.services["fs"].lookup(fname).store
            .read(base, n * 8).view(np.float64)
        )
        np.testing.assert_allclose(data, np.arange(n) * 1.0 + t)
    for mine, back, _ in job.values:
        np.testing.assert_allclose(back, mine * 1.0 + 1)


def test_chunked_read_submits_runs_per_chunk_not_per_element():
    """The run-coalescing collapse: the collective read of a chunked
    instance submits O(chunks) byte runs to the I/O layer, not
    O(elements)."""
    n = 4096

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = np.arange(ctx.rank, n, ctx.size, dtype=np.int64)
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)
        fs = ctx.service("fs")
        before = fs.runs_submitted
        ctx.comm.barrier()  # every rank snapshots before any read starts
        back = np.empty(len(mine))
        sdm.read(handle, "d", 0, back)
        ctx.comm.barrier()  # every rank's runs are counted
        submitted = fs.runs_submitted - before
        sdm.finalize(handle)
        return mine, back, submitted

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    # The counter is fs-global; every rank observed the same job-wide
    # total: far fewer runs than the n elements read.
    for mine, back, submitted in job.values:
        np.testing.assert_allclose(back, mine * 1.0)
        assert submitted <= 4 * NPROCS, submitted


def test_sparse_foreign_view_reads_few_elements_of_big_chunks():
    """A reader wanting a handful of scattered gids out of large irregular
    chunks (the catalog-viewer shape): candidates bound by the wanted
    count, values still exact."""
    n = 256
    maps = irregular_maps(n=n, seed=17)

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps[ctx.rank])
        sdm.write(handle, "d", 0, maps[ctx.rank] * 1.0)
        # Three scattered gids per rank, spanning the whole range.
        sparse = np.array([ctx.rank, n // 2 + ctx.rank, n - 1 - ctx.rank],
                          dtype=np.int64)
        sdm.data_view(handle, "d", sparse)
        back = np.empty(len(sparse))
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return sparse, back

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    for sparse, back in job.values:
        np.testing.assert_allclose(back, sparse * 1.0)


def per_element(monkeypatch):
    """Patch the merge kernel every read-side merge goes through (the
    read plan's, the file's) into one run per input run."""
    from repro.mpiio import runs as runs_mod

    monkeypatch.setattr(
        runs_mod, "coalesce_runs",
        lambda off, ln, gap=0: (
            np.asarray(off, dtype=np.int64),
            np.asarray(ln, dtype=np.int64),
        ),
    )


def test_coalesced_read_matches_per_element_read(monkeypatch):
    """Coalescing off (one run per element) and on must produce
    byte-identical chunked reads.  The off side is held to one submitted
    run per element — the patched kernel reaches the read plan's merge
    too — and the on side to one run per rank (each reads its own
    chunk)."""
    from repro.mpiio import twophase

    maps = irregular_maps()
    submitted = count_calls(monkeypatch, twophase, "collective_read")

    def run(coalesce):
        with pytest.MonkeyPatch.context() as mp:
            if not coalesce:
                per_element(mp)
            del submitted[:]
            job = mpirun(
                simple_program(CHUNKED, Organization.LEVEL_2, maps=maps),
                NPROCS, machine=fast_test(), services=sdm_services(),
            )
        runs = sum(len(args[4]) for args in submitted)
        return [back for _, back, _ in job.values], runs

    off, off_runs = run(False)
    on, on_runs = run(True)
    assert (off_runs, on_runs) == (GLOBAL, NPROCS)
    for a, b in zip(off, on):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("gap", [16, ADAPTIVE_GAP])
def test_gap_bridged_chunked_read_matches_per_element_read(monkeypatch, gap):
    """Under a positive ``coalesce_gap`` and under ``ADAPTIVE_GAP`` a
    chunked read whose wanted elements leave holes returns the bytes a
    per-element read returns, and the gap it resolves — over the plan's
    merged runs — is the one resolved over the one-element runs."""
    from repro.mpiio import runs as runs_mod

    n = 64
    maps = irregular_maps(n=n, seed=11)
    gaps = {}
    real = runs_mod.resolve_gap

    def recorded(hint, off, ln, max_gap=None):
        got = real(hint, off, ln, max_gap)
        if hint == ADAPTIVE_GAP:
            assert got == runs_mod.adaptive_gap(off, ln, max_gap)
        gaps[runs_mod.expand_runs(off, ln).tobytes()] = got
        return got

    monkeypatch.setattr(runs_mod, "resolve_gap", recorded)

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED, io_hints={"coalesce_gap": gap})
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps[ctx.rank])
        sdm.write(handle, "d", 0, maps[ctx.rank] * 1.0)
        # Every gid but one in seven: 8-byte holes in every chunk.
        wanted = np.setdiff1d(np.arange(n), np.arange(ctx.rank, n, 7))
        sdm.data_view(handle, "d", wanted[::-1].copy())
        back = np.empty(len(wanted))
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return wanted[::-1], back

    def run(coalesce):
        gaps.clear()
        with pytest.MonkeyPatch.context() as mp:
            if not coalesce:
                per_element(mp)
            job = mpirun(program, NPROCS, machine=fast_test(),
                         services=sdm_services())
        return job.values, dict(gaps)

    off, off_gaps = run(False)
    on, on_gaps = run(True)
    assert on_gaps == off_gaps and len(on_gaps) == NPROCS
    assert all(g > 0 for g in on_gaps.values()), on_gaps
    for (wanted, a), (_, b) in zip(off, on):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, wanted * 1.0)


def test_index_block_cache_entries_are_immutable():
    """Regression: a caller mutating a cached index block (or the array
    it inserted) must not corrupt later reads."""
    from repro.core.datapath import IndexBlockCache

    cache = IndexBlockCache()
    block = np.array([3, 5, 9], dtype=np.int64)
    stored = cache.put("f", 100, block)
    # Mutating the caller's array after the put cannot reach the cache.
    block[:] = -1
    got = cache.get("f", 100, 3)
    np.testing.assert_array_equal(got, [3, 5, 9])
    # The handed-out array is read-only.
    assert not got.flags.writeable
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        got[0] = 42
    # And the entry is still intact afterwards.
    np.testing.assert_array_equal(cache.get("f", 100, 3), [3, 5, 9])


def test_chunked_and_canonical_use_distinct_files():
    assert checkpoint_file_name("a", 1, "d", 0, Organization.LEVEL_2) == "a/d.dat"
    assert checkpoint_file_name(
        "a", 1, "d", 0, Organization.LEVEL_2, storage_order=CHUNKED
    ) == "a/d.chunked.dat"
    assert checkpoint_file_name(
        "a", 1, "d", 3, Organization.LEVEL_1, storage_order=CHUNKED
    ) == "a/d.t000003.chunked"
    assert checkpoint_file_name(
        "a", 7, "d", 0, Organization.LEVEL_3, storage_order=CHUNKED
    ) == "a/group7.chunked.dat"


def test_reorganize_flips_metadata_and_builds_global_order():
    maps = irregular_maps()
    job = mpirun(
        simple_program(CHUNKED, Organization.LEVEL_2, reorganize=True,
                       maps=maps),
        NPROCS, machine=fast_test(), services=sdm_services(),
    )
    tables = SDMTables(job.services["db"])
    for t in range(2):
        assert tables.chunks_for(1, "d", t) == []
        fname, base, nbytes = tables.lookup_execution_version(1, "d", t)[:3]
        assert fname == "dp/d.dat"  # repointed at the canonical file
        assert nbytes == GLOBAL * 8
        data = (
            job.services["fs"].lookup(fname).store
            .read(base, GLOBAL * 8).view(np.float64)
        )
        np.testing.assert_allclose(data, np.arange(GLOBAL) * 1.0 + t)


def test_reorganize_is_idempotent_and_canonical_noop():
    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=8)
        handle = sdm.set_attributes(result)
        mine = np.arange(2, dtype=np.int64) + 2 * ctx.rank
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 2.0)
        first = sdm.reorganize(handle, "d", 0)
        second = sdm.reorganize(handle, "d", 0)  # no chunks left: no-op
        back = np.empty(2)
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return first, second, mine, back

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    for first, second, mine, back in job.values:
        assert first == second == "dp/d.dat"
        np.testing.assert_allclose(back, mine * 2.0)


def test_index_sharing_survives_space_reclamation():
    """Reorganizing every instance drops the chunked file's append cursor
    to 0; the next chunked write must re-emit its index block rather than
    reference the about-to-be-overwritten one."""
    maps = irregular_maps()

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)
        sdm.reorganize(handle, "d", 0)  # chunked file fully reclaimed
        sdm.write(handle, "d", 1, mine * 2.0)  # reuses the freed region
        back0, back1 = np.empty(len(mine)), np.empty(len(mine))
        sdm.read(handle, "d", 0, back0)
        sdm.read(handle, "d", 1, back1)
        sdm.finalize(handle)
        return mine, back0, back1

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    assert tables.lookup_execution_version(1, "d", 1)[1] == 0  # region reclaimed
    fresh_blocks = [
        c for c in tables.chunks_for(1, "d", 1)
        if c.data_offset == c.index_offset + 8 * c.num_elements
    ]
    assert fresh_blocks  # irregular chunks re-emitted their index blocks
    for mine, back0, back1 in job.values:
        np.testing.assert_allclose(back0, mine * 1.0)
        np.testing.assert_allclose(back1, mine * 2.0)


def test_index_cache_invalidated_when_cursor_returns_above_block():
    """Regression: after reorganize reclaims the chunked file, a dense
    write can overwrite a cached index block AND push the append cursor
    back above it — a later write with the original view must re-emit its
    block rather than reference the overwritten bytes."""
    n = 64
    maps = irregular_maps(n=n, seed=13)  # irregular: index blocks exist

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        # Irregular view: index block written at the file start and cached.
        irregular = maps[ctx.rank]
        sdm.data_view(handle, "d", irregular)
        sdm.write(handle, "d", 0, irregular * 1.0)
        sdm.reorganize(handle, "d", 0)  # cursor retreats to 0
        # Dense view: t1's data bytes land where t0's index blocks were,
        # and the cursor rises back above the stale cached blocks.
        block = n // ctx.size
        dense = np.arange(ctx.rank * block, (ctx.rank + 1) * block,
                          dtype=np.int64)
        sdm.data_view(handle, "d", dense)
        sdm.write(handle, "d", 1, dense * 2.0)
        # Back to the original view: a stale cache hit here would point
        # t2's chunk rows at t1's data bytes.
        sdm.data_view(handle, "d", irregular)
        sdm.write(handle, "d", 2, irregular * 3.0)
        back = np.empty(len(irregular))
        sdm.read(handle, "d", 2, back)
        sdm.finalize(handle)
        return irregular, back

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    for irregular, back in job.values:
        np.testing.assert_allclose(back, irregular * 3.0)


def test_chunked_read_with_foreign_view():
    """A reader whose map matches no writer's chunk assembles correctly."""
    maps = irregular_maps()

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps[ctx.rank])
        sdm.write(handle, "d", 0, maps[ctx.rank] * 3.0)
        # Re-view with a contiguous block slicing across every chunk.
        block = GLOBAL // ctx.size
        mine = np.arange(ctx.rank * block, (ctx.rank + 1) * block,
                         dtype=np.int64)
        sdm.data_view(handle, "d", mine)
        back = np.empty(block)
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return mine, back

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    for mine, back in job.values:
        np.testing.assert_allclose(back, mine * 3.0)


def test_ghost_overlap_resolves_like_canonical():
    """Ghost-inclusive maps: ranks write overlapping gids with equal values
    (the SDM contract); both orders must return the same arrays."""
    n = 16

    def maps_for(rank):
        # Every rank owns 4 gids and also writes its right neighbor's first.
        own = np.arange(rank * 4, rank * 4 + 4, dtype=np.int64)
        ghost = np.array([(rank * 4 + 4) % n], dtype=np.int64)
        return np.concatenate([own, ghost])

    def make_program(order):
        def program(ctx):
            sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                      storage_order=order)
            result = sdm.make_datalist(["d"])
            sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
            handle = sdm.set_attributes(result)
            mine = maps_for(ctx.rank)
            sdm.data_view(handle, "d", mine)
            sdm.write(handle, "d", 0, mine * 5.0)  # overlap values agree
            back = np.empty(len(mine))
            sdm.read(handle, "d", 0, back)
            sdm.finalize(handle)
            return mine, back
        return program

    for order in (CANONICAL, CHUNKED):
        job = mpirun(make_program(order), NPROCS, machine=fast_test(),
                     services=sdm_services())
        for mine, back in job.values:
            np.testing.assert_allclose(back, mine * 5.0)


def test_catalog_serves_chunked_runs_transparently():
    maps = irregular_maps()
    producer = mpirun(
        simple_program(CHUNKED, Organization.LEVEL_3, maps=maps),
        NPROCS, machine=fast_test(), services=sdm_services(),
    )
    snap = snapshot_services(producer)

    def viewer(ctx):
        catalog = SDMCatalog.attach(ctx)
        return catalog.read_global(runid=1, dataset="d", timestep=1)

    job = mpirun(viewer, 2, machine=fast_test(),
                 services=sdm_services(seed_from=snap))
    for data in job.values:
        np.testing.assert_allclose(data, np.arange(GLOBAL) * 1.0 + 1)


def test_chunked_write_rejects_duplicate_map_entries():
    """Canonical writes reject duplicate gids via the file view; the
    chunked path must refuse them too instead of writing an ambiguous
    chunk whose read and reorganize could disagree."""

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=16)
        handle = sdm.set_attributes(result)
        mine = np.array([3, 3, 7], dtype=np.int64) + 8 * ctx.rank
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, SDMStateError)


def test_level1_chunked_writes_do_not_grow_index_cache():
    """Per-timestep level-1 files can never share index blocks; the
    reference-not-copy cache must not accumulate unhittable map copies."""

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_1,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=16)
        handle = sdm.set_attributes(result)
        mine = np.array([1, 0, 5], dtype=np.int64) + 8 * ctx.rank  # irregular
        sdm.data_view(handle, "d", mine)
        for t in range(4):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        back = np.empty(len(mine))
        sdm.read(handle, "d", 3, back)
        sdm.finalize(handle)
        return mine, back, len(sdm.index_cache._written)

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    for mine, back, cache_size in job.values:
        np.testing.assert_allclose(back, mine * 1.0 + 3)
        assert cache_size == 0


def test_canonical_read_skips_chunk_table_probe():
    """Reads of canonical instances stay a single metadata statement —
    the chunk_table lookup only happens for .chunked file names."""

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CANONICAL)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=8)
        handle = sdm.set_attributes(result)
        mine = np.arange(4, dtype=np.int64) + 4 * ctx.rank
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)
        db = ctx.service("db")
        before = db.n_statements
        back = np.empty(4)
        sdm.read(handle, "d", 0, back)
        delta = db.n_statements - before
        sdm.finalize(handle)
        return ctx.rank, delta

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    by_rank = dict(job.values)
    # The counter is database-global; rank 0 (the only rank issuing
    # statements) must have seen exactly its execution_table lookup.
    assert by_rank[0] == 1


def test_unknown_storage_order_rejected():
    def program(ctx):
        SDM(ctx, "dp", storage_order="sideways")

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, SDMStateError)
    assert str(ei.value.__cause__) == (
        "unknown storage order 'sideways' "
        "(expected one of ['canonical', 'chunked'])"
    )


def test_checkpoint_file_checks_its_storage_order():
    """An explicit storage order passes the same check as the
    constructor's: any case names the file a write lands in, and an
    unknown name raises instead of naming a file."""

    def program(ctx):
        sdm = SDM(ctx, "app", storage_order="CHUNKED")
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=8)
        handle = sdm.set_attributes(result)
        mine = np.arange(4, dtype=np.int64) + 4 * ctx.rank
        sdm.data_view(handle, "d", mine)
        written = sdm.write(handle, "d", 0, mine * 1.0)
        named = sdm.checkpoint_file(handle, "d", 0, storage_order="CHUNKED")
        with pytest.raises(SDMStateError, match="unknown storage order"):
            sdm.checkpoint_file(handle, "d", 0, storage_order="sideways")
        sdm.finalize(handle)
        return written, named

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    for written, named in job.values:
        assert named == written == "app/d.chunked.dat"


# ---------------------------------------------------------------------------
# First-fit extent reuse
# ---------------------------------------------------------------------------

def test_index_block_cache_drop_range():
    """Range eviction semantics: any byte overlap with [lo, hi) evicts,
    touching neither counters nor disjoint entries."""
    from repro.core.datapath import IndexBlockCache

    cache = IndexBlockCache()
    cache.put("f", 0, np.arange(4, dtype=np.int64))      # bytes [0, 32)
    cache.put("f", 32, np.arange(4, dtype=np.int64))     # bytes [32, 64)
    cache.put("f", 64, np.arange(2, dtype=np.int64))     # bytes [64, 80)
    cache.put("g", 0, np.arange(4, dtype=np.int64))      # other file
    cache.drop("f", 30, 64)  # clips the first, covers the second
    assert not cache.contains("f", 0, 4)
    assert not cache.contains("f", 32, 4)
    assert cache.contains("f", 64, 2)  # [64, 80) starts at hi: untouched
    assert cache.contains("g", 0, 4)
    # Eviction is no-count bookkeeping: the probes above used contains().
    assert cache.hits == 0 and cache.misses == 0

    # The write side's last written blocks follow the same rule.
    gids = np.array([3, 5, 9], dtype=np.int64)
    cache.keep_written(("f", 1, "a"), gids, 100, 124)   # bytes [100, 124)
    cache.keep_written(("f", 1, "b"), gids, 200, 224)   # bytes [200, 224)
    cache.keep_written(("g", 1, "a"), gids, 100, 124)   # other file
    assert cache.shared_index(("f", 1, "a"), gids, 124) == 100
    assert cache.shared_index(("f", 1, "a"), gids, 123) is None  # above base
    assert cache.shared_index(("f", 1, "a"), gids + 1, 124) is None  # new map
    cache.drop("f", 124, 200)  # disjoint from both blocks of "f"
    assert cache.shared_index(("f", 1, "a"), gids, 124) == 100
    assert cache.shared_index(("f", 1, "b"), gids, 224) == 200
    cache.drop("f", 120, 130)  # clips the first
    assert cache.shared_index(("f", 1, "a"), gids, 124) is None
    assert cache.shared_index(("f", 1, "b"), gids, 224) == 200
    assert cache.shared_index(("g", 1, "a"), gids, 124) == 100


def equal_count_maps(seed, nprocs=NPROCS, n=GLOBAL):
    """Rank maps with identical per-rank counts (a permutation split
    evenly), so two instances written with different seeds land their
    chunks at identical offsets when one recycles the other's extent."""
    rng = np.random.default_rng(seed)
    maps = [m.astype(np.int64) for m in np.split(rng.permutation(n), nprocs)]
    for m in maps:  # the scenarios below need real index blocks
        s = np.sort(m)
        assert not (np.diff(s) == np.diff(s)[0]).all(), "arithmetic map"
    return maps


def test_first_fit_write_reuses_dead_extent_without_growing_file():
    """A chunked write whose bytes fit a reaped extent lands inside it
    (first-fit) instead of appending — the file stops growing under
    churn — and every representation still reads back exactly."""
    maps_a = equal_count_maps(seed=5)
    maps_b = equal_count_maps(seed=7)
    maps_c = equal_count_maps(seed=11)

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps_a[ctx.rank])
        sdm.write(handle, "d", 0, maps_a[ctx.rank] * 1.0)
        sdm.data_view(handle, "d", maps_b[ctx.rank])
        sdm.write(handle, "d", 1, maps_b[ctx.rank] * 2.0)
        # Flipping t0 reaps its (interior) region into a dead extent ...
        sdm.reorganize(handle, "d", 0)
        # ... which the equal-sized t2 must recycle rather than append to.
        sdm.data_view(handle, "d", maps_c[ctx.rank])
        sdm.write(handle, "d", 2, maps_c[ctx.rank] * 3.0)
        backs = []
        for t, maps in ((0, maps_a), (1, maps_b), (2, maps_c)):
            sdm.data_view(handle, "d", maps[ctx.rank])
            back = np.empty(len(maps[ctx.rank]))
            sdm.read(handle, "d", t, back)
            backs.append(back)
        sdm.finalize(handle)
        return backs

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    fname = "dp/d.chunked.dat"
    # t2 sits exactly where t0's region was; the extent is fully consumed
    # and the file did not grow past the two original instances.
    assert tables.lookup_execution_version(1, "d", 2)[:2] == (fname, 0)
    assert tables.free_bytes_in(fname) == 0
    t1_row = tables.lookup_execution_version(1, "d", 1)[:3]
    assert job.services["fs"].lookup(fname).size == t1_row[1] + t1_row[2]
    for rank, backs in enumerate(job.values):
        for t, maps in ((0, maps_a), (1, maps_b), (2, maps_c)):
            np.testing.assert_allclose(
                backs[t], maps[rank] * (t + 1.0),
                err_msg=f"t{t} read-back, rank {rank}",
            )


def test_first_fit_reuse_evicts_stale_cached_blocks_across_clients():
    """Regression: fresh rows publish at version 0, so a first-fit write
    recycling an extent re-creates ``(file, offset, 0)`` cache keys that
    a *pinned* reader may still hold from the dead instance — it read the
    old version after the flip, and its own release-time reap is what
    recorded the extent.  The reuse write must evict every registered
    cache's blocks in the recycled range, not just the writer's."""
    maps_a = equal_count_maps(seed=5)
    maps_b = equal_count_maps(seed=7)
    maps_c = equal_count_maps(seed=11)

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps_a[ctx.rank])
        sdm.write(handle, "d", 0, maps_a[ctx.rank] * 1.0)
        sdm.data_view(handle, "d", maps_b[ctx.rank])
        sdm.write(handle, "d", 1, maps_b[ctx.rank] * 2.0)
        catalog = SDMCatalog.attach(ctx)     # pins the pre-flip epoch
        sdm.reorganize(handle, "d", 0)       # the pin defers t0's reap
        lo = GLOBAL * ctx.rank // ctx.size
        hi = GLOBAL * (ctx.rank + 1) // ctx.size
        share = np.arange(lo, hi, dtype=np.int64)
        # The pinned read resolves the *old* chunked t0: it caches t0's
        # index blocks under version-0 keys in the soon-dead region.
        old = catalog.read_slice(1, "d", 0, share)
        # Drop only the pin (its reap records the dead extent): a full
        # catalog.release() would also retire the cache under test, and
        # the hazard is a client that is still registered at reuse time.
        catalog.pin.release(ctx.comm)
        sdm.data_view(handle, "d", maps_c[ctx.rank])
        sdm.write(handle, "d", 2, maps_c[ctx.rank] * 3.0)  # recycles it
        # Same offsets, same counts, same version axis: without the
        # range eviction this read resolves t2 against t0's stale blocks.
        fresh = catalog.read_slice(1, "d", 2, share)
        catalog.release()
        sdm.finalize(handle)
        return share, old, fresh

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    # reuse really happened
    assert tables.lookup_execution_version(1, "d", 2)[1] == 0
    for share, old, fresh in job.values:
        np.testing.assert_allclose(old, share * 1.0)
        np.testing.assert_allclose(fresh, share * 3.0)


def test_cursor_retreat_evicts_stale_blocks_across_clients():
    """Regression, the cursor-path twin of the first-fit case: a pinned
    catalog caches the topmost instance's blocks, its release reaps the
    instance and retreats the append cursor to 0, and the next write —
    equal counts, different maps — appends at the same offsets.  That
    append must evict every registered cache's blocks above the cursor,
    not just the writer's, or the catalog resolves the new instance
    against the dead one's blocks."""
    check_cursor_retreat(full_release=False)


def test_released_catalog_reads_cold():
    """The same scenario with the catalog fully released before the
    append: it left the registry, so no drop reaches its cache, and its
    reads must resolve against a fresh one, never the stale blocks."""
    check_cursor_retreat(full_release=True)


def check_cursor_retreat(full_release):
    maps_a = equal_count_maps(seed=5)
    maps_b = equal_count_maps(seed=7)

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps_a[ctx.rank])
        sdm.write(handle, "d", 0, maps_a[ctx.rank] * 1.0)  # topmost region
        catalog = SDMCatalog.attach(ctx)     # pins the pre-flip epoch
        sdm.reorganize(handle, "d", 0)       # the pin defers t0's reap
        lo = GLOBAL * ctx.rank // ctx.size
        hi = GLOBAL * (ctx.rank + 1) // ctx.size
        share = np.arange(lo, hi, dtype=np.int64)
        # Caches t0's index blocks under (file, offset, 0) keys.
        old = catalog.read_slice(1, "d", 0, share)
        # The release-time reap retreats the cursor to 0; dropping only
        # the pin keeps the catalog registered.
        if full_release:
            catalog.release()
        else:
            catalog.pin.release(ctx.comm)
        sdm.data_view(handle, "d", maps_b[ctx.rank])
        sdm.write(handle, "d", 1, maps_b[ctx.rank] * 2.0)  # appends at 0
        fresh = catalog.read_slice(1, "d", 1, share)
        catalog.release()
        sdm.finalize(handle)
        return share, old, fresh

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    # t1 appended at the retreated cursor, not into a recorded extent.
    assert tables.lookup_execution_version(1, "d", 1)[1] == 0
    assert tables.free_bytes_in("dp/d.chunked.dat") == 0
    for share, old, fresh in job.values:
        np.testing.assert_allclose(old, share * 1.0)
        np.testing.assert_allclose(fresh, share * 2.0)


def test_failed_reorganize_releases_its_flip_lease():
    """Regression: an exception between lease acquire and release used to
    strand the flip lease for a full TTL, so a retry saw SDMLeaseConflict
    instead of the real error."""
    from repro.errors import FileNotFound

    maps = irregular_maps()

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_1,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        fname = sdm.write(handle, "d", 0, mine * 1.0)
        if ctx.rank == 0:
            sdm.fs.unlink(ctx.proc, fname)
        ctx.comm.barrier()
        errors = []
        for _attempt in range(2):
            with pytest.raises(FileNotFound) as ei:
                sdm.reorganize(handle, "d", 0, mode="sync")
            errors.append(str(ei.value))
        return errors

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=sdm_services())
    for first, second in job.values:
        assert first == second
    tables = SDMTables(job.services["db"])
    assert tables.lease_count() == 0


# ---------------------------------------------------------------------------
# Resolve once, read many: read plans and memoised filetypes, on counts
# ---------------------------------------------------------------------------

def own_range_maps(nprocs=NPROCS, per=16, seed=4):
    """Unsorted irregular maps, each inside its rank's own gid range: every
    chunk stores an index block, and a rank's read touches its own chunk
    only."""
    rng = np.random.default_rng(seed)
    maps = [rng.choice(per, per // 2, replace=False).astype(np.int64)
            + r * per for r in range(nprocs)]
    for m in maps:
        s = np.sort(m)
        assert not (np.diff(s) == np.diff(s)[0]).all(), "arithmetic map"
    return maps


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call is recorded; returns the list."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def fenced(ctx, calls, step):
    """Job-wide calls recorded while every rank runs ``step`` (one
    collective step, barrier-fenced on both sides)."""
    ctx.comm.barrier()
    before = len(calls)
    ctx.comm.barrier()
    step()
    ctx.comm.barrier()
    grown = len(calls) - before
    ctx.comm.barrier()
    return grown


def chunked_group(ctx, mine, n):
    sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
              storage_order=CHUNKED)
    result = sdm.make_datalist(["d"])
    sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
    handle = sdm.set_attributes(result)
    sdm.data_view(handle, "d", mine)
    return sdm, handle


@pytest.mark.parametrize("spanning", [False, True])
def test_checkpoint_loop_reads_resolve_once(monkeypatch, spanning):
    """Write-then-read over three timesteps through one view: timestep
    t + 1 shares t's index blocks, so its read is t's plan at a new base
    and calls ``_chunk_positions`` zero times.  A read spanning several
    chunks (ghost maps) also resolves timestep 1: timestep 0 stored the
    index blocks between the data blocks, so the chunks' relative layout
    only settles from timestep 1 on."""
    import repro.core.datapath as dp

    calls = count_calls(monkeypatch, dp, "_chunk_positions")
    n = 16 * NPROCS
    maps = own_range_maps()
    if spanning:  # each rank also writes its right neighbour's first gid
        maps = [np.concatenate([m, maps[(r + 1) % NPROCS][:1]])
                for r, m in enumerate(maps)]

    def program(ctx):
        mine = maps[ctx.rank]
        sdm, handle = chunked_group(ctx, mine, n)
        builds, backs = [], []
        for t in range(3):
            sdm.write(handle, "d", t, mine * 1.0 + t)
            back = np.empty(len(mine))
            builds.append(fenced(
                ctx, calls, lambda: sdm.read(handle, "d", t, back)))
            backs.append(back)
        sdm.finalize(handle)
        return mine, builds, backs

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    for mine, builds, backs in job.values:
        assert builds == ([NPROCS, NPROCS, 0] if spanning
                          else [NPROCS, 0, 0])
        for t, back in enumerate(backs):
            np.testing.assert_allclose(back, mine * 1.0 + t)


def test_warm_plan_hit_submits_the_plans_merged_runs(monkeypatch):
    """A rank reading back its own permutation share: the read plan keeps
    its positions as one merged run, and a warm read (timestep 2 over
    timestep 1's layout, a plan hit) hands
    ``read_runs_at_all`` exactly that run at the new base — one run,
    not one per element."""
    import repro.core.datapath as dp

    builds = count_calls(monkeypatch, dp, "_chunk_positions")
    handed = count_calls(monkeypatch, File, "read_runs_at_all")
    n = 64
    maps = irregular_maps(n=n, seed=5)

    def program(ctx):
        mine = maps[ctx.rank]
        sdm, handle = chunked_group(ctx, mine, n)
        backs = []
        for t in range(3):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        for t in (1, 2):
            back = np.empty(len(mine))
            built = fenced(ctx, builds,
                           lambda: sdm.read(handle, "d", t, back))
            backs.append((built, back))
        (plan,) = sdm.index_cache._plans.values()
        where, chunks, _v = dp.locate_instance(
            ctx.comm, sdm.tables, sdm.runid, "d", 2)
        base = dp._live_chunks(chunks, plan.view.map_sorted)[0].data_offset
        mine_handed = [args[1:] for args in handed
                       if args[0].comm.rank == ctx.rank]
        sdm.finalize(handle)
        return mine, backs, plan, base, mine_handed

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    for mine, backs, plan, base, mine_handed in job.values:
        assert [built for built, _ in backs] == [NPROCS, 0]
        for t, (_, back) in enumerate(backs, start=1):
            np.testing.assert_allclose(back, mine * 1.0 + t)
        assert len(plan.rel) == 1 and plan.rlen[0] == len(mine) * 8
        off, ln = mine_handed[-1]
        assert ln is plan.rlen
        np.testing.assert_array_equal(off, plan.rel + base)


def test_read_plan_rebuilds_once_per_invalidation(monkeypatch):
    """Every ``drop`` shape (a flip publish's whole file, a retreated
    cursor's tail, a recycled extent's range) and a version bump force
    exactly the rebuilds of the plans they cover, once; a drop above
    every plan forces none."""
    import repro.core.datapath as dp

    calls = count_calls(monkeypatch, dp, "_chunk_positions")
    n = 16 * NPROCS
    maps = own_range_maps()

    def program(ctx):
        mine = maps[ctx.rank]
        sdm, handle = chunked_group(ctx, mine, n)
        fname = sdm.write(handle, "d", 0, mine * 1.0)
        sdm.write(handle, "d", 1, mine * 2.0)  # shares t0's index blocks
        back = np.empty(len(mine))

        def read():
            sdm.read(handle, "d", 1, back)

        def rebuilds_after(invalidate):
            invalidate()
            first = fenced(ctx, calls, read)
            return first, fenced(ctx, calls, read)

        where, chunks, version = dp.locate_instance(
            ctx.comm, sdm.tables, sdm.runid, "d", 1)
        out = {
            "cold": rebuilds_after(lambda: None),
            # flip publish: reorganizing t0 drops the whole file
            "flip": rebuilds_after(lambda: sdm.reorganize(handle, "d", 0)),
            # retreated-cursor append: everything from t1's base up
            "cursor": rebuilds_after(
                lambda: sdm.caches.drop(fname, where[1])),
            # first-fit reuse of [0, 8): only rank 0's index block
            "reuse": rebuilds_after(lambda: sdm.caches.drop(fname, 0, 8)),
            "above": rebuilds_after(lambda: sdm.caches.drop(
                fname, sdm.fs.lookup(fname).size)),
        }
        f = File.open(ctx.comm, sdm.fs, fname, MODE_RDONLY)
        out["version"] = (
            fenced(ctx, calls, lambda: dp.read_instance(
                ctx.comm, f, where, chunks, DOUBLE, handle.view("d"),
                sdm.index_cache, version + 1)),
            fenced(ctx, calls, read),  # the old version's plan survives
        )
        f.close()
        sdm.finalize(handle)
        return out, mine, back

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    for out, mine, back in job.values:
        assert out == {
            "cold": (NPROCS, 0), "flip": (NPROCS, 0), "cursor": (NPROCS, 0),
            "reuse": (1, 0), "above": (0, 0), "version": (NPROCS, 0),
        }
        np.testing.assert_allclose(back, mine * 2.0)


def test_canonical_reads_and_writes_flatten_the_view_once(monkeypatch):
    """Three canonical writes and three reads install six file views per
    rank through one data view: its filetype's tile is lowered once."""
    from repro.dtypes import IndexedBlock
    from repro.mpiio import view as view_mod

    calls = count_calls(monkeypatch, view_mod, "_lower")
    maps = own_range_maps()

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CANONICAL)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE,
                                 global_size=16 * NPROCS)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        backs = []
        for t in range(3):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        for t in range(3):
            back = np.empty(len(mine))
            sdm.read(handle, "d", t, back)
            backs.append(back)
        sdm.finalize(handle)
        return mine, backs

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    assert sum(isinstance(args[0], IndexedBlock) for args in calls) == NPROCS
    for mine, backs in job.values:
        for t, back in enumerate(backs):
            np.testing.assert_allclose(back, mine * 1.0 + t)


def test_overlapping_filetype_raises_on_every_set_view():
    """A filetype that fails the view contract is never memoised: every
    install re-validates and raises."""
    from repro.dtypes import IndexedBlock
    from repro.errors import MPIIOError
    from repro.mpiio.consts import MODE_CREATE, MODE_RDWR

    def program(ctx):
        f = File.open(ctx.comm, ctx.service("fs"), "v.dat",
                      MODE_CREATE | MODE_RDWR)
        bad = IndexedBlock(1, [5, 2], DOUBLE)
        for _attempt in range(3):
            with pytest.raises(MPIIOError):
                f.set_view(etype=DOUBLE, filetype=bad)
        assert bad._view_tile is None
        good = IndexedBlock(1, [2, 5], DOUBLE)
        f.set_view(etype=DOUBLE, filetype=good)
        assert good._view_tile is not None
        f.close()

    mpirun(program, 2, machine=fast_test(), services=sdm_services())


def test_first_fit_reuse_drops_a_pinned_readers_plan():
    """Regression for the plan half of the first-fit hazard: a pinned
    reader resolves a dead instance after its flip, the pin's release
    recycles the instance's extent, and the next write lands the same
    layout there at version 0 — same plan key, different index blocks.
    The reuse write's range drop must take the plan with the blocks, or
    the reader's next read through the same view serves the dead
    instance's positions."""
    per = 8

    def bounded_maps(k):
        """Each rank's map holds both ends of its gid range and two
        interior gids picked by ``k``: equal counts and gid bounds, so
        every instance has the same chunk layout and plan key, but
        different (irregular, never shared) index blocks."""
        inner = [0, per - 1, 1 + k, per - 2 - k]
        return [np.array(inner, dtype=np.int64)[::-1] + r * per
                for r in range(NPROCS)]

    maps_a, maps_b, maps_c = (bounded_maps(k) for k in range(3))

    def program(ctx):
        sdm = SDM(ctx, "dp", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED, reorganize_mode="background",
                  snapshot=True)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE,
                                 global_size=per * NPROCS)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps_a[ctx.rank])
        sdm.write(handle, "d", 0, maps_a[ctx.rank] * 1.0)
        sdm.data_view(handle, "d", maps_b[ctx.rank])
        sdm.write(handle, "d", 1, maps_b[ctx.rank] * 2.0)
        sdm.reorganize(handle, "d", 0)   # a worker flips t0 ...
        sdm.drain_maintenance()          # ... and the pin defers its reap
        # One reader view for the whole test, on a group of its own.
        reader = DataGroup(handle.group_id, sdm.runid, handle.datasets)
        share = np.arange(ctx.rank * per, (ctx.rank + 1) * per,
                          dtype=np.int64)
        sdm.data_view(reader, "d", share)
        old = np.empty(per)
        sdm.read(reader, "d", 0, old)    # the pinned epoch: chunked t0
        sdm.pin.release(ctx.comm)        # reaps t0 into a free extent
        sdm.data_view(handle, "d", maps_c[ctx.rank])
        sdm.write(handle, "d", 2, maps_c[ctx.rank] * 3.0)  # recycles it
        fresh = np.empty(per)
        sdm.read(reader, "d", 2, fresh)
        sdm.finalize(handle)
        return share, old, fresh

    job = mpirun(program, NPROCS, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    assert tables.lookup_execution_version(1, "d", 2)[1] == 0  # reused
    for rank, (share, old, fresh) in enumerate(job.values):
        for got, maps, scale in ((old, maps_a, 1.0), (fresh, maps_c, 3.0)):
            want = np.where(np.isin(share, maps[rank]), share * scale, 0.0)
            np.testing.assert_array_equal(got, want)
