"""Property: MVCC snapshots isolate pinned readers from metadata flips.

A ``snapshot=True`` SDM pins the metadata epoch current at initialization.
For random irregular partitions at 1-4 ranks and every organization level,
its reads must be byte-identical before, *interleaved with*, and after
background reorganization and compaction of the very files it is reading —
with no ``drain_maintenance`` and no quiescence contract.  The flips
publish new epochs; the pinned reader keeps resolving (and reading) the
row versions and byte regions of its snapshot.

Overlap is fail-fast, not lost-update: a second writer flipping a file
whose lease is held raises :class:`~repro.errors.SDMLeaseConflict` on
every rank, and the failed flip publishes nothing.

And nothing leaks: once the last pin releases (``finalize``) and a final
compaction pass runs, every file is packed to its live bytes — no
superseded row versions, no dead extents, no stale epochs, no leases, no
pins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services
from repro.core.layout import CHUNKED
from repro.dtypes import DOUBLE
from repro.errors import SDMLeaseConflict
from repro.metadb.schema import OPEN_EPOCH, SDMTables
from repro.mpi import mpirun


@st.composite
def partitions(draw):
    """(global size, per-rank unsorted maps) with every gid covered."""
    nprocs = draw(st.integers(1, 4))
    n = draw(st.integers(nprocs * 2, 24))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cuts = np.sort(
        rng.choice(np.arange(1, n), nprocs - 1, replace=False)
    ) if nprocs > 1 else np.array([], dtype=int)
    maps = [p.astype(np.int64) for p in np.split(perm, cuts)]
    return n, maps


def _read_all(sdm, handle, mine, timesteps):
    out = []
    for t in timesteps:
        back = np.empty(len(mine))
        sdm.read(handle, "d", t, back)
        out.append(back.copy())
    return out


def run_pinned_reader_once(level, n, maps):
    """Pinned reader interleaved with background reorganize + compact of
    the same files; returns its reads from the three phases plus the
    post-release leak audit."""
    nprocs = len(maps)

    def program(ctx):
        sdm = SDM(ctx, "prop", organization=level, storage_order=CHUNKED,
                  reorganize_mode="background", snapshot=True)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(2):
            sdm.write(handle, "d", t, mine * 1.5 + 0.25 + t)
        pre = _read_all(sdm, handle, mine, range(2))
        # Flip the reader's own files out from under it: reorganize t0 to
        # canonical order, then compact the chunked files' dead regions —
        # all on the background workers, no drain before the next reads.
        sdm.reorganize(handle, "d", 0)
        fnames = sorted({
            sdm.checkpoint_file(handle, "d", t, storage_order=CHUNKED)
            for t in range(2)
        })
        for fname in fnames:
            sdm.compact(fname)
        mid = _read_all(sdm, handle, mine, range(2))  # workers in flight
        sdm.drain_maintenance()  # every flip published (new epochs live)
        flipped = sdm.tables.current_epoch(proc=ctx.proc) if ctx.rank == 0 \
            else None
        flipped = ctx.comm.bcast(flipped, root=0)
        post = _read_all(sdm, handle, mine, range(2))  # pin still old
        sdm.finalize(handle)  # releases the last pin, reaps drained rows
        # With no pins left, a sync compaction pass packs in place.
        sdm2 = SDM(ctx, "prop2", organization=level, storage_order=CHUNKED)
        for fname in fnames:
            sdm2.compact(fname, mode="sync")
        sdm2.finalize()
        return pre, mid, post, fnames, flipped

    job = mpirun(program, nprocs, machine=fast_test(),
                 services=sdm_services())
    tables = SDMTables(job.services["db"])
    fs = job.services["fs"]
    reads = [(pre, mid, post) for pre, mid, post, _, _ in job.values]
    fnames = job.values[0][3]
    flipped = job.values[0][4]
    audit = {
        "flipped": flipped,
        "leases": tables.lease_count(),
        "pins": tables.pin_count(),
        "epochs": {
            f: [int(e) for (e,) in tables.db.execute(
                "SELECT epoch FROM epoch_table WHERE file_name = ? "
                "ORDER BY epoch", (f,),
            )]
            for f in fnames
        },
        "free": {f: tables.free_bytes_in(f) for f in fnames},
        "sizes": {f: fs.lookup(f).size if fs.exists(f) else 0
                  for f in fnames},
        "live": {f: sum(r[4] for r in tables.executions_in_file(f))
                 for f in fnames},
        # OPEN_EPOCH is the largest valid_to, so `<` it means "closed".
        "open_versions": {
            f: len(tables.db.execute(
                "SELECT runid FROM execution_table "
                "WHERE file_name = ? AND valid_to < ?",
                (f, OPEN_EPOCH),
            ))
            for f in fnames
        },
    }
    return reads, audit


@settings(max_examples=6, deadline=None)
@given(partitions(), st.sampled_from(list(Organization)))
def test_pinned_reader_is_isolated_from_background_flips(partition, level):
    """Reads pinned on epoch N stay byte-identical while reorganization
    and compaction publish N+1, N+2, ... of the same files — before the
    flips, racing the flips, and after every flip has landed."""
    n, maps = partition
    reads, audit = run_pinned_reader_once(level, n, maps)
    for rank, (pre, mid, post) in enumerate(reads):
        for t in range(2):
            expected = maps[rank] * 1.5 + 0.25 + t
            for phase, got in (("pre", pre), ("mid", mid), ("post", post)):
                np.testing.assert_array_equal(
                    got[t], expected,
                    err_msg=f"pinned read t{t}, rank {rank}, {phase}-flip",
                )
    # The flips really published: the reader was isolated, not the flips
    # suppressed.
    assert audit["flipped"] > 0, audit
    # Zero leaks once the last pin released: no lease, no pin, at most
    # the file's newest epoch on record, no superseded row versions, and
    # every file packed to its live bytes.
    assert audit["leases"] == 0, audit
    assert audit["pins"] == 0, audit
    for fname in audit["epochs"]:
        assert len(audit["epochs"][fname]) <= 1, (fname, audit)
        assert audit["open_versions"][fname] == 0, (fname, audit)
        assert audit["free"][fname] == 0, (fname, audit)
        assert audit["sizes"][fname] == audit["live"][fname], (fname, audit)


def run_lease_conflict_once(n, maps):
    """A rival lease held across a sync flip: every rank must raise
    SDMLeaseConflict, the flip must publish nothing, and the released
    lease must let the same flip succeed."""
    nprocs = len(maps)

    def program(ctx):
        sdm = SDM(ctx, "prop", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.5 + 0.25)
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        if ctx.rank == 0:
            assert sdm.tables.try_acquire_lease(
                fname, "rival-writer", proc=ctx.proc
            )
        ctx.comm.barrier()
        conflicts = 0
        try:
            sdm.reorganize(handle, "d", 0)
        except SDMLeaseConflict:
            conflicts += 1
        try:
            sdm.compact(fname, mode="sync")
        except SDMLeaseConflict:
            conflicts += 1
        epoch_after_conflicts = None
        if ctx.rank == 0:
            epoch_after_conflicts = sdm.tables.current_epoch(proc=ctx.proc)
            sdm.tables.release_lease(fname, "rival-writer", proc=ctx.proc)
        epoch_after_conflicts = ctx.comm.bcast(epoch_after_conflicts, root=0)
        ctx.comm.barrier()
        sdm.reorganize(handle, "d", 0)  # lease free: same flip now lands
        back = np.empty(len(mine))
        sdm.read(handle, "d", 0, back)
        sdm.finalize(handle)
        return conflicts, epoch_after_conflicts, back

    job = mpirun(program, nprocs, machine=fast_test(),
                 services=sdm_services())
    tables = SDMTables(job.services["db"])
    return job.values, tables.lease_count()


@settings(max_examples=6, deadline=None)
@given(partitions())
def test_overlapping_flips_conflict_instead_of_losing_updates(partition):
    n, maps = partition
    values, leases = run_lease_conflict_once(n, maps)
    for rank, (conflicts, epoch_after_conflicts, back) in enumerate(values):
        # Both overlapping flips failed fast, on every rank symmetrically.
        assert conflicts == 2, (rank, conflicts)
        # The failed flips published nothing.
        assert epoch_after_conflicts == 0, epoch_after_conflicts
        np.testing.assert_array_equal(
            back, maps[rank] * 1.5 + 0.25,
            err_msg=f"read after recovered flip, rank {rank}",
        )
    assert leases == 0


def test_zero_row_updates_raise(tmp_path):
    """The silent-lost-update bug class at its root: repointing or
    rebasing an execution row that is not there must raise, not no-op."""
    from repro.errors import SDMStateError
    from repro.metadb.engine import Database

    tables = SDMTables(Database())
    tables.create_all()
    with pytest.raises(SDMStateError):
        tables.update_execution(
            1, "d", 0, "old.chunked", "new.canonical", 0, 8, epoch=1
        )
    tables.record_execution(1, "d", 0, "a.chunked", 0, 8)
    with pytest.raises(SDMStateError):
        # Right key, wrong predecessor version: the close must miss.
        tables.update_execution_offsets(
            [(0, 8, 1, "d", 0, 77)], "a.chunked", epoch=1
        )


# ---------------------------------------------------------------------------
# First-fit extent reuse under churn
# ---------------------------------------------------------------------------

@st.composite
def churn_workloads(draw):
    """A write/flip/release/write churn: some timesteps flipped to
    canonical while a catalog pin holds their chunked rows alive, the
    release-time reap turning them into dead extents, then more writes
    that may recycle those extents first-fit.  ``shared=True`` keeps one
    view for every timestep, so flipped regions strand index blocks still
    referenced by surviving timesteps — the bytes first-fit must never
    hand out."""
    nprocs = draw(st.integers(1, 4))
    n = draw(st.integers(max(4, nprocs * 2), 24))
    seed = draw(st.integers(0, 2**20))
    t_first = draw(st.integers(2, 4))
    flips = draw(st.lists(st.booleans(), min_size=t_first, max_size=t_first))
    shared = draw(st.booleans())
    t_more = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)

    def make_maps(r):
        perm = r.permutation(n)
        cuts = np.sort(
            r.choice(np.arange(1, n), nprocs - 1, replace=False)
        ) if nprocs > 1 else np.array([], dtype=int)
        return [p.astype(np.int64) for p in np.split(perm, cuts)]

    total = t_first + t_more
    if shared:
        maps = [make_maps(rng)] * total
    else:
        maps = [make_maps(rng) for _ in range(total)]
    return n, maps, flips, t_first


@settings(max_examples=8, deadline=None)
@given(churn_workloads(), st.sampled_from(list(Organization)))
def test_first_fit_reuse_never_overlaps_live_or_pinned_bytes(
    workload, level
):
    """Safety of extent recycling: across random churn every read — the
    pinned catalog's, the writer's, and the catalog's post-release reads
    at current visibility — stays byte-exact, and no two execution-row
    versions visible at a common epoch ever occupy overlapping bytes of
    one file (a first-fit placement over live or pinned bytes would
    violate one of the two)."""
    from repro.core.catalog import SDMCatalog

    n, maps, flips, t_first = workload
    nprocs = len(maps[0])
    total = len(maps)

    def program(ctx):
        sdm = SDM(ctx, "prop", organization=level, storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        for t in range(t_first):
            m = maps[t][ctx.rank]
            sdm.data_view(handle, "d", m)
            sdm.write(handle, "d", t, m * 1.5 + t)
        catalog = SDMCatalog.attach(ctx)     # pins the pre-flip epoch
        for t, flip in enumerate(flips):
            if flip:
                sdm.reorganize(handle, "d", t)  # pin defers the reap
        lo = n * ctx.rank // ctx.size
        hi = n * (ctx.rank + 1) // ctx.size
        share = np.arange(lo, hi, dtype=np.int64)
        pinned = [
            catalog.read_slice(1, "d", t, share) for t in range(t_first)
        ]
        catalog.release()  # reap: flipped regions become dead extents
        for t in range(t_first, total):
            m = maps[t][ctx.rank]
            sdm.data_view(handle, "d", m)
            sdm.write(handle, "d", t, m * 1.5 + t)  # may recycle extents
        mine = []
        for t in range(total):
            m = maps[t][ctx.rank]
            sdm.data_view(handle, "d", m)
            back = np.empty(len(m))
            sdm.read(handle, "d", t, back)
            mine.append(back.copy())
        current = [
            catalog.read_slice(1, "d", t, share) for t in range(total)
        ]
        sdm.finalize(handle)
        return share, pinned, mine, current

    job = mpirun(program, nprocs, machine=fast_test(),
                 services=sdm_services())
    for rank, (share, pinned, mine, current) in enumerate(job.values):
        for t in range(total):
            if t < t_first:
                np.testing.assert_array_equal(
                    pinned[t], share * 1.5 + t,
                    err_msg=f"pinned read t{t}, rank {rank}",
                )
            np.testing.assert_array_equal(
                mine[t], maps[t][rank] * 1.5 + t,
                err_msg=f"writer read t{t}, rank {rank}",
            )
            np.testing.assert_array_equal(
                current[t], share * 1.5 + t,
                err_msg=f"current-epoch read t{t}, rank {rank}",
            )
    # No two row versions visible at a common epoch occupy overlapping
    # bytes of one file — live rows, pinned-epoch rows, recycled rows.
    tables = SDMTables(job.services["db"])
    rows = tables.db.execute(
        "SELECT file_name, file_offset, nbytes, valid_from, valid_to "
        "FROM execution_table"
    )
    by_file = {}
    for fname, off, nbytes, vf, vt in rows:
        by_file.setdefault(fname, []).append(
            (int(off), int(off) + int(nbytes), int(vf), int(vt))
        )
    for fname, regions in by_file.items():
        for i, (lo1, hi1, vf1, vt1) in enumerate(regions):
            for lo2, hi2, vf2, vt2 in regions[i + 1:]:
                covisible = max(vf1, vf2) < min(vt1, vt2)
                disjoint = hi1 <= lo2 or hi2 <= lo1
                assert not covisible or disjoint, (fname, regions)
