"""Property: storage orders are observationally equivalent on reads.

For random irregular partitions (unsorted rank maps, optional ghost
overlaps with agreeing values), random rank counts, and every file
organization level, ``SDM.read`` must return identical arrays whether the
instance was written canonically, chunked, or chunked and then
``reorganize()``d — and a whole-array read of the file must see global
element order in the canonical and reorganized cases.

The read path's run coalescer is part of the property surface: every
example also runs under a drawn ``coalesce_gap`` hint (0 / small / huge /
adaptive), so per-element, adjacent-merged, maximally gap-bridged, and
self-tuned reads must all return the same bytes.  The adaptive dimension
is the policy tier's read-equivalence guarantee: a derived gap only ever
changes which hole bytes are read-and-discarded, never the result.

The maintenance dimension extends the same property behind the service
tier: writing chunked, *enqueueing* reorganization and compaction on the
background workers, draining, and reading must also be byte-identical —
with the compacted file's recorded free bytes at zero.

The read-plan dimension holds every plan-served chunked read to a cold
resolve of the same instance at the same epoch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services
from repro.core.layout import CANONICAL, CHUNKED
from repro.dtypes import DOUBLE
from repro.metadb.schema import SDMTables
from repro.mpi import mpirun
from repro.mpiio.runs import ADAPTIVE_GAP


@st.composite
def partitions(draw):
    """(global size, per-rank unsorted maps) with every gid covered, plus
    optional cross-rank ghost duplicates."""
    nprocs = draw(st.integers(1, 4))
    n = draw(st.integers(nprocs * 2, 24))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cuts = np.sort(
        rng.choice(np.arange(1, n), nprocs - 1, replace=False)
    ) if nprocs > 1 else np.array([], dtype=int)
    maps = [p.astype(np.int64) for p in np.split(perm, cuts)]
    if draw(st.booleans()) and nprocs > 1:
        # Ghosts: each rank also writes one gid owned by the next rank.
        maps = [
            np.concatenate([m, maps[(r + 1) % nprocs][:1]])
            for r, m in enumerate(maps)
        ]
    return n, maps


def run_once(order, level, n, maps, reorganize, io_hints=None):
    nprocs = len(maps)

    def program(ctx):
        sdm = SDM(ctx, "prop", organization=level, storage_order=order,
                  io_hints=io_hints)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.5 + 0.25)  # value = f(gid): ghosts agree
        if reorganize:
            sdm.reorganize(handle, "d", 0)
        back = np.empty(len(mine))
        sdm.read(handle, "d", 0, back)
        # A second, foreign view: this rank's even share of the globe.
        lo = n * ctx.rank // ctx.size
        hi = n * (ctx.rank + 1) // ctx.size
        share = np.arange(lo, hi, dtype=np.int64)
        sdm.data_view(handle, "d", share)
        whole = np.empty(len(share))
        sdm.read(handle, "d", 0, whole)
        sdm.finalize(handle)
        return back, whole

    job = mpirun(program, nprocs, machine=fast_test(), services=sdm_services())
    backs = [b for b, _ in job.values]
    whole = np.concatenate([w for _, w in job.values])
    return backs, whole


@settings(max_examples=12, deadline=None)
@given(
    partitions(),
    st.sampled_from(list(Organization)),
    st.sampled_from([0, 16, 1 << 30, ADAPTIVE_GAP]),
)
def test_read_equivalence_across_storage_orders(partition, level, gap):
    """Byte-identical reads across every storage order — at every
    coalescing aggressiveness: gap 0 (merge only adjacent runs), a small
    gap (bridge element-sized holes), a huge gap (one covering run per
    read, maximal read-and-discard), and the adaptive sentinel (each
    read derives its own gap from its hole distribution)."""
    n, maps = partition
    hints = {"coalesce_gap": gap}
    expected_global = np.arange(n) * 1.5 + 0.25
    results = {
        variant: run_once(order, level, n, maps, reorganize, io_hints=hints)
        for variant, (order, reorganize) in {
            "canonical": (CANONICAL, False),
            "chunked": (CHUNKED, False),
            "reorganized": (CHUNKED, True),
        }.items()
    }
    for variant, (backs, whole) in results.items():
        for rank, back in enumerate(backs):
            np.testing.assert_allclose(
                back, maps[rank] * 1.5 + 0.25,
                err_msg=f"{variant} read-after-write, rank {rank}, gap {gap}",
            )
        np.testing.assert_allclose(
            whole, expected_global,
            err_msg=f"{variant} global read, gap {gap}",
        )


def run_maintenance_once(level, n, maps):
    """Two chunked timesteps; t0 reorganized and the file compacted on
    the background workers; reads after the drain."""
    nprocs = len(maps)

    def program(ctx):
        sdm = SDM(ctx, "prop", organization=level, storage_order=CHUNKED,
                  reorganize_mode="background")
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(2):
            sdm.write(handle, "d", t, mine * 1.5 + 0.25 + t)
        sdm.reorganize(handle, "d", 0)  # enqueued
        fnames = sorted({
            sdm.checkpoint_file(handle, "d", t, storage_order=CHUNKED)
            for t in range(2)
        })
        for fname in fnames:  # queued behind the reorganize
            sdm.compact(fname)
        sdm.drain_maintenance()
        backs = []
        for t in range(2):
            back = np.empty(len(mine))
            sdm.read(handle, "d", t, back)
            backs.append(back)
        # A foreign view crossing every chunk of the compacted file.
        lo = n * ctx.rank // ctx.size
        hi = n * (ctx.rank + 1) // ctx.size
        share = np.arange(lo, hi, dtype=np.int64)
        sdm.data_view(handle, "d", share)
        whole = np.empty(len(share))
        sdm.read(handle, "d", 1, whole)
        sdm.finalize(handle)
        return backs, whole, fnames

    job = mpirun(program, nprocs, machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    fs = job.services["fs"]
    backs = [b for b, _, _ in job.values]
    whole = np.concatenate([w for _, w, _ in job.values])
    fnames = job.values[0][2]
    free = {f: tables.free_bytes_in(f) for f in fnames}
    sizes = {f: fs.lookup(f).size if fs.exists(f) else 0 for f in fnames}
    live = {
        f: sum(r[4] for r in tables.executions_in_file(f)) for f in fnames
    }
    return backs, whole, free, sizes, live


@settings(max_examples=8, deadline=None)
@given(partitions(), st.sampled_from(list(Organization)))
def test_background_maintenance_preserves_reads_and_zeroes_extents(
    partition, level
):
    n, maps = partition
    backs, whole, free, sizes, live = run_maintenance_once(level, n, maps)
    for t in range(2):
        for rank, back in enumerate(b[t] for b in backs):
            np.testing.assert_allclose(
                back, maps[rank] * 1.5 + 0.25 + t,
                err_msg=f"maintenance read t{t}, rank {rank}",
            )
    np.testing.assert_allclose(
        whole, np.arange(n) * 1.5 + 1.25, err_msg="maintenance global read"
    )
    for fname in free:
        assert free[fname] == 0, (fname, free)
        assert sizes[fname] == live[fname], (fname, sizes, live)


# ---------------------------------------------------------------------------
# Collective index resolution
# ---------------------------------------------------------------------------

@st.composite
def chunk_mixes(draw):
    """(global size, per-rank maps) with a drawn mix of chunk kinds:
    contiguous blocks and strided progressions (arithmetic chunks, no
    index block on disk) and random subsets (indexed chunks) — the three
    on-disk shapes collective resolution must agree with local
    resolution on."""
    nprocs = draw(st.integers(1, 8))
    n = draw(st.integers(8, 48))
    seed = draw(st.integers(0, 2**20))
    kinds = draw(st.lists(
        st.sampled_from(["block", "stride", "irregular"]),
        min_size=nprocs, max_size=nprocs,
    ))
    rng = np.random.default_rng(seed)
    maps = []
    for kind in kinds:
        count = int(rng.integers(2, max(3, n // 2)))
        if kind == "block":
            start = int(rng.integers(0, n - count + 1))
            m = np.arange(start, start + count)
        elif kind == "stride":
            step = int(rng.integers(2, 4))
            count = min(count, 1 + (n - 1) // step)
            start = int(rng.integers(0, n - step * (count - 1)))
            m = start + step * np.arange(count)
        else:
            m = rng.choice(n, size=count, replace=False)
        maps.append(np.asarray(m, dtype=np.int64))
    return n, maps


@settings(max_examples=10, deadline=None)
@given(chunk_mixes(), st.sampled_from(list(Organization)))
def test_collective_resolution_matches_local_resolution(mix, level):
    """Positions resolved against ``acquire_index_blocks`` (index blocks
    dealt across ranks and shipped over alltoallv) must be byte-identical
    to the pure ``_chunk_positions`` over purely locally fetched blocks —
    for every rank count 1-8, every organization level, arithmetic/
    indexed/mixed chunks, and wanted sets including foreign shares and
    empty participants — cold, warm, and from a cache carried across wanted
    sets (some blocks hit, some dealt).  On counts: a cold round reads
    every block some rank needs exactly once job-wide, a warm round reads
    no index byte and issues no ``alltoallv``."""
    from repro.core.resolve import (
        IndexBlockCache, _chunk_positions, _fetch_index_blocks,
        acquire_index_blocks, locate_instance,
    )
    from repro.mpiio.consts import MODE_RDONLY
    from repro.mpiio.file import File

    n, maps = mix
    nprocs = len(maps)

    def program(ctx):
        sdm = SDM(ctx, "prop", organization=level, storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 2.0 + 0.5)
        where, chunks, version = locate_instance(
            ctx.comm, sdm.tables, sdm.runid, "d", 0
        )
        f = File.open(ctx.comm, ctx.service("fs"), where[0], MODE_RDONLY)
        fs, transport = ctx.service("fs"), ctx.comm.transport
        blocks = sorted({ch.block for ch in chunks if ch.block})

        def resolve(wanted, cache):
            return _chunk_positions(chunks, acquire_index_blocks(
                ctx.comm, f, chunks, wanted, cache, version
            ), DOUBLE.size, wanted)

        def counted(cache, wanted):
            """One collective round and its job-wide (index bytes read,
            alltoallv calls), barrier-fenced on both sides."""
            ctx.comm.barrier()
            b0 = fs.index_bytes_read
            a0 = transport.coll_counts.get("alltoallv", 0)
            ctx.comm.barrier()
            pos = resolve(wanted, cache)
            ctx.comm.barrier()
            io = (fs.index_bytes_read - b0,
                  transport.coll_counts.get("alltoallv", 0) - a0)
            ctx.comm.barrier()
            return pos, io

        lo = n * ctx.rank // ctx.size
        hi = n * (ctx.rank + 1) // ctx.size
        wanteds = [
            np.sort(mine),                        # this rank's own elements
            np.arange(lo, hi, dtype=np.int64),    # a foreign share
            # Odd ranks sit a round out entirely: collective resolution
            # must tolerate empty-wanted participants.
            np.sort(mine) if ctx.rank % 2 == 0
            else np.empty(0, dtype=np.int64),
        ]
        out = []
        carried = IndexBlockCache()
        for wanted in wanteds:
            local = _chunk_positions(
                chunks,
                _fetch_index_blocks(f, blocks, IndexBlockCache(), version),
                DOUBLE.size, wanted,
            )
            fresh = IndexBlockCache()
            cold, cold_io = counted(fresh, wanted)
            warm, warm_io = counted(fresh, wanted)
            mixed = resolve(wanted, carried)
            needed = {
                ch.block for ch in chunks
                if ch.block and len(wanted)
                and ch.gid_max >= wanted[0] and ch.gid_min <= wanted[-1]
            }
            out.append((local, cold, warm, mixed, cold_io, warm_io, needed))
        f.close()
        sdm.finalize(handle)
        return blocks, out

    job = mpirun(program, nprocs, machine=fast_test(),
                 services=sdm_services())
    blocks = job.values[0][0]
    instance_index_bytes = sum(count * 8 for _off, count in blocks)
    for v in range(3):
        per_rank = [out[v] for _blocks, out in job.values]
        needed = set().union(*(r[6] for r in per_rank))
        for rank, (local, cold, warm, mixed, cold_io, warm_io, _n) in (
            enumerate(per_rank)
        ):
            label = f"rank {rank} variant {v}"
            np.testing.assert_array_equal(
                cold, local, err_msg=f"cold collective vs local, {label}"
            )
            np.testing.assert_array_equal(
                warm, local, err_msg=f"warm collective vs local, {label}"
            )
            np.testing.assert_array_equal(
                mixed, local, err_msg=f"carried cache vs local, {label}"
            )
            # Each needed block is read exactly once job-wide, cold ...
            assert cold_io[0] == sum(c * 8 for _o, c in needed), label
            # ... and the warm round is pure cache hits.
            assert warm_io == (0, 0), label
        if v < 2:  # own elements and a covering partition touch them all
            assert per_rank[0][4][0] == instance_index_bytes


# ---------------------------------------------------------------------------
# Read plans: a plan-served read is a cold resolve
# ---------------------------------------------------------------------------

def run_plan_once(level, n, maps, pinned):
    """Three chunked timesteps through one view; every ``SDM.read`` is
    paired with a cold read of the same instance at the same epoch
    (``read_instance`` over its own handle and a fresh cache: resolved
    afresh, no plan served).  Returns per rank the (label, served bytes,
    cold bytes) pairs and the job-wide ``_chunk_positions`` calls per
    step."""
    from unittest import mock

    import repro.core.resolve as dp
    from repro.mpiio.consts import MODE_RDONLY
    from repro.mpiio.file import File

    nprocs = len(maps)
    real = dp._chunk_positions
    with mock.patch.object(dp, "_chunk_positions", side_effect=real) as cp:

        def program(ctx):
            sdm = SDM(ctx, "plan", organization=level, storage_order=CHUNKED,
                      reorganize_mode="background", snapshot=pinned)
            result = sdm.make_datalist(["d"])
            sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
            handle = sdm.set_attributes(result)
            mine = maps[ctx.rank]
            sdm.data_view(handle, "d", mine)
            for t in range(3):
                sdm.write(handle, "d", t, mine * 1.5 + 0.25 + t)
            pairs, builds = [], []

            def cold(t, view):
                where, chunks, version = dp.locate_instance(
                    ctx.comm, sdm.tables, sdm.runid, "d", t,
                    epoch=sdm.pin.epoch,
                )
                f = File.open(ctx.comm, sdm.fs, where[0], MODE_RDONLY)
                out = dp.read_instance(ctx.comm, f, where, chunks, DOUBLE,
                                       view, dp.IndexBlockCache(), version)
                f.close()
                return out

            def both(label, t):
                view = handle.view("d")
                served = np.empty(view.local_count)
                ctx.comm.barrier()
                before = cp.call_count
                ctx.comm.barrier()
                sdm.read(handle, "d", t, served)
                ctx.comm.barrier()
                builds.append((label, cp.call_count - before))
                ctx.comm.barrier()
                pairs.append((label, served.tobytes(),
                              cold(t, view).tobytes()))

            # t -> t + 1 over shared blocks, then warm repeats
            for t in range(3):
                both(f"t{t}", t)
            for t in (1, 2):
                both(f"t{t} again", t)
            # a reorganize and a compaction flip between reads
            sdm.reorganize(handle, "d", 0)
            for fname in sdm.chunked_checkpoint_files(handle, range(3)):
                sdm.compact(fname)
            sdm.drain_maintenance()
            for t in range(3):
                both(f"flipped t{t}", t)
            # a re-installed view never hits the old view's plan
            sdm.data_view(handle, "d", mine)
            both("reinstalled", 2)
            both("reinstalled again", 2)
            # a foreign view over holes and every writer's chunk
            lo = n * ctx.rank // ctx.size
            hi = n * (ctx.rank + 1) // ctx.size
            sdm.data_view(handle, "d", np.arange(lo, hi, dtype=np.int64))
            both("foreign", 1)
            both("foreign again", 1)
            sdm.finalize(handle)
            return mine, pairs, builds

        job = mpirun(program, nprocs, machine=fast_test(),
                     services=sdm_services())
    return job.values


@settings(max_examples=8, deadline=None)
@given(chunk_mixes(), st.sampled_from(list(Organization)), st.booleans())
def test_plan_served_reads_match_cold_resolution(mix, level, pinned):
    """A plan-served chunked read is byte-identical to a cold resolve
    across overlapping writers and holes (random subsets of a wider gid
    range), arithmetic / indexed / mixed chunks, a t -> t + 1 rebase over
    shared index blocks, a reorganize and a compaction flip between reads,
    a reader pinned on the pre-flip epoch, a re-installed view and a
    foreign one.  On counts: a repeat read with nothing invalidated
    resolves nothing, timestep 2 rebases timestep 1's plan (levels 2 and
    3 share the blocks), and a re-installed view resolves afresh on
    every rank."""
    n, maps = mix
    nprocs = len(maps)
    for rank, (mine, pairs, builds) in enumerate(
            run_plan_once(level, n, maps, pinned)):
        for label, served, cold in pairs:
            assert served == cold, f"rank {rank} {label}"
            if label == "t1":
                np.testing.assert_array_equal(
                    np.frombuffer(served), mine * 1.5 + 1.25)
        counts = dict(builds)
        shared = level != Organization.LEVEL_1
        assert counts["t2"] == (0 if shared else nprocs), builds
        for label in ("t1 again", "t2 again", "reinstalled again",
                      "foreign again"):
            assert counts[label] == 0, (label, builds)
        assert counts["reinstalled"] == nprocs, builds
