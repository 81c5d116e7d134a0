"""The self-tuning policy tier: the one ``policy`` switch, read-count
promotion, hint validation, and the two closed loops driving real SDM
runs end to end."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services
from repro.core.layout import CHUNKED
from repro.core import policy
from repro.core.policy import (
    ADAPTIVE,
    ADAPTIVE_GAP,
    MaintenancePolicy,
    STATIC,
)
from repro.dtypes import DOUBLE
from repro.metadb.schema import SDMTables
from repro.mpi import mpirun
from repro.mpiio.hints import accepted_hints, resolve_hints, validate_hints
from repro.mpiio.runs import COALESCE_WASTE, adaptive_gap

NPROCS = 4
GLOBAL = 32


def irregular_maps(nprocs=NPROCS, n=GLOBAL, seed=5):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), nprocs - 1, replace=False))
    return [p.astype(np.int64) for p in np.split(perm, cuts)]


# ---------------------------------------------------------------------------
# MaintenancePolicy: read-count promotion
# ---------------------------------------------------------------------------


def test_promotion_fires_exactly_once_at_nth_read():
    pol = MaintenancePolicy()
    key = (7, "d", 0)
    for _ in range(policy.PROMOTE_READS - 1):
        assert not pol.note_chunked_read(key)
    assert pol.note_chunked_read(key)
    assert pol._read_counts == {}            # the count left with the key
    assert not pol.note_chunked_read(key)    # promoted: never again
    assert pol.n_promotions == 1
    assert pol._read_counts == {}
    assert pol.note_chunked_read((7, "d", 1)) is False  # independent keys


# ---------------------------------------------------------------------------
# The one switch
# ---------------------------------------------------------------------------


def test_policy_config_resolution():
    """``SDM(policy=...)`` takes None / "static" / "adaptive" and nothing
    else; adaptive installs the gap sentinel and the promotion counter,
    an explicit ``coalesce_gap`` hint wins over the sentinel."""

    def program(ctx):
        seen = []
        for spec in (None, STATIC, ADAPTIVE):
            sdm = SDM(ctx, "pol", policy=spec)
            seen.append((sdm.policy, sdm.io_hints,
                         isinstance(sdm._maint_policy, MaintenancePolicy)))
            sdm.finalize()
        sdm = SDM(ctx, "pol", policy=ADAPTIVE, io_hints={"coalesce_gap": 64})
        seen.append(sdm.io_hints)
        sdm.finalize()
        for spec in ("sometimes", 42):
            with pytest.raises(ValueError, match="'static' or 'adaptive'"):
                SDM(ctx, "pol", policy=spec)
        return seen

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    for seen in job.values:
        assert seen == [
            (STATIC, None, False),
            (STATIC, None, False),
            (ADAPTIVE, {"coalesce_gap": ADAPTIVE_GAP}, True),
            {"coalesce_gap": 64},
        ]


# ---------------------------------------------------------------------------
# io_hints validation (SDM / SDMCatalog entry points)
# ---------------------------------------------------------------------------


def test_validate_hints_rejects_unknown_and_nonsense():
    validate_hints(None)
    validate_hints({"coalesce_gap": ADAPTIVE_GAP})
    with pytest.raises(KeyError, match="accepted hints"):
        validate_hints({"colaesce_gap": 64})
    with pytest.raises(ValueError, match="coalesce_gap"):
        validate_hints({"coalesce_gap": -7})
    with pytest.raises(KeyError, match="accepted hints"):
        validate_hints({"coalesce_waste": 0.5})  # a constant, not a hint
    assert "coalesce_gap" in accepted_hints()


def test_sdm_entry_points_validate_hints():
    def program(ctx):
        outcomes = []
        for hints in ({"cb_bufer_size": 1}, {"coalesce_gap": -9}):
            try:
                SDM(ctx, "bad", io_hints=hints)
                outcomes.append("accepted")
            except (KeyError, ValueError) as e:
                outcomes.append(type(e).__name__)
        sdm = SDM(ctx, "ok", io_hints={"coalesce_gap": 64})
        sdm.finalize()
        return outcomes

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert all(v == ["KeyError", "ValueError"] for v in job.values)


def test_hints_from_machine_carries_adaptive_sentinel():
    m = fast_test()
    h = resolve_hints(m, {"coalesce_gap": ADAPTIVE_GAP})
    assert h.coalesce_gap == ADAPTIVE_GAP
    assert resolve_hints(m).coalesce_gap == 0  # default unchanged
    assert m.collective_io.coalesce_gap == 0  # the machine's is not touched


def test_adaptive_gap_spends_at_most_the_waste_budget():
    """Bridging is bought hole size by hole size, smallest first, while
    the bridged bytes stay within COALESCE_WASTE of the payload."""
    lengths = np.full(5, 200)                  # payload 1000 bytes
    budget = int(COALESCE_WASTE * lengths.sum())
    small, big = budget // 4, budget           # 2 small + 1 big > budget
    offsets = np.cumsum([0, 200 + small, 200 + small, 200 + big, 200])
    assert adaptive_gap(offsets, lengths) == small
    # One small hole fewer and the big one fits exactly: bridge it too.
    offsets = np.cumsum([0, 200, 200, 200 + big, 200])
    assert adaptive_gap(offsets, lengths) == big
    # max_gap caps the choice regardless of budget.
    assert adaptive_gap(offsets, lengths, max_gap=big - 1) == 0


def test_adaptive_chunked_read_spends_the_waste_budget_once():
    """End to end: a chunked collective read under ADAPTIVE_GAP bridges
    at most COALESCE_WASTE of its payload.  The hole mix is the one a
    second coalescing pass would escalate on: the 8-byte holes fit the
    budget, the 16-byte holes do not — unless a second pass re-derives a
    fresh budget over the already-bridged runs and buys them as well
    (10 % + 22 % = 32 % bridged)."""
    per_rank, esize = 512, DOUBLE.size
    # 37 stretches of wanted elements separated by 17 one-element and 19
    # two-element holes: 170 elements, 136 + 304 hole bytes.
    skips = [1, 2] * 17 + [2, 2]
    wanted, cursor = [], 0
    for i, skip in enumerate(skips + [0]):
        n = 5 if i < 22 else 4
        wanted.extend(range(cursor, cursor + n))
        cursor += n + skip
    wanted = np.array(wanted, dtype=np.int64)
    payload = len(wanted) * esize
    assert len(wanted) == 170 and cursor <= per_rank
    assert 17 * 8 <= COALESCE_WASTE * payload < 17 * 8 + 19 * 16

    def program(ctx):
        sdm = SDM(ctx, "waste", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED,
                  io_hints={"coalesce_gap": ADAPTIVE_GAP})
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE,
                                 global_size=NPROCS * per_rank)
        handle = sdm.set_attributes(result)
        # Dense blocks: arithmetic chunks, so the read is data bytes only.
        mine = np.arange(per_rank, dtype=np.int64) + ctx.rank * per_rank
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)
        holey = wanted + ctx.rank * per_rank
        sdm.data_view(handle, "d", holey)
        ctx.comm.barrier()
        before = sdm.fs.data_bytes_read
        back = np.empty(len(holey))
        sdm.read(handle, "d", 0, back)
        ctx.comm.barrier()
        read = sdm.fs.data_bytes_read - before
        sdm.finalize(handle)
        return holey, back, read

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=sdm_services())
    for holey, back, read in job.values:
        np.testing.assert_array_equal(back, holey * 1.0)
        bridged = read - NPROCS * payload
        assert 0 < bridged <= COALESCE_WASTE * NPROCS * payload


# ---------------------------------------------------------------------------
# Closed loops end to end
# ---------------------------------------------------------------------------


def _policy_program(maps, n=GLOBAL, reads=3):
    """One chunked write, then ``reads`` read-backs of it under an
    adaptive policy."""

    def program(ctx):
        sdm = SDM(ctx, "pol", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED, reorganize_mode="background",
                  policy=ADAPTIVE)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)
        backs = []
        for _ in range(reads):
            back = np.empty(len(mine))
            sdm.read(handle, "d", 0, back)
            backs.append(back)
        sdm.drain_maintenance()
        promotions = sdm._maint_policy.n_promotions
        after = np.empty(len(mine))
        sdm.read(handle, "d", 0, after)
        sdm.finalize(handle)
        return backs, after, promotions

    return program


def test_adaptive_policy_promotes_hot_chunked_instance():
    """The Nth collective read of a still-chunked instance must enqueue
    its background reorganization; after the drain the instance serves
    canonically and every read (before, at, after the flip) agrees."""
    maps = irregular_maps()
    job = mpirun(_policy_program(maps, reads=3), NPROCS,
                 machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    for rank, (backs, after, promotions) in enumerate(job.values):
        assert promotions == 1
        for back in backs + [after]:
            np.testing.assert_allclose(back, maps[rank] * 1.0)
    # The background flip landed: the instance's chunk rows are gone.
    assert tables.chunks_for(1, "d", 0) == []


def test_adaptive_policy_stays_chunked_below_promotion_threshold():
    # One read + the post-drain read-back = 2 total, below the default
    # promote_reads=3: the instance must still be chunked at job end.
    maps = irregular_maps()
    job = mpirun(_policy_program(maps, reads=1), NPROCS,
                 machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    assert all(v[2] == 0 for v in job.values)
    assert tables.chunks_for(1, "d", 0) != []


# ---------------------------------------------------------------------------
# Counter snapshot API (FileSystem.stats / Transport.stats)
# ---------------------------------------------------------------------------


def test_stats_snapshot_and_reset():
    maps = irregular_maps()

    def program(ctx):
        sdm = SDM(ctx, "st", storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps[ctx.rank])
        sdm.write(handle, "d", 0, maps[ctx.rank] * 1.0)
        sdm.finalize(handle)
        return ctx.comm.transport.stats()

    job = mpirun(program, NPROCS, machine=fast_test(),
                 services=sdm_services())
    tstats = job.values[0]
    assert tstats["coll_counts"].get("bcast", 0) > 0
    fs = job.services["fs"]
    snap = fs.stats(reset=True)
    assert snap["bytes_written"] > 0
    assert snap["n_opens"] > 0
    assert fs.bytes_written == 0 and fs.n_requests == 0
    assert fs.stats()["bytes_written"] == 0


def test_transport_stats_reset_copies_dicts():
    maps = irregular_maps(nprocs=2)

    def program(ctx):
        sdm = SDM(ctx, "st2", storage_order=CHUNKED)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", maps[ctx.rank])
        sdm.write(handle, "d", 0, maps[ctx.rank] * 1.0)
        # The transport is one job-shared service: rank 0 owns the
        # counter window (a second reset would race it).
        snap = None
        if ctx.rank == 0:
            snap = ctx.comm.transport.stats(reset=True)
            snap["coll_counts"]["bcast"] = -1  # mutating the snapshot...
        sdm.finalize(handle)
        live = ctx.comm.transport.stats() if ctx.rank == 0 else None
        return snap, live

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    snap, live = job.values[0]
    assert snap["coll_counts"]["bcast"] == -1  # our mutation stuck to snap
    assert snap["coll_counts"].get("barrier", 0) > 0
    # ...but never leaked into the live counters, which restarted from 0
    # at the reset and only saw the post-reset traffic (finalize's
    # barrier at least; never our poisoned -1).
    assert live["coll_counts"].get("bcast", 0) >= 0
    assert live["coll_counts"].get("barrier", 0) > 0
