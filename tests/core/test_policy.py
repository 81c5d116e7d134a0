"""The self-tuning policy tier: planner calibration convergence,
maintenance trigger hysteresis, rate-limit backoff, hint validation,
and the closed loops driving real SDM runs end to end."""

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
    PlannerCalibration,
    PolicyConfig,
    STATIC,
)
from repro.dtypes import DOUBLE
from repro.metadb.schema import SDMTables
from repro.mpi import mpirun
from repro.mpiio.hints import Hints, accepted_hints, validate_hints
from repro.mpiio.runs import COALESCE_WASTE, adaptive_gap

NPROCS = 4
GLOBAL = 32


def irregular_maps(nprocs=NPROCS, n=GLOBAL, seed=5):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), nprocs - 1, replace=False))
    return [p.astype(np.int64) for p in np.split(perm, cuts)]


# ---------------------------------------------------------------------------
# PlannerCalibration
# ---------------------------------------------------------------------------


def test_calibration_converges_to_observed_ratio():
    """Feeding timings where a slice candidate costs half a hash
    candidate must pull slice_row_cost from the static 2.0 toward 0.5."""
    cal = PlannerCalibration()
    assert cal.slice_row_cost == 2.0  # static default until measured
    for _ in range(policy.CALIBRATION_EXPLORE_OBS + 8):
        cal.observe("hash", rows=100, seconds=100 * 1e-6)
        cal.observe("slice", rows=100, seconds=100 * 0.5e-6)
    assert cal.converged
    assert cal.slice_row_cost == pytest.approx(0.5, rel=0.05)


def test_calibration_ignores_noise_floor_and_frozen():
    cal = PlannerCalibration()
    cal.observe("hash", rows=policy.CALIBRATION_MIN_ROWS - 1, seconds=1.0)
    cal.observe("hash", rows=64, seconds=0.0)      # timer floor
    assert cal.observations("hash") == 0
    cal.freeze()
    cal.observe("hash", rows=64, seconds=1.0)
    assert cal.observations("hash") == 0
    assert cal.frozen


def test_calibration_explores_starved_path_then_stops():
    cal = PlannerCalibration()
    # Cost model says hash; slice has no observations yet -> explore.
    assert cal.decide(False) is True
    for _ in range(policy.CALIBRATION_EXPLORE_OBS - 1):
        cal.observe("slice", rows=64, seconds=1e-4)
        cal.observe("hash", rows=64, seconds=1e-4)
    # One observation short of the threshold: still exploring.
    assert cal.decide(False) is True
    cal.observe("slice", rows=64, seconds=1e-4)
    cal.observe("hash", rows=64, seconds=1e-4)
    # Both paths known: the cost model's pick stands from here on.
    explored = cal.n_explored
    assert cal.decide(False) is False
    assert cal.decide(True) is True
    assert cal.n_explored == explored


def test_calibration_snapshot_round_trip_plans_identically():
    cal = PlannerCalibration()
    for _ in range(16):
        cal.observe("hash", rows=100, seconds=1e-4)
        cal.observe("slice", rows=100, seconds=3e-4)
    frozen = PlannerCalibration.from_snapshot(cal.snapshot())
    assert frozen.frozen
    assert frozen.slice_row_cost == pytest.approx(cal.slice_row_cost)
    assert frozen.decide(True) is True       # no exploration when frozen
    frozen.observe("hash", rows=100, seconds=9.9)  # and no learning
    assert frozen.slice_row_cost == pytest.approx(cal.slice_row_cost)


def test_adaptive_planner_attaches_one_shared_calibration():
    def program(ctx):
        sdm = SDM(ctx, "pol", policy=ADAPTIVE)
        shared = sdm.planner_calibration is sdm.db.planner_calibration
        sdm.finalize()
        return shared

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert all(job.values)
    assert job.services["db"].planner_calibration is not None


def test_planner_snapshot_installs_frozen_calibration():
    """The documented reproducibility path: a PolicyConfig carrying a
    planner snapshot makes SDM plan with exactly those constants —
    statements the job issues are observed by nobody."""
    snap = {"probe_cost": 1.0, "slice_row_cost": 0.75}

    def program(ctx):
        sdm = SDM(ctx, "pol", policy=PolicyConfig(
            planner=ADAPTIVE, planner_snapshot=snap))
        cal = sdm.planner_calibration
        cal.observe("hash", rows=1000, seconds=1.0)
        cal.observe("slice", rows=1000, seconds=9.0)
        sdm.finalize()
        return (cal.frozen, cal.snapshot(), cal.observations("hash"),
                cal.observations("slice"), cal.n_explored,
                cal.decide(True), cal.decide(False))

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert all(v == (True, snap, 0, 0, 0, True, False) for v in job.values)
    assert job.services["db"].planner_calibration.slice_row_cost == 0.75


def test_static_planner_leaves_database_uncalibrated():
    def program(ctx):
        sdm = SDM(ctx, "pol")
        sdm.finalize()
        return sdm.planner_calibration

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert all(v is None for v in job.values)
    assert job.services["db"].planner_calibration is None


# ---------------------------------------------------------------------------
# MaintenancePolicy triggers
# ---------------------------------------------------------------------------


def test_fragmentation_trigger_hysteresis():
    assert (policy.COMPACT_LOWATER, policy.COMPACT_HIWATER) == (0.15, 0.40)
    pol = MaintenancePolicy()
    assert not pol.fragmentation_trigger("f", 30, 100)   # below hiwater
    assert pol.fragmentation_trigger("f", 50, 100)       # crosses: fire
    # Disarmed: repeated high observations enqueue nothing more.
    assert not pol.fragmentation_trigger("f", 60, 100)
    assert not pol.fragmentation_trigger("f", 99, 100)
    # Still above lowater: not re-armed yet.
    assert not pol.fragmentation_trigger("f", 20, 100)
    assert not pol.fragmentation_trigger("f", 45, 100)
    # At/below lowater re-arms; the next crossing fires again.
    assert not pol.fragmentation_trigger("f", 10, 100)
    assert pol.fragmentation_trigger("f", 41, 100)
    assert pol.n_compactions == 2
    assert not pol.fragmentation_trigger("g", 0, 0)      # empty file


def test_promotion_fires_exactly_once_at_nth_read():
    pol = MaintenancePolicy()
    key = (7, "d", 0)
    for _ in range(policy.PROMOTE_READS - 1):
        assert not pol.note_chunked_read(key)
    assert pol.note_chunked_read(key)
    assert not pol.note_chunked_read(key)    # promoted: never again
    assert pol.n_promotions == 1
    assert pol.note_chunked_read((7, "d", 1)) is False  # independent keys


def test_hysteresis_threshold_arithmetic(monkeypatch):
    """The trigger fires at exactly hiwater and re-arms at exactly
    lowater, wherever the two constants sit."""
    monkeypatch.setattr(policy, "COMPACT_HIWATER", 0.5)
    monkeypatch.setattr(policy, "COMPACT_LOWATER", 0.25)
    pol = MaintenancePolicy()
    assert not pol.fragmentation_trigger("f", 49, 100)
    assert pol.fragmentation_trigger("f", 50, 100)       # == hiwater
    assert not pol.fragmentation_trigger("f", 26, 100)   # above lowater
    assert not pol.fragmentation_trigger("f", 90, 100)   # still disarmed
    assert not pol.fragmentation_trigger("f", 25, 100)   # == lowater: re-arm
    assert pol.fragmentation_trigger("f", 50, 100)


class _FakeFS:
    def __init__(self, depths):
        self.depths = list(depths)

    def queue_depth(self):
        return self.depths.pop(0) if self.depths else 0


class _FakeProc:
    def __init__(self):
        self.holds = []

    def hold(self, t):
        self.holds.append(t)


def test_throttle_exponential_backoff_and_cap():
    hold, cap = policy.THROTTLE_HOLD, policy.THROTTLE_MAX_HOLDS
    pol = MaintenancePolicy()
    proc = _FakeProc()
    # Congestion clears after two polls: two doubling holds, then go.
    assert pol.throttle(_FakeFS([3, 2, 0]), proc) == 2
    assert proc.holds == [hold, 2 * hold]
    # Saturated forever: capped at max_holds, never starved out.
    proc = _FakeProc()
    assert pol.throttle(_FakeFS([9] * 100), proc) == cap
    assert proc.holds == [hold * 2 ** i for i in range(cap)]
    assert pol.n_throttle_holds == 2 + cap
    # Idle storage: no holds at all.
    assert pol.throttle(_FakeFS([0]), _FakeProc()) == 0


# ---------------------------------------------------------------------------
# PolicyConfig resolution
# ---------------------------------------------------------------------------


def test_policy_config_resolution():
    assert PolicyConfig.resolve(None) == PolicyConfig()
    assert PolicyConfig.resolve(STATIC).planner == STATIC
    adaptive = PolicyConfig.resolve(ADAPTIVE)
    assert (adaptive.planner, adaptive.coalesce, adaptive.maintenance) == (
        ADAPTIVE, ADAPTIVE, ADAPTIVE
    )
    mixed = PolicyConfig(coalesce=ADAPTIVE)
    assert PolicyConfig.resolve(mixed) is mixed
    assert mixed.make_planner_calibration() is None
    assert mixed.make_maintenance_policy() is None
    assert isinstance(adaptive.make_maintenance_policy(), MaintenancePolicy)
    with pytest.raises(ValueError):
        PolicyConfig(planner="sometimes")
    with pytest.raises(ValueError):
        PolicyConfig.resolve(42)


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
    h = Hints.from_machine(m, {"coalesce_gap": ADAPTIVE_GAP})
    assert h.coalesce_gap == ADAPTIVE_GAP
    assert Hints.from_machine(m).coalesce_gap == 0  # default unchanged


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


def _policy_program(maps, n=GLOBAL, reads=3, timesteps=1, sync_reorg=()):
    """Chunked writes, optional sync reorganizations, then ``reads``
    read-backs of t0 under an adaptive policy."""

    def program(ctx):
        sdm = SDM(ctx, "pol", organization=Organization.LEVEL_2,
                  storage_order=CHUNKED, reorganize_mode="background",
                  policy=ADAPTIVE)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=n)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(timesteps):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        for t in sync_reorg:
            sdm.reorganize(handle, "d", t, mode="sync")
        backs = []
        for _ in range(reads):
            back = np.empty(len(mine))
            sdm.read(handle, "d", 0, back)
            backs.append(back)
        sdm.drain_maintenance()
        fname = sdm.checkpoint_file(handle, "d", 0, storage_order=CHUNKED)
        counters = (
            sdm._maint_policy.n_promotions,
            sdm._maint_policy.n_compactions,
        )
        after = np.empty(len(mine))
        sdm.read(handle, "d", 0, after)
        sdm.finalize(handle)
        return backs, after, fname, counters

    return program


def test_adaptive_policy_promotes_hot_chunked_instance():
    """The Nth collective read of a still-chunked instance must enqueue
    its background reorganization; after the drain the instance serves
    canonically and every read (before, at, after the flip) agrees."""
    maps = irregular_maps()
    job = mpirun(_policy_program(maps, reads=3), NPROCS,
                 machine=fast_test(), services=sdm_services())
    tables = SDMTables(job.services["db"])
    for rank, (backs, after, _, counters) in enumerate(job.values):
        assert counters[0] == 1
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
    assert all(v[3][0] == 0 for v in job.values)
    assert tables.chunks_for(1, "d", 0) != []


def test_adaptive_policy_autocompacts_fragmented_file():
    """Sync reorganization of the first of 3 instances leaves its data
    and the shared index blocks dead — past the high-water mark, so the
    observation after the flip must enqueue a background compaction that
    reclaims the space with no application compact() call anywhere."""
    maps = irregular_maps()
    job = mpirun(
        _policy_program(maps, reads=1, timesteps=3, sync_reorg=(0,)),
        NPROCS, machine=fast_test(), services=sdm_services(),
    )
    tables = SDMTables(job.services["db"])
    fname = job.values[0][2]
    # Rank 0 (the trigger's home) fired exactly once, and the queued
    # compaction both reclaimed bytes and left no recorded dead extents.
    assert job.values[0][3][1] == 1
    assert job.services["maint"].bytes_reclaimed > 0
    assert tables.free_bytes_in(fname) == 0
    for rank, (backs, after, _, _) in enumerate(job.values):
        np.testing.assert_allclose(after, maps[rank] * 1.0)


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
    assert fs.queue_depth() == 0  # job over: nothing queued


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
