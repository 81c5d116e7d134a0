"""Crash-at-every-point property harness (the robustness tentpole).

For each workload kind (write / reorganize / compact), an observe-only
:class:`FaultPlan` run enumerates the complete crash schedule — every
``(process, fault point, nth hit)`` the workload passes through.  Each
entry is then replayed as a crashing plan: the job dies exactly there,
its services snapshot crosses to a second job the way the history-file
experiments carry state between runs, and recovery runs either *eagerly*
(the maintenance service's attach sweep) or *lazily* (no ``SDM``
attaches the service — a catalog-only job; the stale lease is found,
recovered, and stolen on the next ``acquire_file_lease``).  After recovery, whatever the crash interrupted
must have resolved exactly one way:

* no stuck leases and no surviving flip intents;
* every visible dataset instance reads back byte-identical — no
  half-visible flips, no lost epochs;
* every instance durably recorded before the crash is still visible;
* no pin leaks survive undetected (eager recovery reaps them outright);
* recorded free extents never overlap live data regions.

``FAULT_SEED`` rotates which ``(nranks, organization level)`` each
workload runs at, so repeated runs sweep the 1–4 rank × level matrix
while any single run stays fast and byte-for-byte reproducible.
"""

import os

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services, snapshot_services
from repro.core.catalog import SDMCatalog
from repro.core.datapath import acquire_file_lease, release_file_lease
from repro.core.layout import CHUNKED
from repro.metadb.schema import SDMTables
from repro.dtypes import DOUBLE
from repro.mpi import mpirun
from repro.simt import FaultPlan

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
GLOBAL = 24
TIMESTEPS = 3
KINDS = ["write", "reorganize", "compact"]
GRID = [
    (1, Organization.LEVEL_1),
    (2, Organization.LEVEL_2),
    (3, Organization.LEVEL_3),
    (4, Organization.LEVEL_2),
]


def combo_for(kind, recovery):
    """Deterministic (nranks, level) pick, rotated by FAULT_SEED so the
    full grid is swept across seeds while one run stays small."""
    idx = KINDS.index(kind) * 2 + (recovery == "steal")
    return GRID[(FAULT_SEED + idx) % len(GRID)]


def maps_for(nranks, n=GLOBAL):
    rng = np.random.default_rng(5)
    perm = rng.permutation(n)
    if nranks == 1:
        return [perm.astype(np.int64)]
    cuts = np.sort(rng.choice(np.arange(1, n), nranks - 1, replace=False))
    return [p.astype(np.int64) for p in np.split(perm, cuts)]


def workload(kind, maps, level):
    """Chunked writes, then the kind's flip(s), then a read-back."""

    def program(ctx):
        sdm = SDM(ctx, "fp", organization=level, storage_order=CHUNKED,
                  reorganize_mode="sync", snapshot=True)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE,
                                 global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(TIMESTEPS):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        if kind == "reorganize":
            sdm.reorganize(handle, "d", 0)
        elif kind == "compact":
            fname = sdm.checkpoint_file(handle, "d", 0,
                                        storage_order=CHUNKED)
            sdm.reorganize(handle, "d", 0)  # leaves dead extents behind
            sdm.compact(fname, mode="background")
            sdm.drain_maintenance()
        back = np.empty(len(mine))
        sdm.read(handle, "d", TIMESTEPS - 1, back)
        sdm.finalize(handle)
        return True

    return program


def run_workload(kind, maps, level, nranks, fault_plan):
    return mpirun(workload(kind, maps, level), nranks,
                  machine=fast_test(), services=sdm_services(),
                  fault_plan=fault_plan)


def read_all(ctx):
    """Catalog-read every visible timestep of the producing run."""
    cat = SDMCatalog.attach(ctx)
    out = {t: cat.read_global(1, "d", t) for t in cat.timesteps(1, "d")}
    cat.release()
    return out


def attach_recovery(ctx):
    """Eager path: a fresh SDM's maintenance attach sweeps stale boot
    generations (leases, intents, pins) and adopts the orphaned queue."""
    sdm = SDM(ctx, "recover")
    sdm.drain_maintenance()
    out = read_all(ctx)
    sdm.finalize()
    return out


def steal_recovery(ctx):
    """Lazy path: no ``SDM`` attaches the maintenance service, so no
    attach sweep runs — the first acquirer of each abandoned file finds
    the dead holder's lease, resolves the interrupted flip, and steals
    the row."""
    tables = SDMTables(ctx.service("db"))
    files = None
    if ctx.rank == 0:
        files = sorted(
            {f for f, _h, _b in tables.all_leases(proc=ctx.proc)}
            | set(tables.files_with_flip_intents(proc=ctx.proc))
        )
    files = ctx.comm.bcast(files, root=0)
    for fname in files:
        acquire_file_lease(ctx.comm, tables, fname, "thief")
        if ctx.rank == 0:
            # Covers the orphan-intent corner (an intent whose lease row
            # is already gone): stealing recovers, a fresh acquire does
            # not — resolve explicitly under the lease we now hold.
            tables.recover_file(fname, proc=ctx.proc)
        release_file_lease(ctx.comm, tables, fname, "thief")
    return read_all(ctx)


def check_recovered_state(tables, recovery):
    """The harness's core invariants over the post-recovery database."""
    assert tables.all_leases() == [], "stuck leases survived recovery"
    assert tables.files_with_flip_intents() == [], "unresolved flip intent"
    pins = tables.all_pins()
    if recovery == "attach":
        assert pins == [], f"leaked pins survived attach recovery: {pins}"
    else:
        # The lazy path reaps nothing by itself, but every survivor must
        # be *detectable* — stamped with a dead boot generation.
        expired = set(tables.expired_pins(now=0.0))
        assert set(pins) <= expired, f"undetectable pin leak: {pins}"
    extents = tables.db.execute(
        "SELECT file_name, file_offset, nbytes FROM extent_table"
    )
    for fname, off, n in extents:
        for _r, _d, t, loff, ln, _vf, _vt in tables.executions_in_file(fname):
            assert not (off < loff + ln and loff < off + int(n)), (
                f"free extent [{off}, {off + int(n)}) overlaps live "
                f"timestep {t} at [{loff}, {loff + ln}) in {fname!r}"
            )


@pytest.mark.parametrize("recovery", ["attach", "steal"])
@pytest.mark.parametrize("kind", KINDS)
def test_crash_at_every_fault_point_recovers(kind, recovery):
    nranks, level = combo_for(kind, recovery)
    maps = maps_for(nranks)

    clean = run_workload(kind, maps, level, nranks, FaultPlan.observe())
    assert clean.crashed == []
    schedule = list(dict.fromkeys(clean.fault_log))
    assert schedule, "workload registered no fault points"
    if kind in ("reorganize", "compact"):
        assert any(p == "flip:intent" for _v, p, _n in schedule)
        assert any(p == "flip:published" for _v, p, _n in schedule)

    for victim, point, nth in schedule:
        label = f"{kind}/{recovery}@{victim}[{point}#{nth}]"
        crashed = run_workload(
            kind, maps, level, nranks,
            FaultPlan(point, victim=victim, occurrence=nth),
        )
        assert victim in crashed.crashed, label
        # Writes rank 0 durably recorded before dying stay visible.
        required = set(range(sum(
            1 for v, p, _n in crashed.fault_log
            if v == victim and p == "write:recorded"
        ) if victim == "rank0" else TIMESTEPS))

        snap = snapshot_services(crashed)
        program = attach_recovery if recovery == "attach" else steal_recovery
        job = mpirun(
            program, nranks, machine=fast_test(),
            services=sdm_services(seed_from=snap),
        )
        tables = SDMTables(job.services["db"])
        check_recovered_state(tables, recovery)
        visible = job.values[0]
        assert required <= set(visible), (
            f"{label}: recorded timesteps lost "
            f"(visible {sorted(visible)}, required {sorted(required)})"
        )
        for t, data in visible.items():
            np.testing.assert_allclose(
                data, np.arange(GLOBAL) * 1.0 + t, err_msg=label
            )
