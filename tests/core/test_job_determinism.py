"""Job-level determinism: one ``mpirun``, run twice, is one result.

The simt kernel dispatches each event on whichever rank thread happens
to be parking, so which OS thread pops the queue differs from run to run
with the host's scheduling.  None of that may reach a result: the same
32-rank job — chunked writes, a background reorganize on the maintenance
workers, a read-back — must end at the same virtual time with the same
fault-point log, message counters, database and bytes on disk, bit for
bit, with and without an observing :class:`FaultPlan`, under either
``policy``, and whatever ``PYTHONHASHSEED`` the interpreter was started
with.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, sdm_services, snapshot_services
from repro.core.layout import CHUNKED
from repro.dtypes import DOUBLE
from repro.mpi import mpirun
from repro.simt import FaultPlan

NRANKS = 32
GLOBAL = 512
TIMESTEPS = 2


def run_job(observe=False, policy=None):
    """The job's observable outcome.  Under ``policy="adaptive"`` the
    still-chunked timestep 1 is read three times in all, so read-count
    promotion fires and the planner counters join the comparison."""
    rng = np.random.default_rng(11)
    perm = rng.permutation(GLOBAL)
    cuts = np.sort(rng.choice(np.arange(1, GLOBAL), NRANKS - 1, replace=False))
    maps = [p.astype(np.int64) for p in np.split(perm, cuts)]
    transports = []

    def program(ctx):
        if ctx.rank == 0:
            transports.append(ctx.comm.transport)
        sdm = SDM(ctx, "det", storage_order=CHUNKED,
                  reorganize_mode="background", policy=policy)
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        mine = maps[ctx.rank]
        sdm.data_view(handle, "d", mine)
        for t in range(TIMESTEPS):
            sdm.write(handle, "d", t, mine * 1.0 + t)
        sdm.reorganize(handle, "d", 0)
        sdm.drain_maintenance()
        back = np.empty(len(mine))
        for t in range(TIMESTEPS):
            sdm.read(handle, "d", t, back)
            assert np.array_equal(back, mine * 1.0 + t)
        promotions = 0
        if policy == "adaptive":
            for _ in range(2):
                sdm.read(handle, "d", TIMESTEPS - 1, back)
            sdm.drain_maintenance()
            promotions = sdm._maint_policy.n_promotions
        sdm.finalize(handle)
        return back.tobytes(), promotions

    job = mpirun(program, NRANKS, machine=fast_test(),
                 services=sdm_services(),
                 fault_plan=FaultPlan.observe() if observe else None)
    db = job.services["db"]
    return {
        "now": job.sim.now,
        "values": job.values,
        "fault_log": job.fault_log,
        "transport": transports[0].stats(),
        "db": db.dump(),
        "files": {
            name: hashlib.sha256(data.tobytes()).hexdigest()
            for name, data in snapshot_services(job).files.items()
        },
        "planner": (db.n_statements,
                    hashlib.sha256(db.dump().encode()).hexdigest()),
    }


@pytest.mark.parametrize("observe", [False, True], ids=["plain", "observed"])
def test_same_job_twice_is_bit_identical(observe):
    first, second = run_job(observe), run_job(observe)
    assert bool(first["fault_log"]) == observe
    for key in first:
        assert first[key] == second[key], key


def test_adaptive_job_twice_is_bit_identical():
    first = run_job(policy="adaptive")
    second = run_job(policy="adaptive")
    assert [promotions for _, promotions in first["values"]] == [1] * NRANKS
    for key in first:
        assert first[key] == second[key], key


def digest(policy):
    """``now`` and one sha256 over everything a hash seed could reorder."""
    out = run_job(policy=policy)
    h = hashlib.sha256()
    for key in ("now", "values", "transport", "db", "files"):
        h.update(repr(out[key]).encode())
    return f"{policy} {float(out['now'])!r} {h.hexdigest()}"


def test_job_is_identical_across_hash_seeds():
    """Both policies, each in a fresh interpreter per ``PYTHONHASHSEED``:
    no set or dict iteration order reaches a result."""
    # The child imports what this process imports, wherever pytest ran.
    path = os.pathsep.join(p for p in sys.path if p)
    children = [
        subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        for seed in ("0", "1", "random")
    ]
    reports = set()
    try:
        for child in children:
            out, _ = child.communicate(timeout=300)
            assert child.returncode == 0
            reports.add(out)
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
    assert len(reports) == 1, reports
    static, adaptive = reports.pop().splitlines()
    assert static.startswith("static ") and adaptive.startswith("adaptive ")


if __name__ == "__main__":
    for mode in ("static", "adaptive"):
        print(digest(mode))
