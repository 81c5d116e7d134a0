"""Job-level determinism: one ``mpirun``, run twice, is one result.

The simt kernel dispatches each event on whichever rank thread happens
to be parking, so which OS thread pops the queue differs from run to run
with the host's scheduling.  None of that may reach a result: the same
32-rank job — chunked writes, a background reorganize on the maintenance
workers, a read-back — must end at the same virtual time with the same
fault-point log, message counters and database, bit for bit, with and
without an observing :class:`FaultPlan`.
"""

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, sdm_services
from repro.core.layout import CHUNKED
from repro.dtypes import DOUBLE
from repro.mpi import mpirun
from repro.simt import FaultPlan

NRANKS = 32
GLOBAL = 512
TIMESTEPS = 2


def run_job(observe):
    rng = np.random.default_rng(11)
    perm = rng.permutation(GLOBAL)
    cuts = np.sort(rng.choice(np.arange(1, GLOBAL), NRANKS - 1, replace=False))
    maps = [p.astype(np.int64) for p in np.split(perm, cuts)]
    transports = []

    def program(ctx):
        if ctx.rank == 0:
            transports.append(ctx.comm.transport)
        sdm = SDM(ctx, "det", storage_order=CHUNKED,
                  reorganize_mode="background")
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
        sdm.finalize(handle)
        return back.tobytes()

    job = mpirun(program, NRANKS, machine=fast_test(),
                 services=sdm_services(),
                 fault_plan=FaultPlan.observe() if observe else None)
    return {
        "now": job.sim.now,
        "values": job.values,
        "fault_log": job.fault_log,
        "transport": transports[0].stats(),
        "db": job.services["db"].dump(),
    }


@pytest.mark.parametrize("observe", [False, True], ids=["plain", "observed"])
def test_same_job_twice_is_bit_identical(observe):
    first, second = run_job(observe), run_job(observe)
    assert bool(first["fault_log"]) == observe
    for key in first:
        assert first[key] == second[key], key
