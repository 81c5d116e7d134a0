"""The flip driver (:class:`repro.core.mvcc.Flip`) in isolation: lease
lifetime around the body, symmetric conflicts, intent journaling."""

import pytest

from repro.config import fast_test
from repro.core import SDM, sdm_services
from repro.core.mvcc import Flip
from repro.errors import SDMLeaseConflict, SDMStateError
from repro.metadb.schema import EPOCH_INTENT, SDMTables
from repro.mpi import mpirun

NPROCS = 3
FNAME = "some.chunked.dat"


def run(body):
    """Run ``body(sdm)`` on every rank of a fresh job; returns the job."""

    def program(ctx):
        sdm = SDM(ctx, "flip")
        out = body(sdm)
        ctx.comm.barrier()
        return out

    return mpirun(program, NPROCS, machine=fast_test(),
                  services=sdm_services())


def intents(tables):
    return tables.db.execute(
        "SELECT file_name, epoch FROM epoch_table WHERE state = ?",
        (EPOCH_INTENT,),
    )


def test_body_exception_releases_the_lease():
    def body(sdm):
        with pytest.raises(RuntimeError):
            with Flip(sdm, FNAME):
                held = sdm.tables.lease_holder(FNAME)
                raise RuntimeError("boom")
        return held

    job = run(body)
    assert set(job.values) == {"sdm:flip:r1"}
    assert SDMTables(job.services["db"]).all_leases() == []


def test_held_lease_conflicts_on_every_rank_before_any_mutation():
    def body(sdm):
        if sdm.comm.rank == 0:
            assert sdm.tables.try_acquire_lease(
                FNAME, "someone-else", proc=sdm.comm.proc,
                now=sdm.comm.proc.now,
            )
        sdm.comm.barrier()
        entered = False
        with pytest.raises(SDMLeaseConflict):
            with Flip(sdm, FNAME):
                entered = True
        return entered

    job = run(body)
    assert job.values == [False] * NPROCS
    tables = SDMTables(job.services["db"])
    assert [h for _f, h, _b in tables.all_leases()] == ["someone-else"]
    assert tables.current_epoch() == 0


def test_begin_twice_is_an_error():
    def body(sdm):
        with Flip(sdm, FNAME) as fl:
            if sdm.comm.rank == 0:
                fl.begin()
                with pytest.raises(SDMStateError):
                    fl.begin()
            fl.publish(lambda epoch: None)

    job = run(body)
    tables = SDMTables(job.services["db"])
    assert intents(tables) == [] and tables.all_leases() == []


@pytest.mark.parametrize("begin_early", [False, True])
def test_publish_journals_exactly_one_intent(begin_early):
    """With or without an early ``begin()``, one flip is one epoch, seen
    as an intent by its successors hook and published afterwards."""

    def body(sdm):
        seen = []
        with Flip(sdm, FNAME) as fl:
            if begin_early and sdm.comm.rank == 0:
                fl.begin()
            epoch = fl.publish(
                lambda epoch: seen.append((epoch, intents(sdm.tables)))
            )
        return epoch, seen

    job = run(body)
    epochs = {epoch for epoch, _seen in job.values}
    assert epochs == {1}
    assert job.values[0][1] == [(1, [(FNAME, 1)])]
    assert all(seen == [] for _e, seen in job.values[1:])
    tables = SDMTables(job.services["db"])
    assert tables.current_epoch() == 1
    assert intents(tables) == [] and tables.all_leases() == []
