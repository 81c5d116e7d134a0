"""Support modules: payload sizing, reduce ops, phase timers."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.mpi import MAX, MIN, SUM, mpirun
from repro.mpi.nbytes import payload_nbytes


# ---------------------------------------------------------------------------
# payload_nbytes
# ---------------------------------------------------------------------------

def test_nbytes_numpy_exact():
    assert payload_nbytes(np.zeros(100, dtype=np.float64)) == 800
    assert payload_nbytes(np.zeros((4, 4), dtype=np.int32)) == 64


def test_nbytes_bytes_and_strings():
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes(bytearray(10)) == 10
    assert payload_nbytes("hello") == 5
    assert payload_nbytes("héllo") == 6  # utf-8


def test_nbytes_scalars_and_none():
    for v in (None, 1, 1.5, True, complex(1, 2), np.int64(7)):
        assert payload_nbytes(v) == 8


def test_nbytes_containers_recursive():
    flat = payload_nbytes([1, 2, 3])
    assert flat == 16 + 3 * 8
    nested = payload_nbytes({"a": np.zeros(10), "b": [1, 2]})
    assert nested == 16 + (1 + 80) + (1 + 16 + 16)


def test_nbytes_object_with_dict():
    class Thing:
        def __init__(self):
            self.data = np.zeros(4, dtype=np.float64)

    assert payload_nbytes(Thing()) >= 32


# ---------------------------------------------------------------------------
# reduce ops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "op,a,b,expect",
    [
        (SUM, 2, 3, 5),
        (MAX, 2, 3, 3),
        (MIN, 2, 3, 2),
    ],
)
def test_ops_scalars(op, a, b, expect):
    assert op(a, b) == expect


def test_ops_arrays_elementwise():
    a = np.array([1.0, 5.0])
    b = np.array([3.0, 2.0])
    np.testing.assert_array_equal(SUM(a, b), [4.0, 7.0])
    np.testing.assert_array_equal(MAX(a, b), [3.0, 5.0])
    np.testing.assert_array_equal(MIN(a, b), [1.0, 2.0])


def test_ops_mixed_scalar_array():
    a = np.array([1.0, 5.0])
    np.testing.assert_array_equal(MAX(a, 3.0), [3.0, 5.0])


# ---------------------------------------------------------------------------
# Phase timers
# ---------------------------------------------------------------------------

def test_phase_timer_nesting_and_counts():
    def program(ctx):
        with ctx.phase("outer"):
            ctx.proc.hold(1.0)
            with ctx.phase("inner"):
                ctx.proc.hold(2.0)
        with ctx.phase("inner"):
            ctx.proc.hold(0.5)
        return ctx.timer.counts

    job = mpirun(program, 1, machine=fast_test())
    totals = job.phase_totals[0]
    assert totals["outer"] == pytest.approx(3.0)  # includes nested time
    assert totals["inner"] == pytest.approx(2.5)
    assert job.values[0] == {"outer": 1, "inner": 2}


def test_phase_timer_records_on_exception():
    def program(ctx):
        try:
            with ctx.phase("risky"):
                ctx.proc.hold(1.0)
                raise ValueError("x")
        except ValueError:
            pass
        return ctx.timer.as_dict()["risky"]

    job = mpirun(program, 1, machine=fast_test())
    assert job.values[0] == pytest.approx(1.0)


def test_jobresult_phase_aggregates():
    def program(ctx):
        with ctx.phase("work"):
            ctx.proc.hold(float(ctx.rank + 1))
        return None

    job = mpirun(program, 4, machine=fast_test())
    assert job.phase_max("work") == pytest.approx(4.0)
    assert [t["work"] for t in job.phase_totals] == pytest.approx(
        [1.0, 2.0, 3.0, 4.0])
    assert job.phase_max("nonexistent") == 0.0
