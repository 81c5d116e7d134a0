"""Machine-model invariants and the exception hierarchy."""

import pytest

from repro import errors
from repro.config import (
    MB,
    fast_test,
    high_open_cost,
    origin2000,
)


# ---------------------------------------------------------------------------
# Machine models
# ---------------------------------------------------------------------------

def test_origin2000_shape_constants():
    m = origin2000()
    assert m.storage.n_controllers == 10
    # Reads faster than writes per stream (XFS buffered behaviour).
    assert m.storage.stream_read_bandwidth > m.storage.stream_write_bandwidth
    # Aggregate bandwidths land on the paper's Figure 6 axis.
    s = m.storage
    assert 100 * MB < s.n_controllers * s.stream_read_bandwidth < 250 * MB
    assert 80 * MB < s.n_controllers * s.stream_write_bandwidth < 180 * MB


def test_high_open_cost_differs_only_in_metadata_costs():
    base, costly = origin2000(), high_open_cost()
    assert costly.storage.file_open_cost > 10 * base.storage.file_open_cost
    assert costly.storage.file_view_cost > 10 * base.storage.file_view_cost
    assert costly.storage.stream_read_bandwidth == base.storage.stream_read_bandwidth
    assert costly.network.latency == base.network.latency


def test_transfer_and_stream_time_arithmetic():
    m = fast_test()
    t = m.network.transfer_time(1000)
    assert t == pytest.approx(m.network.latency + 1000 / m.network.bandwidth)
    s = m.storage.stream_time(1000, write=True, runs=3)
    expect = (
        m.storage.request_overhead
        + 2 * m.storage.run_overhead
        + 1000 / m.storage.stream_write_bandwidth
    )
    assert s == pytest.approx(expect)


def test_statement_time_scales_with_rows():
    m = origin2000()
    t1 = m.database.statement_time(rows=1)
    t100 = m.database.statement_time(rows=100)
    assert t100 > t1
    assert t100 - t1 == pytest.approx(99 * m.database.row_cost)


def test_with_helpers_return_modified_copies():
    m = origin2000()
    m2 = m.with_storage(n_controllers=3)
    assert m2.storage.n_controllers == 3
    assert m.storage.n_controllers == 10  # original untouched
    m4 = m.with_collective_io(cb_nodes=5)
    assert m4.collective_io.cb_nodes == 5


def test_compute_model_helpers():
    m = fast_test()
    assert m.compute.elements(100, 2.0) == pytest.approx(200 * m.compute.element_op)
    assert m.compute.copy_time(1000) == pytest.approx(1000 / m.compute.memcpy_bandwidth)


# ---------------------------------------------------------------------------
# Exception hierarchy
# ---------------------------------------------------------------------------

def test_every_error_derives_from_repro_error():
    leaves = [
        errors.SimDeadlockError, errors.SimProcessCrashed,
        errors.MPIInvalidRank,
        errors.MPICollectiveMismatch, errors.DatatypeError,
        errors.FileNotFound, errors.FileExists, errors.InvalidFileHandle,
        errors.AccessModeError, errors.MPIIOError,
        errors.SQLSyntaxError, errors.SQLTypeError, errors.TableNotFound,
        errors.TableExists, errors.ColumnNotFound,
        errors.PartitionError, errors.MeshError,
        errors.SDMStateError, errors.SDMUnknownDataset,
        errors.SDMHistoryMismatch,
    ]
    for exc in leaves:
        assert issubclass(exc, errors.ReproError), exc


def test_subsystem_umbrellas():
    assert issubclass(errors.SimDeadlockError, errors.SimError)
    assert issubclass(errors.MPIInvalidRank, errors.MPIError)
    assert issubclass(errors.AccessModeError, errors.MPIIOError)
    assert issubclass(errors.MPIIOError, errors.PFSError)
    assert issubclass(errors.SQLSyntaxError, errors.MetaDBError)
    assert issubclass(errors.SDMHistoryMismatch, errors.SDMError)


def test_catching_at_subsystem_level():
    with pytest.raises(errors.MetaDBError):
        raise errors.TableNotFound("t")
    with pytest.raises(errors.ReproError):
        raise errors.SDMStateError("s")
