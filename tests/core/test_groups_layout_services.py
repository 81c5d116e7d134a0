"""Core support modules: DataView permutations, layout naming, services
snapshots, SDM hint pass-through."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.core import SDM, Organization, sdm_services, snapshot_services
from repro.core.groups import DataGroup, DatasetAttrs, DataView
from repro.core.layout import checkpoint_file_name, history_file_name
from repro.dtypes import DOUBLE
from repro.errors import SDMStateError, SDMUnknownDataset
from repro.mpi import mpirun


# ---------------------------------------------------------------------------
# DataView
# ---------------------------------------------------------------------------

def test_sorted_map_has_no_permutation():
    v = DataView.from_map(np.array([2, 5, 9], dtype=np.int64))
    assert v.perm is None
    buf = np.array([1.0, 2.0, 3.0])
    assert v.to_file_order(buf) is buf
    assert v.to_user_order(buf) is buf


def test_unsorted_map_roundtrips_through_permutation():
    v = DataView.from_map(np.array([9, 2, 5], dtype=np.int64))
    assert v.perm is not None
    np.testing.assert_array_equal(v.map_sorted, [2, 5, 9])
    user = np.array([90.0, 20.0, 50.0])  # aligned with [9, 2, 5]
    filed = v.to_file_order(user)
    np.testing.assert_array_equal(filed, [20.0, 50.0, 90.0])
    np.testing.assert_array_equal(v.to_user_order(filed), user)


def test_duplicate_map_entries_keep_stable_order():
    v = DataView.from_map(np.array([5, 5, 2], dtype=np.int64))
    np.testing.assert_array_equal(v.map_sorted, [2, 5, 5])
    user = np.array([10.0, 11.0, 12.0])
    np.testing.assert_array_equal(v.to_user_order(v.to_file_order(user)), user)


@pytest.mark.parametrize("given", [[1, 3, 5], [5, 1, 3]])
def test_view_owns_a_read_only_copy_of_its_map(given):
    """Regression: a sorted int64 map used to be aliased, so mutating it
    after ``data_view`` left ``map_sorted`` unsorted with ``perm=None``."""
    m = np.array(given, dtype=np.int64)
    v = DataView.from_map(m)
    m[0] = 7
    np.testing.assert_array_equal(v.map_sorted, [1, 3, 5])
    assert not v.map_sorted.flags.writeable
    assert v.perm is None or not v.perm.flags.writeable
    with pytest.raises(ValueError):
        v.map_sorted[0] = 7


def test_view_builds_its_filetype_once_per_element_type():
    from repro.dtypes import FLOAT32

    v = DataView.from_map(np.array([4, 0, 2], dtype=np.int64))
    ft = v.filetype(DOUBLE)
    assert v.filetype(DOUBLE) is ft
    assert v.filetype(FLOAT32) is not ft
    assert ft.displacements is v.map_sorted
    assert DataView.from_map(np.empty(0, dtype=np.int64)).filetype(DOUBLE) is None


def test_2d_map_rejected():
    with pytest.raises(SDMStateError):
        DataView.from_map(np.zeros((2, 2), dtype=np.int64))


# ---------------------------------------------------------------------------
# DataGroup
# ---------------------------------------------------------------------------

def test_group_dataset_and_view_errors():
    g = DataGroup(group_id=1, runid=1)
    g.datasets["p"] = DatasetAttrs(name="p", global_size=10)
    with pytest.raises(SDMUnknownDataset):
        g.dataset("missing")
    with pytest.raises(SDMStateError):
        g.view("p")  # no view installed yet
    g.views["p"] = DataView.from_map(np.arange(3))
    assert g.view("p").local_count == 3


def test_dataset_attrs_byte_accounting():
    a = DatasetAttrs(name="x", data_type=DOUBLE, global_size=100)
    assert a.element_bytes() == 8
    assert a.global_bytes() == 800


# ---------------------------------------------------------------------------
# layout naming
# ---------------------------------------------------------------------------

def test_checkpoint_names_by_level():
    assert checkpoint_file_name("app", 2, "p", 7, Organization.LEVEL_1) == \
        "app/p.t000007"
    assert checkpoint_file_name("app", 2, "p", 7, Organization.LEVEL_2) == \
        "app/p.dat"
    assert checkpoint_file_name("app", 2, "p", 7, Organization.LEVEL_3) == \
        "app/group2.dat"


def test_level1_names_unique_per_step_and_dataset():
    names = {
        checkpoint_file_name("a", 1, ds, t, Organization.LEVEL_1)
        for ds in ("p", "q") for t in range(3)
    }
    assert len(names) == 6


def test_history_name_varies_with_size_and_procs():
    a = history_file_name("app", 1000, 8)
    b = history_file_name("app", 1000, 16)
    c = history_file_name("app", 2000, 8)
    assert len({a, b, c}) == 3


# ---------------------------------------------------------------------------
# services snapshots
# ---------------------------------------------------------------------------

def test_snapshot_carries_files_and_database():
    def writer(ctx):
        sdm = SDM(ctx, "snap")
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=8)
        handle = sdm.set_attributes(result)
        mine = np.arange(4, dtype=np.int64) + 4 * ctx.rank
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.5)
        sdm.finalize(handle)
        return None

    job = mpirun(writer, 2, machine=fast_test(), services=sdm_services())
    snap = snapshot_services(job)
    assert snap.total_file_bytes > 0
    assert "run_table" in snap.db_dump

    def reader(ctx):
        fs = ctx.service("fs")
        db = ctx.service("db")
        rows = db.execute("SELECT COUNT(*) FROM execution_table")
        data = fs.lookup("snap/d.dat").store.read(0, 64).view(np.float64)
        return rows[0][0], data

    job2 = mpirun(reader, 1, machine=fast_test(),
                  services=sdm_services(seed_from=snap))
    count, data = job2.values[0]
    assert count == 1
    np.testing.assert_allclose(data, np.arange(8) * 1.5)


# ---------------------------------------------------------------------------
# SDM io_hints pass-through
# ---------------------------------------------------------------------------

def test_sdm_hints_reach_the_io_layer():
    def program(ctx):
        sdm = SDM(ctx, "hints", io_hints={"cb_nodes": 1, "cb_buffer_size": 4096})
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=16)
        handle = sdm.set_attributes(result)
        mine = np.arange(8, dtype=np.int64) + 8 * ctx.rank
        sdm.data_view(handle, "d", mine)
        sdm.write(handle, "d", 0, mine * 1.0)
        f = sdm._open_cached(
            checkpoint_file_name("hints", handle.group_id, "d", 0,
                                 sdm.organization),
            # same amode key as write used
            __import__("repro.mpiio.consts", fromlist=["MODE_CREATE"]).MODE_CREATE
            | __import__("repro.mpiio.consts", fromlist=["MODE_RDWR"]).MODE_RDWR,
        )
        out = (f.hints.cb_nodes, f.hints.cb_buffer_size)
        sdm.finalize(handle)
        return out

    job = mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert job.values == [(1, 4096), (1, 4096)]


def test_sdm_unknown_hint_rejected():
    from repro.errors import SimProcessCrashed

    def program(ctx):
        sdm = SDM(ctx, "hints", io_hints={"not_a_hint": 1})
        result = sdm.make_datalist(["d"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=4)
        handle = sdm.set_attributes(result)
        sdm.data_view(handle, "d", np.arange(2, dtype=np.int64) + 2 * ctx.rank)
        sdm.write(handle, "d", 0, np.zeros(2))

    with pytest.raises(SimProcessCrashed) as ei:
        mpirun(program, 2, machine=fast_test(), services=sdm_services())
    assert isinstance(ei.value.__cause__, KeyError)
