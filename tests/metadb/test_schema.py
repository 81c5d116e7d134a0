"""SDM schema accessors and the simulated query cost model."""

import dataclasses

import numpy as np
import pytest

from repro.config import origin2000
from repro.metadb import Database, SDMTables
from repro.metadb.schema import (
    ChunkRecord,
    HistoryRankRecord,
    HistoryRecord,
    MaintenanceRecord,
)
from repro.simt import Simulator


@pytest.fixture()
def tables():
    db = Database()
    t = SDMTables(db)
    t.create_all()
    return t


def test_create_all_is_idempotent(tables):
    tables.create_all()
    assert set(tables.db.tables) == {
        "run_table",
        "access_pattern_table",
        "execution_table",
        "chunk_table",
        "import_table",
        "index_table",
        "index_history_table",
        "maintenance_table",
        "extent_table",
        "epoch_table",
        "lease_table",
        "pin_table",
        "watermark_table",
    }


def test_runid_allocation(tables):
    assert tables.next_runid() == 1
    tables.insert_run(1, "fun3d", 3, 1000, 10)
    assert tables.next_runid() == 2
    tables.insert_run(5, "rt", 3, 2000, 5)
    assert tables.next_runid() == 6


def test_dataset_registration(tables):
    tables.register_dataset(1, "p", "DOUBLE", "ROW_MAJOR", 1000)
    tables.register_dataset(1, "q", "DOUBLE", "ROW_MAJOR", 1000)
    tables.register_dataset(2, "other", "INTEGER", "ROW_MAJOR", 5)
    rows = tables.db.execute(
        "SELECT dataset FROM access_pattern_table WHERE runid = ?", (1,)
    )
    assert [r[0] for r in rows] == ["p", "q"]


def test_execution_record_and_lookup(tables):
    tables.record_execution(1, "p", 10, "grp.L3", 0, 800)
    tables.record_execution(1, "q", 10, "grp.L3", 800, 800)
    assert tables.lookup_execution_version(1, "q", 10)[:3] == ("grp.L3", 800, 800)
    assert tables.lookup_execution_version(1, "q", 20) is None


def test_max_offset_in_file_for_appends(tables):
    assert tables.max_offset_in_file("f") == 0
    tables.record_execution(1, "p", 0, "f", 0, 100)
    tables.record_execution(1, "p", 1, "f", 100, 250)
    assert tables.max_offset_in_file("f") == 350


def test_import_registration(tables):
    tables.register_import(
        1, "edge1", "uns3d.msh", "INTEGER", "ROW_MAJOR",
        "DISTRIBUTED", "INDEX", 0, 100,
    )
    sql = (
        "SELECT file_content, num_elements FROM import_table "
        "WHERE runid = ? AND imported_name = ?"
    )
    assert tables.db.execute(sql, (1, "edge1")) == [("INDEX", 100)]
    assert tables.db.execute(sql, (1, "nothing")) == []


def test_history_register_find(tables):
    rec = HistoryRecord(problem_size=1000, num_procs=4, dimension=3, file_name="h.idx")
    ranks = [
        HistoryRankRecord(rank=r, edge_count=10 + r, node_count=5 + r,
                          edge_offset=r * 100, node_offset=r * 50)
        for r in range(4)
    ]
    tables.register_history(rec, ranks)
    found = tables.find_history(1000, 4)
    assert found == rec
    # Different process count: no match (the paper's history limitation).
    assert tables.find_history(1000, 8) is None
    r2 = tables.history_rank(1000, 4, 2)
    assert r2.edge_count == 12 and r2.node_offset == 100
    assert tables.history_rank(1000, 4, 9) is None


def _scalars(value):
    """Every leaf of an accessor's result: records and rows unpacked."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _scalars(item)
    else:
        yield value


def test_accessors_return_exact_python_scalars(tables):
    """Every column is STRICT and NOT NULL, so SQLite hands back exact
    ``int``, ``float`` and ``str`` values whatever was bound — numpy
    scalars here — and no accessor re-types a row."""
    i, f, t = np.int64, np.float64, tables
    run = i(t.next_runid())
    name = "grp.chunked"
    t.insert_run(run, "app", i(3), i(100), i(4))
    t.register_dataset(run, "p", "DOUBLE", "chunked", i(32))
    t.register_history(
        HistoryRecord(i(100), i(2), i(3), "h.dat"),
        [HistoryRankRecord(i(r), i(1), i(1), i(r), i(r)) for r in range(2)],
    )
    for step in range(3):
        base = i(step * 100)
        t.record_execution(run, "p", i(step), name, base, i(100))
        t.record_chunks(run, "p", i(step), [ChunkRecord(
            i(0), i(0), i(15), i(16), base, base + i(50), i(1))])
    t.record_extent(name, i(400), i(100))
    t.create_pin("reader", i(0), now=f(1.0))
    assert t.try_acquire_lease(name, "w", now=f(0.0))
    epoch = t.begin_flip(name)
    t.record_maintenance(MaintenanceRecord(
        i(t.next_maintenance_jobid()), "compact", "app", i(3), i(0), run,
        "p", i(0), name, "DOUBLE", i(32)))
    results = [
        t.next_runid(), t.all_runs(), t.datasets_for(run),
        t.dataset_row(run, "p"), t.dataset_type_name(run, "p"),
        t.lookup_execution_version(run, "p", i(1)),
        t.lookup_execution_version(run, "p", i(1), epoch=i(epoch)),
        t.max_offset_in_file(name), t.executions_in_file(name),
        t.timesteps_for(run, "p"), t.chunks_for(run, "p", i(1)),
        t.extents_for(name), t.free_bytes_in(name), t.current_epoch(),
        t.flip_intent(name), t.file_epoch(name), t.lease_holder(name),
        t.lease_count(), t.all_leases(), t.expired_pins(now=f(1e9)),
        t.all_pins(), t.pin_count(), t.next_maintenance_jobid(),
        t.pending_maintenance(), t.find_history(i(100), i(2)),
        t.history_rank(i(100), i(2), i(1)), t.allocate_extent(name, i(60)),
    ]
    assert all(r is not None and r != [] for r in results)
    returned = {type(v) for r in results for v in _scalars(r)}
    assert returned <= {int, float, str}


def test_query_cost_charged_in_simulation():
    sim = Simulator()
    machine = origin2000()
    db = Database(sim, machine)
    tables = SDMTables(db)

    def program(proc):
        tables.create_all(proc=proc)
        t0 = proc.now
        tables.insert_run(1, "app", 3, 100, 1, proc=proc)
        dt = proc.now - t0
        return dt

    p = sim.spawn(program)
    sim.run()
    assert p.result >= machine.database.query_cost


def test_db_server_serializes_concurrent_statements():
    sim = Simulator()
    machine = origin2000()
    db = Database(sim, machine)
    tables = SDMTables(db)
    tables.create_all()

    def program(proc, r):
        tables.insert_run(r, "app", 3, 100, 1, proc=proc)
        return proc.now

    n = 12  # more than the server's connection pool
    procs = [sim.spawn(program, r, name=f"c{r}") for r in range(n)]
    sim.run()
    finish = [p.result for p in procs]
    # With a pool of 4, twelve 1-query clients finish in 3 waves.
    assert max(finish) >= 2.5 * min(finish)
    assert tables.next_runid() == n
