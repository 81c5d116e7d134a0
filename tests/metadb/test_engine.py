"""The Database front end over sqlite3: statements, refusals, cost,
batches, persistence."""

import json
import random
import sqlite3

import numpy as np
import pytest

from metadb_harness import INDEX_SETS, build, check_index_integrity, queries
from repro.config import origin2000
from repro.errors import MetaDBError
from repro.metadb import Database, SDMTables
from repro.metadb.schema import SDM_INDEXES, ChunkRecord
from repro.simt import Simulator


@pytest.fixture()
def db():
    d = Database()
    d.execute("CREATE TABLE runs (runid INTEGER, dataset TEXT, t REAL)")
    return d


def test_create_insert_select_roundtrip(db):
    db.execute("INSERT INTO runs VALUES (1, 'p', 0.5)")
    db.execute("INSERT INTO runs VALUES (?, ?, ?)", (2, "q", 1.5))
    rows = db.execute("SELECT * FROM runs")
    assert rows == [(1, "p", 0.5), (2, "q", 1.5)]


def test_create_duplicate_table_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("CREATE TABLE runs (x INTEGER)")
    db.execute("CREATE TABLE IF NOT EXISTS runs (x INTEGER)")  # no error
    assert db.tables == ["runs"]


def test_type_validation(db):
    with pytest.raises(MetaDBError):
        db.execute("INSERT INTO runs VALUES (?, ?, ?)", ("no", "p", 0.0))
    with pytest.raises(MetaDBError):
        db.execute("INSERT INTO runs VALUES (1, 'p', 'notreal')")
    with pytest.raises(MetaDBError):
        db.execute("INSERT INTO runs VALUES (1, 'p')")
    assert db.execute("SELECT * FROM runs") == []


def test_integer_accepts_into_real_column(db):
    db.execute("INSERT INTO runs VALUES (1, 'p', 3)")
    assert db.execute("SELECT t FROM runs") == [(3.0,)]


def test_where_comparisons(db):
    for i in range(5):
        db.execute("INSERT INTO runs VALUES (?, ?, ?)", (i, f"d{i}", i * 1.0))
    assert db.execute("SELECT runid FROM runs WHERE runid = 3") == [(3,)]
    assert db.execute("SELECT runid FROM runs WHERE runid > 3") == [(4,)]
    assert db.execute("SELECT runid FROM runs WHERE runid <= 1") == [(0,), (1,)]
    assert db.execute("SELECT runid FROM runs WHERE runid >= 3") == [(3,), (4,)]
    assert db.execute("SELECT runid FROM runs WHERE t < 2.0") == [(0,), (1,)]
    assert db.execute("SELECT runid FROM runs WHERE dataset = 'd2'") == [(2,)]
    assert db.execute("SELECT runid FROM runs WHERE t >= 3") == [(3,), (4,)]


def test_where_boolean_logic(db):
    for i in range(6):
        db.execute("INSERT INTO runs VALUES (?, ?, ?)", (i, f"d{i % 2}", 0.0))
    rows = db.execute(
        "SELECT runid FROM runs WHERE dataset = 'd0' AND runid > 1"
    )
    assert rows == [(2,), (4,)]
    rows = db.execute(
        "SELECT runid FROM runs WHERE dataset = 'd1' AND runid > 0 "
        "AND runid < 5 AND t = 0.0"
    )
    assert rows == [(1,), (3,)]
    rows = db.execute("SELECT runid FROM runs WHERE runid > 0 AND runid < 3")
    assert rows == [(1,), (2,)]


def test_where_between(db):
    for i in range(5):
        db.execute("INSERT INTO runs VALUES (?, ?, ?)", (i, f"d{i}", i * 1.0))
    assert db.execute(
        "SELECT runid FROM runs WHERE runid >= 1 AND runid <= 3"
    ) == [(1,), (2,), (3,)]
    assert db.execute(
        "SELECT runid FROM runs WHERE runid >= ? AND runid <= ?", (3, 1)
    ) == []
    rows = db.execute(
        "SELECT runid FROM runs WHERE runid >= 1 AND runid <= 3 "
        "AND dataset = 'd2'"
    )
    assert rows == [(2,)]


def test_order_by_and_limit(db):
    for i, name in enumerate(["c", "a", "b"]):
        db.execute("INSERT INTO runs VALUES (?, ?, 0.0)", (i, name))
    assert db.execute("SELECT dataset FROM runs ORDER BY dataset") == [
        ("a",), ("b",), ("c",),
    ]
    assert db.execute("SELECT runid FROM runs ORDER BY dataset DESC LIMIT 2") == [
        (0,), (2,),
    ]


def test_order_by_multiple_keys(db):
    data = [(1, "b"), (0, "b"), (1, "a"), (0, "a")]
    for rid, ds in data:
        db.execute("INSERT INTO runs VALUES (?, ?, 0.0)", (rid, ds))
    rows = db.execute("SELECT runid, dataset FROM runs ORDER BY dataset, runid DESC")
    assert rows == [(1, "a"), (0, "a"), (1, "b"), (0, "b")]


def test_aggregates(db):
    for i in range(4):
        db.execute("INSERT INTO runs VALUES (?, 'd', ?)", (i, float(i)))
    assert db.execute("SELECT COUNT(*) FROM runs") == [(4,)]
    assert db.execute("SELECT MAX(runid) FROM runs") == [(3,)]
    assert db.execute("SELECT SUM(runid) FROM runs") == [(6,)]
    assert db.execute("SELECT SUM(t) FROM runs WHERE runid > 1") == [(5.0,)]
    assert db.execute("SELECT MAX(runid) FROM runs WHERE runid < 2") == [(1,)]


def test_aggregate_on_empty_is_null(db):
    assert db.execute("SELECT MAX(runid) FROM runs") == [(None,)]
    assert db.execute("SELECT SUM(t) FROM runs") == [(None,)]
    assert db.execute("SELECT COUNT(*) FROM runs") == [(0,)]
    db.create_index("runs", ("runid", "t"))
    db.execute("INSERT INTO runs VALUES (1, 'p', 0.5)")
    assert db.execute("SELECT MAX(t) FROM runs WHERE runid = ?", (9,)) \
        == [(None,)]
    assert db.execute("SELECT MAX(t) FROM runs WHERE runid = ? AND t < ?",
                      (1, 0.5)) == [(None,)]


def test_update(db):
    db.execute("INSERT INTO runs VALUES (1, 'old', 0.0)")
    db.execute("INSERT INTO runs VALUES (2, 'old', 0.0)")
    db.execute("UPDATE runs SET dataset = 'new', t = ? WHERE runid = 2", (9.5,))
    rows = db.execute("SELECT dataset, t FROM runs ORDER BY runid")
    assert rows == [("old", 0.0), ("new", 9.5)]


def test_delete(db):
    for i in range(4):
        db.execute("INSERT INTO runs VALUES (?, 'd', 0.0)", (i,))
    db.execute("DELETE FROM runs WHERE runid < 2")
    assert db.execute("SELECT runid FROM runs") == [(2,), (3,)]
    db.execute("DELETE FROM runs")
    assert db.execute("SELECT COUNT(*) FROM runs") == [(0,)]


def test_string_literal_escaping(db):
    db.execute("INSERT INTO runs VALUES (1, 'it''s', 0.0)")
    assert db.execute("SELECT dataset FROM runs") == [("it's",)]


def test_unknown_column_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("SELECT nope FROM runs")
    with pytest.raises(MetaDBError):
        db.execute("SELECT * FROM nope")


def test_syntax_errors_rejected():
    db = Database()
    for bad in [
        "SELEC * FROM t",
        "SELECT * FROM",
        "CREATE TABLE t",
        "INSERT INTO t VALUES 1, 2",
        "SELECT * FROM t WHERE",
        "SELECT * FROM t LIMIT x",
    ]:
        with pytest.raises(MetaDBError):
            db.execute(bad)


def test_missing_parameter_rejected(db):
    with pytest.raises(MetaDBError):
        db.execute("INSERT INTO runs VALUES (?, ?, ?)", (1,))


def test_select_column_list_and_count(db):
    db.execute("INSERT INTO runs VALUES (7, 'p', 0.5)")
    assert db.execute("SELECT runid, dataset FROM runs") == [(7, "p")]
    assert db.execute("SELECT * FROM runs") == [(7, "p", 0.5)]
    assert db.execute("SELECT COUNT(*) FROM runs") == [(1,)]


def test_persistence_roundtrip(db):
    db.execute("INSERT INTO runs VALUES (1, 'p', ?)", (0.5,))
    loaded = Database.loads(db.dump())
    assert loaded.execute("SELECT * FROM runs") == [(1, "p", 0.5)]
    # Schema survives too.
    loaded.execute("INSERT INTO runs VALUES (2, 'q', 1.0)")
    assert loaded.execute("SELECT COUNT(*) FROM runs") == [(2,)]


# -- refusals ----------------------------------------------------------------

_ROWS = [(a, "xyz"[a % 3], c) for a in range(4) for c in range(-2, 3)]


@pytest.mark.parametrize("rows", [_ROWS, []], ids=["rows", "empty"])
@pytest.mark.parametrize("sql, params", [
    # Every column a statement names must exist ...
    ("SELECT * FROM t WHERE zz = ?", (1,)),
    ("SELECT COUNT(*) FROM t WHERE a = ? AND zz < ?", (1, 2)),
    ("UPDATE t SET zz = ? WHERE a = ?", (1, 1)),
    ("DELETE FROM t WHERE zz = 1", ()),
    ("SELECT zz FROM t WHERE a = ?", (1,)),
    ("SELECT * FROM t WHERE c > ? ORDER BY zz", (0,)),
    ("SELECT MAX(zz) FROM t WHERE b = ?", ("x",)),
    # ... every parameter must be supplied ...
    ("SELECT * FROM t WHERE a = ? AND c > ?", (1,)),
    ("SELECT c FROM t WHERE a = ? ORDER BY c DESC LIMIT 1", ()),
    ("UPDATE t SET c = ? WHERE a = ?", (0,)),
    ("DELETE FROM t WHERE b = ?", ()),
    # ... and a stored value must be what its STRICT column holds.
    ("INSERT INTO t VALUES (?, ?, ?)", (1, "x", 1.5)),
    ("INSERT INTO t VALUES (?, ?, ?)", ("one", "x", 1)),
])
def test_a_refused_statement_changes_nothing(rows, sql, params):
    for index_set in (None, "mixed"):  # no index, then every index
        db = build(rows, index_set)
        before, statements = db.dump(), db.n_statements
        with pytest.raises(MetaDBError) as raised:
            db.execute(sql, params)
        assert isinstance(raised.value.__cause__, sqlite3.Error)
        assert db.dump() == before
        assert db.n_statements == statements
        check_index_integrity(db)


# -- every column is NOT NULL ------------------------------------------------


@pytest.mark.parametrize("rows", [_ROWS, []], ids=["rows", "empty"])
@pytest.mark.parametrize("sql, params", [
    ("SELECT * FROM t WHERE a = ?", (None,)),
    ("SELECT * FROM t WHERE a = ? AND c > ?", (1, None)),
    ("SELECT * FROM t WHERE c < ?", (None,)),
    ("SELECT MAX(c) FROM t WHERE a = ?", (None,)),
    ("SELECT c FROM t WHERE a = ? ORDER BY c DESC LIMIT 1", (None,)),
    ("UPDATE t SET c = ? WHERE a = ?", (0, None)),
    ("DELETE FROM t WHERE a = ?", (None,)),
])
def test_none_parameter_raises_alike_with_and_without_indexes(rows, sql, params):
    errors = []
    for index_set in (None, "mixed"):
        db = build(rows, index_set)
        before = db.dump()
        with pytest.raises(MetaDBError, match="NULL") as raised:
            db.execute(sql, params)
        errors.append(str(raised.value))
        assert db.dump() == before
    assert errors[0] == errors[1]


def test_none_in_a_batch_insert_or_update_changes_nothing():
    db = build(_ROWS, "mixed")
    before, statements = db.dump(), db.n_statements
    for sql, param_rows in (
        ("INSERT INTO t VALUES (?, ?, ?)", [(1, "x", 1), (2, None, 2)]),
        ("INSERT INTO t VALUES (?, ?, ?)", [(None, "x", 1)]),
        ("UPDATE t SET c = ? WHERE a = ?", [(7, 1), (None, 2)]),
        ("UPDATE t SET c = ? WHERE a = ?", [(7, 1), (8, None)]),
    ):
        with pytest.raises(MetaDBError, match="NOT NULL"):
            db.execute_many(sql, param_rows)
        assert db.dump() == before, sql
    check_index_integrity(db)
    assert db.n_statements == statements


@pytest.mark.parametrize("sql", [
    "INSERT INTO t VALUES (NULL, 'x', 2)",
    "INSERT INTO t VALUES (1, NULL, 2)",
    "UPDATE t SET b = NULL WHERE a = 1",
    "UPDATE t SET c = NULL",
])
def test_null_literal_is_refused_and_changes_nothing(sql):
    for index_set in (None, "mixed"):
        db = build(_ROWS, index_set)
        before = db.dump()
        with pytest.raises(MetaDBError, match="NOT NULL") as raised:
            db.execute(sql)
        assert isinstance(raised.value.__cause__, sqlite3.IntegrityError)
        assert db.dump() == before
        check_index_integrity(db)


def test_null_in_a_dump_is_refused():
    dump = ('{"tables": {"t": {"columns": [["a", "INTEGER"]], '
            '"rows": [[1], [null]], "indexes": []}}, "boot": 0}')
    with pytest.raises(MetaDBError, match="NOT NULL"):
        Database.loads(dump)


# -- cost accounting: rows *touched*, not rows returned -----------------------


def test_write_statements_charged_for_matched_rows():
    sim = Simulator()
    machine = origin2000()
    db = Database(sim, machine)
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    for i in range(50):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, i % 2))

    def program(proc):
        spans = []
        for sql, params in (
            ("UPDATE t SET a = 0 WHERE b = ?", (1,)),
            ("DELETE FROM t WHERE b = ?", (1,)),
            ("INSERT INTO t VALUES (100, 100)", ()),
        ):
            t0 = proc.now
            db.execute(sql, params, proc=proc)
            spans.append(proc.now - t0)
        return spans

    p = sim.spawn(program)
    sim.run()
    t_update, t_delete, t_insert = p.result
    cost = machine.database.statement_time
    assert t_update == pytest.approx(cost(rows=25))
    assert t_delete == pytest.approx(cost(rows=25))
    assert t_insert == pytest.approx(cost(rows=1))


def test_execute_many_bills_one_batched_statement():
    sim = Simulator()
    db = Database(sim, origin2000())

    class _Proc:
        """Minimal process stand-in: accumulates hold() charges."""
        held = 0.0

        def hold(self, dt):
            self.held += dt

    db.execute("CREATE TABLE t (a INTEGER)")
    single, batch = _Proc(), _Proc()
    for i in range(8):
        db.execute("INSERT INTO t VALUES (?)", (i,), proc=single)
    db.execute_many("INSERT INTO t VALUES (?)", [(i,) for i in range(8)],
                    proc=batch)
    model = origin2000().database
    assert single.held == pytest.approx(8 * model.statement_time(rows=1))
    assert batch.held == pytest.approx(model.statement_time(rows=8))
    assert batch.held < single.held
    assert db.execute("SELECT COUNT(*) FROM t") == [(16,)]


def _billed(db):
    """Record the rows each statement is billed for."""
    billed = []
    bill = db._bill

    def record(touched, proc):
        billed.append(touched)
        bill(touched, proc)

    db._bill = record
    return billed


def test_one_row_insert_is_a_batch_of_one():
    """A one-row INSERT through execute and through execute_many leaves
    the same rows, the same statement count and the same billed rows."""
    ddl = "CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)"
    sql = "INSERT INTO t VALUES (?, ?, ?)"
    seed = [(3, "x", 0), (1, "y", 1), (3, "w", 2), (2, "x", 3)]
    rows = [(3, "x", 9), (0, "w", 10), (2, "z", 11)]
    dbs = []
    for many in (False, True):
        db = Database()
        db.execute(ddl)
        for columns in (("a",), ("a", "b"), ("b", "c")):
            db.create_index("t", columns)
        db.execute_many(sql, seed)
        billed = _billed(db)
        statements = db.n_statements
        for row in rows:
            if many:
                assert db.execute_many(sql, [row]) == 1
            else:
                assert db.execute(sql, row) == []
        dbs.append((db, billed, db.n_statements - statements))
    (one, billed_one, n_one), (many, billed_many, n_many) = dbs
    assert one.dump() == many.dump()
    assert n_one == n_many == len(rows)
    assert billed_one == billed_many == [1] * len(rows)


def test_counted_update_returns_matched_rows():
    """A count-checked UPDATE through execute_many returns (and is billed
    for) the rows it matched, 0 included."""
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.create_index("t", ("a",))
    db.execute_many("INSERT INTO t VALUES (?, ?)", [(1, 0), (2, 0), (2, 0)])
    billed = _billed(db)
    sql = "UPDATE t SET b = ? WHERE a = ?"
    assert db.execute_many(sql, [(5, 2)]) == 2
    assert db.execute_many(sql, [(5, 9)]) == 0
    assert db.execute_many(sql, [(6, 1), (6, 9), (6, 2)]) == 3
    assert db.execute_many(sql, []) == 0
    assert billed == [2, 0, 3, 0]
    assert db.execute("SELECT a, b FROM t") == [(1, 6), (2, 6), (2, 6)]


def test_a_batch_with_a_bad_row_changes_nothing():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    db.create_index("t", ("a",))
    with pytest.raises(MetaDBError):
        db.execute_many("INSERT INTO t VALUES (?)", [(1,), ("nope",)])
    assert db.execute("SELECT COUNT(*) FROM t") == [(0,)]
    check_index_integrity(db)


def test_parameter_rows_are_stored_with_the_column_types():
    """numpy scalars and an int for a REAL column are stored as their
    columns' Python types — through execute, execute_many and a loads
    round trip."""
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
    sql = "INSERT INTO t VALUES (?, ?, ?)"
    db.execute(sql, (1, "x", 2.5))
    db.execute_many(sql, [(np.int64(2), "y", 3), [3, "z", np.float32(0.5)]])
    want = [(1, "x", 2.5), (2, "y", 3.0), (3, "z", 0.5)]
    for d in (db, Database.loads(db.dump())):
        rows = d.execute("SELECT * FROM t")
        assert rows == want
        assert {tuple(map(type, row)) for row in rows} == {(int, str, float)}
    assert db.execute("SELECT b FROM t WHERE a = ?", (np.int32(2),)) == [("y",)]


def test_bulk_insert_agrees_with_row_by_row_inserts():
    rng = random.Random(11)
    rows = [(rng.randrange(6), f"s{rng.randrange(4)}", i)
            for i in range(200)]
    rng.shuffle(rows)

    indexed = Database()
    indexed.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    for columns in (("a",), ("a", "b"), ("a", "c")):
        indexed.create_index("t", columns)
    indexed.execute_many("INSERT INTO t VALUES (?, ?, ?)", rows)

    plain = Database()
    plain.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    for r in rows:
        plain.execute("INSERT INTO t VALUES (?, ?, ?)", r)

    for sql, params in [
        ("SELECT * FROM t WHERE a = ?", (3,)),
        ("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1")),
        ("SELECT * FROM t WHERE a = ? AND c >= ? AND c < ?", (1, 20, 160)),
        ("SELECT c FROM t WHERE a = ? ORDER BY c DESC LIMIT 5", (4,)),
        ("SELECT MAX(c) FROM t WHERE a = ?", (0,)),
        ("SELECT * FROM t ORDER BY a, c", ()),
    ]:
        assert indexed.execute(sql, params) == plain.execute(sql, params), sql


# -- indexes and persistence -------------------------------------------------


def test_create_all_declares_sdm_indexes():
    tables = SDMTables(Database())
    tables.create_all()
    dump = tables.db.dump()
    tables.create_all()  # idempotent, indexes included
    assert tables.db.dump() == dump
    declared = json.loads(Database.loads(dump).dump())["tables"]
    for table, columns in SDM_INDEXES:
        assert {"columns": list(columns)} in declared[table]["indexes"]
        # A declaration that is a column prefix of another on its table
        # is pure upkeep: the longer index serves every probe it would.
        assert not any(
            other != columns and other[:len(columns)] == columns
            for t, other in SDM_INDEXES if t == table
        ), (table, columns)


def test_snapshot_restored_catalog_probes_without_redeclaration():
    # Database.loads restores index declarations, so a reader attaching
    # to a snapshot answers the end-of-file probe from the index with no
    # create_index / create_all call of its own.
    producer = SDMTables(Database())
    producer.create_all()
    for step in range(4):
        producer.record_execution(1, "p", step, "f.L3", step * 100, 100)
    reader = SDMTables(Database.loads(producer.db.dump()))
    assert reader.lookup_execution_version(1, "p", 3)[:3] == ("f.L3", 300, 100)
    assert reader.max_offset_in_file("f.L3") == 400
    assert reader.max_offset_in_file("missing.L3") == 0
    eof = ("SELECT file_offset, nbytes FROM execution_table "
           "WHERE file_name = ? ORDER BY file_offset DESC LIMIT 1")
    assert reader.db.explain(eof, ("f.L3",)) == producer.db.explain(
        eof, ("f.L3",))
    assert not any(d.startswith("SCAN")
                   for d in reader.db.explain(eof, ("f.L3",)))
    reader.create_all()  # still idempotent on a restored database
    assert reader.db.dump() == Database.loads(producer.db.dump()).dump()


def test_explain_bills_nothing():
    db = build(_ROWS, "mixed")
    statements = db.n_statements
    assert db.explain("SELECT * FROM t WHERE a = ?", (1,))
    assert db.explain("SELECT * FROM t") == ["SCAN t"]
    assert db.n_statements == statements
    with pytest.raises(MetaDBError):
        db.explain("SELECT zz FROM t")


def test_withdrawn_flip_leaves_the_dump_as_it_was():
    tables = SDMTables(Database())
    tables.create_all()
    chunks = [ChunkRecord(k, k * 8, k * 8 + 7, 8, k * 64, k * 64)
              for k in range(4)]
    for t in range(6):
        tables.record_execution(1, "p", t, "grp.L3", t * 100, 100)
        tables.record_chunks(1, "p", t, chunks)

    # One whole flip, as reorganization publishes it, reaped at once.
    assert tables.try_acquire_lease("grp.L3", "w", now=0.0)
    epoch = tables.begin_flip("grp.L3")
    tables.update_execution(1, "p", 2, "grp.L3", "grp.L4", 0, 100, epoch)
    tables.close_chunks(1, "p", 2, epoch)
    tables.commit_flip("grp.L3", epoch)
    assert len(tables.executions_in_file("grp.L3", dead=True)) == 1
    assert tables.reap_file("grp.L3")
    assert tables.executions_in_file("grp.L3", dead=True) == []
    assert tables.chunks_for(1, "p", 2) == []
    assert len(tables.executions_in_file("grp.L3")) == 5

    # An uncommitted flip withdrawn: successors deleted, intent dropped.
    before = tables.db.dump()
    epoch = tables.begin_flip("grp.L3")
    tables.update_execution(1, "p", 3, "grp.L3", "grp.L4", 100, 100, epoch)
    tables.rollback_flip("grp.L3", epoch)
    assert tables.db.dump() == before
    tables.release_lease("grp.L3", "w")
    assert tables.lease_count() == 0


def _rows(n, seed=5):
    rng = random.Random(seed)
    return [
        (rng.randrange(-5, 6), rng.choice(["x", "y", "z"]),
         rng.randrange(-5, 6))
        for _ in range(n)
    ]


@pytest.mark.parametrize("index_set", sorted(INDEX_SETS))
def test_dump_cannot_tell_deleted_rows_were_ever_there(index_set):
    db = build(_rows(40), index_set)
    db.execute("DELETE FROM t WHERE a = ?", (1,))
    db.execute("DELETE FROM t WHERE b = ?", ("y",))
    db.execute("INSERT INTO t VALUES (?, ?, ?)", (1, "y", 9))
    db.execute("DELETE FROM t WHERE c >= ? AND c <= ?", (-1, 1))
    survivors = db.execute("SELECT * FROM t")
    assert 0 < len(survivors) < 40
    assert db.dump() == build(survivors, index_set).dump()

    restored = Database.loads(db.dump())
    check_index_integrity(restored)
    plain = build(survivors)
    rng = random.Random(3)
    for _ in range(3):
        ints = [rng.randrange(-5, 6) for _ in range(3)]
        for sql, params in queries(ints, rng.choice("xyz")):
            want = plain.execute(sql, params)
            assert db.execute(sql, params) == want, sql
            assert restored.execute(sql, params) == want, sql
