"""Mini-SQL engine: DDL, DML, queries, aggregates, persistence."""

import pytest

from repro.errors import (
    ColumnNotFound,
    SQLSyntaxError,
    SQLTypeError,
    TableExists,
    TableNotFound,
)
from repro.metadb import Database


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
    with pytest.raises(TableExists):
        db.execute("CREATE TABLE runs (x INTEGER)")
    db.execute("CREATE TABLE IF NOT EXISTS runs (x INTEGER)")  # no error


def test_type_validation(db):
    with pytest.raises(SQLTypeError):
        db.execute("INSERT INTO runs VALUES (?, ?, ?)", ("no", "p", 0.0))
    with pytest.raises(SQLTypeError):
        db.execute("INSERT INTO runs VALUES (?, ?, ?)", (1, 42, 0.0))
    with pytest.raises(SQLTypeError):
        db.execute("INSERT INTO runs VALUES (1, 'p', 'notreal')")
    with pytest.raises(SQLTypeError):
        db.execute("INSERT INTO runs VALUES (?, ?, ?)", (True, "p", 0.0))
    with pytest.raises(SQLTypeError):
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
    # An INTEGER literal against a REAL column is typed once, as REAL.
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
    with pytest.raises(ColumnNotFound):
        db.execute("SELECT nope FROM runs")
    with pytest.raises(TableNotFound):
        db.execute("SELECT * FROM nope")


def test_syntax_errors_rejected():
    db = Database()
    for bad in [
        "",
        "SELEC * FROM t",
        "SELECT * FROM",
        "CREATE TABLE t",
        "INSERT INTO t VALUES 1, 2",
        "SELECT * FROM t WHERE",
        "SELECT * FROM t LIMIT x",
    ]:
        with pytest.raises(SQLSyntaxError):
            db.execute(bad)


def test_missing_parameter_rejected(db):
    from repro.errors import MetaDBError

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
