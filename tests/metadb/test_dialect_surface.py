"""The metadb SQL dialect, pinned to literal lists.

``repro.metadb`` parses the statements SDM issues and nothing more:
five statement kinds, ``column op value`` comparisons joined by AND,
three column types, and no NULL anywhere.  A statement is checked once
— its columns when it plans, its values' types when it binds — and
every refusal leaves the table and the planner's counters as they were,
whether or not the table holds rows.  A construct coming back — a second boolean
operator, a NULL-aware predicate, another aggregate or column type —
shows up here as a reviewed edit, not as a quiet new branch in the
parser, the planner and the index keys.
"""

import pytest

from metadb_harness import build, check_index_integrity
from repro.errors import (
    ColumnNotFound,
    MetaDBError,
    SQLSyntaxError,
    SQLTypeError,
)
from repro.metadb import Database, expr, sqlparser, types
from repro.metadb.sqlparser import parse

_ROWS = [(a, "xyz"[a % 3], c) for a in range(4) for c in range(-2, 3)]


# -- the surface -------------------------------------------------------------


def test_statement_kinds():
    assert sqlparser.__all__ == [
        "parse", "CreateTable", "Insert", "Select", "Update", "Delete",
    ]


def test_keywords():
    # NULL is reserved so that no rule — and no column name — accepts it.
    assert sorted(sqlparser._KEYWORDS) == [
        "AND", "ASC", "BY", "COUNT", "CREATE", "DELETE", "DESC", "EXISTS",
        "FROM", "IF", "INSERT", "INTO", "LIMIT", "MAX", "NOT", "NULL",
        "ORDER", "SELECT", "SET", "SUM", "TABLE", "UPDATE", "VALUES",
        "WHERE",
    ]


def test_comparison_operators_and_expression_nodes():
    assert sorted(expr.COMPARATORS) == ["<", "<=", "=", ">", ">="]
    assert expr.__all__ == [
        "Expr", "Literal", "Param", "Compare", "And",
        "COMPARATORS", "Conjuncts", "conjuncts_of",
    ]


def test_column_types():
    assert types.__all__ == [
        "ColumnType", "INTEGER", "REAL", "TEXT", "type_by_name",
    ]
    assert sorted(types._TYPES) == ["INTEGER", "REAL", "TEXT"]


# -- what it refuses ---------------------------------------------------------


@pytest.mark.parametrize("sql", [
    "DROP TABLE t",
    "DROP TABLE IF EXISTS t",
    "INSERT INTO t (a, b, c) VALUES (1, 'x', 2)",
    "INSERT INTO t VALUES (NULL, 'x', 2)",
    "UPDATE t SET b = NULL WHERE a = 1",
    "SELECT MIN(a) FROM t",
    "SELECT COUNT(a) FROM t",
    "SELECT * FROM t WHERE a = 1 OR a = 2",
    "SELECT * FROM t WHERE NOT a = 1",
    "SELECT * FROM t WHERE b IS NULL",
    "SELECT * FROM t WHERE b IS NOT NULL",
    "SELECT * FROM t WHERE a = NULL",
    "SELECT * FROM t WHERE a BETWEEN 1 AND 2",
    "SELECT * FROM t WHERE a != 1",
    "SELECT * FROM t WHERE a <> 1",
    "SELECT * FROM t WHERE a",
])
def test_removed_construct_is_a_syntax_error(sql):
    with pytest.raises(SQLSyntaxError):
        parse(sql)


def _counters(db):
    return (db.n_statements, db.n_rows_examined, db.n_index_probes,
            db.n_full_scans, db.n_sorted_probes, db.n_agg_probes)


@pytest.mark.parametrize("rows", [_ROWS, []], ids=["rows", "empty"])
@pytest.mark.parametrize("error, match, sql, params", [
    # A WHERE term is ``column op value``, and a value is ? or a literal.
    (SQLSyntaxError, "expected identifier", "SELECT * FROM t WHERE ? < c",
     (1,)),
    (SQLSyntaxError, "expected identifier",
     "SELECT * FROM t WHERE a = ? AND 1 = b", (1,)),
    (SQLSyntaxError, "expected a value", "SELECT * FROM t WHERE a = c", ()),
    (SQLSyntaxError, "expected a value",
     "DELETE FROM t WHERE a < c AND b = ?", ("x",)),
    (SQLSyntaxError, "expected identifier", "SELECT * FROM t WHERE ? = ?",
     (1, 1)),
    (SQLSyntaxError, "expected identifier",
     "SELECT * FROM t WHERE a = ? AND (b = ? AND c < ?)", (1, "x", 0)),
    (SQLSyntaxError, "expected identifier", "SELECT * FROM t WHERE (a = 1)",
     ()),
    (SQLSyntaxError, "expected a value", "INSERT INTO t VALUES (1, b, 2)",
     ()),
    (SQLSyntaxError, "expected a value", "UPDATE t SET a = c WHERE b = ?",
     ("x",)),
    # A WHERE or SET value must be what its column stores.
    (SQLTypeError, "INTEGER column got 'x'", "SELECT * FROM t WHERE a = ?",
     ("x",)),
    (SQLTypeError, "TEXT column got 1",
     "SELECT MAX(c) FROM t WHERE b = ?", (1,)),
    (SQLTypeError, "INTEGER column got 1.5",
     "SELECT c FROM t WHERE a = 1 AND c >= 1.5 ORDER BY c", ()),
    (SQLTypeError, "INTEGER column got True",
     "DELETE FROM t WHERE c < ?", (True,)),
    (SQLTypeError, "TEXT column got 7", "UPDATE t SET b = ? WHERE a = ?",
     (7, 1)),
    (SQLTypeError, "INTEGER column got 'z'", "UPDATE t SET c = 'z'", ()),
    # Every column named in WHERE or SET must exist ...
    (ColumnNotFound, "no column 'zz'", "SELECT * FROM t WHERE zz = ?", (1,)),
    (ColumnNotFound, "no column 'zz'",
     "SELECT COUNT(*) FROM t WHERE a = ? AND zz < ?", (1, 2)),
    (ColumnNotFound, "no column 'zz'", "UPDATE t SET zz = ? WHERE a = ?",
     (1, 1)),
    (ColumnNotFound, "no column 'zz'", "DELETE FROM t WHERE zz = 1", ()),
    # So must every column a SELECT lists, sorts by or aggregates.
    (ColumnNotFound, "no column 'zz'", "SELECT zz FROM t WHERE a = ?", (1,)),
    (ColumnNotFound, "no column 'zz'",
     "SELECT * FROM t WHERE c > ? ORDER BY zz", (0,)),
    (ColumnNotFound, "no column 'zz'", "SELECT MAX(zz) FROM t WHERE b = ?",
     ("x",)),
    # A short parameter list is refused before any row is examined.
    (MetaDBError, r"statement needs parameter #2, got only 1",
     "SELECT * FROM t WHERE a = ? AND c > ?", (1,)),
    (MetaDBError, r"statement needs parameter #1, got only 0",
     "SELECT c FROM t WHERE a = ? ORDER BY c DESC LIMIT 1", ()),
    (MetaDBError, r"statement needs parameter #2, got only 1",
     "UPDATE t SET c = ? WHERE a = ?", (0,)),
    (MetaDBError, r"statement needs parameter #1, got only 0",
     "DELETE FROM t WHERE b = ?", ()),
])
def test_statement_is_refused_before_any_row_is_examined(
        rows, error, match, sql, params):
    for index_set in (None, "mixed"):  # the full scan, then every index
        db = build(rows, index_set)
        before, counters = db.dump(), _counters(db)
        with pytest.raises(error, match=match) as raised:
            db.execute(sql, params)
        assert type(raised.value) is error
        assert db.dump() == before
        assert _counters(db) == counters
        check_index_integrity(db)


@pytest.mark.parametrize("blob", ["BLOB", "blob"])
def test_blob_column_is_a_type_error(blob):
    db = Database()
    with pytest.raises(SQLTypeError, match="unknown column type"):
        db.execute(f"CREATE TABLE t (a INTEGER, p {blob})")
    assert db.tables == {}


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
def test_none_parameter_raises_alike_on_index_and_scan_path(rows, sql, params):
    errors = []
    for index_set in (None, "mixed"):  # the full scan, then every index
        db = build(rows, index_set)
        before = db.dump()
        with pytest.raises(SQLTypeError, match="NULL") as raised:
            db.execute(sql, params)
        errors.append(str(raised.value))
        assert db.dump() == before
        assert db.n_full_scans == db.n_index_probes == 0  # raised unplanned
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
        with pytest.raises(SQLTypeError, match="NOT NULL"):
            db.execute_many(sql, param_rows)
        assert db.dump() == before, sql
    check_index_integrity(db)
    assert db.n_statements == statements


def test_null_in_a_dump_is_refused():
    with pytest.raises(SQLTypeError, match="NOT NULL"):
        types.INTEGER.coerce(None)
    dump = ('{"tables": {"t": {"columns": [["a", "INTEGER"]], '
            '"rows": [[1], [null]], "indexes": []}}, "boot": 0}')
    with pytest.raises(SQLTypeError, match="NOT NULL"):
        Database.loads(dump)
