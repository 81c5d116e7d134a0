"""Property: the mini-SQL engine agrees with a plain-Python model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadb import Database

_value = st.integers(-1000, 1000)
_text = st.sampled_from(["alpha", "beta", "gamma", "delta"])


@st.composite
def table_and_query(draw):
    rows = draw(
        st.lists(st.tuples(_value, _text, _value), min_size=0, max_size=25)
    )
    col = draw(st.sampled_from(["a", "c"]))
    op = draw(st.sampled_from(["=", "<", "<=", ">", ">="]))
    needle = draw(st.integers(-1000, 1000))
    return rows, col, op, needle


_PY_OPS = {
    "=": lambda x, y: x == y,
    "<": lambda x, y: x < y,
    "<=": lambda x, y: x <= y,
    ">": lambda x, y: x > y,
    ">=": lambda x, y: x >= y,
}


@settings(max_examples=150, deadline=None)
@given(table_and_query())
def test_where_filter_matches_python_model(case):
    rows, col, op, needle = case
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?, ?)", row)

    got = db.execute(f"SELECT * FROM t WHERE {col} {op} ?", (needle,))
    idx = 0 if col == "a" else 2
    expect = [r for r in rows if _PY_OPS[op](r[idx], needle)]
    assert got == expect

    # Aggregates agree with the model too.
    count = db.execute(f"SELECT COUNT(*) FROM t WHERE {col} {op} ?", (needle,))
    assert count == [(len(expect),)]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
             min_size=1, max_size=20)
)
def test_order_by_matches_python_sort(rows):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?)", row)
    got = db.execute("SELECT a, b FROM t ORDER BY a, b DESC")
    expect = sorted(rows, key=lambda r: (r[0], -r[1]))
    assert got == expect


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=0, max_size=30),
    st.integers(-50, 50),
)
def test_delete_then_count_matches_model(values, threshold):
    db = Database()
    db.execute("CREATE TABLE t (v INTEGER)")
    for v in values:
        db.execute("INSERT INTO t VALUES (?)", (v,))
    db.execute("DELETE FROM t WHERE v < ?", (threshold,))
    remaining = db.execute("SELECT v FROM t")
    assert [r[0] for r in remaining] == [v for v in values if v >= threshold]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(-5, 5)),
                min_size=1, max_size=15))
def test_update_matches_model(rows):
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?)", row)
    db.execute("UPDATE t SET v = 99 WHERE k >= 10")
    got = db.execute("SELECT k, v FROM t")
    expect = [(k, 99 if k >= 10 else v) for k, v in rows]
    assert got == expect


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-9999, 9999), st.floats(
    allow_nan=False, allow_infinity=False, width=32)), min_size=0, max_size=15))
def test_persistence_roundtrip_property(rows):
    db = Database()
    db.execute("CREATE TABLE t (i INTEGER, r REAL)")
    for i, r in rows:
        db.execute("INSERT INTO t VALUES (?, ?)", (i, float(r)))
    loaded = Database.loads(db.dump())
    assert loaded.execute("SELECT * FROM t") == db.execute("SELECT * FROM t")
