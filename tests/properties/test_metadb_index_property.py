"""Property: every indexed query plan is indistinguishable from a full scan.

Databases with identical contents but different index configurations —
none (forced full scan), single-column, composite, range/ORDER BY-shaped,
and all of them at once — must return byte-identical rows (same order, same
tie-breaks) for every generated SELECT/ORDER BY/LIMIT combination,
and end in identical states after every UPDATE/DELETE.  The indexed
database's structures must also stay consistent with a from-scratch
rebuild after each mutation, and must survive a ``dump()``/``loads()``
persistence round-trip.  A second, stateful case interleaves INSERT,
batched INSERT, UPDATE and DELETE and holds both properties after every
step — index upkeep is per entry, so this is where a stale or missing
entry would show.

Duplicate keys are generated on purpose: the value domains are tiny, so
collisions occur in most examples.  Every column is NOT NULL, so no
None is drawn.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from metadb_harness import (
    INDEX_SETS,
    LIMITS,
    ORDER_BYS,
    TEMPLATES,
    bind,
    build,
    check_index_integrity,
    queries,
)
from repro.metadb import Database

_INT = st.integers(-5, 5)
_TXT = st.sampled_from(["x", "y", "z"])


@st.composite
def _case(draw):
    rows = draw(
        st.lists(st.tuples(_INT, _TXT, _INT), min_size=0, max_size=30)
    )
    template, kinds = draw(st.sampled_from(TEMPLATES))
    params = tuple(
        draw(_INT) if kind == "int" else draw(_TXT) for kind in kinds
    )
    order_by = draw(st.sampled_from(ORDER_BYS))
    limit = draw(st.sampled_from(LIMITS))
    index_set = draw(st.sampled_from(sorted(INDEX_SETS)))
    return rows, template, params, order_by, limit, index_set


@settings(max_examples=250, deadline=None)
@given(_case())
def test_every_index_plan_agrees_with_full_scan(case):
    rows, template, params, order_by, limit, index_set = case
    plain = build(rows)
    fast = build(rows, index_set)

    where = f"WHERE {template} " if template else ""
    tail = f"{where}{order_by}"
    if limit is not None:
        tail = f"{tail} LIMIT {limit}"

    select = f"SELECT * FROM t {tail}"
    assert fast.execute(select, params) == plain.execute(select, params)
    projected = f"SELECT a, c FROM t {tail}"
    assert fast.execute(projected, params) == plain.execute(projected, params)
    count = f"SELECT COUNT(*) FROM t {where}"
    assert fast.execute(count, params) == plain.execute(count, params)
    # MAX may come from an ordered index's slice end; empty matches and
    # range bounds must agree with the materializing path.
    agg = f"SELECT MAX(c) FROM t {where}"
    assert fast.execute(agg, params) == plain.execute(agg, params)

    # Persistence round-trips the declarations and the row contents.
    restored = Database.loads(fast.dump())
    assert json.loads(restored.dump())["tables"] == json.loads(fast.dump())["tables"]
    check_index_integrity(restored)
    assert restored.execute(select, params) == plain.execute(select, params)

    # Mutations leave every engine in the same state, and the incremental
    # index maintenance matches a from-scratch rebuild.
    if template is not None:
        update = f"UPDATE t SET a = ? {where}"
        fast.execute(update, (3,) + params)
        plain.execute(update, (3,) + params)
        check_index_integrity(fast)
        assert fast.execute("SELECT * FROM t") == plain.execute("SELECT * FROM t")

        delete = f"DELETE FROM t {where}"
        fast.execute(delete, params)
        plain.execute(delete, params)
        check_index_integrity(fast)
        assert fast.execute("SELECT * FROM t") == plain.execute("SELECT * FROM t")

    # Delete-then-reinsert: survivors keep their rowids and the new rows
    # get fresh ones; the maintained structures must take both.
    fast.execute("DELETE FROM t WHERE a = ?", (3,))
    plain.execute("DELETE FROM t WHERE a = ?", (3,))
    for row in [(3, "x", 0), (-5, "z", -5), (3, "x", 0)]:
        fast.execute("INSERT INTO t VALUES (?, ?, ?)", row)
        plain.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    check_index_integrity(fast)
    probe = "SELECT * FROM t WHERE a = ? AND b = ?"
    for needle in (3, 0, -5):
        args = (needle, "x")
        assert fast.execute(probe, args) == plain.execute(probe, args)
    ordered = "SELECT * FROM t ORDER BY c DESC, a DESC LIMIT 4"
    assert fast.execute(ordered) == plain.execute(ordered)


# -- stateful: interleaved mutations --------------------------------------

_ROW = st.tuples(_INT, _TXT, _INT)


@st.composite
def _mutation(draw):
    kind = draw(st.sampled_from(["insert", "insert_many", "update", "delete"]))
    if kind == "insert":
        return kind, draw(_ROW)
    if kind == "insert_many":
        return kind, draw(st.lists(_ROW, min_size=0, max_size=6))
    # The unfiltered template would empty (or flatten) the table at once.
    template, kinds = draw(st.sampled_from(TEMPLATES[1:]))
    params = bind(kinds, draw(st.tuples(_INT, _INT, _INT)), draw(_TXT))
    if kind == "update":
        column = draw(st.sampled_from("ac"))
        return kind, (f"UPDATE t SET {column} = ? WHERE {template}",
                      (draw(_INT),) + params)
    return kind, (f"DELETE FROM t WHERE {template}", params)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_ROW, max_size=12),
    st.sampled_from(sorted(INDEX_SETS)),
    st.lists(_mutation(), min_size=1, max_size=10),
    st.tuples(_INT, _INT, _INT),
    _TXT,
)
def test_interleaved_mutations_stay_scan_identical(
    rows, index_set, mutations, ints, txt
):
    plain = build(rows)
    fast = build(rows, index_set)
    for step, (kind, arg) in enumerate(mutations):
        for db in (fast, plain):
            if kind == "insert":
                db.execute("INSERT INTO t VALUES (?, ?, ?)", arg)
            elif kind == "insert_many":
                db.execute_many("INSERT INTO t VALUES (?, ?, ?)", arg)
            else:
                db.execute(*arg)
        check_index_integrity(fast)
        order_by = ORDER_BYS[1 + step % (len(ORDER_BYS) - 1)]
        for sql, params in queries(ints, txt, ("", order_by)):
            assert fast.execute(sql, params) == plain.execute(sql, params), sql
