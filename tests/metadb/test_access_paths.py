"""Which access path SQLite takes, and that the rows do not depend on it.

:meth:`Database.explain` is SQLite's ``EXPLAIN QUERY PLAN``.  The first
half holds the index a statement shape is served from — an equality or
range bound on an index prefix is a ``SEARCH``, anything else a
``SCAN`` — and that the rows are the ones the unindexed table returns,
in insertion order.  The second pins the plan of every statement
:class:`~repro.metadb.schema.SDMTables` issues, so an ``SDM_INDEXES``
edit that demotes one shows up here as an edited line.
"""

import json
import random
import re

import pytest

from metadb_harness import check_index_integrity
from repro.metadb import Database, SDMTables
from test_scan_coverage import _drive, _walks_a_table


def _table(rows=()):
    d = Database()
    d.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    d.execute_many("INSERT INTO t VALUES (?, ?, ?)", list(rows))
    return d


_ROWS = [(i % 5, f"s{i % 3}", i) for i in range(20)]


@pytest.fixture()
def db():
    return _table(_ROWS)


def _searches(plan, index):
    """Whether ``plan``'s first step probes ``index`` (a column tuple)."""
    return (plan[0].startswith("SEARCH ")
            and f"INDEX t({','.join(index)})" in plan[0])


def _sorts(plan):
    return any(step.startswith("USE TEMP B-TREE") for step in plan)


# -- equality on an index prefix ---------------------------------------------


def test_indexed_equality_probes_skip_the_scan(db):
    db.create_index("t", ("a",))
    assert _searches(db.explain("SELECT * FROM t WHERE a = ?", (3,)), ("a",))
    # AND with an unindexed residue still probes, then filters.
    sql = "SELECT c FROM t WHERE a = ? AND c >= ?"
    assert _searches(db.explain(sql, (3, 10)), ("a",))
    assert db.execute(sql, (3, 10)) == [(13,), (18,)]


def test_unindexed_or_non_equality_falls_back_to_scan(db):
    db.create_index("t", ("a",))
    for sql, params in (
        ("SELECT * FROM t WHERE c = ?", (7,)),  # no index on c
        ("SELECT * FROM t WHERE b = ? AND c < ?", ("s1", 7)),
        ("SELECT * FROM t WHERE c > ?", (15,)),  # a is the index's key
    ):
        assert _walks_a_table(db.explain(sql, params)), sql


def test_probe_results_match_scan_results(db):
    sql = "SELECT * FROM t WHERE a = ? AND b = ?"
    expect = db.execute(sql, (2, "s1"))
    db.create_index("t", ("a",))
    db.create_index("t", ("b",))
    assert not _walks_a_table(db.explain(sql, (2, "s1")))
    assert db.execute(sql, (2, "s1")) == expect == [(2, "s1", 7)]


def test_composite_index_probes_once(db):
    sql = "SELECT * FROM t WHERE a = ? AND b = ?"
    expect = db.execute(sql, (2, "s1"))
    db.create_index("t", ("a", "b"))
    plan = db.explain(sql, (2, "s1"))
    assert _searches(plan, ("a", "b")) and "(a=? AND b=?)" in plan[0]
    assert db.execute(sql, (2, "s1")) == expect and expect
    # Reversed conjunct order binds the same composite key.
    reversed_sql = "SELECT * FROM t WHERE b = ? AND a = ?"
    assert "(a=? AND b=?)" in db.explain(reversed_sql, ("s1", 2))[0]
    assert db.execute(reversed_sql, ("s1", 2)) == expect


def test_composite_index_needs_every_column_bound(db):
    # Bound means a leading prefix: it probes a slice, while a trailing
    # column alone cannot use the index.
    db.create_index("t", ("a", "b"))
    assert _walks_a_table(db.explain("SELECT * FROM t WHERE b = ?", ("s1",)))
    sql = "SELECT c FROM t WHERE a = ?"
    plan = db.explain(sql, (2,))
    assert _searches(plan, ("a", "b")) and "(a=?)" in plan[0]
    assert db.execute(sql, (2,)) == [(2,), (7,), (12,), (17,)]


# -- ranges and order --------------------------------------------------------


def test_range_predicates_use_ordered_index(db):
    between = "SELECT * FROM t WHERE c >= ? AND c <= ?"
    expect_gt = db.execute("SELECT * FROM t WHERE c > ?", (15,))
    expect_between = db.execute(between, (5, 8))
    db.create_index("t", ("c",))
    plan = db.explain(between, (5, 8))
    assert _searches(plan, ("c",)) and "(c>? AND c<?)" in plan[0]
    assert db.execute(between, (5, 8)) == expect_between
    assert [row[2] for row in expect_between] == [5, 6, 7, 8]
    assert db.execute("SELECT * FROM t WHERE c > ?", (15,)) == expect_gt


def test_ordered_prefix_plus_range(db):
    sql = "SELECT * FROM t WHERE a = ? AND c >= ?"
    expect = db.execute(sql, (3, 10))
    db.create_index("t", ("a", "c"))
    plan = db.explain(sql, (3, 10))
    assert _searches(plan, ("a", "c")) and "(a=? AND c>?)" in plan[0]
    assert db.execute(sql, (3, 10)) == expect == [(3, "s1", 13), (3, "s0", 18)]


def test_ascending_order_by_is_served_without_sort(db):
    # Index entries are ordered by their columns, then rowid: ascending
    # ORDER BY on the index's next column walks them as they are.
    db.create_index("t", ("a", "c"))
    sql = "SELECT c FROM t WHERE a = ? ORDER BY c"
    assert not _sorts(db.explain(sql, (3,)))
    assert db.execute(sql, (3,)) == [(3,), (8,), (13,), (18,)]
    # Whole-table ORDER BY (no WHERE) walks an index too.
    db.create_index("t", ("c",))
    assert not _sorts(db.explain("SELECT c FROM t ORDER BY c"))
    assert db.execute("SELECT c FROM t ORDER BY c") == [
        (c,) for c in range(20)]


def test_descending_limit_sorts_only_the_slice(db):
    # DESC on the index column with rowid ascending as its tie-break is
    # the right part of the ORDER BY left to sort: SQLite still probes
    # the a = ? slice, and LIMIT 1 keeps the largest c.
    sql = "SELECT * FROM t WHERE a = ? ORDER BY c DESC LIMIT 1"
    expect = db.execute(sql, (3,))
    db.create_index("t", ("a", "c"))
    plan = db.explain(sql, (3,))
    assert _searches(plan, ("a", "c"))
    assert plan[1:] == ["USE TEMP B-TREE FOR RIGHT PART OF ORDER BY"]
    assert db.execute(sql, (3,)) == expect == [(3, "s0", 18)]


def test_order_by_with_residual_where_still_sorts(db):
    db.create_index("t", ("a", "c"))
    db.create_index("t", ("b",))
    rows = db.execute(
        "SELECT c FROM t WHERE a = ? AND b = ? ORDER BY c DESC", (2, "s1")
    )
    assert rows == [(7,)]


def test_duplicate_keys_come_back_in_insertion_order():
    d = _table()
    d.create_index("t", ("a",))
    d.execute("INSERT INTO t VALUES (?, ?, ?)", (5, "first", 0))
    d.execute_many("INSERT INTO t VALUES (?, ?, ?)",
                   [(9, "x", 1), (1, "x", 2), (5, "second", 3), (3, "x", 4)])
    assert _searches(d.explain("SELECT b FROM t WHERE a = ?", (5,)), ("a",))
    assert d.execute("SELECT b FROM t WHERE a = ?", (5,)) == [
        ("first",), ("second",)]
    assert d.execute("SELECT a FROM t ORDER BY a") == [
        (1,), (3,), (5,), (5,), (9,)]


# -- index upkeep ------------------------------------------------------------


def test_index_maintained_across_insert_update_delete(db):
    db.create_index("t", ("a",))
    db.execute("INSERT INTO t VALUES (42, 'new', 100)")
    assert db.execute("SELECT c FROM t WHERE a = 42") == [(100,)]
    db.execute("UPDATE t SET a = ? WHERE c = ?", (43, 100))
    assert db.execute("SELECT c FROM t WHERE a = 42") == []
    assert db.execute("SELECT c FROM t WHERE a = 43") == [(100,)]
    db.execute("DELETE FROM t WHERE a = ?", (0,))
    assert db.execute("SELECT * FROM t WHERE a = 0") == []
    assert db.execute("SELECT COUNT(*) FROM t") == [(17,)]
    check_index_integrity(db)


def test_delete_then_reinsert_keeps_indexes_consistent(db):
    db.create_index("t", ("a",))
    db.create_index("t", ("a", "c"))
    db.execute("DELETE FROM t WHERE a = ?", (2,))
    db.execute("INSERT INTO t VALUES (2, 'back', 50)")
    check_index_integrity(db)
    assert db.execute("SELECT b, c FROM t WHERE a = 2") == [("back", 50)]
    assert db.execute(
        "SELECT c FROM t WHERE a = ? AND c >= ?", (2, 0)
    ) == [(50,)]


def test_update_moves_row_between_buckets(db):
    # An UPDATE that changes an indexed column must move the row out of
    # its old slot in every index.
    db.create_index("t", ("a",))
    db.create_index("t", ("c",))
    db.execute("UPDATE t SET a = ?, c = ? WHERE c = ?", (99, 1000, 7))
    check_index_integrity(db)
    assert db.execute("SELECT c FROM t WHERE a = 99") == [(1000,)]
    assert db.execute("SELECT a FROM t WHERE a = 2 AND c = 7") == []
    assert db.execute("SELECT c FROM t WHERE c > ?", (900,)) == [(1000,)]


def test_survivors_keep_insertion_order_after_deletes_and_reinserts(db):
    # Deleting rows leaves the survivors' order alone, and a row inserted
    # afterwards comes back after every survivor, whichever path answers.
    db.create_index("t", ("a", "c"))
    db.execute("DELETE FROM t WHERE c >= ?", (15,))
    db.execute("DELETE FROM t WHERE a = ?", (1,))
    db.execute_many("INSERT INTO t VALUES (?, ?, ?)", [(1, "new", -1),
                                                       (4, "new", -2)])
    survivors = [r for r in _ROWS if r[2] < 15 and r[0] != 1]
    expect = survivors + [(1, "new", -1), (4, "new", -2)]
    assert db.execute("SELECT * FROM t") == expect
    assert db.execute("SELECT * FROM t WHERE a = ?", (4,)) == [
        r for r in expect if r[0] == 4]
    dumped = json.loads(db.dump())["tables"]["t"]["rows"]
    assert dumped == [list(r) for r in expect]


def test_indexes_survive_dump_loads_roundtrip(db):
    for columns in (("a",), ("a", "b"), ("a", "c")):
        db.create_index("t", columns)
    restored = Database.loads(db.dump())
    check_index_integrity(restored)
    sql = "SELECT * FROM t WHERE a = ? AND b = ?"
    assert restored.explain(sql, (2, "s1")) == db.explain(sql, (2, "s1"))
    assert restored.execute(sql, (2, "s1")) == db.execute(sql, (2, "s1"))
    assert restored.dump() == db.dump().replace('"boot": 0', '"boot": 1')


def test_shared_statement_plans_against_each_databases_own_indexes():
    # One statement text, two databases with different indexes: each is
    # planned against its own.
    sql = "SELECT c FROM t WHERE a = ? AND b = ?"
    by_a, by_ab = _table(_ROWS), _table(_ROWS)
    by_a.create_index("t", ("a",))
    by_ab.create_index("t", ("a", "b"))
    for d, index in ((by_a, ("a",)), (by_ab, ("a", "b")), (by_a, ("a",))):
        assert _searches(d.explain(sql, (2, "s1")), index)
        assert d.execute(sql, (2, "s1")) == [(7,)]


def test_cost_model_result_matches_scan():
    plain = _table(_ROWS)
    indexed = _table(_ROWS)
    indexed.create_index("t", ("b",))
    indexed.create_index("t", ("c",))
    sql = "SELECT * FROM t WHERE b = ? AND c >= ?"
    for params in (("s0", 3), ("s0", 12), ("s2", 3), ("s2", 18)):
        assert indexed.execute(sql, params) == plain.execute(sql, params)
        assert not _walks_a_table(indexed.explain(sql, params))


# -- aggregates --------------------------------------------------------------


def _agg_table():
    d = _table((i % 3, f"s{i}", i) for i in range(12))
    d.create_index("t", ("a", "c"))
    d.create_index("t", ("c",))
    return d


def test_max_runid_allocation_is_an_index_probe():
    tables = SDMTables(Database())
    tables.create_all()
    assert tables.next_runid() == 1
    for runid in (1, 2, 7):
        tables.insert_run(runid, "app", 3, 100, 10)
    assert tables.next_runid() == 8
    assert tables.db.explain("SELECT MAX(runid) FROM run_table") == [
        "SEARCH run_table USING COVERING INDEX run_table(runid)"]


def test_min_max_from_slice_ends():
    d = _agg_table()
    for sql, params, expect in (
        ("SELECT MAX(c) FROM t", (), 11),
        ("SELECT MAX(c) FROM t WHERE a = ?", (1,), 10),
        ("SELECT MAX(c) FROM t WHERE a = ?", (2,), 11),
        ("SELECT MAX(c) FROM t WHERE c <= ?", (8,), 8),
        ("SELECT MAX(c) FROM t WHERE a = ? AND c < ?", (0, 7), 6),
        ("SELECT MAX(c) FROM t WHERE c >= ? AND c <= ?", (3, 5), 5),
    ):
        assert d.execute(sql, params) == [(expect,)], sql
        assert not _walks_a_table(d.explain(sql, params)), sql


def test_aggregate_with_a_residual_where():
    d = _agg_table()
    # A conjunct on a column the index does not lead with, or a range on
    # a column other than MAX's, is filtered before aggregating.
    assert d.execute("SELECT MAX(c) FROM t WHERE a = ? AND b = ?",
                     (1, "s4")) == [(4,)]
    assert d.execute("SELECT MAX(c) FROM t WHERE a = ? AND a < ?",
                     (0, 1)) == [(9,)]
    assert d.execute("SELECT SUM(c) FROM t WHERE a = ?", (0,)) == [(18,)]


def test_aggregate_probe_matches_scan_everywhere():
    plain = _table((i % 3, f"s{i}", i) for i in range(12))
    indexed = _agg_table()
    for sql, params in (
        ("SELECT MAX(c) FROM t", ()),
        ("SELECT MAX(c) FROM t WHERE a = ?", (0,)),
        ("SELECT MAX(c) FROM t WHERE a = ?", (5,)),
        ("SELECT MAX(c) FROM t WHERE c >= ?", (7,)),
        ("SELECT MAX(c) FROM t WHERE c < ?", (7,)),
        ("SELECT MAX(c) FROM t WHERE a = ? AND c >= ? AND c <= ?", (1, 3, 9)),
        ("SELECT SUM(c) FROM t WHERE c > ?", (20,)),
        ("SELECT COUNT(*) FROM t WHERE a = ?", (2,)),
    ):
        assert indexed.execute(sql, params) == plain.execute(sql, params), sql


def test_bulk_insert_into_indexed_table_matches_scan():
    rng = random.Random(11)
    rows = [(rng.randrange(6), f"s{rng.randrange(4)}", i) for i in range(200)]
    rng.shuffle(rows)
    indexed = _table()
    for columns in (("a",), ("a", "b"), ("a", "c")):
        indexed.create_index("t", columns)
    indexed.execute_many("INSERT INTO t VALUES (?, ?, ?)", rows)
    plain = _table(rows)
    check_index_integrity(indexed)
    for sql, params in (
        ("SELECT * FROM t WHERE a = ?", (3,)),
        ("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1")),
        ("SELECT * FROM t WHERE a = ? AND c >= ? AND c < ?", (1, 20, 160)),
        ("SELECT c FROM t WHERE a = ? ORDER BY c DESC LIMIT 5", (4,)),
        ("SELECT MAX(c) FROM t WHERE a = ?", (0,)),
        ("SELECT * FROM t ORDER BY a, c", ()),
    ):
        assert indexed.execute(sql, params) == plain.execute(sql, params), sql
        if " WHERE " in sql:
            assert not _walks_a_table(indexed.explain(sql, params)), sql


# -- golden plans: every statement SDMTables issues ---------------------------
#
# The plan of each statement the SDMTables accessors issue (the INSERTs
# and CREATEs aside), as explain returns it with the table name cut:
# SEARCH names the index and the columns it binds, SCAN walks a table
# (or, with COVERING INDEX, an index), and USE TEMP B-TREE is a sort.

GOLDEN_PLANS = {
    "SELECT MAX(runid) FROM run_table":
        "SEARCH USING COVERING INDEX(runid)",
    "SELECT data_type FROM access_pattern_table WHERE runid = ? AND "
    "dataset = ?":
        "SEARCH USING INDEX(runid,dataset) (runid=? AND dataset=?)",
    "SELECT problem_size, num_procs, dimension, registered_file_name FROM"
    " index_table WHERE problem_size = ? AND num_procs = ?":
        "SEARCH USING INDEX(problem_size,num_procs) (problem_size=? AND "
        "num_procs=?)",
    "SELECT rank, edge_count, node_count, edge_offset, node_offset FROM "
    "index_history_table WHERE problem_size = ? AND num_procs = ? AND "
    "rank = ?":
        "SEARCH USING INDEX(problem_size,num_procs,rank) (problem_size=? "
        "AND num_procs=? AND rank=?)",
    "SELECT file_name, file_offset, nbytes, valid_from FROM "
    "execution_table WHERE runid = ? AND dataset = ? AND timestep = ? AND"
    " valid_to = ?":
        "SEARCH USING INDEX(runid,dataset,timestep) (runid=? AND "
        "dataset=? AND timestep=?)",
    "SELECT file_offset, nbytes FROM execution_table WHERE file_name = ? "
    "ORDER BY file_offset DESC LIMIT 1":
        "SEARCH USING INDEX(file_name,file_offset) (file_name=?); USE "
        "TEMP B-TREE FOR RIGHT PART OF ORDER BY",
    "SELECT timestep FROM execution_table WHERE runid = ? AND dataset = ?"
    " AND valid_to = ? ORDER BY timestep":
        "SEARCH USING INDEX(runid,dataset,timestep) (runid=? AND "
        "dataset=?)",
    "SELECT MAX(epoch) FROM epoch_table":
        "SEARCH USING COVERING INDEX(epoch)",
    "SELECT MAX(pin_id) FROM pin_table":
        "SEARCH USING COVERING INDEX(pin_id)",
    "UPDATE pin_table SET touched = ? WHERE pin_id = ?":
        "SEARCH USING INDEX(pin_id) (pin_id=?)",
    "SELECT holder, boot, heartbeat FROM lease_table WHERE file_name = ?":
        "SEARCH USING INDEX(file_name) (file_name=?)",
    "SELECT holder FROM lease_table WHERE file_name = ?":
        "SEARCH USING INDEX(file_name) (file_name=?)",
    "UPDATE lease_table SET heartbeat = ? WHERE file_name = ? AND holder "
    "= ?":
        "SEARCH USING INDEX(file_name) (file_name=?)",
    "SELECT COUNT(*) FROM epoch_table WHERE epoch = ?":
        "SEARCH USING COVERING INDEX(epoch) (epoch=?)",
    "UPDATE execution_table SET valid_to = ? WHERE runid = ? AND dataset "
    "= ? AND timestep = ? AND file_name = ? AND valid_to = ?":
        "SEARCH USING INDEX(runid,dataset,timestep) (runid=? AND "
        "dataset=? AND timestep=?)",
    "UPDATE chunk_table SET valid_to = ? WHERE runid = ? AND dataset = ? "
    "AND timestep = ? AND valid_to = ? AND valid_from < ?":
        "SEARCH USING INDEX(runid,dataset,timestep,rank) (runid=? AND "
        "dataset=? AND timestep=?)",
    "UPDATE epoch_table SET state = ? WHERE file_name = ? AND epoch = ? "
    "AND state = ?":
        "SEARCH USING INDEX(file_name,epoch) (file_name=? AND epoch=?)",
    "SELECT MAX(epoch) FROM epoch_table WHERE file_name = ?":
        "SEARCH USING COVERING INDEX(file_name,epoch) (file_name=?)",
    "SELECT file_name, file_offset, nbytes, valid_from FROM "
    "execution_table WHERE runid = ? AND dataset = ? AND timestep = ? AND"
    " valid_from <= ? AND valid_to > ?":
        "SEARCH USING INDEX(runid,dataset,timestep) (runid=? AND "
        "dataset=? AND timestep=?)",
    "SELECT timestep FROM execution_table WHERE runid = ? AND dataset = ?"
    " AND valid_from <= ? AND valid_to > ? ORDER BY timestep":
        "SEARCH USING INDEX(runid,dataset,timestep) (runid=? AND "
        "dataset=?)",
    "SELECT rank, gid_min, gid_max, num_elements, index_offset, "
    "data_offset, gid_step, valid_from FROM chunk_table WHERE runid = ? "
    "AND dataset = ? AND timestep = ? AND valid_from <= ? AND valid_to > "
    "? ORDER BY rank":
        "SEARCH USING INDEX(runid,dataset,timestep,rank) (runid=? AND "
        "dataset=? AND timestep=?)",
    "SELECT file_name FROM execution_table WHERE valid_to < ?":
        "SCAN",
    "SELECT epoch FROM pin_table":
        "SCAN",
    "SELECT runid, dataset, timestep, file_offset, nbytes, valid_from, "
    "valid_to FROM execution_table WHERE file_name = ? AND valid_to < ? "
    "ORDER BY file_offset":
        "SEARCH USING INDEX(file_name,file_offset) (file_name=?)",
    "DELETE FROM epoch_table WHERE file_name = ? AND epoch < ?":
        "SEARCH USING INDEX(file_name,epoch) (file_name=? AND epoch<?)",
    "SELECT pin_id, client, epoch, boot, touched FROM pin_table":
        "SCAN",
    "SELECT pin_id, client, epoch FROM pin_table":
        "SCAN",
    "SELECT COUNT(*) FROM pin_table":
        "SCAN USING COVERING INDEX(pin_id)",
    "UPDATE pin_table SET epoch = ? WHERE pin_id = ?":
        "SEARCH USING INDEX(pin_id) (pin_id=?)",
    "DELETE FROM pin_table WHERE pin_id = ?":
        "SEARCH USING INDEX(pin_id) (pin_id=?)",
    "DELETE FROM execution_table WHERE runid = ? AND dataset = ? AND "
    "timestep = ? AND file_name = ? AND valid_to = ?":
        "SEARCH USING INDEX(runid,dataset,timestep) (runid=? AND "
        "dataset=? AND timestep=?)",
    "DELETE FROM chunk_table WHERE runid = ? AND dataset = ? AND timestep"
    " = ? AND valid_to = ?":
        "SEARCH USING INDEX(runid,dataset,timestep,rank) (runid=? AND "
        "dataset=? AND timestep=?)",
    "DELETE FROM extent_table WHERE file_name = ? AND file_offset >= ?":
        "SEARCH USING INDEX(file_name,file_offset) (file_name=? AND "
        "file_offset>?)",
    "SELECT file_offset, nbytes FROM extent_table WHERE file_name = ? "
    "ORDER BY file_offset":
        "SEARCH USING INDEX(file_name,file_offset) (file_name=?)",
    "SELECT SUM(nbytes) FROM extent_table WHERE file_name = ?":
        "SEARCH USING INDEX(file_name,file_offset) (file_name=?)",
    "SELECT runid, dataset, timestep FROM execution_table WHERE file_name"
    " = ?":
        "SEARCH USING INDEX(file_name,file_offset) (file_name=?); USE "
        "TEMP B-TREE FOR ORDER BY",
    "SELECT rank, gid_min, gid_max, num_elements, index_offset, "
    "data_offset, gid_step FROM chunk_table WHERE runid = ? AND dataset ="
    " ? AND timestep = ?":
        "SEARCH USING INDEX(runid,dataset,timestep,rank) (runid=? AND "
        "dataset=? AND timestep=?); USE TEMP B-TREE FOR ORDER BY",
    "DELETE FROM extent_table WHERE file_name = ? AND file_offset = ?":
        "SEARCH USING INDEX(file_name,file_offset) (file_name=? AND "
        "file_offset=?)",
    "DELETE FROM extent_table WHERE file_name = ?":
        "SEARCH USING INDEX(file_name,file_offset) (file_name=?)",
    "UPDATE execution_table SET valid_to = ? WHERE runid = ? AND dataset "
    "= ? AND timestep = ? AND file_name = ? AND valid_from = ? AND "
    "valid_to = ?":
        "SEARCH USING INDEX(runid,dataset,timestep) (runid=? AND "
        "dataset=? AND timestep=?)",
    "SELECT epoch FROM epoch_table WHERE file_name = ? AND state = ?":
        "SEARCH USING INDEX(file_name,epoch) (file_name=?); USE TEMP "
        "B-TREE FOR ORDER BY",
    "SELECT file_name FROM epoch_table WHERE state = ?":
        "SCAN",
    "DELETE FROM execution_table WHERE valid_from = ?":
        "SCAN",
    "DELETE FROM chunk_table WHERE valid_from = ?":
        "SCAN",
    "UPDATE execution_table SET valid_to = ? WHERE valid_to = ?":
        "SCAN",
    "UPDATE chunk_table SET valid_to = ? WHERE valid_to = ?":
        "SCAN",
    "DELETE FROM epoch_table WHERE file_name = ? AND epoch = ?":
        "SEARCH USING INDEX(file_name,epoch) (file_name=? AND epoch=?)",
    "DELETE FROM lease_table WHERE file_name = ? AND holder = ?":
        "SEARCH USING INDEX(file_name) (file_name=?)",
    "SELECT file_name, holder, boot FROM lease_table":
        "SCAN",
    "SELECT COUNT(*) FROM lease_table":
        "SCAN USING COVERING INDEX(file_name)",
    "SELECT MAX(jobid) FROM maintenance_table":
        "SEARCH USING COVERING INDEX(jobid)",
    "SELECT jobid, kind, application, organization, group_id, runid, "
    "dataset, timestep, file_name, data_type, global_size FROM "
    "maintenance_table ORDER BY jobid":
        "SCAN USING INDEX(jobid)",
    "DELETE FROM maintenance_table WHERE jobid = ?":
        "SEARCH USING INDEX(jobid) (jobid=?)",
    "SELECT runid, application, dimension, problem_size, num_timesteps "
    "FROM run_table ORDER BY runid":
        "SCAN USING INDEX(runid)",
    "SELECT dataset, basic_pattern, data_type, storage_order, global_size "
    "FROM access_pattern_table WHERE runid = ?":
        "SEARCH USING INDEX(runid,dataset) (runid=?); USE TEMP B-TREE FOR "
        "ORDER BY",
    "SELECT basic_pattern, data_type, storage_order, global_size FROM "
    "access_pattern_table WHERE runid = ? AND dataset = ?":
        "SEARCH USING INDEX(runid,dataset) (runid=? AND dataset=?)",
}


@pytest.fixture(scope="module")
def sdm_plans():
    """Each statement :func:`_drive` issues, with its plan at first use."""
    plans = {}
    execute, execute_many = Database.execute, Database.execute_many

    def record(db, sql, params):
        if not sql.startswith(("CREATE", "INSERT")) and sql not in plans:
            plans[sql] = "; ".join(re.sub(r" \w+_table\b", "", step)
                                   for step in db.explain(sql, params))

    def executing(self, sql, params=(), proc=None):
        record(self, sql, params)
        return execute(self, sql, params, proc)

    def executing_many(self, sql, param_rows, proc=None):
        for params in param_rows[:1]:
            record(self, sql, params)
        return execute_many(self, sql, param_rows, proc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Database, "execute", executing)
        patch.setattr(Database, "execute_many", executing_many)
        _drive(SDMTables(Database()))
    return plans


def test_golden_plans_name_every_sdm_statement(sdm_plans):
    assert sorted(sdm_plans) == sorted(GOLDEN_PLANS)


@pytest.mark.parametrize("sql", list(GOLDEN_PLANS))
def test_every_sdm_statement_keeps_its_golden_plan(sdm_plans, sql):
    assert sdm_plans.get(sql) == GOLDEN_PLANS[sql]
