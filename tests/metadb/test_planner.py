"""Statement cache, conjunct planner, statement plans, index maintenance,
cost accounting."""

import pytest

from metadb_harness import check_index_integrity
from repro.config import origin2000
from repro.errors import SQLTypeError
from repro.metadb import Database, SDMTables, engine
from repro.metadb.engine import clear_global_statement_cache
from repro.metadb.schema import SDM_INDEXES
from repro.metadb.table import index_name
from repro.simt import Simulator


@pytest.fixture()
def db():
    d = Database()
    d.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    for i in range(20):
        d.execute("INSERT INTO t VALUES (?, ?, ?)", (i % 5, f"s{i % 3}", i))
    return d


# -- statement cache ----------------------------------------------------
#
# The parse cache is process-global, so every test that counts parses
# clears it first: a statement text another test already ran would
# otherwise cost this test no parse at all.


def test_statement_cache_parses_once(db):
    clear_global_statement_cache()
    parses = db.n_parses
    for i in range(10):
        db.execute("SELECT * FROM t WHERE a = ?", (i,))
    assert db.n_parses == parses + 1


def test_projected_select_single_parse(db):
    clear_global_statement_cache()
    parses = db.n_parses
    rows = db.execute("SELECT a, b FROM t WHERE c = ?", (7,))
    assert rows == [(2, "s1")]
    assert db.n_parses == parses + 1
    db.execute("SELECT a, b FROM t WHERE c = ?", (8,))
    assert db.n_parses == parses + 1


def test_cache_is_per_sql_text(db):
    clear_global_statement_cache()
    parses = db.n_parses
    db.execute("SELECT * FROM t WHERE a = 1")
    db.execute("SELECT * FROM t WHERE a = 2")
    assert db.n_parses == parses + 2


# -- equality planner ----------------------------------------------------


def test_indexed_equality_probes_skip_the_scan(db):
    db.create_index("t", "a")
    db.execute("SELECT * FROM t WHERE a = ?", (3,))
    assert (db.n_index_probes, db.n_full_scans) == (1, 0)
    # AND with an unindexed residue still probes, then filters.
    rows = db.execute("SELECT c FROM t WHERE a = ? AND c >= ?", (3, 10))
    assert (db.n_index_probes, db.n_full_scans) == (2, 0)
    assert rows == [(13,), (18,)]


def test_unindexed_or_non_equality_falls_back_to_scan(db):
    db.create_index("t", "a")
    db.execute("SELECT * FROM t WHERE c = ?", (7,))  # no index on c
    db.execute("SELECT * FROM t WHERE b = ? AND c < ?", ("s1", 7))
    db.execute("SELECT * FROM t WHERE c > ?", (15,))  # a is the index's key
    assert (db.n_index_probes, db.n_full_scans) == (0, 3)


def test_probe_results_match_scan_results(db):
    expect = db.execute("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1"))
    db.create_index("t", "a")
    db.create_index("t", "b")
    assert db.execute("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1")) == expect
    assert db.n_index_probes == 1


# -- composite indexes ---------------------------------------------------


def test_composite_index_probes_once(db):
    expect = db.execute("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1"))
    db.create_index("t", ("a", "b"))
    db.n_full_scans = 0
    rows = db.execute("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1"))
    assert rows == expect and rows
    assert (db.n_index_probes, db.n_full_scans) == (1, 0)
    # Reversed conjunct order binds the same composite key.
    assert db.execute("SELECT * FROM t WHERE b = ? AND a = ?", ("s1", 2)) == expect


def test_composite_index_needs_every_column_bound(db):
    # Bound means a leading prefix: it probes a slice, while a trailing
    # column alone cannot use the index.
    db.create_index("t", ("a", "b"))
    db.execute("SELECT * FROM t WHERE b = ?", ("s1",))
    assert (db.n_index_probes, db.n_full_scans) == (0, 1)
    assert db.execute("SELECT c FROM t WHERE a = ?", (2,)) == [
        (2,), (7,), (12,), (17,)
    ]
    assert (db.n_index_probes, db.n_full_scans, db.n_rows_examined) == (
        1, 1, 20 + 4
    )


def test_planner_prefers_smallest_candidate_set(db):
    db.create_index("t", "a")  # slices of 4
    db.create_index("t", ("a", "b"))  # slices of 1-2
    assert db.execute("SELECT c FROM t WHERE a = ? AND b = ?", (2, "s1")) == [
        (7,)
    ]
    assert db.n_rows_examined == 1  # the composite slice, not a = 2's 4


# -- ordered indexes -----------------------------------------------------


def test_range_predicates_use_ordered_index(db):
    between = "SELECT * FROM t WHERE c >= ? AND c <= ?"
    expect_gt = db.execute("SELECT * FROM t WHERE c > ?", (15,))
    expect_between = db.execute(between, (5, 8))
    db.create_index("t", "c")
    scans = db.n_full_scans
    assert db.execute("SELECT * FROM t WHERE c > ?", (15,)) == expect_gt
    assert db.execute(between, (5, 8)) == expect_between
    assert db.n_full_scans == scans and db.n_index_probes == 2


def test_ordered_prefix_plus_range(db):
    expect = db.execute("SELECT * FROM t WHERE a = ? AND c >= ?", (3, 10))
    db.create_index("t", ("a", "c"))
    db.n_full_scans = 0
    assert db.execute("SELECT * FROM t WHERE a = ? AND c >= ?", (3, 10)) == expect
    assert (db.n_index_probes, db.n_full_scans) == (1, 0)


def test_order_by_limit_served_without_sort(db):
    expect = db.execute("SELECT * FROM t WHERE a = ? ORDER BY c DESC LIMIT 1", (3,))
    db.create_index("t", ("a", "c"))
    db.n_full_scans = 0
    got = db.execute("SELECT * FROM t WHERE a = ? ORDER BY c DESC LIMIT 1", (3,))
    assert got == expect
    assert (db.n_sorted_probes, db.n_index_probes, db.n_full_scans) == (1, 0, 0)
    # Whole-table ORDER BY (no WHERE) walks the index too.
    db.create_index("t", "c")
    expect_all = sorted(row[2] for _rowid, row in db.tables["t"].scan())
    assert [r[0] for r in db.execute("SELECT c FROM t ORDER BY c")] == expect_all
    assert db.n_sorted_probes == 2


def test_order_by_with_residual_where_still_sorts(db):
    # The WHERE is not fully covered by the index prefix, so the engine
    # must fall back to filter-then-sort (narrowed by an index slice).
    db.create_index("t", ("a", "c"))
    db.create_index("t", "b")
    rows = db.execute(
        "SELECT c FROM t WHERE a = ? AND b = ? ORDER BY c DESC", (2, "s1")
    )
    assert rows == [(7,)]
    assert db.n_sorted_probes == 0 and db.n_index_probes == 1


def test_incomparable_range_value_is_refused_at_bind(db):
    db.create_index("t", "c")
    with pytest.raises(SQLTypeError, match="INTEGER column got 'not-an-int'"):
        db.execute("SELECT * FROM t WHERE c > ?", ("not-an-int",))
    assert (db.n_index_probes, db.n_full_scans, db.n_rows_examined) == (0, 0, 0)


# -- index maintenance ---------------------------------------------------


def test_index_maintained_across_insert_update_delete(db):
    db.create_index("t", "a")
    db.execute("INSERT INTO t VALUES (42, 'new', 100)")
    assert db.execute("SELECT c FROM t WHERE a = 42") == [(100,)]
    db.execute("UPDATE t SET a = ? WHERE c = ?", (43, 100))
    assert db.execute("SELECT c FROM t WHERE a = 42") == []
    assert db.execute("SELECT c FROM t WHERE a = 43") == [(100,)]
    db.execute("DELETE FROM t WHERE a = ?", (0,))
    assert db.execute("SELECT * FROM t WHERE a = 0") == []
    assert db.execute("SELECT COUNT(*) FROM t") == [(17,)]


def test_delete_then_reinsert_keeps_indexes_consistent(db):
    # Regression: deletion leaves the survivors' rowids alone and never
    # hands a freed one out again; the re-inserted row gets a fresh rowid
    # and must land beside them in the maintained (not rebuilt) structures.
    db.create_index("t", "a")
    db.create_index("t", ("a", "c"))
    db.execute("DELETE FROM t WHERE a = ?", (2,))
    db.execute("INSERT INTO t VALUES (2, 'back', 50)")
    check_index_integrity(db)
    assert db.execute("SELECT b, c FROM t WHERE a = 2") == [("back", 50)]
    assert db.execute(
        "SELECT c FROM t WHERE a = ? AND c >= ?", (2, 0)
    ) == [(50,)]


def test_update_moves_row_between_buckets(db):
    # Regression: an UPDATE that changes an indexed column must move the
    # row out of its old slot in every index.
    db.create_index("t", "a")
    db.create_index("t", "c")
    db.execute("UPDATE t SET a = ?, c = ? WHERE c = ?", (99, 1000, 7))
    check_index_integrity(db)
    assert db.execute("SELECT c FROM t WHERE a = 99") == [(1000,)]
    assert db.execute("SELECT a FROM t WHERE a = 2 AND c = 7") == []
    assert db.execute("SELECT c FROM t WHERE c > ?", (900,)) == [(1000,)]


# -- cost accounting (regression: rows *touched*, not rows returned) ----


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


# -- schema wiring -------------------------------------------------------


def test_create_all_declares_sdm_indexes():
    tables = SDMTables(Database())
    tables.create_all()
    tables.create_all()  # idempotent, indexes included
    for table, columns in SDM_INDEXES:
        assert index_name(columns) in tables.db.tables[table].indexes
        # A declaration that is a column prefix of another on its table
        # is pure upkeep: the longer index serves every probe it would.
        assert not any(
            other != columns and other[:len(columns)] == columns
            for t, other in SDM_INDEXES if t == table
        ), (table, columns)
    tables.record_execution(1, "p", 0, "f.L3", 0, 100)
    assert tables.lookup_execution_version(1, "p", 0)[:3] == ("f.L3", 0, 100)
    assert tables.db.n_index_probes > 0
    assert tables.db.n_full_scans == 0


def test_max_offset_served_by_sorted_probe():
    tables = SDMTables(Database())
    tables.create_all()
    for step in range(10):
        tables.record_execution(1, "p", step, "grp.L3", step * 100, 100)
        tables.record_execution(1, "q", step, "other.L3", step * 50, 50)
    assert tables.max_offset_in_file("grp.L3") == 1000
    assert tables.max_offset_in_file("other.L3") == 500
    assert tables.max_offset_in_file("missing.L3") == 0
    assert tables.db.n_sorted_probes == 3
    assert tables.db.n_full_scans == 0


# -- index persistence ---------------------------------------------------


def test_indexes_survive_dump_loads_roundtrip(db):
    db.create_index("t", "a")
    db.create_index("t", ("a", "b"))
    db.create_index("t", ("a", "c"))
    restored = Database.loads(db.dump())
    assert sorted(restored.tables["t"].indexes) == sorted(db.tables["t"].indexes)
    check_index_integrity(restored)
    expect = db.execute("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1"))
    assert restored.execute("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1")) == expect
    assert (restored.n_index_probes, restored.n_full_scans) == (1, 0)


def test_snapshot_restored_catalog_probes_without_redeclaration():
    # Database.loads restores index declarations, so a reader attaching
    # to a snapshot answers the end-of-file probe from the ordered index
    # with no create_index / create_all call of its own.
    producer = SDMTables(Database())
    producer.create_all()
    producer.record_execution(1, "p", 3, "f.L3", 300, 100)

    reader = SDMTables(Database.loads(producer.db.dump()))
    assert reader.db.tables["execution_table"].indexes.keys() == (
        producer.db.tables["execution_table"].indexes.keys()
    )
    assert reader.lookup_execution_version(1, "p", 3)[:3] == ("f.L3", 300, 100)
    assert reader.max_offset_in_file("f.L3") == 400
    assert (reader.db.n_sorted_probes, reader.db.n_full_scans) == (1, 0)
    reader.create_all()  # still idempotent on a restored database
    assert reader.db.tables["execution_table"].indexes.keys() == (
        producer.db.tables["execution_table"].indexes.keys()
    )


# -- access-path choice: fewest candidates --------------------------------


def costed_db():
    d = Database()
    d.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    # The "bucket" is an equality slice of the (b) index: b='x' holds 10
    # rows (c = 0..9); b='y' holds c = 10..19.
    for i in range(20):
        d.execute(
            "INSERT INTO t VALUES (?, ?, ?)",
            (i % 5, "x" if i < 10 else "y", i),
        )
    d.create_index("t", "b")
    d.create_index("t", "c")
    return d


def test_planner_takes_smaller_slice_over_larger_bucket():
    d = costed_db()
    # bucket('x') = 10 candidates; slice c >= 12 = 8: the slice hands the
    # WHERE fewer rows to verify.
    rows = d.execute("SELECT * FROM t WHERE b = ? AND c >= ?", ("x", 12))
    assert rows == []
    assert (d.n_index_probes, d.n_full_scans) == (1, 0)
    assert d.n_rows_examined == 8


def test_planner_tie_keeps_the_bucket():
    d = costed_db()
    # bucket('y') = 10 candidates; slice c >= 10 = the same 10: a tie
    # keeps the index declared first, here the bucket, and either slice
    # examines 10 rows and comes back in insertion order.
    rows = d.execute("SELECT c FROM t WHERE b = ? AND c >= ?", ("y", 10))
    assert rows == [(c,) for c in range(10, 20)]
    assert (d.n_index_probes, d.n_full_scans) == (1, 0)
    assert d.n_rows_examined == 10


def test_cost_model_still_picks_much_smaller_slice():
    d = costed_db()
    # slice c >= 18 = 2 candidates against the 10-row bucket.
    rows = d.execute("SELECT c FROM t WHERE b = ? AND c >= ?", ("y", 18))
    assert rows == [(18,), (19,)]
    assert d.n_rows_examined == 2


def test_cost_model_result_matches_scan():
    plain = Database()
    plain.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    indexed = costed_db()
    for i in range(20):
        plain.execute(
            "INSERT INTO t VALUES (?, ?, ?)",
            (i % 5, "x" if i < 10 else "y", i),
        )
    for params in (("x", 3), ("x", 12), ("y", 3), ("y", 18)):
        sql = "SELECT * FROM t WHERE b = ? AND c >= ?"
        assert indexed.execute(sql, params) == plain.execute(sql, params)
    assert plain.n_index_probes == 0


# -- index-backed MAX aggregates -----------------------------------------


def agg_db():
    d = Database()
    d.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    d.create_index("t", ("a", "c"))
    d.create_index("t", "c")
    for i in range(12):
        d.execute("INSERT INTO t VALUES (?, ?, ?)", (i % 3, f"s{i}", i))
    return d


def test_max_runid_allocation_is_an_index_probe():
    tables = SDMTables(Database())
    tables.create_all()
    assert tables.next_runid() == 1
    for runid in (1, 2, 7):
        tables.insert_run(runid, "app", 3, 100, 10)
    probes = tables.db.n_agg_probes
    assert tables.next_runid() == 8
    assert tables.db.n_agg_probes == probes + 1


def test_min_max_from_slice_ends():
    d = agg_db()
    assert d.execute("SELECT MAX(c) FROM t") == [(11,)]
    assert d.execute("SELECT MAX(c) FROM t WHERE a = ?", (1,)) == [(10,)]
    assert d.execute("SELECT MAX(c) FROM t WHERE a = ?", (2,)) == [(11,)]
    assert d.execute("SELECT MAX(c) FROM t WHERE c <= ?", (8,)) == [(8,)]
    assert d.execute(
        "SELECT MAX(c) FROM t WHERE a = ? AND c < ?", (0, 7)
    ) == [(6,)]
    assert d.execute(
        "SELECT MAX(c) FROM t WHERE c >= ? AND c <= ?", (3, 5)
    ) == [(5,)]
    assert d.n_agg_probes == 6
    assert d.n_full_scans == 0


def test_aggregate_probe_empty_and_null_semantics():
    d = agg_db()
    # Empty match: NULL aggregate, exactly as the scan path reports it.
    assert d.execute("SELECT MAX(c) FROM t WHERE a = ?", (9,)) == [(None,)]
    assert d.execute("SELECT MAX(c) FROM t WHERE c > ?", (11,)) == [(None,)]
    assert d.execute(
        "SELECT MAX(c) FROM t WHERE a = ? AND c < ?", (1, 1)
    ) == [(None,)]
    assert (d.n_agg_probes, d.n_full_scans) == (3, 0)
    d2 = Database()
    d2.execute("CREATE TABLE t (c INTEGER)")
    d2.create_index("t", "c")
    assert d2.execute("SELECT MAX(c) FROM t") == [(None,)]
    assert d2.n_agg_probes == 1


def test_aggregate_probe_requires_complete_where():
    d = agg_db()
    probes = d.n_agg_probes
    # A conjunct on a column the index does not lead with, or a range on
    # a column other than MAX's, cannot be answered from a slice: it
    # falls back to filter + aggregate.
    rows = d.execute("SELECT MAX(c) FROM t WHERE a = ? AND b = ?", (1, "s4"))
    assert rows == [(4,)]
    rows = d.execute("SELECT MAX(c) FROM t WHERE a = ? AND a < ?", (0, 1))
    assert rows == [(9,)]
    assert d.n_agg_probes == probes
    # SUM has no slice-ends answer either.
    assert d.execute("SELECT SUM(c) FROM t WHERE a = ?", (0,)) == [(18,)]
    assert d.n_agg_probes == probes


def test_aggregate_probe_matches_scan_everywhere():
    plain = Database()
    plain.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    indexed = agg_db()
    for i in range(12):
        plain.execute("INSERT INTO t VALUES (?, ?, ?)", (i % 3, f"s{i}", i))
    queries = [
        ("SELECT MAX(c) FROM t", ()),
        ("SELECT MAX(c) FROM t WHERE a = ?", (0,)),
        ("SELECT MAX(c) FROM t WHERE a = ?", (5,)),
        ("SELECT MAX(c) FROM t WHERE c >= ?", (7,)),
        ("SELECT MAX(c) FROM t WHERE c < ?", (7,)),
        ("SELECT MAX(c) FROM t WHERE a = ? AND c >= ? AND c <= ?", (1, 3, 9)),
    ]
    for sql, params in queries:
        assert indexed.execute(sql, params) == plain.execute(sql, params), sql


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


# -- bulk-load index path (execute_many INSERT) -------------------------


def test_bulk_insert_keeps_every_index_scan_identical():
    """execute_many's append_rows path must leave every index exactly as
    per-row inserts would — probes, slices, sorted walks, and aggregates
    all agree with a fresh scan-only database."""
    import random

    rng = random.Random(11)
    rows = [(rng.randrange(6), f"s{rng.randrange(4)}", i)
            for i in range(200)]
    rng.shuffle(rows)

    indexed = Database()
    indexed.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    indexed.create_index("t", "a")
    indexed.create_index("t", ("a", "b"))
    indexed.create_index("t", ("a", "c"))
    indexed.execute_many("INSERT INTO t VALUES (?, ?, ?)", rows)

    plain = Database()
    plain.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    for r in rows:
        plain.execute("INSERT INTO t VALUES (?, ?, ?)", r)

    queries = [
        ("SELECT * FROM t WHERE a = ?", (3,)),
        ("SELECT * FROM t WHERE a = ? AND b = ?", (2, "s1")),
        ("SELECT * FROM t WHERE a = ? AND c >= ? AND c < ?", (1, 20, 160)),
        ("SELECT c FROM t WHERE a = ? ORDER BY c DESC LIMIT 5", (4,)),
        ("SELECT MAX(c) FROM t WHERE a = ?", (0,)),
        ("SELECT * FROM t ORDER BY a, c", ()),
    ]
    for sql, params in queries:
        assert indexed.execute(sql, params) == plain.execute(sql, params), sql
    assert indexed.n_full_scans == 0  # every WHERE above used an index


def test_bulk_insert_ordered_index_matches_incremental_maintenance():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    db.create_index("t", "a")
    db.execute("INSERT INTO t VALUES (?)", (5,))
    db.execute_many("INSERT INTO t VALUES (?)", [(9,), (1,), (5,), (3,)])
    index = db.tables["t"].indexes[index_name(("a",))]
    assert index.entries == sorted(index.entries)
    # Duplicate keys keep rowid-ascending (insertion) order.
    assert [rowid for key, rowid in index.entries
            if key == (5,)] == [0, 3]


def test_bulk_insert_bad_row_rejects_whole_batch():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    db.create_index("t", "a")
    with pytest.raises(SQLTypeError):
        db.execute_many("INSERT INTO t VALUES (?)", [(1,), ("nope",)])
    assert db.execute("SELECT COUNT(*) FROM t") == [(0,)]
    assert db.tables["t"].indexes[index_name(("a",))].entries == []


# -- process-global statement cache -------------------------------------


def test_restored_database_reparses_nothing():
    """A statement text parses once per process: a Database.loads
    restore finds what the original instance prepared in the shared
    cache and runs the parser for none of it."""
    clear_global_statement_cache()
    sql = "SELECT * FROM shared_cache_t WHERE a = ?"
    db1 = Database()
    db1.execute("CREATE TABLE shared_cache_t (a INTEGER)")
    db1.execute("INSERT INTO shared_cache_t VALUES (?)", (1,))
    db1.execute(sql, (1,))
    db1.execute(sql, (2,))
    assert db1.n_parses == 3

    db2 = Database.loads(db1.dump())
    assert db2.execute(sql, (1,)) == [(1,)]
    db2.execute("INSERT INTO shared_cache_t VALUES (?)", (2,))
    assert db2.n_parses == 0


def test_global_cache_is_bounded_and_clearable():
    from repro.metadb import engine

    engine.clear_global_statement_cache()
    db = Database()
    db.execute("CREATE TABLE g (a INTEGER)")
    db.execute("SELECT * FROM g WHERE a = 1")
    assert len(engine._GLOBAL_STMT_CACHE) == db.n_parses == 2
    engine.clear_global_statement_cache()
    assert len(engine._GLOBAL_STMT_CACHE) == 0
    # A fresh database re-parses after the clear (the cold baseline).
    db2 = Database()
    db2.execute("CREATE TABLE g2 (a INTEGER)")
    db2.prepare("SELECT * FROM g WHERE a = 1")
    assert db2.n_parses == 2
    # Beyond its capacity the cache evicts least recently used texts.
    capacity = engine._GLOBAL_STMT_CAPACITY
    for i in range(capacity + 1):
        db2.prepare(f"SELECT * FROM g WHERE a = {i}")
    assert len(engine._GLOBAL_STMT_CACHE) == capacity
    assert "CREATE TABLE g2 (a INTEGER)" not in engine._GLOBAL_STMT_CACHE
    engine.clear_global_statement_cache()


# -- one insert path, one counted batch ---------------------------------


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
    the same rows, the same index entries, the same statement count and
    the same billed rows."""
    ddl = "CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)"
    sql = "INSERT INTO t VALUES (?, ?, ?)"
    seed = [(3, "x", 0), (1, "y", 1), (3, "w", 2), (2, "x", 3)]
    rows = [(3, "x", 9), (0, "w", 10), (2, "z", 11)]
    dbs = []
    for many in (False, True):
        db = Database()
        db.execute(ddl)
        for columns in ("a", ("a", "b"), ("b", "c")):
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
    for name, index in one.tables["t"].indexes.items():
        assert index.entries == many.tables["t"].indexes[name].entries
    assert n_one == n_many == len(rows)
    assert billed_one == billed_many == [1] * len(rows)


def test_parameter_rows_are_stored_with_the_column_types():
    """A parameter row whose values already have the columns' storage
    types is stored as it is; any other (a numpy scalar, an int for a
    REAL column) is coerced value by value, and a bool is refused, as
    before — through execute, execute_many and a loads round trip."""
    import numpy as np

    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
    sql = "INSERT INTO t VALUES (?, ?, ?)"
    db.execute(sql, (1, "x", 2.5))
    db.execute_many(sql, [(np.int64(2), "y", 3), [3, "z", np.float32(0.5)]])
    with pytest.raises(SQLTypeError, match="INTEGER column got True"):
        db.execute(sql, (True, "p", 0.0))
    want = [(1, "x", 2.5), (2, "y", 3.0), (3, "z", 0.5)]
    for d in (db, Database.loads(db.dump())):
        rows = d.execute("SELECT * FROM t")
        assert rows == want
        assert {tuple(map(type, row)) for row in rows} == {(int, str, float)}


def test_counted_update_returns_matched_rows():
    """A count-checked UPDATE through execute_many returns (and is billed
    for) the rows it matched, 0 included."""
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    db.create_index("t", "a")
    db.execute_many("INSERT INTO t VALUES (?, ?)", [(1, 0), (2, 0), (2, 0)])
    billed = _billed(db)
    sql = "UPDATE t SET b = ? WHERE a = ?"
    assert db.execute_many(sql, [(5, 2)]) == 2
    assert db.execute_many(sql, [(5, 9)]) == 0
    assert db.execute_many(sql, [(6, 1), (6, 9), (6, 2)]) == 3
    assert db.execute_many(sql, []) == 0
    assert billed == [2, 0, 3, 0]
    assert db.execute("SELECT a, b FROM t") == [(1, 6), (2, 6), (2, 6)]


# -- plans: built once per statement and index set ------------------------


def _counted_plans(monkeypatch):
    """The ``(table, statement)`` of every plan built from here on."""
    built = []

    class Counted(engine._Plan):
        def __init__(self, table, stmt):
            built.append((table.name, stmt))
            super().__init__(table, stmt)

    monkeypatch.setattr(engine, "_Plan", Counted)
    return built


def test_plan_built_once_until_the_index_set_changes(db, monkeypatch):
    built = _counted_plans(monkeypatch)
    sql = "SELECT c FROM t WHERE a = ? AND c >= ?"
    expect = [db.execute(sql, (i % 5, i)) for i in range(10)]
    assert len(built) == 1 and db.n_full_scans == 10
    stmt = db.prepare(sql)
    assert db.tables["t"].plans[id(stmt)].stmt is stmt
    db.create_index("t", ("a", "c"))  # exactly one rebuild, on next use
    assert [db.execute(sql, (i % 5, i)) for i in range(10)] == expect
    assert len(built) == 2 and db.n_index_probes == 10
    db.create_index("t", ("a", "c"))  # declared already: nothing changes
    db.execute(sql, (1, 1))
    assert len(built) == 2
    restored = Database.loads(db.dump())  # plans never reach dump()
    assert [restored.execute(sql, (i % 5, i)) for i in range(10)] == expect
    assert len(built) == 3 and restored.n_index_probes == 10
    assert built[2][1] is stmt  # one parse, a plan per table


def test_plan_cache_is_bounded(db, monkeypatch):
    built = _counted_plans(monkeypatch)
    monkeypatch.setattr(engine, "_PLAN_CAPACITY", 4)
    for rounds in range(2):
        for i in range(10):
            assert db.execute(f"SELECT c FROM t WHERE c = {i}") == [(i,)]
            assert len(db.tables["t"].plans) <= 4
    assert len(built) == 20  # ten texts cycling through four slots


# -- golden plans: what each statement SDMTables issues probes ------------
#
# For every statement the SDMTables accessors issue with a WHERE or an
# ORDER BY: the index answering it outright ("covering"), else the
# indexes whose slices it compares, in declaration order, else "scan"
# (or "all rows" with no WHERE).  An SDM_INDEXES edit that demotes a
# statement shows up here as an edited line.

GOLDEN_PLANS = {
    "SELECT MAX(runid) FROM run_table": "covering (runid)",
    "SELECT data_type FROM access_pattern_table WHERE runid = ? AND "
    "dataset = ?": "(runid,dataset)",
    "SELECT file_name, file_offset, nbytes, valid_from FROM execution_table "
    "WHERE runid = ? AND dataset = ? AND timestep = ? AND valid_to = ?":
        "(runid,dataset,timestep)",
    "SELECT file_name, file_offset, nbytes, valid_from FROM execution_table "
    "WHERE runid = ? AND dataset = ? AND timestep = ? AND valid_from <= ? "
    "AND valid_to > ?": "(runid,dataset,timestep)",
    "SELECT file_offset, nbytes FROM execution_table WHERE file_name = ? "
    "ORDER BY file_offset DESC LIMIT 1": "covering (file_name,file_offset)",
    "SELECT timestep FROM execution_table WHERE runid = ? AND dataset = ? "
    "AND valid_to = ? ORDER BY timestep": "(runid,dataset,timestep)",
    "SELECT timestep FROM execution_table WHERE runid = ? AND dataset = ? "
    "AND valid_from <= ? AND valid_to > ? ORDER BY timestep":
        "(runid,dataset,timestep)",
    "SELECT file_name FROM execution_table WHERE valid_to < ?": "scan",
    "SELECT runid, dataset, timestep, file_offset, nbytes, valid_from, "
    "valid_to FROM execution_table WHERE file_name = ? AND valid_to < ? "
    "ORDER BY file_offset": "(file_name,file_offset)",
    "SELECT runid, dataset, timestep FROM execution_table WHERE "
    "file_name = ?": "(file_name,file_offset)",
    "UPDATE execution_table SET valid_to = ? WHERE runid = ? AND dataset = ? "
    "AND timestep = ? AND file_name = ? AND valid_to = ?":
        "(runid,dataset,timestep) (file_name,file_offset)",
    "UPDATE execution_table SET valid_to = ? WHERE runid = ? AND dataset = ? "
    "AND timestep = ? AND file_name = ? AND valid_from = ? AND valid_to = ?":
        "(runid,dataset,timestep) (file_name,file_offset)",
    "DELETE FROM execution_table WHERE runid = ? AND dataset = ? AND "
    "timestep = ? AND file_name = ? AND valid_to = ?":
        "(runid,dataset,timestep) (file_name,file_offset)",
    "DELETE FROM execution_table WHERE valid_from = ?": "scan",
    "UPDATE execution_table SET valid_to = ? WHERE valid_to = ?": "scan",
    "SELECT rank, gid_min, gid_max, num_elements, index_offset, data_offset, "
    "gid_step, valid_from FROM chunk_table WHERE runid = ? AND dataset = ? "
    "AND timestep = ? AND valid_from <= ? AND valid_to > ? ORDER BY rank":
        "(runid,dataset,timestep,rank)",
    "SELECT rank, gid_min, gid_max, num_elements, index_offset, data_offset, "
    "gid_step FROM chunk_table WHERE runid = ? AND dataset = ? AND "
    "timestep = ?":
        "(runid,dataset,timestep,rank)",
    "UPDATE chunk_table SET valid_to = ? WHERE runid = ? AND dataset = ? AND "
    "timestep = ? AND valid_to = ? AND valid_from < ?":
        "(runid,dataset,timestep,rank)",
    "DELETE FROM chunk_table WHERE runid = ? AND dataset = ? AND "
    "timestep = ? AND valid_to = ?": "(runid,dataset,timestep,rank)",
    "DELETE FROM chunk_table WHERE valid_from = ?": "scan",
    "UPDATE chunk_table SET valid_to = ? WHERE valid_to = ?": "scan",
    "SELECT problem_size, num_procs, dimension, registered_file_name FROM "
    "index_table WHERE problem_size = ? AND num_procs = ?":
        "(problem_size,num_procs)",
    "SELECT rank, edge_count, node_count, edge_offset, node_offset FROM "
    "index_history_table WHERE problem_size = ? AND num_procs = ? AND "
    "rank = ?": "(problem_size,num_procs,rank)",
    "SELECT MAX(jobid) FROM maintenance_table": "covering (jobid)",
    "SELECT jobid, kind, application, organization, group_id, runid, "
    "dataset, timestep, file_name, data_type, global_size FROM "
    "maintenance_table ORDER BY jobid": "covering (jobid)",
    "DELETE FROM maintenance_table WHERE jobid = ?": "(jobid)",
    "SELECT file_offset, nbytes FROM extent_table WHERE file_name = ? "
    "ORDER BY file_offset": "covering (file_name,file_offset)",
    "SELECT SUM(nbytes) FROM extent_table WHERE file_name = ?":
        "(file_name,file_offset)",
    "DELETE FROM extent_table WHERE file_name = ? AND file_offset >= ?":
        "(file_name,file_offset)",
    "DELETE FROM extent_table WHERE file_name = ? AND file_offset = ?":
        "(file_name,file_offset)",
    "DELETE FROM extent_table WHERE file_name = ?": "(file_name,file_offset)",
    "SELECT MAX(epoch) FROM epoch_table": "covering (epoch)",
    "SELECT MAX(epoch) FROM epoch_table WHERE file_name = ?":
        "covering (file_name,epoch)",
    "SELECT COUNT(*) FROM epoch_table WHERE epoch = ?": "(epoch)",
    "SELECT epoch FROM epoch_table WHERE file_name = ? AND state = ?":
        "(file_name,epoch)",
    "SELECT file_name FROM epoch_table WHERE state = ?": "scan",
    "UPDATE epoch_table SET state = ? WHERE file_name = ? AND epoch = ? AND "
    "state = ?": "(epoch) (file_name,epoch)",
    "DELETE FROM epoch_table WHERE file_name = ? AND epoch < ?":
        "(epoch) (file_name,epoch)",
    "DELETE FROM epoch_table WHERE file_name = ? AND epoch = ?":
        "(epoch) (file_name,epoch)",
    "SELECT holder, boot, heartbeat, ttl FROM lease_table WHERE "
    "file_name = ?": "(file_name)",
    "SELECT holder FROM lease_table WHERE file_name = ?": "(file_name)",
    "SELECT file_name, holder, boot FROM lease_table": "all rows",
    "SELECT COUNT(*) FROM lease_table": "all rows",
    "UPDATE lease_table SET heartbeat = ? WHERE file_name = ? AND "
    "holder = ?": "(file_name)",
    "DELETE FROM lease_table WHERE file_name = ? AND holder = ?":
        "(file_name)",
    "SELECT MAX(pin_id) FROM pin_table": "covering (pin_id)",
    "SELECT epoch FROM pin_table": "all rows",
    "SELECT pin_id, client, epoch FROM pin_table": "all rows",
    "SELECT pin_id, client, epoch, boot, touched FROM pin_table": "all rows",
    "SELECT COUNT(*) FROM pin_table": "all rows",
    "UPDATE pin_table SET touched = ? WHERE pin_id = ?": "(pin_id)",
    "UPDATE pin_table SET epoch = ? WHERE pin_id = ?": "(pin_id)",
    "DELETE FROM pin_table WHERE pin_id = ?": "(pin_id)",
    "SELECT epoch FROM watermark_table WHERE file_name = ?": "(file_name)",
    "DELETE FROM watermark_table WHERE file_name = ?": "(file_name)",
}


def _described(plan):
    if plan.covering is not None:
        return f"covering {plan.covering[0].name}"
    if plan.probes:
        return " ".join(index.name for index, *_ in plan.probes)
    return "scan" if plan.stmt.where is not None else "all rows"


def test_every_sdm_statement_keeps_its_golden_plan():
    from test_scan_coverage import _drive

    clear_global_statement_cache()
    tables = SDMTables(Database())
    _drive(tables)
    sql_of = {id(stmt): sql for sql, stmt in engine._GLOBAL_STMT_CACHE.items()}
    plans = {
        sql_of[key]: _described(plan)
        for table in tables.db.tables.values()
        for key, plan in table.plans.items()
    }
    assert plans == GOLDEN_PLANS
