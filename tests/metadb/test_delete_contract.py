"""The rowid and index-upkeep contract, held on counts, not clocks.

A statement's index upkeep must be proportional to the rows it changes.
What makes that true is structural, so it is asserted structurally: a
DELETE never rebuilds an index, survivors keep their rowids, freed rowids
are never reused, a batch that lands in one gap of an index is spliced
in without a re-sort, the WHERE decomposition is computed once per
parsed statement — and none of it is visible outside the engine:
``dump()`` cannot tell a table that lost rows from one that never had
them.
"""

import random

import pytest

from metadb_harness import INDEX_SETS, build, check_index_integrity, queries
from repro.errors import MetaDBError
from repro.metadb import Database, SDMTables
from repro.metadb import engine, sqlparser
from repro.metadb.schema import ChunkRecord
from repro.metadb.table import OrderedIndex, index_name


def _rows(n, seed=5):
    rng = random.Random(seed)
    return [
        (rng.randrange(-5, 6), rng.choice(["x", "y", "z"]),
         rng.randrange(-5, 6))
        for _ in range(n)
    ]


# -- (i) no DELETE rebuilds ------------------------------------------------


def test_flip_reap_and_rollback_never_rebuild_an_index(monkeypatch):
    tables = SDMTables(Database())
    tables.create_all()  # production SDM_INDEXES; built by rebuild, once
    chunks = [ChunkRecord(k, k * 8, k * 8 + 7, 8, k * 64, k * 64)
              for k in range(4)]
    for t in range(6):
        tables.record_execution(1, "p", t, "grp.L3", t * 100, 100)
        tables.record_chunks(1, "p", t, chunks)

    def rebuilt(self, pairs):
        raise AssertionError(f"{self.name} rebuilt by a DELETE path")

    monkeypatch.setattr(OrderedIndex, "rebuild", rebuilt)

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


# -- (ii) stable rowids ------------------------------------------------------


def test_survivors_keep_rowids_and_freed_ones_are_never_reused():
    db = build(_rows(30), "mixed")
    table = db.tables["t"]
    before = dict(table.scan())
    db.execute("DELETE FROM t WHERE a = ?", (2,))
    db.execute("DELETE FROM t WHERE c < ?", (0,))
    after = dict(table.scan())
    assert 0 < len(after) < len(before)
    assert all(before[rowid] == row for rowid, row in after.items())
    assert list(after) == sorted(after)  # scan order = ascending rowid
    db.execute("INSERT INTO t VALUES (?, ?, ?)", (2, "back", -1))
    db.execute_many("INSERT INTO t VALUES (?, ?, ?)", [(2, "x", 0), (2, "y", 1)])
    fresh = [rowid for rowid, _row in table.scan() if rowid not in after]
    assert fresh == [len(before), len(before) + 1, len(before) + 2]
    assert list(table.rows)[-3:] == fresh
    check_index_integrity(db)


# -- (iii) rowids are not persisted ------------------------------------------


@pytest.mark.parametrize("index_set", sorted(INDEX_SETS))
def test_dump_cannot_tell_deleted_rows_were_ever_there(index_set):
    db = build(_rows(40), index_set)
    db.execute("DELETE FROM t WHERE a = ?", (1,))
    db.execute("DELETE FROM t WHERE b = ?", ("y",))
    db.execute("INSERT INTO t VALUES (?, ?, ?)", (1, "y", 9))
    db.execute("DELETE FROM t WHERE c >= ? AND c <= ?", (-1, 1))
    survivors = [row for _rowid, row in db.tables["t"].scan()]
    assert 0 < len(survivors) < 40
    assert db.dump() == build(survivors, index_set).dump()

    restored = Database.loads(db.dump())
    assert list(restored.tables["t"].rows) == list(range(len(survivors)))
    check_index_integrity(restored)
    plain = build(survivors)
    rng = random.Random(3)
    for _ in range(3):
        ints = [rng.randrange(-5, 6) for _ in range(3)]
        for sql, params in queries(ints, rng.choice("xyz")):
            want = plain.execute(sql, params)
            assert db.execute(sql, params) == want, sql
            assert restored.execute(sql, params) == want, sql


# -- (iv) batch ingest --------------------------------------------------------


class _WindowSpy(list):
    """An entry array that counts the entries read out of it by slice —
    the window a batch merge re-sorts (bisects read single items)."""

    window = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if isinstance(key, slice):
            self.window += len(got)
        return got


def test_batch_ingest_touches_the_window_it_spans_not_the_index():
    db = build([(a, "x", c) for a in (1, 3, 5) for c in range(4)])
    db.create_index("t", ("a", "c"))
    table = db.tables["t"]
    index = table.indexes[index_name(("a", "c"))]
    index.entries = spy = _WindowSpy(index.entries)

    def ingest(rows):
        spy.window = 0
        db.execute_many("INSERT INTO t VALUES (?, ?, ?)", rows)
        fresh = table.make_index(index.columns)
        assert index.entries is spy and spy == fresh.entries
        return spy.window

    # One instance's rows share the leading key: one gap, a plain splice.
    assert ingest([(3, "y", 9), (3, "y", 7), (3, "y", 8)]) == 0
    assert ingest([(0, "y", 2), (0, "y", 1)]) == 0  # before the first entry
    assert ingest([(9, "y", 1), (9, "y", 2)]) == 0  # past the last one
    assert ingest([]) == 0
    # Equal keys: the fresh rowids sort right after the resident twin.
    assert ingest([(3, "z", 9), (3, "z", 9)]) == 0
    # Re-versioning an instance interleaves with its residents only.
    assert ingest([(5, "y", c) for c in range(4)]) == 3
    # A batch scattered over the key range merges with all it straddles.
    residents = len(spy)
    assert ingest([(0, "y", 0), (9, "y", 9)]) == residents


# -- (v) the decomposition is per statement, the plan per table ------------


def test_shared_statement_plans_against_each_databases_own_indexes(monkeypatch):
    walks = []

    def counting(where, _real=sqlparser.conjuncts_of):
        walks.append(where)
        return _real(where)

    monkeypatch.setattr(sqlparser, "conjuncts_of", counting)
    engine.clear_global_statement_cache()  # the text below starts unseen
    rows = [(a, "x", c) for a in range(3) for c in range(-2, 3)]
    single, ordered, plain = build(rows, "single"), build(rows, "ordered"), build(rows)
    sql = "SELECT * FROM t WHERE a = ? AND c >= ? ORDER BY c"
    stmt = single.prepare(sql)
    assert ordered.prepare(sql) is stmt and plain.prepare(sql) is stmt
    for args in ((2, -3), (0, 0), (5, 1)):
        want = plain.execute(sql, args)
        assert single.execute(sql, args) == want
        assert ordered.execute(sql, args) == want
    # (a, c) answers filter + sort by itself; (a) only narrows.
    assert (ordered.n_sorted_probes, ordered.n_index_probes) == (3, 0)
    assert (single.n_sorted_probes, single.n_index_probes) == (0, 3)
    assert (plain.n_sorted_probes, plain.n_full_scans) == (0, 3)
    assert len(walks) == 1  # nine executions, three databases, one walk


# -- a missing entry is an error, not a no-op ----------------------------------


def test_corrupt_ordered_index_fails_the_next_update_and_delete():
    db = build([(1, "x", 10), (1, "y", 11), (2, "x", 12)], "ordered")
    by_c = db.tables["t"].indexes[index_name(("c",))]
    del by_c.entries[1]  # lose (c=11, rowid 1) by hand
    size = len(by_c.entries)
    with pytest.raises(MetaDBError, match=r"index \(c\).*11.*rowid 1"):
        db.execute("UPDATE t SET c = ? WHERE b = ?", (99, "y"))
    assert len(by_c.entries) == size  # and no orphan successor was inserted
    with pytest.raises(MetaDBError, match=r"index \(c\).*rowid 1"):
        db.execute("DELETE FROM t WHERE b = ?", ("y",))
