"""Embedded relational metadata database (the paper's MySQL stand-in).

SDM stores *metadata* — run records, access patterns, file offsets, import
descriptions, index-distribution history — in a relational database, keeping
only bulk data in the parallel file system.  This package provides that
database on the standard library's :mod:`sqlite3`, as the paper's SDM
kept it in a stock RDBMS:

* a :class:`~repro.metadb.engine.Database` front end with JSON
  persistence (``dump``/``loads``) and a per-statement virtual-time cost
  model (so "the database cost to access the metadata" shows up in
  history-file timings, as the paper reports) — charged on rows
  *touched*: returned for SELECT, inserted for INSERT, matched for
  UPDATE/DELETE;
* :mod:`~repro.metadb.schema` — the twelve SDM tables (the paper's six
  plus chunk, maintenance, extent and the three MVCC tables), typed
  accessors, and the :data:`~repro.metadb.schema.SDM_INDEXES` declarations.

Query pipeline architecture
---------------------------

:class:`~repro.metadb.engine.Database` is a thin front end over one
in-memory SQLite connection; parsing, planning, index upkeep and
statement caching are SQLite's.  What the front end adds is what SDM
relies on and SQLite does not give by itself:

1. **Two statement calls.**
   :meth:`~repro.metadb.engine.Database.execute` runs one parameter row
   and returns the result rows;
   :meth:`~repro.metadb.engine.Database.execute_many` runs a batch as one
   billed statement inside a savepoint — a batch that fails part way
   changes nothing — and returns the rows it touched, which is what the
   count-checked UPDATE/DELETE fences check.  Both refuse a statement
   from a crashed process and a None parameter (every column is NOT
   NULL) before anything runs; a statement SQLite refuses raises
   :class:`~repro.errors.MetaDBError` chained from the :mod:`sqlite3`
   error.
2. **One typing and one order.**  Tables are created ``STRICT`` with
   every column ``NOT NULL``, so INTEGER / REAL / TEXT columns hold
   exactly those types and never a NULL (numpy scalars bind as Python
   numbers), and every row-returning SELECT breaks its
   ORDER BY ties — or, with no ORDER BY, orders — by ``rowid``: rows come
   back in insertion order whichever index SQLite walks.
3. **Cost.**  Each statement is counted (``n_statements``) and, attached
   to a simulation, queues at the ``metadb-server`` resource and holds
   ``query_cost + touched x row_cost``: a function of the statement's
   result only.
4. **Indexes and persistence.**
   :meth:`~repro.metadb.engine.Database.create_index` is ``CREATE INDEX
   IF NOT EXISTS`` on a column tuple;
   :meth:`~repro.metadb.engine.Database.dump` writes tables in creation
   order, live rows in rowid order and the index declarations as JSON,
   and :meth:`~repro.metadb.engine.Database.loads` rebuilds rows and
   indexes from it.  :meth:`~repro.metadb.engine.Database.explain` returns
   SQLite's ``EXPLAIN QUERY PLAN`` lines for a statement, billing nothing
   (``tests/metadb/test_scan_coverage.py`` holds which SDM statements may
   walk a whole table).

Example::

    db = Database()
    db.execute("CREATE TABLE run_table (runid INTEGER, dataset TEXT)")
    db.execute("INSERT INTO run_table VALUES (?, ?)", (1, "p"))
    rows = db.execute("SELECT * FROM run_table WHERE runid = ?", (1,))
"""

from repro.metadb.engine import Database
from repro.metadb.schema import SDM_INDEXES, SDM_SCHEMA, SDMTables

__all__ = [
    "Database",
    "SDM_SCHEMA",
    "SDM_INDEXES",
    "SDMTables",
]
