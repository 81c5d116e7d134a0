"""Embedded relational metadata database (the paper's MySQL stand-in).

SDM stores *metadata* — run records, access patterns, file offsets, import
descriptions, index-distribution history — in a relational database, keeping
only bulk data in the parallel file system.  This package provides that
database as an embedded engine:

* one mini-SQL dialect (:mod:`~repro.metadb.sqlparser`), the statements
  SDM issues and nothing more: ``CREATE TABLE [IF NOT EXISTS]``,
  ``INSERT INTO t VALUES (...)``, ``SELECT * | cols | COUNT(*) |
  MAX(col) | SUM(col)`` (WHERE, ORDER BY, LIMIT), ``UPDATE ... SET`` and
  ``DELETE``; a WHERE is ``=`` ``<`` ``<=`` ``>`` ``>=`` comparisons
  joined by AND (with parentheses) over columns, ``?`` parameters and
  int, float or string literals;
* typed storage (:mod:`~repro.metadb.table`): INTEGER / REAL / TEXT
  columns with validation, every one NOT NULL — a None value or
  parameter is refused before any state changes;
* a :class:`~repro.metadb.engine.Database` front end with JSON
  persistence (``dump``/``loads``) and a per-statement virtual-time cost
  model (so "the database cost to access the metadata" shows up in
  history-file timings, as the paper reports) — charged on rows
  *touched*: returned for SELECT, inserted for INSERT, matched for
  UPDATE/DELETE;
* :mod:`~repro.metadb.schema` — the thirteen SDM tables (the paper's six
  plus chunk, maintenance, extent and the four MVCC tables), typed
  accessors, and the :data:`~repro.metadb.schema.SDM_INDEXES` declarations.

Query pipeline architecture
---------------------------

Statements flow through three layers, each optional-but-default on the SDM
path:

1. **Statement cache** (:meth:`~repro.metadb.engine.Database.prepare`) —
   parsed ASTs are memoized by exact SQL text in one bounded
   *process-global* LRU shared by every ``Database``, so the
   parameterized statements SDM issues in loops (one per timestep, rank,
   dataset) tokenize and parse exactly once per process — even across
   :meth:`~repro.metadb.engine.Database.loads` restores.  There are two
   statement calls: :meth:`~repro.metadb.engine.Database.execute` runs
   one parameter row and returns the result rows;
   :meth:`~repro.metadb.engine.Database.execute_many` runs a batch as one
   billed statement and returns the rows it touched, which is what the
   count-checked UPDATE/DELETE fences check.  Every INSERT is a batch (a
   single row through ``execute`` is a batch of one): rows are coerced
   up front, appended once, and each index sorts the batch and merges it
   in as a block (one slice insert when it lands in one gap; a lone row
   is one ``insort``).
2. **Plans** (``_Plan`` in :mod:`~repro.metadb.engine`, built by
   ``Database._plan``) — a statement's text and its table's index set
   fix how it runs, so each ``(parsed statement, table)`` pair is planned
   once, on its first execution, and the plan is kept with the table
   (bounded, never dumped) until
   :meth:`~repro.metadb.table.Table.create_index` changes the index set.
   The WHERE is decomposed (:func:`~repro.metadb.expr.conjuncts_of`, once
   per parsed statement: the result is cached on the AST) into equality
   (``col = v``) and range (``col < v``, ``col >= v``, …) conjuncts, and
   the plan records, as parameter positions and literals, every access
   path they can take:

   a. a **covering probe**: when the WHERE decomposes *completely* into
      equality conjuncts (plus at most one range pair on the next
      column) covered by an index whose remaining columns are exactly the
      ORDER BY columns, the query — filter, sort, and LIMIT — is
      answered straight from the index with no scan and no sort
      (``SELECT ... ORDER BY file_offset DESC LIMIT 1`` is two bisects);
      ``MAX(col)`` under the same rule, ``col`` next, is the slice's
      last entry;
   b. an **index slice**: any index with an equality-bound column prefix
      and/or range bounds on the following column narrows candidates to
      one contiguous bisect slice (all columns bound is the composite
      point lookup); an execution binds its parameters once and measures
      each slice, and the smallest wins;
   c. the **full scan** otherwise.

   For (b) and (c) every candidate is verified against the full WHERE by
   the plan's compiled comparisons — row positions against the bound
   values, no per-row dict, no tree walk — so the planner only ever
   *narrows* the scan; path (a) is taken only when the index provably
   yields the exact result.  Results, ordering, counters and refusals are
   bit-identical to planning afresh and walking the WHERE tree on every
   row (``tests/properties/test_metadb_plan_property.py``) and to the
   fallback full scan for every path
   (``tests/properties/test_metadb_index_property.py``).  An INSERT whose
   VALUES are exactly ``?1..?n`` stores a parameter row that already has
   the columns' storage types as it is
   (:meth:`~repro.metadb.table.Table.convert`, which ``loads`` uses too).
3. **Secondary indexes** (:meth:`~repro.metadb.table.Table.create_index`,
   declared per column tuple via
   :meth:`~repro.metadb.engine.Database.create_index`) — one structure,
   :class:`~repro.metadb.table.OrderedIndex`: a ``bisect``-maintained
   sorted array of ``(key, rowid)`` entries whose keys are the raw
   column values, so they order exactly as ORDER BY does (insertion
   order among duplicates).  Indexes are maintained entry by entry on INSERT,
   UPDATE and DELETE: rowids are stable
   (:class:`~repro.metadb.table.Table`), so a DELETE removes the doomed
   rows' entries and touches nothing else.
   :meth:`~repro.metadb.engine.Database.dump`
   persists the declarations (``{"columns"}`` per index) and
   :meth:`~repro.metadb.engine.Database.loads` rebuilds the structures
   from the restored rows, so a snapshot is self-contained — no
   re-declaration needed.  ``Database.n_parses`` / ``n_index_probes`` /
   ``n_sorted_probes`` / ``n_full_scans`` expose cache and planner
   behavior for tests and benchmarks.

Example::

    db = Database()
    db.execute("CREATE TABLE run_table (runid INTEGER, dataset TEXT)")
    db.execute("INSERT INTO run_table VALUES (?, ?)", (1, "p"))
    rows = db.execute("SELECT * FROM run_table WHERE runid = ?", (1,))
"""

from repro.metadb.types import ColumnType, INTEGER, REAL, TEXT
from repro.metadb.table import Column, OrderedIndex, Row, Table
from repro.metadb.engine import Database
from repro.metadb.schema import SDM_INDEXES, SDM_SCHEMA, SDMTables

__all__ = [
    "ColumnType",
    "INTEGER",
    "REAL",
    "TEXT",
    "Column",
    "Row",
    "Table",
    "OrderedIndex",
    "Database",
    "SDM_SCHEMA",
    "SDM_INDEXES",
    "SDMTables",
]
