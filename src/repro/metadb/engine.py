"""The Database engine: statement execution, persistence, cost model.

A :class:`Database` may be *plain* (no simulation attached — unit tests,
offline inspection) or *attached* to a simulator, in which case every
statement issued with a ``proc`` serializes through the database server
resource and charges ``query_cost + rows x row_cost`` of virtual time —
the "database cost to access the metadata" the paper folds into the
history-file path.  ``rows`` is the number of rows the statement *touched*:
returned for SELECT, written for INSERT, matched for UPDATE/DELETE.

Four optimizations keep the metadata path off the application's critical
path as tables grow:

* **Statement cache** — parsed ASTs are memoized by SQL text in one
  process-global LRU (:meth:`Database.prepare`), so the parameterized
  statements SDM issues in loops (one per timestep, per rank, per
  dataset) parse once per process, :meth:`Database.loads` restores
  included.
* **Conjunct planner** — a WHERE is decomposed into its equality and
  range conjuncts (:func:`~repro.metadb.expr.conjuncts_of`,
  once per parsed statement: the decomposition rides the cached AST)
  and the access path is the smallest index slice — an equality-bound
  column prefix plus range bounds on the next column — or the full scan;
  candidate rows are still verified against the complete WHERE, so
  results are scan-identical.
* **Sorted probes** — ``ORDER BY ... [LIMIT n]`` whose WHERE an index
  covers (:meth:`Database._covering_slice`) is answered straight from
  the index, skipping both the scan and the sort.
* **Aggregate probes** — ``MAX(col)`` whose WHERE an index covers with
  ``col`` next comes from the slice's last entry (two bisects) instead
  of materializing every matching row — ``SELECT MAX(runid) FROM
  run_table`` is the runid-allocation hot path.

The dialect is the one :mod:`~repro.metadb.sqlparser` documents — the
statements SDM issues — and every column is NOT NULL: a None parameter
is refused before a statement plans or changes anything.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import MachineModel
from repro.errors import MetaDBError, SQLTypeError, TableExists, TableNotFound
from repro.metadb.expr import Conjuncts
from repro.metadb.sqlparser import (
    CreateTable,
    Delete,
    Insert,
    Select,
    Update,
    parse,
)
from repro.metadb.table import Column, OrderedIndex, Table
from repro.metadb.types import type_by_name
from repro.simt.primitives import Resource
from repro.simt.process import Crashed, Process
from repro.simt.simulator import Simulator

__all__ = ["Database"]

_SERVER_CONNECTIONS = 4
"""Concurrent statements the database server executes."""

_GLOBAL_STMT_CAPACITY = 4096
"""Parsed statements kept per process (LRU eviction beyond this)."""

_GLOBAL_STMT_CACHE: "OrderedDict[str, Any]" = OrderedDict()
"""The parse cache, keyed by exact SQL text and shared by every
:class:`Database` in the process: the SQL text SDM issues is identical
across instances, and parsed ASTs are immutable once built."""


def clear_global_statement_cache() -> None:
    """Drop every shared parsed statement (benchmarks' cold-parse baseline)."""
    _GLOBAL_STMT_CACHE.clear()


def _not_null(param_rows) -> None:
    """Refuse a None parameter before a statement plans or changes
    anything: every column is NOT NULL, so no statement stores, compares
    or probes a NULL, and a batch carrying one is rejected whole."""
    for params in param_rows:
        if None in params:
            raise SQLTypeError(
                f"NULL parameter in {tuple(params)!r}: every column is "
                f"NOT NULL"
            )


def _descending_rowids(
    entries, start: int, end: int, limit: Optional[int] = None
) -> List[int]:
    """Rowids of ``entries[start:end]`` in ``ORDER BY ... DESC`` order.

    Keys descend, but insertion order is preserved *within* each group of
    equal keys — exactly what the scan path's stable ``reverse=True`` sort
    produces.  Walks backwards group by group, so a small LIMIT touches
    only the tail of the slice (the ``LIMIT 1`` end-of-file probe is O(1)
    past the bisect when keys are distinct).
    """
    out: List[int] = []
    i = end
    while i > start and (limit is None or len(out) < limit):
        j = i - 1
        key = entries[j][0]
        while j > start and entries[j - 1][0] == key:
            j -= 1
        out.extend(rowid for _, rowid in entries[j:i])
        i = j
    return out if limit is None else out[:limit]


class Database:
    """An embedded SQL database with optional virtual-time accounting."""

    # Read only by benchmarks/e2e/report.py (its metadb.hash_paths row).
    n_hash_paths = 0

    @property
    def n_slice_paths(self) -> int:
        # Read only by benchmarks/e2e/report.py (its metadb.slice_paths row).
        return self.n_index_probes

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        machine: Optional[MachineModel] = None,
    ) -> None:
        self.tables: Dict[str, Table] = {}
        self.attach(sim, machine)
        self.boot_id = 0
        """Incarnation counter: 0 for a fresh database, and one past the
        dumping incarnation's value after :meth:`loads`.  Rows that stamp
        the writer's ``boot`` (leases, pins) can then detect holders from
        a *prior* incarnation deterministically — any ``boot < boot_id``
        holder died with its job, since dump/restore is the only way
        state crosses jobs here."""
        self.n_statements = 0
        self.n_parses = 0
        """Times this instance ran the parser (statement-cache misses)."""
        self.n_index_probes = 0
        """WHERE evaluations narrowed by a secondary index."""
        self.n_full_scans = 0
        """WHERE evaluations that walked the whole table."""
        self.n_sorted_probes = 0
        """SELECTs whose WHERE/ORDER BY/LIMIT was answered entirely from
        an index (no scan, no sort)."""
        self.n_agg_probes = 0
        """MAX aggregates answered from an index's slice end (no row
        materialized)."""
        self.n_rows_examined = 0
        """Candidate rows evaluated against a WHERE clause — the work the
        planner's access-path choice actually controls (a full scan
        examines the whole table, an index path only its candidates)."""

    def attach(
        self, sim: Optional[Simulator], machine: Optional[MachineModel]
    ) -> None:
        """Bind the database to a job's simulator and cost model: from
        here on statements issued with a ``proc`` queue at the server and
        are charged modelled time.  A :meth:`loads`-restored database
        starts unattached (host-side, free), like ``Database()``."""
        self.sim = sim
        self.machine = machine
        self._server: Optional[Resource] = None
        if sim is not None and machine is not None:
            self._server = Resource(
                sim, capacity=_SERVER_CONNECTIONS, name="metadb-server"
            )

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def prepare(self, sql: str):
        """Parse one statement, memoized by SQL text in the process-global
        LRU, so a statement another :class:`Database` already prepared
        (e.g. the instance this one was :meth:`loads`-restored from) costs
        a dict lookup, not a parse."""
        cache = _GLOBAL_STMT_CACHE
        try:
            stmt = cache[sql]
        except KeyError:
            self.n_parses += 1
            stmt = cache[sql] = parse(sql)
            if len(cache) > _GLOBAL_STMT_CAPACITY:
                cache.popitem(last=False)
        else:
            cache.move_to_end(sql)
        return stmt

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        proc: Optional[Process] = None,
    ) -> List[Tuple[Any, ...]]:
        """Run one statement.

        Returns result rows for SELECT and an empty list otherwise.  When
        ``proc`` is given and the database is attached to a simulation, the
        statement's virtual-time cost is charged to that process.
        """
        self._check_live(proc)
        _not_null((params,))
        rows, touched = self._dispatch(self.prepare(sql), params)
        self._bill(touched, proc)
        return rows

    def execute_many(
        self,
        sql: str,
        param_rows: Sequence[Sequence[Any]],
        proc: Optional[Process] = None,
    ) -> int:
        """Run one parameterized statement over many parameter rows,
        billed as a single batched statement: one parse, one server trip,
        ``query_cost + total rows x row_cost`` — the multi-row INSERT
        shape.  Returns the rows the batch touched (what it is billed
        for): a count-checked UPDATE/DELETE fences on it, so a zero-row
        match means the target row was concurrently repointed.
        """
        self._check_live(proc)
        _not_null(param_rows)
        stmt = self.prepare(sql)
        if isinstance(stmt, Insert):
            touched = self._insert(stmt, param_rows)
        else:
            touched = sum(self._dispatch(stmt, params)[1]
                          for params in param_rows)
        self._bill(touched, proc)
        return touched

    @staticmethod
    def _check_live(proc: Optional[Process]) -> None:
        """Refuse statements from a process crash-unwinding an injected
        fault: its ``finally`` cleanup (lease releases, reaps) must not
        reach shared metadata, exactly as if its host died mid-protocol.
        Raising :class:`~repro.simt.process.Crashed` keeps the unwind
        going past any ``except Exception``."""
        if proc is not None and getattr(proc, "crashed", False):
            raise Crashed(
                f"process {proc.name!r} crashed; statement refused"
            )

    def _bill(self, touched: int, proc: Optional[Process]) -> None:
        """Count one statement (batched or not) and charge it: queue at
        the database server and hold ``statement_time(rows=touched)``."""
        self.n_statements += 1
        if proc is not None and self._server is not None:
            cost = self.machine.database.statement_time(rows=touched)
            with self._server.request(proc):
                proc.hold(cost)

    def connect(self, proc: Optional[Process] = None) -> None:
        """Model establishing the connection (charged in SDM_initialize)."""
        if proc is not None and self._server is not None:
            proc.hold(self.machine.database.connect_cost)

    def create_index(self, table: str, columns) -> None:
        """Declare a secondary index on a column or column tuple: it
        serves equality on a leading column prefix, range predicates on
        the next column, and ``ORDER BY`` over the remaining columns."""
        self._table(table).create_index(columns)

    # ------------------------------------------------------------------

    def _table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise TableNotFound(f"no such table: {name!r}") from None

    def _dispatch(
        self, stmt, params: Sequence[Any]
    ) -> Tuple[List[Tuple[Any, ...]], int]:
        """Execute one parsed statement with one parameter row.

        Returns ``(result rows, rows touched)`` — touched is what the cost
        model bills: rows returned by a SELECT, inserted by an INSERT,
        matched by an UPDATE or DELETE, zero for DDL.
        """
        if isinstance(stmt, Insert):
            return [], self._insert(stmt, (params,))
        params = list(params)
        if isinstance(stmt, CreateTable):
            return self._create(stmt), 0
        if isinstance(stmt, Select):
            rows = self._select(stmt, params)
            return rows, len(rows)
        if isinstance(stmt, Update):
            return self._update(stmt, params)
        if isinstance(stmt, Delete):
            return self._delete(stmt, params)
        raise MetaDBError(f"unhandled statement {stmt!r}")  # pragma: no cover

    def _create(self, stmt: CreateTable) -> list:
        if stmt.name in self.tables:
            if stmt.if_not_exists:
                return []
            raise TableExists(f"table exists: {stmt.name!r}")
        self.tables[stmt.name] = Table(
            stmt.name, [Column(n, t) for n, t in stmt.columns]
        )
        return []

    def _insert(self, stmt: Insert, param_rows) -> int:
        """Insert one row per parameter row; returns how many.  Every row
        is coerced first, so a bad row rejects the whole batch before any
        state changes; then the heap extends once and each index takes
        the batch in one merge (:meth:`Table.append_rows`)."""
        table = self._table(stmt.table)
        values = stmt.values
        rows = [
            table.coerce_row([e.eval({}, params) for e in values])
            for params in param_rows
        ]
        table.append_rows(rows)
        return len(rows)

    # -- planner ---------------------------------------------------------

    @staticmethod
    def _conjunct_values(cj, params: Sequence[Any]):
        """Evaluate every conjunct's value expression once.

        Returns ``(eq_vals, lowers, uppers)`` dicts keyed by column (first
        conjunct per column wins; duplicates are still re-verified by the
        full WHERE evaluation).
        """
        eq_vals: Dict[str, Any] = {}
        for col, e in cj.eq:
            eq_vals.setdefault(col, e.eval({}, params))
        lowers: Dict[str, Tuple[str, Any]] = {}
        uppers: Dict[str, Tuple[str, Any]] = {}
        for bounds, conjuncts in ((lowers, cj.lower), (uppers, cj.upper)):
            for col, op, e in conjuncts:
                bounds.setdefault(col, (op, e.eval({}, params)))
        return eq_vals, lowers, uppers

    def _index_candidates(
        self, table: Table, cj: Conjuncts, params: Sequence[Any]
    ) -> Optional[List[int]]:
        """Rowids worth checking against the WHERE that ``cj`` decomposes,
        or None to full-scan.

        Every index with a non-empty equality-bound column prefix and/or
        range bounds on the following column offers a contiguous
        ``bisect`` slice; the smallest slice wins.  (All columns bound is
        the composite point lookup.)  The caller still evaluates the
        complete WHERE on each candidate, so this only ever *narrows* the
        scan — type semantics are decided by the same ``Expr.eval`` as the
        slow path.
        """
        if cj.empty:
            return None
        eq_vals, lowers, uppers = self._conjunct_values(cj, params)

        best = None  # (count, index, start, end)
        for index in table.indexes.values():
            k = 0
            while k < len(index.columns) and index.columns[k] in eq_vals:
                k += 1
            nxt = index.columns[k] if k < len(index.columns) else None
            lo, hi = lowers.get(nxt), uppers.get(nxt)
            if k == 0 and lo is None and hi is None:
                continue  # index leads with an unbound column
            prefix = [eq_vals[c] for c in index.columns[:k]]
            try:
                start, end = index.slice_bounds(prefix, lo, hi)
            except TypeError:  # unorderable probe value: scan instead
                continue
            if end == start:
                return []
            if best is None or end - start < best[0]:
                best = (end - start, index, start, end)
        if best is None:
            return None
        _, index, start, end = best
        # Candidates must be evaluated in insertion order so that
        # un-ORDERed results stay scan-identical.
        return sorted(rowid for _, rowid in index.entries[start:end])

    def _match_rowids(self, table: Table, stmt, params) -> List[int]:
        """Rowids of the rows ``stmt.where`` accepts, in insertion order."""
        where = stmt.where
        if where is None:
            return list(table.rows)
        candidates = self._index_candidates(table, stmt.conjuncts, params)
        if candidates is None:
            self.n_full_scans += 1
            examined = len(table.rows)
            pairs = table.scan()
        else:
            self.n_index_probes += 1
            examined = len(candidates)
            pairs = ((i, table.rows[i]) for i in candidates)
        self.n_rows_examined += examined
        names = table.column_names
        hits = []
        for i, row in pairs:
            ctx = dict(zip(names, row))
            if where.eval(ctx, params):
                hits.append(i)
        return hits

    def _covering_slice(
        self,
        table: Table,
        stmt: Select,
        params: Sequence[Any],
        tail: Tuple[str, ...],
        whole: bool,
    ) -> Optional[Tuple[OrderedIndex, List[Any], int, int]]:
        """The index slice that *is* the WHERE's answer, ordered by
        ``tail`` — the coverage rule sorted and aggregate probes share.

        The WHERE must decompose *completely* into at most one equality
        conjunct per column plus at most one lower and one upper bound on
        ``tail[0]``, and an index's columns must be exactly the equality
        columns (in any order) followed by ``tail`` (``whole``: and
        nothing after it).  The slice then holds exactly the matching
        rows, ``tail``-ordered with the same key and rowid tie-break the
        scan path's stable sort uses.

        Returns ``(index, prefix, start, end)``, or None when no index
        covers the query or a probe value cannot be ordered against the
        keys (the caller scans instead).
        """
        cj = stmt.conjuncts
        if not cj.complete or len(cj.lower) > 1 or len(cj.upper) > 1:
            return None
        eq_cols = [c for c, _ in cj.eq]
        if len(set(eq_cols)) != len(eq_cols) or set(eq_cols) & set(tail):
            return None
        range_cols = {c for c, _, _ in cj.lower} | {c for c, _, _ in cj.upper}
        if range_cols - {tail[0]}:
            return None
        k = len(eq_cols)
        for index in table.indexes.values():
            cols = index.columns
            if set(cols[:k]) != set(eq_cols) or cols[k:k + len(tail)] != tail:
                continue
            if whole and len(cols) != k + len(tail):
                continue
            eq_vals, lowers, uppers = self._conjunct_values(cj, params)
            prefix = [eq_vals[c] for c in cols[:k]]
            try:
                start, end = index.slice_bounds(
                    prefix, lowers.get(tail[0]), uppers.get(tail[0])
                )
            except TypeError:
                return None
            return index, prefix, start, end
        return None

    def _sorted_rowids(
        self, table: Table, stmt: Select, params: Sequence[Any]
    ) -> Optional[List[int]]:
        """Rowids already filtered, ordered, and limited — or None.

        The ORDER BY columns (uniform direction) must be the whole tail
        of a covering index (:meth:`_covering_slice`): trailing index
        columns would break key ties where the scan breaks them by rowid.
        """
        directions = {desc for _, desc in stmt.order_by}
        if len(directions) != 1:
            return None
        order_cols = tuple(c for c, _ in stmt.order_by)
        found = self._covering_slice(table, stmt, params, order_cols, True)
        if found is None:
            return None
        index, _, start, end = found
        if directions.pop():
            return _descending_rowids(index.entries, start, end, stmt.limit)
        if stmt.limit is not None:
            end = min(end, start + stmt.limit)
        return [rowid for _, rowid in index.entries[start:end]]

    def _aggregate_probe(
        self, table: Table, stmt: Select, params: Sequence[Any]
    ) -> Optional[List[Tuple[Any, ...]]]:
        """Answer ``MAX(col)`` from an index, or None.

        A covering index (:meth:`_covering_slice`) with ``col`` next
        holds the matching rows with ``col`` ascending, so the aggregate
        is the slice's last entry — no row is materialized or verified.
        """
        fn, col = stmt.aggregate
        if fn != "MAX":
            return None
        if stmt.order_by or stmt.limit is not None:
            return None
        found = self._covering_slice(table, stmt, params, (col,), False)
        if found is None:
            return None
        index, prefix, start, end = found
        self.n_agg_probes += 1
        return [(index.max_in_slice(prefix, start, end),)]

    def _select(self, stmt: Select, params: List[Any]) -> List[Tuple[Any, ...]]:
        table = self._table(stmt.table)
        if stmt.aggregate is not None:
            probed = self._aggregate_probe(table, stmt, params)
            if probed is not None:
                return probed
        rows = None
        if stmt.order_by:
            rowids = self._sorted_rowids(table, stmt, params)
            if rowids is not None:
                self.n_sorted_probes += 1
                rows = [table.rows[i] for i in rowids]
        if rows is None:
            rowids = self._match_rowids(table, stmt, params)
            rows = [table.rows[i] for i in rowids]
            # Sort by keys right-to-left for stable multi-key ordering.
            for col, desc in reversed(stmt.order_by):
                rows.sort(key=itemgetter(table.column_pos(col)), reverse=desc)
            if stmt.limit is not None:
                rows = rows[: stmt.limit]
        if stmt.aggregate is not None:
            fn, col = stmt.aggregate
            if fn == "COUNT":
                return [(len(rows),)]
            values = list(map(itemgetter(table.column_pos(col)), rows))
            if not values:
                return [(None,)]
            return [(max(values) if fn == "MAX" else sum(values),)]
        if stmt.columns is None:
            return rows
        positions = [table.column_pos(c) for c in stmt.columns]
        return [tuple(r[p] for p in positions) for r in rows]

    def _update(self, stmt: Update, params: List[Any]) -> Tuple[list, int]:
        table = self._table(stmt.table)
        rowids = self._match_rowids(table, stmt, params)
        names = table.column_names
        positions = [(table.column_pos(c), c, e) for c, e in stmt.assignments]
        for i in rowids:
            row = list(table.rows[i])
            ctx = dict(zip(names, row))
            for pos, _col, e in positions:
                row[pos] = table.columns[pos].type.coerce(e.eval(ctx, params))
            table.replace_row(i, tuple(row))
        return [], len(rowids)

    def _delete(self, stmt: Delete, params: List[Any]) -> Tuple[list, int]:
        table = self._table(stmt.table)
        rowids = self._match_rowids(table, stmt, params)
        return [], table.delete_rowids(rowids)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def dump(self) -> str:
        """Serialize the whole database to a JSON string.

        Index *declarations* (``{"columns": [...]}``) are persisted per
        table; the structures themselves are rebuilt from the rows on
        :meth:`loads`, so a restored database is self-contained — no
        ``create_index`` re-declaration needed.
        """
        doc = {}
        for name, table in self.tables.items():
            doc[name] = {
                "columns": [(c.name, c.type.name) for c in table.columns],
                "rows": list(table.rows.values()),
                "indexes": [
                    {"columns": list(index.columns)}
                    for index in table.indexes.values()
                ],
            }
        return json.dumps({"tables": doc, "boot": self.boot_id})

    @classmethod
    def loads(cls, text: str) -> "Database":
        """Rebuild a database (rows *and* indexes) from :meth:`dump` output."""
        doc = json.loads(text)
        db = cls()
        db.boot_id = doc["boot"] + 1
        for name, spec in doc["tables"].items():
            table = Table(name, [
                Column(n, type_by_name(t)) for n, t in spec["columns"]
            ])
            table.append_rows([table.coerce_row(row) for row in spec["rows"]])
            for index in spec["indexes"]:
                table.create_index(index["columns"])
            db.tables[name] = table
        return db
