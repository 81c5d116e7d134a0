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
* **Plans** — a statement's text and its table's index set fix which
  indexes its WHERE's conjuncts (:func:`~repro.metadb.expr.conjuncts_of`)
  can probe, with which parameters or literals, which index covers its
  ORDER BY or MAX, and how a row is verified, so each ``(statement,
  table)`` gets one :class:`_Plan`, kept with the table until
  :meth:`Table.create_index` changes the index set.  An execution binds
  its parameters once and measures slice sizes only: the smallest index
  slice (an equality-bound column prefix plus range bounds on the next
  column) or the full scan, every candidate verified against the whole
  WHERE by row position, so results are scan-identical.
* **Sorted probes** — ``ORDER BY ... [LIMIT n]`` whose WHERE the plan's
  covering index serves is answered straight from the index, skipping
  both the scan and the sort.
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
from repro.metadb.expr import COMPARATORS, And, ColumnRef, Literal, Param
from repro.metadb.sqlparser import (
    CreateTable,
    Delete,
    Insert,
    Select,
    Update,
    parse,
)
from repro.metadb.table import Column, Table
from repro.metadb.types import type_by_name
from repro.simt.primitives import Resource
from repro.simt.process import Crashed, Process
from repro.simt.simulator import Simulator

__all__ = ["Database"]

_SERVER_CONNECTIONS = 4
"""Concurrent statements the database server executes."""

_GLOBAL_STMT_CAPACITY = 4096
"""Parsed statements kept per process (LRU eviction beyond this)."""

_PLAN_CAPACITY = 256
"""Plans kept per table."""

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


class _Plan:
    """What a filtered statement's text and one table's index set fix,
    built on the statement's first execution against the table
    (:meth:`Database._plan`) and kept in ``Table.plans`` until
    :meth:`Table.create_index` changes the index set.

    An execution binds its parameters once: ``bound`` is the WHERE's
    literals followed by the parameters (:meth:`bind`).  A value is named
    by its place in ``bound``, and a column by its place in ``bound +
    row`` counted from the end:

    * ``probes`` — per usable index, in ``table.indexes`` order: the places
      of its equality prefix and its ``(op, place)`` lower and upper bound
      on the next column (the first conjunct per column wins);
    * ``covering`` — the index that answers the ORDER BY (or the MAX)
      outright, in the same shape, or None;
    * ``terms`` — the verifier: ``(comparator, i, j)`` per comparison, in
      WHERE order, over ``bound + row``; None when the WHERE names a
      column the table lacks, so that every row takes the reference walk
      (``where.eval``), which refuses it.

    A plan holds its statement, so the statement's ``id`` (the plan's
    key) cannot be reused while the plan lives.
    """

    def __init__(self, table: Table, stmt) -> None:
        self.stmt = stmt
        where, cj = stmt.where, stmt.conjuncts
        compares = (() if where is None else
                    where.operands if isinstance(where, And) else (where,))
        operands = [e for c in compares for e in (c.left, c.right)]
        literals = [e for e in operands if isinstance(e, Literal)]
        self.literals = tuple(e.value for e in literals)
        self.need = 1 + max(
            (e.index for e in operands if isinstance(e, Param)), default=-1)
        self.conjunct_values = [e for _, e in cj.eq] + [
            e for _, _, e in cj.lower + cj.upper]
        place = {id(e): j for j, e in enumerate(literals)}
        names = table.column_names
        columns = {name: j - len(names) for j, name in enumerate(names)}

        def at(e):
            if isinstance(e, ColumnRef):
                return columns[e.name]
            if isinstance(e, Param):
                return len(literals) + e.index
            return place[id(e)]

        # Reversed, so that the first conjunct per column wins.
        eq = {col: at(e) for col, e in reversed(cj.eq)}
        lowers = {col: (op, at(e)) for col, op, e in reversed(cj.lower)}
        uppers = {col: (op, at(e)) for col, op, e in reversed(cj.upper)}
        shapes = []
        for index in table.indexes.values():
            cols = index.columns
            k = next((j for j, c in enumerate(cols) if c not in eq), len(cols))
            nxt = cols[k] if k < len(cols) else None
            shapes.append((index, [eq[c] for c in cols[:k]],
                           lowers.get(nxt), uppers.get(nxt)))
        self.probes = [s for s in shapes if s[1] or s[2] or s[3]]

        tail, whole = stmt.covered
        k = len(eq)
        self.covering = next((
            s for s in shapes if len(s[1]) == k
            and s[0].columns[k:None if whole else k + len(tail)] == tail
        ), None) if tail else None

        try:
            self.terms = tuple((COMPARATORS[c.op], at(c.left), at(c.right))
                               for c in compares)
        except KeyError:  # a column the table lacks
            self.terms = None

    def bind(self, params: Sequence[Any]) -> Tuple[Any, ...]:
        """``bound`` for one execution.  A missing parameter that a
        conjunct takes is refused here, in the order planning always
        evaluated them (equalities, lower bounds, upper bounds); any
        other only when a row reaches it (:meth:`matches`)."""
        if len(params) < self.need:
            for e in self.conjunct_values:
                e.eval({}, params)
        return self.literals + tuple(params)

    @staticmethod
    def slice(probe, bound: Tuple[Any, ...]):
        """``(index, prefix, start, end)`` of one probe under ``bound``,
        or None when a bound value cannot be ordered against the index
        keys (the verifier then meets it, and refuses it, row by row)."""
        index, prefix, lo, hi = probe
        prefix = [bound[j] for j in prefix]
        try:
            start, end = index.slice_bounds(
                prefix, lo and (lo[0], bound[lo[1]]),
                hi and (hi[0], bound[hi[1]]))
        except TypeError:
            return None
        return index, prefix, start, end

    def candidates(self, bound: Tuple[Any, ...]) -> Optional[List[int]]:
        """Rowids worth verifying, in insertion order, or None to
        full-scan: the smallest probe slice wins (an empty one at once)."""
        best = None
        for probe in self.probes:
            found = self.slice(probe, bound)
            if found is None:
                continue
            index, _, start, end = found
            if end == start:
                return []
            if best is None or end - start < best[0]:
                best = (end - start, index, start, end)
        if best is None:
            return None
        _, index, start, end = best
        return sorted([rowid for _, rowid in index.entries[start:end]])

    def matches(self, table: Table, pairs, bound, params) -> List[int]:
        """Rowids of ``pairs`` the WHERE accepts.  A comparison the
        verifier cannot make, a parameter missing from ``params`` or a
        column the table lacks sends the row through the reference walk,
        which raises what it always has, at the same row and conjunct."""
        terms = self.terms if len(params) >= self.need else None
        where, hits = self.stmt.where, []
        for i, row in pairs:
            if terms is not None:
                x = bound + row
                try:
                    for fn, a, b in terms:
                        if not fn(x[a], x[b]):
                            break
                    else:
                        hits.append(i)
                    continue
                except TypeError:
                    pass
            if where.eval(dict(zip(table.column_names, row)), params):
                hits.append(i)
        return hits


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

    def _plan(self, stmt) -> Tuple[Table, _Plan]:
        """``stmt``'s table and its plan against it, built on first use.
        A table keeps at most :data:`_PLAN_CAPACITY` plans: one more
        starts its cache afresh."""
        table = self._table(stmt.table)
        plan = table.plans.get(id(stmt))
        if plan is None:
            if len(table.plans) >= _PLAN_CAPACITY:
                table.plans.clear()
            plan = table.plans[id(stmt)] = _Plan(table, stmt)
        return table, plan

    def _insert(self, stmt: Insert, param_rows) -> int:
        """Insert one row per parameter row; returns how many.  Every row
        is converted first (:meth:`Table.convert`), so a bad row rejects
        the whole batch before any state changes; then the heap extends
        once and each index takes the batch in one merge
        (:meth:`Table.append_rows`)."""
        table = self._table(stmt.table)
        rows = [
            table.convert(params if len(params) == stmt.width
                          else [e.eval({}, params) for e in stmt.values])
            for params in param_rows
        ]
        table.append_rows(rows)
        return len(rows)

    def _match_rowids(self, table: Table, plan: _Plan, params) -> List[int]:
        """Rowids of the rows the plan's WHERE accepts, in insertion
        order."""
        if plan.stmt.where is None:
            return list(table.rows)
        bound = plan.bind(params)
        candidates = plan.candidates(bound)
        if candidates is None:
            self.n_full_scans += 1
            self.n_rows_examined += len(table.rows)
            pairs = table.scan()
        else:
            self.n_index_probes += 1
            self.n_rows_examined += len(candidates)
            rows = table.rows
            pairs = ((i, rows[i]) for i in candidates)
        return plan.matches(table, pairs, bound, params)

    def _select(self, stmt: Select, params: List[Any]) -> List[Tuple[Any, ...]]:
        table, plan = self._plan(stmt)
        found = plan.covering and plan.slice(plan.covering, plan.bind(params))
        rows = None
        if found:
            index, prefix, start, end = found
            if not stmt.order_by:  # MAX(col): the slice's last entry
                self.n_agg_probes += 1
                return [(index.max_in_slice(prefix, start, end),)]
            self.n_sorted_probes += 1
            if stmt.order_by[0][1]:
                rowids = _descending_rowids(
                    index.entries, start, end, stmt.limit)
            else:
                rowids = [rowid for _, rowid in index.entries[start:end]]
            rows = [table.rows[i] for i in rowids[:stmt.limit]]
        if rows is None:
            rowids = self._match_rowids(table, plan, params)
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
        table, plan = self._plan(stmt)
        rowids = self._match_rowids(table, plan, params)
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
        table, plan = self._plan(stmt)
        return [], table.delete_rowids(self._match_rowids(table, plan, params))

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
            table.append_rows([table.convert(row) for row in spec["rows"]])
            for index in spec["indexes"]:
                table.create_index(index["columns"])
            db.tables[name] = table
        return db
