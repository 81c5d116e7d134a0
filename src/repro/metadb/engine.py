"""The Database front end: SDM's statements on SQLite, persistence, cost model.

A :class:`Database` holds one in-memory :mod:`sqlite3` connection
(autocommit; simulated ranks run one at a time, so the connection is
shared across their threads).  It may be *plain* (no simulation attached
— unit tests, offline inspection) or *attached* to a simulator, in which
case every statement issued with a ``proc`` serializes through the
database server resource and charges ``query_cost + rows x row_cost`` of
virtual time — the "database cost to access the metadata" the paper
folds into the history-file path.  ``rows`` is the number of rows the
statement *touched*: returned for SELECT, written for INSERT, matched
for UPDATE/DELETE.

What SQLite is told differs from the statement text in two ways only
(:func:`_sqlite_sql`): a table is created ``STRICT`` with every column
``NOT NULL``, so INTEGER / REAL / TEXT columns refuse what they cannot
store and a NULL literal is refused too, and a row-returning
SELECT breaks its ORDER BY ties — or, with no ORDER BY, orders — by
``rowid``, so rows come back in insertion order whichever index SQLite
picks.  A None parameter is refused before anything runs.  A statement SQLite refuses raises
:class:`~repro.errors.MetaDBError` chained from the :mod:`sqlite3` error.
"""

from __future__ import annotations

import json
import re
import sqlite3
from functools import lru_cache
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MachineModel
from repro.errors import MetaDBError
from repro.simt.primitives import Resource
from repro.simt.process import Crashed, Process
from repro.simt.simulator import Simulator

__all__ = ["Database"]

_SERVER_CONNECTIONS = 4
"""Concurrent statements the database server executes."""

# numpy scalars bind as their Python numbers (unadapted, a numpy integer
# would bind as a BLOB through the buffer protocol).
for _t in {np.dtype(c).type for c in np.typecodes["AllInteger"]}:
    sqlite3.register_adapter(_t, int)
for _t in (np.float16, np.float32, np.longdouble):
    sqlite3.register_adapter(_t, float)


_COLUMN_TYPE = re.compile(r"\b(INTEGER|REAL|TEXT)\b(?=\s*[,)])")
"""A column declaration's type, which ``NOT NULL`` follows."""


@lru_cache(maxsize=1024)
def _sqlite_sql(sql: str) -> str:
    """The text SQLite runs for ``sql``: ``NOT NULL`` columns and
    ``STRICT`` on a CREATE TABLE, ``rowid`` as the last ORDER BY key of
    a row-returning SELECT."""
    if sql.startswith("CREATE TABLE"):
        return _COLUMN_TYPE.sub(r"\1 NOT NULL", sql.rstrip()) + " STRICT"
    if not sql.startswith("SELECT") or "(" in sql[:sql.find(" FROM ")]:
        return sql
    head, limit, tail = sql.partition(" LIMIT ")
    order = ", rowid" if " ORDER BY " in head else " ORDER BY rowid"
    return head + order + limit + tail


def _not_null(param_rows) -> None:
    """Refuse a None parameter before a statement runs: every column is
    NOT NULL, so no statement stores, compares or probes a NULL, and a
    batch carrying one is rejected whole."""
    for params in param_rows:
        if None in params:
            raise MetaDBError(
                f"NULL parameter in {tuple(params)!r}: every column is "
                f"NOT NULL"
            )


class Database:
    """An embedded SQL database with optional virtual-time accounting."""

    # Read only by benchmarks/e2e/report.py (its metadb.hash_paths row).
    n_hash_paths = 0
    # Read only by benchmarks/e2e/report.py (its metadb.slice_paths row).
    n_slice_paths = 0
    # Read only by benchmarks/e2e/report.py (its metadb.agg_probes row).
    n_agg_probes = 0
    # Read only by benchmarks/e2e/report.py (its metadb.rows_examined row).
    n_rows_examined = 0

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        machine: Optional[MachineModel] = None,
    ) -> None:
        self._conn = sqlite3.connect(
            ":memory:", isolation_level=None, check_same_thread=False)
        self.attach(sim, machine)
        self.boot_id = 0
        """Incarnation counter: 0 for a fresh database, and one past the
        dumping incarnation's value after :meth:`loads`.  Rows that stamp
        the writer's ``boot`` (leases, pins) can then detect holders from
        a *prior* incarnation deterministically — any ``boot < boot_id``
        holder died with its job, since dump/restore is the only way
        state crosses jobs here."""
        self.n_statements = 0

    @property
    def tables(self) -> List[str]:
        """The table names, in creation order."""
        return [name for (name,) in self._conn.execute(
            "SELECT name FROM sqlite_schema WHERE type = 'table' "
            "ORDER BY rowid")]

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
        try:
            cursor = self._conn.execute(_sqlite_sql(sql), params)
            rows = cursor.fetchall()
        except sqlite3.Error as exc:
            raise MetaDBError(f"{exc} in {sql!r}") from exc
        self._bill(len(rows) if cursor.description else
                   max(cursor.rowcount, 0), proc)
        return rows

    def execute_many(
        self,
        sql: str,
        param_rows: Sequence[Sequence[Any]],
        proc: Optional[Process] = None,
    ) -> int:
        """Run one parameterized statement over many parameter rows,
        billed as a single batched statement: one server trip,
        ``query_cost + total rows x row_cost`` — the multi-row INSERT
        shape.  A batch that fails part way is rolled back whole.
        Returns the rows the batch touched (what it is billed for): a
        count-checked UPDATE/DELETE fences on it, so a zero-row match
        means the target row was concurrently repointed.
        """
        self._check_live(proc)
        _not_null(param_rows)
        conn = self._conn
        conn.execute("SAVEPOINT batch")
        try:
            touched = conn.executemany(_sqlite_sql(sql), param_rows).rowcount
        except BaseException as exc:
            conn.execute("ROLLBACK")
            if isinstance(exc, sqlite3.Error):
                raise MetaDBError(f"{exc} in {sql!r}") from exc
            raise
        conn.execute("RELEASE batch")
        self._bill(touched, proc)
        return touched

    def explain(self, sql: str, params: Sequence[Any] = ()) -> List[str]:
        """SQLite's ``EXPLAIN QUERY PLAN`` detail lines for ``sql`` as
        :meth:`execute` would run it (``SEARCH t USING INDEX ...``,
        ``SCAN t``, ``USE TEMP B-TREE FOR ORDER BY``).  Runs nothing and
        bills nothing."""
        try:
            plan = self._conn.execute(
                "EXPLAIN QUERY PLAN " + _sqlite_sql(sql), params).fetchall()
        except sqlite3.Error as exc:
            raise MetaDBError(f"{exc} in {sql!r}") from exc
        return [detail for *_, detail in plan]

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
        the database server and hold ``statement_time(rows=touched)``.
        Acquire and release by hand: ``Resource.request``'s context
        manager would build a generator per statement."""
        self.n_statements += 1
        server = self._server
        if proc is not None and server is not None:
            cost = self.machine.database.statement_time(rows=touched)
            server.acquire(proc)
            try:
                proc.hold(cost)
            finally:
                server.release()

    def connect(self, proc: Optional[Process] = None) -> None:
        """Model establishing the connection (charged in SDM_initialize)."""
        if proc is not None and self._server is not None:
            proc.hold(self.machine.database.connect_cost)

    def create_index(self, table: str, columns: Sequence[str]) -> None:
        """Declare a secondary index on a column tuple (idempotent)."""
        try:
            self._conn.execute(
                f'CREATE INDEX IF NOT EXISTS "{table}({",".join(columns)})" '
                f'ON {table} ({", ".join(columns)})'
            )
        except sqlite3.Error as exc:
            raise MetaDBError(f"{exc}: index on {table}{tuple(columns)}") \
                from exc

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def dump(self) -> str:
        """Serialize the whole database to a JSON string: per table, in
        creation order, its columns, its rows in insertion order and its
        index *declarations* (``{"columns": [...]}``, in creation order),
        so a :meth:`loads`-restored database needs no re-declaration."""
        q = self._conn.execute
        doc = {}
        for name in self.tables:
            indexes = q("SELECT name FROM sqlite_schema WHERE type = 'index' "
                        "AND tbl_name = ? ORDER BY rowid", (name,)).fetchall()
            doc[name] = {
                "columns": [(c[1], c[2]) for c in
                            q(f"PRAGMA table_info({name})")],
                "rows": q(f"SELECT * FROM {name} ORDER BY rowid").fetchall(),
                "indexes": [
                    {"columns": [c[2] for c in
                                 q(f'PRAGMA index_info("{index}")')]}
                    for (index,) in indexes
                ],
            }
        return json.dumps({"tables": doc, "boot": self.boot_id})

    @classmethod
    def loads(cls, text: str) -> "Database":
        """Rebuild a database (rows *and* indexes) from :meth:`dump` output."""
        doc = json.loads(text)
        db = cls()
        db.boot_id = doc["boot"] + 1
        conn = db._conn
        conn.execute("BEGIN")
        try:
            for name, spec in doc["tables"].items():
                columns = ", ".join(f"{n} {t}" for n, t in spec["columns"])
                conn.execute(_sqlite_sql(f"CREATE TABLE {name} ({columns})"))
                slots = ", ".join("?" * len(spec["columns"]))
                conn.executemany(f"INSERT INTO {name} VALUES ({slots})",
                                 spec["rows"])
                for index in spec["indexes"]:
                    db.create_index(name, index["columns"])
        except sqlite3.Error as exc:
            raise MetaDBError(f"{exc} in a dump") from exc
        conn.execute("COMMIT")
        return db
