"""Tables: typed row storage with schema validation and secondary indexes.

One index structure backs the engine's planner: :class:`OrderedIndex`, a
``bisect``-maintained sorted array of ``(key, rowid)`` entries over one
or more columns.  It serves equality probes on a column *prefix* (all
columns bound is the composite point lookup), a lower (``>``, ``>=``)
and an upper (``<``, ``<=``) bound on the column after the bound prefix,
and ``ORDER BY ... [LIMIT n]`` without sorting.

Every column is NOT NULL (:class:`~repro.metadb.types.ColumnType`
refuses None), so a key is the row's raw column values: it orders
exactly as the engine's ORDER BY does, and an index walk and a sort of
scanned rows produce identical orderings — including rowid-ascending
tie-breaks.

Entries name rows by *rowid*, and a rowid is stable: a row keeps the
one it was inserted under until it is deleted, and a freed rowid is never
handed out again (the contract is on :class:`Table`).  Index upkeep
therefore costs in proportion to the rows a statement changes, never to
the table: INSERT adds one entry per index (a batch is merged in as a
block), UPDATE moves one, DELETE removes one — each a ``bisect`` — and an
entry that should be there and is not raises :class:`MetaDBError` naming
the index, key and rowid instead of being papered over.  ``rebuild`` is
what :meth:`Table.make_index` uses to index rows that already exist, and
the reference the tests hold the maintained structures against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ColumnNotFound, MetaDBError, SQLTypeError
from repro.metadb.types import ColumnType

__all__ = ["Column", "Row", "Table", "OrderedIndex", "index_name"]

Row = Tuple[Any, ...]
"""Rows are plain tuples in column-declaration order."""


class _Top:
    """Sorts above every column value — only ever as the probe of a
    ``bisect_right``, whose one comparison is ``probe < entry``."""

    def __lt__(self, other: Any) -> bool:
        return False


_TOP = _Top()
"""Ends a probe key: ``prefix + (_TOP,)`` sorts after every key that
starts with ``prefix``."""


@dataclass(frozen=True)
class Column:
    """One declared column."""

    name: str
    type: ColumnType


def index_name(columns: Sequence[str]) -> str:
    """Canonical name of an index declaration, e.g. ``(runid,dataset)``."""
    return f"({','.join(columns)})"


class OrderedIndex:
    """Sorted ``(key-tuple, rowid)`` entries over the columns.

    Every row is present, so any contiguous slice is a faithful fragment
    of the ORDER BY ordering and slicing can only ever *narrow* a scan.
    """

    def __init__(self, columns: Sequence[str], positions: Sequence[int]) -> None:
        self.columns = tuple(columns)
        self.positions = tuple(positions)
        self.entries: List[Tuple[Tuple[Any, ...], int]] = []

    @property
    def name(self) -> str:
        return index_name(self.columns)

    def key_of(self, row: Row) -> Tuple[Any, ...]:
        return tuple([row[p] for p in self.positions])

    def add_many(self, pairs: Sequence[Tuple[int, Row]]) -> None:
        """Index a batch of appended ``(rowid, row)`` pairs.

        A lone row is one ``insort``.  A larger batch is sorted on its
        own and merged into the window of entries it spans — from where
        its smallest entry belongs to where its largest does — so the
        cost follows the batch and that window, not the index.  A batch
        that shares its leading key columns, like one instance's chunk
        rows, spans an empty window (a plain slice insert) or, when it
        re-versions an instance, that instance's entries; only a batch
        scattered over the whole key range re-sorts the whole array
        (Timsort is near-linear on the two sorted runs), still one pass
        instead of an O(n) ``insort`` memmove per row.
        """
        if len(pairs) == 1:
            rowid, row = pairs[0]
            insort(self.entries, (self.key_of(row), rowid))
            return
        batch = sorted((self.key_of(row), rowid) for rowid, row in pairs)
        if not batch:
            return
        entries = self.entries
        lo = bisect_left(entries, batch[0])
        hi = bisect_left(entries, batch[-1], lo)
        entries[lo:hi] = sorted(entries[lo:hi] + batch)

    def _drop(self, key: Tuple[Any, ...], rowid: int) -> None:
        entry = (key, rowid)
        i = bisect_left(self.entries, entry)
        if i == len(self.entries) or self.entries[i] != entry:
            # The index is corrupt: the statement that found out must
            # fail rather than mask it.
            raise MetaDBError(
                f"index {self.name} is corrupt: no entry for key {key!r}, "
                f"rowid {rowid}"
            )
        del self.entries[i]

    def remove(self, rowid: int, row: Row) -> None:
        """Forget a deleted row: one bisect to its ``(key, rowid)`` entry."""
        self._drop(self.key_of(row), rowid)

    def move(self, rowid: int, old: Row, new: Row) -> None:
        old_key, new_key = self.key_of(old), self.key_of(new)
        if old_key == new_key:
            return
        self._drop(old_key, rowid)
        insort(self.entries, (new_key, rowid))

    def rebuild(self, pairs: Iterable[Tuple[int, Row]]) -> None:
        """Index ``(rowid, row)`` pairs from scratch."""
        self.entries = sorted((self.key_of(row), rowid) for rowid, row in pairs)

    def slice_bounds(
        self,
        prefix: Sequence[Any],
        lower: Optional[Tuple[str, Any]] = None,
        upper: Optional[Tuple[str, Any]] = None,
    ) -> Tuple[int, int]:
        """``[start, end)`` of entries matching ``columns[:k] == prefix``
        plus an optional lower/upper bound ``(op, value)`` on column ``k``.

        The slice is *exact*: equality uses the same ``==`` the verifier
        does.  The engine binds every probe value to its column's storage
        type first, so each one orders against the stored keys.
        """
        p = tuple(prefix)
        entries = self.entries
        if lower is None:
            start = bisect_left(entries, (p,)) if p else 0
        elif lower[0] == ">":
            start = bisect_right(entries, (p + (lower[1], _TOP),))
        else:  # >=
            start = bisect_left(entries, (p + (lower[1],),))
        if upper is None:
            end = bisect_right(entries, (p + (_TOP,),)) if p else len(entries)
        elif upper[0] == "<":
            end = bisect_left(entries, (p + (upper[1],),))
        else:  # <=
            end = bisect_right(entries, (p + (upper[1], _TOP),))
        return start, max(start, end)

    def max_in_slice(self, prefix: Sequence[Any], start: int, end: int) -> Any:
        """Largest value of column ``len(prefix)`` over
        ``entries[start:end]`` (a :meth:`slice_bounds` slice, so the prefix
        columns are constant and that column ascends); None when the
        slice is empty."""
        return self.entries[end - 1][0][len(prefix)] if end > start else None


class Table:
    """Heap of typed rows under stable rowids, in insertion order.

    ``rows`` maps rowid → row.  The rowid contract, which the indexes and
    the engine's planner stand on:

    * Rowids come from one monotone counter.  A row keeps its rowid until
      it is deleted; a freed rowid is never reused (reuse would reorder
      scans and :meth:`Database.dump`).  Hence ascending rowid =
      insertion order = :meth:`scan` order, so un-ORDERed results are
      scan-identical whichever index produced the candidates, and
      sorting an index slice's rowids puts it back in insertion order.
    * Index entries break key ties by rowid.
    * Rowids never leave the engine and are not persisted: ``dump()`` of
      a table that lost rows is byte-identical to that of one that only
      ever held the survivors, and ``loads`` numbers them densely again.
    * ``len(table)`` counts live rows only, so what a full scan examines
      (``n_rows_examined``) and what a statement is billed for
      (``touched``) do not depend on how many rows were ever deleted.
    * :meth:`append_rows` is the only writer of new rowids.

    A table may carry secondary indexes (:meth:`create_index`), each an
    :class:`OrderedIndex` over a column tuple.  Each is maintained entry
    by entry on insert, in-place update and delete, so a statement's
    upkeep is proportional to the rows it changes, not to the rows the
    table holds.
    """

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not columns:
            raise MetaDBError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise MetaDBError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns = list(columns)
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}
        self.rows: Dict[int, Row] = {}
        self._next_rowid = 0
        self.indexes: Dict[str, OrderedIndex] = {}
        """Index name → :class:`OrderedIndex`."""
        self.plans: Dict[int, Any] = {}
        """The engine's statement plans against this table, keyed by the
        parsed statement's ``id``; they depend on the index set, so
        :meth:`create_index` drops them, and never reach ``dump()``."""
        self._storage = tuple(c.type.convert for c in columns)

    def column_pos(self, name: str) -> int:
        """Position of a column (raises :class:`ColumnNotFound`)."""
        try:
            return self._index[name]
        except KeyError:
            raise ColumnNotFound(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def coerce_row(self, values: Sequence[Any]) -> Row:
        """Validate a row: one value per column, in declaration order."""
        if len(values) != len(self.columns):
            raise SQLTypeError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        return tuple(
            col.type.coerce(v) for col, v in zip(self.columns, values)
        )

    def convert(self, values: Sequence[Any]) -> Row:
        """:meth:`coerce_row`'s result: values that already have their
        columns' storage types exactly (``int``, ``float``, ``str`` — so
        never a bool or a numpy scalar) are stored as they are."""
        row = tuple(values)
        if tuple(map(type, row)) == self._storage:
            return row
        return self.coerce_row(row)

    def append_rows(self, rows: Sequence[Row]) -> None:
        """Append rows already validated by :meth:`convert` (callers
        coerce a whole batch first, so a bad row rejects it before any
        state changes): the heap extends once and each index ingests the
        batch through its ``add_many``."""
        pairs = list(enumerate(rows, self._next_rowid))
        self._next_rowid += len(pairs)
        self.rows.update(pairs)
        for index in self.indexes.values():
            index.add_many(pairs)

    def scan(self) -> Iterable[Tuple[int, Row]]:
        """Iterate ``(rowid, row)`` pairs in insertion order."""
        return self.rows.items()

    def replace_row(self, rowid: int, row: Row) -> None:
        """Overwrite one row in place, keeping indexes consistent."""
        old = self.rows[rowid]
        self.rows[rowid] = row
        for index in self.indexes.values():
            index.move(rowid, old, row)

    def delete_rowids(self, rowids: Iterable[int]) -> int:
        """Remove the rows under these (distinct, live) rowids and their
        index entries; returns how many were removed.  The survivors keep
        their rowids."""
        removed = 0
        for rowid in rowids:
            row = self.rows.pop(rowid)
            for index in self.indexes.values():
                index.remove(rowid, row)
            removed += 1
        return removed

    # -- secondary indexes ------------------------------------------------

    def make_index(self, columns) -> OrderedIndex:
        """Build (but do not attach) an index over the current rows."""
        if isinstance(columns, str):
            columns = (columns,)
        columns = tuple(columns)
        if not columns:
            raise MetaDBError(f"index on {self.name!r} needs at least one column")
        if len(set(columns)) != len(columns):
            raise MetaDBError(f"duplicate columns in index on {self.name!r}")
        index = OrderedIndex(columns, [self.column_pos(c) for c in columns])
        index.rebuild(self.scan())
        return index

    def create_index(self, columns) -> None:
        """Declare an index on a column or column tuple (idempotent)."""
        index = self.make_index(columns)
        if index.name not in self.indexes:
            self.indexes[index.name] = index
            self.plans.clear()

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name!r} cols={list(self._index)} rows={len(self.rows)}>"
