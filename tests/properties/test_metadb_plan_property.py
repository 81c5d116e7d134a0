"""Property: a statement's cached plan is indistinguishable from planning
it afresh and walking its WHERE tree on every execution.

:class:`TreeWalk` is the engine without plans, kept here as the
reference: every execution resolves the statement's columns, types its
values, evaluates the conjunct values, searches ``table.indexes`` for
the smallest slice and for the index that covers the ORDER BY or MAX,
verifies each candidate with ``Expr.eval`` over ``dict(zip(names,
row))`` and coerces an UPDATE's SET values row by row.  The planned
:class:`Database` must return the same rows and examine the same number
of them through the same probes and scans — and refuse the same
statements with the same exception and message: an unknown column, a
short parameter list and a value its column does not take.

Every drawn table runs every WHERE template of the shared harness plus
literal, mixed-range and unknown-column forms, under one of the named
index configurations, each with its parameters as its kinds ask, with
every kind swapped, short by one and with none: four executions of one
text, three of which reuse the plan the first built.
"""

from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from metadb_harness import INDEX_SETS, LIMITS, ORDER_BYS, TEMPLATES
from repro.errors import MetaDBError
from repro.metadb import Database
from repro.metadb.expr import Literal, Param

EXTRA_TEMPLATES = [
    ("a <= ? AND c > ?", ("int", "int")),
    ("b = ? AND c >= ?", ("txt", "int")),
    ("c > 0", ()),
    ("a <= 0 AND c < ?", ("int",)),
    ("b = 'x' AND a < ?", ("int",)),
    ("a = 2 AND c >= ?", ("int",)),
    ("b = 'y' AND c > 1", ()),
    ("c >= 1 AND a < 2", ()),
    ("a < ? AND c < ?", ("int", "int")),
    ("b = ? AND a <= ? AND c >= ?", ("txt", "int", "int")),
    ("a < ? AND a = ? AND c > ?", ("int", "int", "int")),
]

UNKNOWN_TEMPLATES = [
    ("zz = ?", ("int",)),
    ("a = ? AND zz < ?", ("int", "int")),
    ("zz > ? AND b = ?", ("int", "txt")),
    ("a = 1 AND zz = 'x'", ()),
]

_INT = st.integers(-3, 3)
_TXT = st.sampled_from(["x", "y", "z"])


class TreeWalk(Database):
    """The engine as it planned before statements kept a plan."""

    def _checked(self, stmt, params):
        """``stmt``'s table, and ``params`` as its columns store them:
        every WHERE and SET column is looked up, then every literal
        typed, then every parameter fetched, then each coerced."""
        table = self._table(stmt.table)
        where = stmt.where.operands if stmt.where is not None else ()
        pairs = [(c.column, c.value) for c in where] + list(
            getattr(stmt, "assignments", ()))
        types = {col: table.columns[table.column_pos(col)].type
                 for col, _ in pairs}
        for col, e in pairs:
            if isinstance(e, Literal):
                types[col].coerce(e.value)
        slots = sorted((e.index, types[col]) for col, e in pairs
                       if isinstance(e, Param))
        values = [Param(i).eval({}, params) for i, _ in slots]
        return table, [t.coerce(v) for (_, t), v in zip(slots, values)]

    @staticmethod
    def _conjunct_values(cj, params):
        eq_vals = {}
        for col, e in cj.eq:
            eq_vals.setdefault(col, e.eval({}, params))
        lowers, uppers = {}, {}
        for bounds, conjuncts in ((lowers, cj.lower), (uppers, cj.upper)):
            for col, op, e in conjuncts:
                bounds.setdefault(col, (op, e.eval({}, params)))
        return eq_vals, lowers, uppers

    def _index_candidates(self, table, cj, params):
        if not (cj.eq or cj.lower or cj.upper):
            return None
        eq_vals, lowers, uppers = self._conjunct_values(cj, params)
        best = None
        for index in table.indexes.values():
            k = 0
            while k < len(index.columns) and index.columns[k] in eq_vals:
                k += 1
            nxt = index.columns[k] if k < len(index.columns) else None
            lo, hi = lowers.get(nxt), uppers.get(nxt)
            if k == 0 and lo is None and hi is None:
                continue
            prefix = [eq_vals[c] for c in index.columns[:k]]
            start, end = index.slice_bounds(prefix, lo, hi)
            if end == start:
                return []
            if best is None or end - start < best[0]:
                best = (end - start, index, start, end)
        if best is None:
            return None
        _, index, start, end = best
        return sorted(rowid for _, rowid in index.entries[start:end])

    def _walk(self, table, stmt, params):
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
        names = [c.name for c in table.columns]
        return [i for i, row in pairs
                if where.eval(dict(zip(names, row)), params)]

    def _covering_slice(self, table, stmt, params, tail, whole):
        cj = stmt.conjuncts
        if len(cj.lower) > 1 or len(cj.upper) > 1:
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
            start, end = index.slice_bounds(
                prefix, lowers.get(tail[0]), uppers.get(tail[0]))
            return index, prefix, start, end
        return None

    def _update(self, stmt, params):
        table, params = self._checked(stmt, params)
        rowids = self._walk(table, stmt, params)
        names = [c.name for c in table.columns]
        for i in rowids:
            row = list(table.rows[i])
            ctx = dict(zip(names, row))
            for col, e in stmt.assignments:
                pos = table.column_pos(col)
                row[pos] = table.columns[pos].type.coerce(e.eval(ctx, params))
            table.replace_row(i, tuple(row))
        return [], len(rowids)

    def _delete(self, stmt, params):
        table, params = self._checked(stmt, params)
        return [], table.delete_rowids(self._walk(table, stmt, params))

    def _select(self, stmt, params):
        table, params = self._checked(stmt, params)
        if stmt.aggregate is not None and stmt.aggregate[0] == "MAX" and not (
            stmt.order_by or stmt.limit is not None
        ):
            found = self._covering_slice(
                table, stmt, params, (stmt.aggregate[1],), False)
            if found is not None:
                index, prefix, start, end = found
                self.n_agg_probes += 1
                return [(index.max_in_slice(prefix, start, end),)]
        rows = None
        directions = {desc for _, desc in stmt.order_by}
        if len(directions) == 1:
            order_cols = tuple(c for c, _ in stmt.order_by)
            found = self._covering_slice(table, stmt, params, order_cols, True)
            if found is not None:
                index, _, start, end = found
                entries = index.entries[start:end]
                if directions.pop():  # keys descend, rowids ascend per key
                    entries = sorted(entries, key=itemgetter(0), reverse=True)
                rowids = [rowid for _, rowid in entries][:stmt.limit]
                self.n_sorted_probes += 1
                rows = [table.rows[i] for i in rowids]
        if rows is None:
            rowids = self._walk(table, stmt, params)
            rows = [table.rows[i] for i in rowids]
            for col, desc in reversed(stmt.order_by):
                rows.sort(key=itemgetter(table.column_pos(col)), reverse=desc)
            if stmt.limit is not None:
                rows = rows[: stmt.limit]
        if stmt.aggregate is not None:
            fn, col = stmt.aggregate
            if fn == "COUNT":
                return [(len(rows),)]
            values = [row[table.column_pos(col)] for row in rows]
            if not values:
                return [(None,)]
            return [(max(values) if fn == "MAX" else sum(values),)]
        if stmt.columns is None:
            return rows
        positions = [table.column_pos(c) for c in stmt.columns]
        return [tuple(r[p] for p in positions) for r in rows]


def _build(cls, rows, index_set):
    db = cls()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    db.execute_many("INSERT INTO t VALUES (?, ?, ?)", rows)
    for columns in INDEX_SETS.get(index_set, ()):
        db.create_index("t", columns)
    return db


def _outcome(db, sql, params):
    """The statement's result, or its refusal's type and message; then
    every planner counter."""
    try:
        result = db.execute(sql, params)
    except MetaDBError as exc:
        result = (type(exc).__name__, str(exc))
    return result, (db.n_rows_examined, db.n_index_probes, db.n_full_scans,
                    db.n_sorted_probes, db.n_agg_probes)


def _variants(kinds, ints, txt):
    """Parameters for one template: as its kinds ask, every kind swapped
    (a string for a number, a number for a string), the last one missing
    and all of them missing."""
    it = iter(ints)
    params = tuple(next(it) if kind == "int" else txt for kind in kinds)
    swapped = tuple(txt if kind == "int" else ints[0] for kind in kinds)
    return [params, swapped, params[:-1], ()] if kinds else [params]


@st.composite
def _case(draw):
    keys = draw(st.lists(st.tuples(_INT, _TXT), max_size=16))
    # Distinct c in a drawn order, so that an index walk and insertion
    # order disagree unless the engine puts candidates back in order.
    n = len(keys)
    cs = draw(st.permutations(range(-(n // 2), n - n // 2)))
    rows = [(a, b, c) for (a, b), c in zip(keys, cs)]
    index_set = draw(st.sampled_from(["scan"] + sorted(INDEX_SETS)))
    order_by = draw(st.sampled_from(ORDER_BYS))
    limit = draw(st.sampled_from(LIMITS))
    ints = draw(st.tuples(_INT, _INT, _INT))
    mutation = draw(st.sampled_from(
        TEMPLATES[1:] + EXTRA_TEMPLATES + UNKNOWN_TEMPLATES))
    return rows, index_set, order_by, limit, ints, draw(_TXT), mutation


@settings(max_examples=150, deadline=None)
@given(_case())
def test_plan_agrees_with_the_tree_walk(case):
    rows, index_set, order_by, limit, ints, txt, mutation = case
    planned = _build(Database, rows, index_set)
    walked = _build(TreeWalk, rows, index_set)

    def agree(sql, params):
        got = _outcome(planned, sql, params)
        assert got == _outcome(walked, sql, params), (sql, params)

    for template, kinds in TEMPLATES + EXTRA_TEMPLATES + UNKNOWN_TEMPLATES:
        where = f"WHERE {template}" if template else ""
        tail = f"{where} {order_by}"
        if limit is not None:
            tail = f"{tail} LIMIT {limit}"
        for params in _variants(kinds, ints, txt):
            for sql in (f"SELECT * FROM t {tail}",
                        f"SELECT a, c FROM t {tail}",
                        f"SELECT COUNT(*) FROM t {where}",
                        f"SELECT MAX(c) FROM t {where}",
                        f"SELECT SUM(c) FROM t {where}"):
                agree(sql, params)
    # Mutations through a plan: the same rows change, or the same
    # refusal leaves both tables as they were.
    template, kinds = mutation
    for params in _variants(kinds, ints, txt):
        agree(f"UPDATE t SET a = ? WHERE {template}", (1,) + params)
        agree(f"UPDATE t SET c = ?, b = 'w' WHERE {template}",
              (ints[2],) + params)
        agree(f"DELETE FROM t WHERE {template}", params)
        assert planned.dump() == walked.dump()
