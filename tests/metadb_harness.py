"""Shared pieces of the metadb scan-equivalence harnesses.

One table shape — ``t (a INTEGER, b TEXT, c INTEGER)`` — the WHERE /
ORDER BY / LIMIT templates generated queries are assembled from, the
named index configurations they are run under, and the check that holds
every index to its table.  Used by
``tests/properties/test_metadb_index_property.py`` and
``tests/metadb/test_engine.py`` (``tests/`` is on ``sys.path``
through its ``conftest.py``).
"""

from repro.metadb import Database

# (WHERE template, parameter kinds).  Equality and range conjuncts over
# indexed and unindexed columns, a two-sided range, literal values, a
# range on a column an equality already binds (a conjunct no index
# narrows), and contradictory double-equality.
TEMPLATES = [
    (None, ()),
    ("a = ?", ("int",)),
    ("b = ?", ("txt",)),
    ("a = 1", ()),
    ("a = ? AND b = ?", ("int", "txt")),
    ("a = ? AND b = ? AND c = ?", ("int", "txt", "int")),
    ("a = ? AND c >= ?", ("int", "int")),
    ("a = ? AND c > ? AND c <= ?", ("int", "int", "int")),
    ("c >= ? AND c <= ?", ("int", "int")),
    ("c < ?", ("int",)),
    ("c > ?", ("int",)),
    ("c >= ? AND c >= ?", ("int", "int")),
    ("a = ? AND a = ?", ("int", "int")),
    ("a = ? AND b = ? AND c < ?", ("int", "txt", "int")),
    ("b = 'y'", ()),
    ("a < ? AND b = ?", ("int", "txt")),
    ("a = ? AND b = ? AND a < ?", ("int", "txt", "int")),
]

ORDER_BYS = [
    "",
    "ORDER BY a",
    "ORDER BY c",
    "ORDER BY c DESC",
    "ORDER BY a, c",
    "ORDER BY c DESC, a DESC",
    "ORDER BY b, c",
    "ORDER BY b DESC",
]

LIMITS = [None, 0, 1, 3]

# Named index configurations; "scan" is the reference plan.
INDEX_SETS = {
    "single": [("a",), ("b",)],
    "composite": [("a", "b"), ("a", "b", "c")],
    "ordered": [("c",), ("a", "c"), ("b",)],
    "mixed": [("a",), ("a", "b", "c"), ("c",), ("a", "c"), ("b", "c")],
}


def build(rows, index_set=None):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT, c INTEGER)")
    for row in rows:
        db.execute("INSERT INTO t VALUES (?, ?, ?)", row)
    if index_set is not None:
        for columns in INDEX_SETS[index_set]:
            db.create_index("t", columns)
    return db


def bind(kinds, ints, txt):
    """Parameters for one template: its int slots take ``ints`` in
    order, its txt slots ``txt``."""
    it = iter(ints)
    return tuple(next(it) if kind == "int" else txt for kind in kinds)


def queries(ints, txt, order_bys=ORDER_BYS):
    """``(sql, params)`` for every WHERE template: ``SELECT *`` under
    each of ``order_bys``, plus MAX — which an ordered index may answer
    from its slice end — and SUM."""
    for template, kinds in TEMPLATES:
        params = bind(kinds, ints, txt)
        where = f"WHERE {template} " if template else ""
        for order_by in order_bys:
            yield f"SELECT * FROM t {where}{order_by}", params
        for fn in ("MAX", "SUM"):
            yield f"SELECT {fn}(c) FROM t {where}", params


def check_index_integrity(db):
    """Every index holds exactly its table's rows (SQLite's own check)."""
    assert db._conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
