"""Guard the metadb plan's row verifier against the tree walk it
replaced, host speed cancelled out.

A statement's plan (:class:`repro.metadb.engine._Plan`) verifies a
candidate row by comparing its positions with values bound once per
execution; before plans, every candidate was turned into a
``dict(zip(names, row))`` and walked through the WHERE tree
(``Expr.eval``), kept here as ``tree_walk``.  Both are timed over every
row of a 10 000-row ``execution_table`` (SDM's schema, 10 runs x 4
datasets x 250 timesteps, a tenth of the versions closed) in this
process, in alternating rounds (``perfcheck_aggregation.samples_us``),
and only the median per-round *ratio* is held, for two WHERE shapes:

* **reap** — ``valid_to < ?``, the one-conjunct reap-candidate scan
  (``files_with_dead_rows``);
* **lookup** — ``runid = ? AND dataset = ? AND timestep = ? AND
  valid_to = ?``, the instance lookup behind every read, verified on
  every row as a scan would.

The verifier must beat the walk by ``MIN_SPEEDUP`` on each, and both
must accept the same rows.

Run directly (no JSON input; seconds)::

    python benchmarks/perfcheck_metadb.py
"""

import sys

from perfcheck_aggregation import compare, samples_us
from repro.metadb import Database, SDMTables
from repro.metadb.schema import OPEN_EPOCH

MIN_SPEEDUP = 3.0
RUNS, DATASETS, TIMESTEPS = 10, 4, 250
TIMING = {"seconds": 0.1, "repeat": 9}
SHAPES = (
    ("reap", "SELECT file_name FROM execution_table WHERE valid_to < ?",
     (OPEN_EPOCH,)),
    ("lookup", "SELECT file_name FROM execution_table WHERE runid = ? AND "
     "dataset = ? AND timestep = ? AND valid_to = ?",
     (3, "d2", 117, OPEN_EPOCH)),
)


def execution_table():
    """``(db, table)``: SDM's schema, ``execution_table`` filled."""
    tables = SDMTables(Database())
    tables.create_all()
    rows = [
        (r, f"d{d}", t, f"run{r}.d{d}.dat", t * 8192, 8192, 0,
         7 if t % 10 == 0 else OPEN_EPOCH)
        for r in range(RUNS) for d in range(DATASETS) for t in range(TIMESTEPS)
    ]
    tables.db.execute_many(
        "INSERT INTO execution_table VALUES (?, ?, ?, ?, ?, ?, ?, ?)", rows)
    return tables.db, tables.db.tables["execution_table"]


def tree_walk(table, where, params):
    """The verification plans replaced: one row context per row, one
    ``Expr.eval`` walk of the WHERE tree."""
    names = table.column_names
    return [i for i, row in table.scan()
            if where.eval(dict(zip(names, row)), params)]


def main() -> int:
    db, table = execution_table()
    failures = []
    for name, sql, params in SHAPES:
        db.execute(sql, params)  # builds and keeps the plan
        stmt = db.prepare(sql)
        plan = table.plans[id(stmt)]
        bound = plan.bind(params)

        def planned():
            return plan.matches(table, table.scan(), bound, params)

        def walked():
            return tree_walk(table, stmt.where, params)

        hits = planned()
        if hits != walked() or not hits:
            failures.append(f"{name}: the verifier and the walk disagree")
            continue
        walk, verify, ratio = compare(*samples_us([walked, planned],
                                                  **TIMING))
        ok = ratio >= MIN_SPEEDUP
        print(f"perfcheck: verify {name} over {len(table)} rows "
              f"({len(hits)} hits): tree walk {walk / 1e3:.2f} ms, plan "
              f"{verify / 1e3:.2f} ms, {ratio:.1f}x (min {MIN_SPEEDUP}x) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"the plan verifies {name} only {ratio:.1f}x "
                            f"faster than the tree walk")
    for f in failures:
        print(f"perfcheck: FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print("perfcheck: the metadb plan verifier holds its ratio")
    return 0


if __name__ == "__main__":
    sys.exit(main())
