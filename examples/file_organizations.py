"""File organizations and the metadata database (paper Section 3.2, Fig 4).

Writes the same two-dataset group under levels 1, 2, and 3, then *inspects
the metadata database directly with SQL* to show what SDM recorded — the
run_table / access_pattern_table / execution_table flow of Figure 4 — and
demonstrates reading a dataset back in a later run using only the database
(no file names in user code).  The same API serves a regular application:
at each level a 2-D field block-decomposed over a 2 x 2 process grid is
written and read back through subarray views (``repro.core.regular``).

Run:  python examples/file_organizations.py
"""

import numpy as np

from repro.core import SDM, Organization, sdm_services, snapshot_services
from repro.core.regular import block_decompose, subarray_view
from repro.dtypes import DOUBLE
from repro.metadb import Database
from repro.mpi import mpirun

NPROCS = 4
GLOBAL = 64
TIMESTEPS = 3
SHAPE = (16, 16)
GRID = (2, 2)


def writer_program(level):
    def program(ctx):
        sdm = SDM(ctx, "demo", organization=level)
        result = sdm.make_datalist(["p", "q"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        lo = ctx.rank * (GLOBAL // ctx.size)
        mine = np.arange(lo, lo + GLOBAL // ctx.size, dtype=np.int64)
        sdm.data_view(handle, "p", mine)
        sdm.data_view(handle, "q", mine)
        for t in range(TIMESTEPS):
            sdm.write(handle, "p", t, mine * 1.0 + t)
            sdm.write(handle, "q", t, mine * -1.0 - t)
        sdm.finalize(handle)
        return sdm.runid

    return program


def regular_program(level):
    """Write a block-decomposed 2-D field every timestep, read it back."""
    def program(ctx):
        sdm = SDM(ctx, "grid", organization=level, dimension=2)
        result = sdm.make_datalist(["f"])
        sdm.associate_attributes(result, data_type=DOUBLE,
                                 global_size=SHAPE[0] * SHAPE[1])
        handle = sdm.set_attributes(result)
        sub, starts = block_decompose(SHAPE, GRID, ctx.rank)
        subarray_view(sdm, handle, "f", SHAPE, sub, starts)
        rows, cols = np.meshgrid(np.arange(starts[0], starts[0] + sub[0]),
                                 np.arange(starts[1], starts[1] + sub[1]),
                                 indexing="ij")
        block = (rows * SHAPE[1] + cols).astype(np.float64)
        for t in range(TIMESTEPS):
            sdm.write(handle, "f", t, (block + t).ravel())
        for t in range(TIMESTEPS):
            back = np.empty(block.size)
            sdm.read(handle, "f", t, back)
            np.testing.assert_array_equal(back, (block + t).ravel())
        sdm.finalize(handle)

    return program


def main():
    for level in Organization:
        job = mpirun(writer_program(level), NPROCS, services=sdm_services())
        fs = job.services["fs"]
        files = fs.list_files()
        sizes = {f: fs.lookup(f).size for f in files}
        print(f"level {level.value}: {len(files)} file(s)")
        for f in files:
            print(f"    {f:<28} {sizes[f]:>8} bytes")
        mpirun(regular_program(level), NPROCS, services=sdm_services())
        print(f"    regular {SHAPE[0]}x{SHAPE[1]} field on a {GRID[0]}x"
              f"{GRID[1]} grid: written and read back")

    # Inspect the metadata database of a level-3 run with raw SQL.
    print("\nmetadata recorded for the level-3 run (raw SQL):")
    job = mpirun(writer_program(Organization.LEVEL_3), NPROCS,
                 services=sdm_services())
    db: Database = job.services["db"]
    for sql in (
        "SELECT runid, application, num_timesteps FROM run_table",
        "SELECT dataset, basic_pattern, data_type, global_size "
        "FROM access_pattern_table WHERE runid = 1",
        "SELECT dataset, timestep, file_name, file_offset "
        "FROM execution_table WHERE runid = 1 ORDER BY file_offset",
    ):
        print(f"  sql> {sql}")
        for row in db.execute(sql):
            print(f"       {row}")

    # A later run reads timestep 1 of 'q' back, locating it purely through
    # the database.
    snap = snapshot_services(job)

    def reader(ctx):
        sdm = SDM(ctx, "demo-reader", organization=Organization.LEVEL_3)
        result = sdm.make_datalist(["q"])
        sdm.associate_attributes(result, data_type=DOUBLE, global_size=GLOBAL)
        handle = sdm.set_attributes(result)
        lo = ctx.rank * (GLOBAL // ctx.size)
        mine = np.arange(lo, lo + GLOBAL // ctx.size, dtype=np.int64)
        sdm.data_view(handle, "q", mine)
        buf = np.empty(len(mine))
        sdm.read(handle, "q", 1, buf, runid=1)  # previous run's data
        sdm.finalize(handle)
        return buf

    job2 = mpirun(reader, NPROCS, services=sdm_services(seed_from=snap))
    got = np.concatenate(job2.values)
    np.testing.assert_allclose(got, -np.arange(GLOBAL) - 1.0)
    print("\ncross-run read of q@t=1 via execution_table verified. OK")


if __name__ == "__main__":
    main()
