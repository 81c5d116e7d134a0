"""File handle lifecycle (double close, access modes)
and a 2-D block view through MPI-IO."""

import numpy as np
import pytest

from repro.config import fast_test
from repro.dtypes import FLOAT64, IndexedBlock
from repro.errors import MPIIOError, SimProcessCrashed
from repro.mpiio import File, MODE_CREATE, MODE_RDONLY, MODE_RDWR
from repro.mpi import mpirun
from repro.pfs import FileSystem


def fs_services(sim, machine):
    return {"fs": FileSystem(sim, machine)}


def run(fn, nprocs=2):
    return mpirun(fn, nprocs, machine=fast_test(), services=fs_services)


def test_subarray_filetype_through_mpiio():
    """A 2-D block decomposition of a C-order array, each rank's block an
    indexed filetype over its element ids: the classic regular-application
    pattern at the MPI-IO level."""
    shape, sub = (8, 8), (4, 4)

    def program(ctx):
        fs = ctx.service("fs")
        r0, c0 = {0: (0, 0), 1: (0, 4), 2: (4, 0), 3: (4, 4)}[ctx.rank]
        rows, cols = np.meshgrid(np.arange(r0, r0 + sub[0]),
                                 np.arange(c0, c0 + sub[1]), indexing="ij")
        ft = IndexedBlock(1, (rows * shape[1] + cols).reshape(-1), FLOAT64)
        f = File.open(ctx.comm, fs, "grid.dat", MODE_CREATE | MODE_RDWR)
        f.set_view(etype=FLOAT64, filetype=ft)
        block = np.full(16, float(ctx.rank))
        f.write_at_all(0, block)
        f.close()
        return None

    job = mpirun(program, 4, machine=fast_test(), services=fs_services)
    fs = job.services["fs"]
    grid = fs.lookup("grid.dat").store.read(0, 64 * 8).view(np.float64)
    grid = grid.reshape(shape)
    np.testing.assert_array_equal(grid[:4, :4], np.zeros((4, 4)))
    np.testing.assert_array_equal(grid[:4, 4:], np.ones((4, 4)))
    np.testing.assert_array_equal(grid[4:, :4], np.full((4, 4), 2.0))
    np.testing.assert_array_equal(grid[4:, 4:], np.full((4, 4), 3.0))


def test_double_close_rejected():
    def program(ctx):
        fs = ctx.service("fs")
        f = File.open(ctx.comm, fs, "d.dat", MODE_CREATE | MODE_RDWR)
        f.close()
        f.close()

    with pytest.raises(SimProcessCrashed) as ei:
        run(program)
    assert isinstance(ei.value.__cause__, MPIIOError)


def test_bad_amode_combinations_rejected():
    def both(ctx):
        fs = ctx.service("fs")
        File.open(ctx.comm, fs, "x", MODE_RDONLY | MODE_RDWR | MODE_CREATE)

    with pytest.raises(SimProcessCrashed) as ei:
        run(both)
    assert isinstance(ei.value.__cause__, MPIIOError)
