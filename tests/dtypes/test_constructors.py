"""Unit tests: datatype sizes, extents, and run decompositions."""

import numpy as np
import pytest

from repro.dtypes import (
    BYTE,
    DOUBLE,
    FLOAT32,
    FLOAT64,
    INT,
    INT32,
    INT64,
    IndexedBlock,
)
from repro.dtypes.primitives import primitive_by_name
from repro.errors import DatatypeError
from repro.mpiio import FileView


def runs_of(dt):
    """One instance's runs, typemap order, unmerged."""
    off, ln = dt.runs()
    return list(zip(off.tolist(), ln.tolist()))


def tiled(dt, count=1):
    """``count`` instances of ``dt`` as a file view lowers them: tiled at
    its extent, abutting runs merged."""
    off, ln = FileView(filetype=dt).runs_for(0, count * dt.size)
    return list(zip(off.tolist(), ln.tolist()))


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def test_primitive_sizes_and_extents():
    assert (BYTE.size, BYTE.extent) == (1, 1)
    assert (INT32.size, INT32.extent) == (4, 4)
    assert (INT64.size, INT64.extent) == (8, 8)
    assert (FLOAT32.size, FLOAT32.extent) == (4, 4)
    assert (FLOAT64.size, FLOAT64.extent) == (8, 8)
    assert INT is INT32 and DOUBLE is FLOAT64


def test_primitive_names_and_numpy_dtypes_roundtrip():
    """The metadata tables store a primitive's name; the name leads back
    to the same primitive and its numpy dtype."""
    for p in (BYTE, INT32, INT64, FLOAT32, FLOAT64):
        assert primitive_by_name(p.name) is p
        assert np.dtype(p.numpy_dtype).itemsize == p.size
    assert primitive_by_name("FLOAT64").numpy_dtype == np.float64
    with pytest.raises(DatatypeError):
        primitive_by_name("COMPLEX128")


# ---------------------------------------------------------------------------
# IndexedBlock
# ---------------------------------------------------------------------------

def test_indexed_block_from_map_array():
    map_array = np.array([3, 0, 9, 4], dtype=np.int64)
    dt = IndexedBlock(blocklength=1, displacements=map_array, base=FLOAT64)
    assert dt.size == 32
    assert dt.extent == 80
    assert runs_of(dt) == [(24, 8), (0, 8), (72, 8), (32, 8)]


def test_indexed_unsorted_displacements_keep_typemap_order():
    dt = IndexedBlock(1, [7, 2], INT32)
    assert runs_of(dt) == [(28, 4), (8, 4)]


def test_indexed_block_contiguous_map_merges():
    dt = IndexedBlock(1, np.arange(100), base=FLOAT64)
    assert tiled(dt) == [(0, 800)]


def test_indexed_block_large_map_vectorized():
    n = 200_000
    disp = np.arange(n) * 2  # every other element
    dt = IndexedBlock(1, disp, base=FLOAT64)
    off, ln = dt.runs()
    assert len(off) == n
    assert off[-1] == (n - 1) * 16
    assert int(ln.sum()) == dt.size


def test_indexed_negative_values_rejected():
    with pytest.raises(DatatypeError):
        IndexedBlock(1, [-3], INT32)
    with pytest.raises(DatatypeError):
        IndexedBlock(-1, [0], INT32)


# ---------------------------------------------------------------------------
# Resized
# ---------------------------------------------------------------------------

def test_resized_extent_override_for_tiling():
    dt = IndexedBlock(2, [0], INT32).with_extent(16)
    assert dt.size == 8 and dt.extent == 16
    assert tiled(dt, count=3) == [(0, 8), (16, 8), (32, 8)]


# ---------------------------------------------------------------------------
# Nesting
# ---------------------------------------------------------------------------

def test_indexed_block_over_a_resized_base():
    """A base with a hole expands instance by instance: a block of three
    padded ints is three runs."""
    dt = IndexedBlock(3, [0, 4], INT32.with_extent(8))
    assert dt.size == 24 and dt.extent == 56
    assert runs_of(dt) == [(0, 4), (8, 4), (16, 4), (32, 4), (40, 4), (48, 4)]
