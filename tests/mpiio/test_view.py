"""FileView: mapping visible-data windows to file byte runs."""

import numpy as np
import pytest

from repro.dtypes import BYTE, FLOAT64, INT32, IndexedBlock
from repro.errors import MPIIOError
from repro.mpiio import FileView


def runs(view, off, n):
    o, l = view.runs_for(off, n)
    return list(zip(o.tolist(), l.tolist()))


def test_default_view_is_dense_bytes():
    v = FileView()
    assert v.dense
    assert runs(v, 0, 10) == [(0, 10)]
    assert runs(v, 100, 5) == [(100, 5)]


def test_displacement_shifts_everything():
    v = FileView(disp=1000)
    assert runs(v, 0, 8) == [(1000, 8)]


def test_vector_filetype_round_robin():
    # Rank 1 of 4: every 4th double, starting at element 1.
    ft = IndexedBlock(1, [0], FLOAT64).with_extent(32)
    v = FileView(disp=8, etype=FLOAT64, filetype=ft)
    assert (ft.size, ft.extent) == (8, 32)  # one data double per tile
    assert runs(v, 0, 24) == [(8, 8), (40, 8), (72, 8)]


def test_partial_tile_clipping():
    # Filetype: 2 doubles data then 2 doubles hole (extent 32B, size 16B).
    ft = IndexedBlock(2, [0], FLOAT64).with_extent(32)
    v = FileView(etype=FLOAT64, filetype=ft)
    # Start mid-tile: second double of tile 0, first double of tile 1.
    assert runs(v, 8, 16) == [(8, 8), (32, 8)]


def test_many_middle_tiles_vectorized():
    ft = FLOAT64.with_extent(64)
    v = FileView(etype=FLOAT64, filetype=ft)
    o, l = v.runs_for(0, 8 * 1000)
    assert len(o) == 1000
    assert o[0] == 0 and o[-1] == 64 * 999
    assert int(l.sum()) == 8000


def test_indexed_block_map_array_view():
    map_array = np.array([5, 2, 9], dtype=np.int64)
    # Views require monotone displacements: sort the map first (SDM does).
    ft = IndexedBlock(1, np.sort(map_array), FLOAT64)
    v = FileView(etype=FLOAT64, filetype=ft)
    assert runs(v, 0, 24) == [(16, 8), (40, 8), (72, 8)]


def test_nonmonotonic_filetype_rejected():
    ft = IndexedBlock(1, np.array([5, 2]), FLOAT64)
    with pytest.raises(MPIIOError):
        FileView(etype=FLOAT64, filetype=ft)


def test_filetype_extent_shorter_than_its_data_rejected():
    """Tiled at a stride shorter than its data, a filetype would give
    overlapping runs — four doubles tiled every 8 bytes — so the view
    refuses it, at every install."""
    ft = IndexedBlock(4, [0], FLOAT64).with_extent(8)
    for _ in range(2):
        with pytest.raises(MPIIOError, match="past its extent"):
            FileView(etype=FLOAT64, filetype=ft)
    with pytest.raises(MPIIOError):
        FileView(etype=FLOAT64, filetype=FLOAT64.with_extent(0))


def test_etype_filetype_size_divisibility_enforced():
    ft = IndexedBlock(3, [0], BYTE)
    with pytest.raises(MPIIOError):
        FileView(etype=INT32, filetype=ft)


def test_zero_length_request():
    v = FileView()
    o, l = v.runs_for(50, 0)
    assert len(o) == 0 and len(l) == 0


def test_negative_request_rejected():
    v = FileView()
    with pytest.raises(MPIIOError):
        v.runs_for(-1, 4)


def test_runs_conserve_bytes_property():
    rng = np.random.default_rng(3)
    disp = np.sort(rng.choice(10_000, size=500, replace=False))
    ft = IndexedBlock(1, disp, FLOAT64)
    v = FileView(etype=FLOAT64, filetype=ft)
    for start, n in [(0, 8), (8, 4000 - 8), (16, 500 * 8 - 16), (0, 500 * 8)]:
        o, l = v.runs_for(start, n)
        assert int(l.sum()) == n
        assert (l > 0).all()
        # Sorted, non-overlapping.
        assert (o[1:] >= o[:-1] + l[:-1]).all()
