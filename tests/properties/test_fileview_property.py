"""Property: file views select exactly the mapped file bytes, in order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import FLOAT64, IndexedBlock
from repro.mpiio import FileView


@st.composite
def map_and_window(draw):
    n = draw(st.integers(1, 50))
    universe = draw(st.integers(n, 200))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    disp = np.sort(rng.choice(universe, size=n, replace=False)).astype(np.int64)
    start = draw(st.integers(0, n - 1))
    count = draw(st.integers(1, n - start))
    return disp, start, count


@settings(max_examples=100, deadline=None)
@given(map_and_window())
def test_indexed_view_selects_mapped_elements(case):
    disp, start, count = case
    view = FileView(etype=FLOAT64, filetype=IndexedBlock(1, disp, FLOAT64))
    off, ln = view.runs_for(start * 8, count * 8)
    # Expand runs to element indices in the file.
    selected = []
    for o, l in zip(off.tolist(), ln.tolist()):
        assert o % 8 == 0 and l % 8 == 0
        selected.extend(range(o // 8, (o + l) // 8))
    np.testing.assert_array_equal(selected, disp[start : start + count])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 16),   # nprocs
    st.integers(0, 15),   # rank
    st.integers(1, 40),   # elements to access
    st.integers(0, 30),   # starting element
)
def test_round_robin_view_arithmetic(nprocs, rank, count, start):
    """The rank-strided view maps element k to file element
    k*nprocs + rank — checked for arbitrary windows."""
    if rank >= nprocs:
        rank = rank % nprocs
    ft = IndexedBlock(1, [0], FLOAT64).with_extent(8 * nprocs)
    view = FileView(disp=8 * rank, etype=FLOAT64, filetype=ft)
    off, ln = view.runs_for(start * 8, count * 8)
    selected = []
    for o, l in zip(off.tolist(), ln.tolist()):
        selected.extend(range(o // 8, (o + l) // 8))
    expect = [(start + k) * nprocs + rank for k in range(count)]
    np.testing.assert_array_equal(selected, expect)


@settings(max_examples=100, deadline=None)
@given(map_and_window())
def test_view_windows_compose(case):
    """Reading [a, b) then [b, c) covers the same bytes as [a, c)."""
    disp, start, count = case
    if count < 2:
        return
    view = FileView(etype=FLOAT64, filetype=IndexedBlock(1, disp, FLOAT64))
    mid = count // 2
    o1, l1 = view.runs_for(start * 8, mid * 8)
    o2, l2 = view.runs_for((start + mid) * 8, (count - mid) * 8)
    o_all, l_all = view.runs_for(start * 8, count * 8)

    def expand(off, ln):
        out = []
        for o, l in zip(off.tolist(), ln.tolist()):
            out.extend(range(o, o + l))
        return out

    assert expand(o1, l1) + expand(o2, l2) == expand(o_all, l_all)


@st.composite
def tiled_blocks(draw):
    """An ``IndexedBlock`` of ``blocklength`` doubles per displacement
    (blocks ascending and disjoint, possibly abutting), resized to a
    stride at or past its extent, and a window over several tiles."""
    b = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    disp = np.cumsum([g + b for g in gaps]) - b
    pad = draw(st.integers(0, 3))
    stride = int(disp[-1]) + b + pad
    per_tile = len(disp) * b
    start = draw(st.integers(0, 3 * per_tile))
    count = draw(st.integers(1, 4 * per_tile))
    return b, disp, stride, start, count


@settings(max_examples=150, deadline=None)
@given(tiled_blocks())
def test_multi_tile_windows_select_and_merge(case):
    """Across tiles — the head, middle and tail of ``runs_for`` — visible
    element k is file element ``t * stride + disp[j // b] + j % b`` (``t,
    j = divmod(k, len(disp) * b)``), and the runs come back maximal:
    abutting blocks, and a tile's last block abutting the next tile's
    first, are one run."""
    b, disp, stride, start, count = case
    ft = IndexedBlock(b, disp, FLOAT64).with_extent(8 * stride)
    view = FileView(etype=FLOAT64, filetype=ft)
    off, ln = view.runs_for(start * 8, count * 8)
    assert (off[1:] > off[:-1] + ln[:-1]).all()
    selected = []
    for o, l in zip(off.tolist(), ln.tolist()):
        selected.extend(range(o // 8, (o + l) // 8))
    t, j = np.divmod(np.arange(start, start + count), len(disp) * b)
    np.testing.assert_array_equal(selected, t * stride + disp[j // b] + j % b)
