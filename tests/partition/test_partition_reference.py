"""The partition kernels against the per-vertex implementations they replaced.

``tests/partition_reference.py`` keeps the earlier kernels, which paid
O(k) numpy work per boundary vertex and a full BFS per seed.  On drawn
graphs — several components, isolated vertices, zero and heavy edge and
vertex weights — with drawn k, seeds, tolerances and starting vectors,
each kernel and the whole multilevel driver must return the very same
vector, and refinement and balancing must leave the caller's array
exactly as the reference leaves its copy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_reference as ref
from repro.partition import Graph, multilevel_kway
from repro.partition.coarsen import heavy_edge_matching
from repro.partition.initial import greedy_grow
from repro.partition.refine import balance_kway, refine_kway


@st.composite
def graphs(draw):
    """A random graph of up to four components, maybe weighted."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(60, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 4 * n))
    e1, e2 = rng.integers(0, n, m), rng.integers(0, n, m)
    component = rng.integers(0, draw(st.integers(1, 4)), n)
    keep = component[e1] == component[e2]
    e1, e2 = e1[keep], e2[keep]
    edge_max = draw(st.sampled_from([None, 1, 5]))
    vertex_max = draw(st.sampled_from([None, 1, 4]))
    return Graph.from_edges(
        n, e1, e2,
        edge_weights=None if edge_max is None else rng.integers(0, edge_max + 1, len(e1)),
        vertex_weights=None if vertex_max is None else rng.integers(0, vertex_max + 1, n),
    )


def same(a, b):
    assert a.dtype == b.dtype == np.int64
    np.testing.assert_array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(1, 40), st.integers(0, 10_000),
       st.sampled_from([1.0, 1.05, 1.3]))
def test_multilevel_kway_equals_the_reference_kernels(g, k, seed, tolerance):
    k = min(k, g.n)
    got = multilevel_kway(g, k, seed=seed, tolerance=tolerance)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("heavy_edge_matching", "greedy_grow", "balance_kway",
                     "refine_kway"):
            mp.setattr(f"repro.partition.multilevel.{name}", getattr(ref, name))
        want = multilevel_kway(g, k, seed=seed, tolerance=tolerance)
    same(got, want)


@settings(max_examples=80, deadline=None)
@given(graphs(), st.integers(1, 40), st.integers(0, 10_000),
       st.sampled_from([1.0, 1.05, 1.3]), st.integers(1, 5), st.data())
def test_each_kernel_equals_its_reference(g, k, seed, tolerance, passes, data):
    k = min(k, g.n)

    def rng():
        return np.random.default_rng(seed)

    same(heavy_edge_matching(g, rng()), ref.heavy_edge_matching(g, rng()))
    same(greedy_grow(g, k, rng()), ref.greedy_grow(g, k, rng()))
    # A random start, maybe with one part holding a block of the graph.
    start = rng().integers(0, k, g.n)
    heavy = data.draw(st.integers(0, g.n))
    start[:heavy] = data.draw(st.integers(0, k - 1))
    for kernel, reference, kwargs in (
        (balance_kway, ref.balance_kway, {"tolerance": tolerance}),
        (refine_kway, ref.refine_kway, {"tolerance": tolerance, "passes": passes}),
    ):
        mine, theirs = start.copy(), start.copy()
        same(kernel(g, mine, k, **kwargs), reference(g, theirs, k, **kwargs))
        same(mine, theirs)  # both change the caller's array in place
