"""Golden partitioning vectors: the partitioner's output is pinned byte for byte.

SDM keys its index distribution and the history file that lets a later
run skip it by the partitioning vector, so a history file written today
only matches tomorrow's run if ``multilevel_kway`` returns the very same
vector for the same graph, ``k`` and seed.  Each case below holds the
sha256 (first 16 hex digits) of the int64 vector's bytes.

``KERNEL_DIGESTS`` pins the four per-level kernels on one weighted coarse
level, so a drift in the full vectors points at the kernel that moved.

To print the digests of the current code (after a deliberate change of
the partitioner's decisions, which invalidates every history file)::

    PYTHONPATH=src python tests/partition/test_partition_golden.py
"""

import hashlib

import numpy as np
import pytest

from repro.mesh import fun3d_like_problem, rt_like_problem
from repro.partition import Graph, multilevel_kway
from repro.partition.coarsen import contract, heavy_edge_matching
from repro.partition.initial import greedy_grow
from repro.partition.refine import balance_kway, refine_kway

SEEDS = (1, 2, 5)


def digest(vector: np.ndarray) -> str:
    assert vector.dtype == np.int64
    return hashlib.sha256(np.ascontiguousarray(vector).tobytes()).hexdigest()[:16]


def mesh_graph(problem) -> Graph:
    return Graph.from_edges(problem.mesh.n_nodes, problem.mesh.edge1, problem.mesh.edge2)


def grid_graph(n: int) -> Graph:
    ids = np.arange(n * n).reshape(n, n)
    e1 = np.concatenate([ids[:, :-1].reshape(-1), ids[:-1, :].reshape(-1)])
    e2 = np.concatenate([ids[:, 1:].reshape(-1), ids[1:, :].reshape(-1)])
    return Graph.from_edges(n * n, e1, e2)


def two_component_graph() -> Graph:
    """A 12 x 12 grid and a 9 x 9 grid side by side, no edge between them."""
    a, b = grid_graph(12), grid_graph(9)
    src_a = np.repeat(np.arange(a.n), np.diff(a.xadj))
    src_b = np.repeat(np.arange(b.n), np.diff(b.xadj))
    keep_a, keep_b = src_a < a.adjncy, src_b < b.adjncy
    e1 = np.concatenate([src_a[keep_a], src_b[keep_b] + a.n])
    e2 = np.concatenate([a.adjncy[keep_a], b.adjncy[keep_b] + a.n])
    return Graph.from_edges(a.n + b.n, e1, e2)


GRAPHS = {
    "fun3d16": lambda: mesh_graph(fun3d_like_problem(16)),
    "rt16": lambda: mesh_graph(rt_like_problem(16)),
    "grid20": lambda: grid_graph(20),
    "two_components": two_component_graph,
}

CASES = [
    ("fun3d16", 7), ("fun3d16", 32), ("fun3d16", 256), ("fun3d16", 512),
    ("rt16", 8), ("rt16", 16),
    ("grid20", 2), ("grid20", 4), ("grid20", 8),
    ("two_components", 8), ("two_components", 24), ("two_components", 100),
]

GOLDEN = {
    "fun3d16/k=7/seed=1": "2bdd2b44eeafe085",
    "fun3d16/k=7/seed=2": "4f6aa8fe53ec8531",
    "fun3d16/k=7/seed=5": "8ab82aceb3a63aca",
    "fun3d16/k=32/seed=1": "1adc14cab309db69",
    "fun3d16/k=32/seed=2": "5c4be2b8e66ae379",
    "fun3d16/k=32/seed=5": "7310a31406e17683",
    "fun3d16/k=256/seed=1": "68c4deca4d20de11",
    "fun3d16/k=256/seed=2": "4d2e8a6b67091b81",
    "fun3d16/k=256/seed=5": "1e64435d9e274aac",
    "fun3d16/k=512/seed=1": "d73e0f56338031a0",
    "fun3d16/k=512/seed=2": "eaa90bebf73b1e93",
    "fun3d16/k=512/seed=5": "d73e0f56338031a0",
    "rt16/k=8/seed=1": "e4476ac07c4699e4",
    "rt16/k=8/seed=2": "5b36ca2adb60523f",
    "rt16/k=8/seed=5": "37fa676aa7f3db93",
    "rt16/k=16/seed=1": "ac8add5f1700735f",
    "rt16/k=16/seed=2": "ca3148d05398ccab",
    "rt16/k=16/seed=5": "06c2aadfe6bf6e23",
    "grid20/k=2/seed=1": "f2ba27c3241908c5",
    "grid20/k=2/seed=2": "a93dc9b19c908192",
    "grid20/k=2/seed=5": "9ac0b9b69690f5db",
    "grid20/k=4/seed=1": "c3db93c13aa5bdb4",
    "grid20/k=4/seed=2": "2a43f40d0b83bafe",
    "grid20/k=4/seed=5": "4b2bbf101e305a55",
    "grid20/k=8/seed=1": "e1bbe9f396024b4c",
    "grid20/k=8/seed=2": "ad16bf7b003bd0e8",
    "grid20/k=8/seed=5": "1d597440650b9950",
    "two_components/k=8/seed=1": "f9aa684c6743af53",
    "two_components/k=8/seed=2": "69bbb8df2511a410",
    "two_components/k=8/seed=5": "79f4a1fdae8c9d92",
    "two_components/k=24/seed=1": "3505df38091a9c88",
    "two_components/k=24/seed=2": "4abfb694b11be808",
    "two_components/k=24/seed=5": "4abfb694b11be808",
    "two_components/k=100/seed=1": "32354d296ec2b94c",
    "two_components/k=100/seed=2": "5f42471b9bef6419",
    "two_components/k=100/seed=5": "5f42471b9bef6419",
}

KERNEL_DIGESTS = {
    "match": "7cb78c5839744034",
    "grow": "d85bfa2c839ae899",
    "balance": "03c5a140f03dfdb3",
    "refine": "7ef7e27c1782d65b",
    "balance_skewed": "3a6c6ec605e0f9bb",
    "refine_skewed": "529cf3c7c96e71c4",
    "refine_tight": "c69dbbf60298c6b2",
    "balance_lump": "10f0c69fc1836544",
}


_graphs = {}


def graph(name: str) -> Graph:
    if name not in _graphs:
        _graphs[name] = GRAPHS[name]()
    return _graphs[name]


def coarse_level() -> Graph:
    """fun3d16 contracted twice: non-unit vertex and edge weights."""
    g = graph("fun3d16")
    rng = np.random.default_rng(3)
    for _ in range(2):
        g, _cmap = contract(g, heavy_edge_matching(g, rng))
    return g


def kernel_vectors():
    """The four kernels on one weighted coarse level, each fed the last,
    plus the balancing and refinement paths the workloads rarely take."""
    g = coarse_level()
    k = 32
    out = {"match": heavy_edge_matching(g, np.random.default_rng(7))}
    out["grow"] = greedy_grow(g, k, np.random.default_rng(7))
    out["balance"] = balance_kway(g, out["grow"].copy(), k)
    out["refine"] = refine_kway(g, out["balance"].copy(), k)
    # A start that piles a third of the graph onto part 0 and scatters the
    # rest: balancing has to move many interior vertices.
    skew = np.random.default_rng(11).integers(0, k, size=g.n)
    skew[: g.n // 3] = 0
    out["balance_skewed"] = balance_kway(g, skew.astype(np.int64), k)
    out["refine_skewed"] = refine_kway(g, out["balance_skewed"].copy(), k, tolerance=1.2)
    # No slack at all: most improving moves would overload their target.
    out["refine_tight"] = refine_kway(g, out["balance"].copy(), k, tolerance=1.0)
    # One whole component in part 0: none of its vertices is on a boundary,
    # so balancing falls through to its forced moves.
    two = graph("two_components")
    lump = np.where(np.arange(two.n) < 144, 0, np.arange(two.n) % 7 + 1)
    out["balance_lump"] = balance_kway(two, lump.astype(np.int64), 8)
    return out


def current_digests():
    vectors = {
        f"{name}/k={k}/seed={seed}": digest(multilevel_kway(graph(name), k, seed=seed))
        for name, k in CASES
        for seed in SEEDS
    }
    kernels = {name: digest(v) for name, v in kernel_vectors().items()}
    return vectors, kernels


@pytest.mark.parametrize("name,k", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_partitioning_vector_is_unchanged(name, k):
    g = graph(name)
    for seed in SEEDS:
        key = f"{name}/k={k}/seed={seed}"
        part = multilevel_kway(g, k, seed=seed)
        assert digest(part) == GOLDEN[key], key


def test_each_kernel_is_unchanged_on_a_weighted_level():
    g = coarse_level()
    assert (g.vwgt > 1).any() and (g.adjwgt > 1).any()
    got = {name: digest(v) for name, v in kernel_vectors().items()}
    assert got == KERNEL_DIGESTS


if __name__ == "__main__":
    vectors, kernels = current_digests()
    print("GOLDEN = {")
    for key, d in vectors.items():
        print(f'    "{key}": "{d}",')
    print("}\n\nKERNEL_DIGESTS = {")
    for key, d in kernels.items():
        print(f'    "{key}": "{d}",')
    print("}")
