"""Guard the partitioner's growth with k, host speed cancelled out.

``multilevel_kway`` plays MeTiS: SDM's index distribution and its
history file are built from the vector it returns, and it is nearly all
of the e2e workloads' setup time.  Its cost should follow the graph, not
the part count: every per-vertex step walks the vertex's adjacency, and
no step pays per part.  Here it partitions ``fun3d_like_problem(16)``
(4 913 nodes, ``fun3d_e2e``'s mesh) at ``k = 32`` (that workload's rank
count) and ``k = 512``, both in this process, in alternating rounds
(``timing.samples_us``).  It prints the best time of each and fails if
the median per-round ratio t(512) / t(32) exceeds ``MAX_GROWTH``.  A
partitioner that spends O(k) per boundary vertex or runs a full BFS per
seed lands near 30x here.

Run directly (no JSON input; seconds)::

    python benchmarks/perfcheck_partition.py
"""

import sys

from timing import compare, samples_us
from repro.mesh import fun3d_like_problem
from repro.partition import Graph, multilevel_kway

MAX_GROWTH = 8.0
SMALL_K, LARGE_K = 32, 512
TIMING = {"seconds": 0.0, "repeat": 7}  # one call (~0.1 s) per sample


def main() -> int:
    mesh = fun3d_like_problem(16).mesh
    graph = Graph.from_edges(mesh.n_nodes, mesh.edge1, mesh.edge2)
    small_us, large_us = samples_us(
        [lambda: multilevel_kway(graph, SMALL_K, seed=1),
         lambda: multilevel_kway(graph, LARGE_K, seed=1)],
        **TIMING)
    large, small, ratio = compare(large_us, small_us)
    ok = ratio <= MAX_GROWTH
    print(f"perfcheck: multilevel_kway on {graph.n} nodes: k={SMALL_K} "
          f"{small / 1e3:.1f} ms, k={LARGE_K} {large / 1e3:.1f} ms, "
          f"{ratio:.2f}x (max {MAX_GROWTH}x) {'ok' if ok else 'FAIL'}")
    if not ok:
        print(f"perfcheck: FAIL multilevel_kway at k={LARGE_K} costs "
              f"{ratio:.2f}x k={SMALL_K}", file=sys.stderr)
        return 1
    print("perfcheck: the partitioner's time follows the graph, not k")
    return 0


if __name__ == "__main__":
    sys.exit(main())
