"""The distance-to-clique solver.

:func:`solve_clique_modulator` makes one BFS per vertex of the deletion set
K and keeps no all-pairs table, so it runs in O(k (n + m)) time.
"""

from __future__ import annotations

from .errors import DisconnectedGraphError, InvalidModulatorError, VertexRangeError
from .graph import Graph, _bfs_dist, is_connected
from .params import clique_modulator_2approx


def solve_clique_modulator(g: Graph, k_set: set[int] | None = None) -> int:
    """Exact diameter when G - K is a clique; K defaults to the 2-approximation.

    Every shortest path longer than one has an endpoint in K, so the answer
    is the largest BFS distance from K, floored at one when at least two
    clique vertices remain.
    """
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")
    if k_set is None:
        k_set = clique_modulator_2approx(g)
    for v in k_set:
        if not (0 <= v < g.n):
            raise InvalidModulatorError(f"modulator vertex {v} outside 0..{g.n - 1}")
    rest = [v for v in range(g.n) if v not in k_set]
    # each edge inside the remainder is counted from both of its ends
    inside = sum(1 for v in rest for w in g.adjacency[v] if w not in k_set)
    if inside != len(rest) * (len(rest) - 1):
        raise InvalidModulatorError("remainder is not a clique")
    best = 1 if len(rest) >= 2 else 0
    for x in sorted(k_set):
        row = _bfs_dist(g.adjacency, g.n, x)
        best = max(best, max(row))
    return best
