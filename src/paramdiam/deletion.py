"""Deletion-set distance combiner and the distance-to-clique solver.

``combine_apsp`` lifts an exact all-pairs table for G - K to one for G by
routing through BFS rows of the deleted vertices; it is generic over the
base class the remainder lives in.  The clique solver needs no table at
all: every long shortest path has an endpoint in K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, InvalidModulatorError, VertexRangeError
from .graph import UNREACHABLE, Graph, _bfs_dist, bfs_rows, is_connected
from .params import clique_modulator_2approx

_INF = 1 << 50  # internal unreachable sentinel; -1 on the wire


@dataclass(frozen=True)
class ApspMatrix:
    """Symmetric all-pairs distance matrix over the listed vertex ids.

    ``dist`` is an integer array with UNREACHABLE (-1) for disconnected
    pairs; ``order[i]`` is the vertex id of row/column i.
    """

    order: tuple[int, ...]
    dist: np.ndarray

    @property
    def n(self) -> int:
        return len(self.order)

    def diameter(self) -> int:
        """Largest finite entry; errors if some pair is unreachable."""
        if self.n == 0:
            raise VertexRangeError("diameter undefined for the empty matrix")
        if (self.dist == UNREACHABLE).any():
            raise DisconnectedGraphError("matrix contains unreachable pairs")
        return int(self.dist.max())


def apsp_by_bfs(g: Graph) -> ApspMatrix:
    """Dense APSP by one BFS per vertex; the base-class table for tests/CLI."""
    return ApspMatrix(tuple(range(g.n)), bfs_rows(g, range(g.n)))


def combine_apsp(g: Graph, k_set: set[int], apsp_without_k: ApspMatrix) -> ApspMatrix:
    """Exact APSP for G from an exact APSP for G - K.

    A shortest path either avoids K (covered by the input table) or passes
    some b in K, where dist(a, c) = dist(a, b) + dist(b, c) with both legs
    taken from b's BFS row.
    """
    rest = [v for v in range(g.n) if v not in k_set]
    for v in k_set:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"deletion-set vertex {v} outside 0..{g.n - 1}")
    if sorted(apsp_without_k.order) != rest or apsp_without_k.n != len(rest):
        raise InvalidModulatorError(
            "input matrix order does not match the vertices outside the deletion set"
        )
    full = np.full((g.n, g.n), _INF, dtype=np.int64)
    np.fill_diagonal(full, 0)
    idx = np.array(apsp_without_k.order, dtype=np.intp)
    base = apsp_without_k.dist.astype(np.int64)
    base[base == UNREACHABLE] = _INF
    full[np.ix_(idx, idx)] = base
    k_list = sorted(k_set)
    k_rows = bfs_rows(g, k_list).astype(np.int64)
    k_rows[k_rows == UNREACHABLE] = _INF
    for b, row in zip(k_list, k_rows):
        np.minimum(full[b, :], row, out=full[b, :])
        np.minimum(full[:, b], row, out=full[:, b])
    for b in k_list:
        row = full[b, :]
        np.minimum(full, row[:, None] + row[None, :], out=full)
    full[full >= _INF] = UNREACHABLE
    return ApspMatrix(tuple(range(g.n)), full)


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
