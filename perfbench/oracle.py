"""Exact diameter reference that shares no code with paramdiam.

It reads the edge-list file itself and runs BoundingDiameters (Takes and
Kosters, 2011) on top of the C breadth-first search in
``scipy.sparse.csgraph``.  Every BFS from a vertex v with eccentricity e
bounds every other vertex w by max(d(v, w), e - d(v, w)) <= ecc(w) <=
e + d(v, w).  The diameter is the maximum eccentricity, so the run stops
as soon as the best lower bound meets the largest upper bound.  Sparse
graphs with a long diameter typically need a few dozen BFS passes instead
of n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


@dataclass(frozen=True)
class EdgeArrays:
    """An undirected simple graph as parsed from an edge-list file."""

    n: int
    edges: np.ndarray  # shape (m, 2), int64

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def h_index(self) -> int:
        """Largest h with at least h vertices of degree at least h."""
        ranked = np.sort(self.degrees())[::-1]
        return int(np.count_nonzero(ranked >= np.arange(1, self.n + 1)))


def read_edge_list(path: str) -> EdgeArrays:
    """Parse '#' comments, an 'n m' header and m 'u v' lines."""
    with open(path, "r", encoding="utf-8") as fh:
        body = " ".join(ln for ln in fh if not ln.lstrip().startswith("#"))
    numbers = np.array(body.split(), dtype=np.int64)
    if len(numbers) < 2:
        raise ValueError(f"{path}: missing 'n m' header")
    n, m = int(numbers[0]), int(numbers[1])
    if len(numbers) != 2 + 2 * m:
        raise ValueError(f"{path}: header declares {m} edges, body differs")
    return EdgeArrays(n, numbers[2:].reshape(m, 2))


def adjacency_matrix(g: EdgeArrays) -> csr_matrix:
    u, v = g.edges[:, 0], g.edges[:, 1]
    ones = np.ones(2 * g.m, dtype=np.int8)
    return csr_matrix((ones, (np.r_[u, v], np.r_[v, u])), shape=(g.n, g.n))


def bfs_distances(adj: csr_matrix, source: int) -> np.ndarray:
    dist = shortest_path(adj, method="D", unweighted=True, directed=False, indices=source)
    if not np.isfinite(dist).all():
        raise ValueError("graph is not connected")
    return dist.astype(np.int64)


def diameter(g: EdgeArrays) -> int:
    """Exact diameter of a connected graph by BoundingDiameters."""
    if g.n == 0:
        raise ValueError("diameter undefined for the empty graph")
    if g.n == 1:
        return 0
    adj = adjacency_matrix(g)
    degree = g.degrees()
    lower = np.zeros(g.n, dtype=np.int64)
    upper = np.full(g.n, np.iinfo(np.int64).max)
    candidate = np.ones(g.n, dtype=bool)
    best_lower, best_upper = 0, np.iinfo(np.int64).max
    pick_high = True
    v = int(np.argmax(degree))
    while best_lower < best_upper:
        dist = bfs_distances(adj, v)
        ecc = int(dist.max())
        np.maximum(lower, np.maximum(dist, ecc - dist), out=lower)
        np.minimum(upper, ecc + dist, out=upper)
        best_lower = max(best_lower, int(lower.max()))
        best_upper = min(best_upper, int(upper.max()), 2 * ecc)
        # a vertex whose eccentricity is known, or which can neither raise
        # the lower bound nor lower the upper bound, is never picked again
        settled = (lower == upper) | (
            (upper <= best_lower) & (2 * lower >= best_upper)
        )
        candidate &= ~settled
        candidate[v] = False
        if best_lower >= best_upper or not candidate.any():
            break
        # alternate between the largest upper and the smallest lower
        # bound, breaking ties towards high degree
        key = upper if pick_high else -lower
        masked = np.where(candidate, key, np.iinfo(np.int64).min)
        top = np.flatnonzero(masked == masked.max())
        v = int(top[np.argmax(degree[top])])
        pick_high = not pick_high
    if best_lower != best_upper:
        raise AssertionError("bounds failed to meet")  # unreachable for valid bounds
    return best_lower


def diameter_of_file(path: str) -> tuple[int, EdgeArrays]:
    g = read_edge_list(path)
    return diameter(g), g

