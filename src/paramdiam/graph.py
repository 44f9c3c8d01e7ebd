"""Immutable simple-graph substrate and BFS-based primitives.

Graphs are undirected, unweighted, simple, with vertices 0..n-1.
Distances are plain Python integers, or int32 in the tables of
:func:`bfs_rows`; ``UNREACHABLE`` (-1) marks vertices in other components.
A :class:`Graph` holds only its adjacency, with no cache beside it, and
never changes after construction, so it can be shared freely between
threads.

Every traversal in the package runs on one kernel, :func:`_bfs`, which
writes the distances it finds into a ``dist`` list owned by its caller;
every public function here is pure.  A traversal of G - X needs no copy
of it: the vertices of X are set in ``dist`` before the search, as walls.
Both modulator solvers group the vertices outside X by their columns of
one :func:`bfs_rows` table from X, through :func:`fingerprint_types`.

Two diameter solvers live here: :func:`naive_diameter`, one BFS per vertex
and the reference oracle for every other solver, and :func:`solve_bounded`,
which needs no structural parameter and prunes BFS sources with
eccentricity bounds.  Its loop, :func:`bounding_diameters`, takes vertex
weights, so it also bounds the weighted core that ``solve_fes`` reduces to.
"""

from __future__ import annotations

import io
import warnings
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListParseError,
    GraphInputError,
    SelfLoopError,
    VertexRangeError,
)

UNREACHABLE = -1
MAX_VERTICES = 2**31 - 1  # int32 distance tables; lo * n + hi fits in int64

TraceSink = Callable[[dict], None] | None


class Graph:
    """Undirected simple graph in compact adjacency form.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``.  Use
    :func:`from_edge_list` to build a validated instance.
    """

    __slots__ = ("n", "m", "adjacency")

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...], m: int):
        self.n = n
        self.m = m
        self.adjacency = adjacency

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a validated Graph from an edge list over vertices 0..n-1.

    Rejects a vertex count outside 0..2**31 - 1, out-of-range endpoints,
    self-loops and duplicate (including symmetric) edges with distinct error
    types; the error names the first faulty edge in input order.
    """
    try:
        pairs = np.array(list(edges), dtype=np.int64)
    except OverflowError as exc:
        raise VertexRangeError(f"vertex id outside 0..{n - 1}") from exc
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphInputError("edges must be (u, v) pairs")
    return _from_pairs(pairs, n)


def _from_pairs(pairs: np.ndarray, n: int) -> Graph:
    """The validated Graph on vertices 0..n-1 with the int64 (m, 2) ``pairs``.

    Checks every edge at once and raises for the first faulty one in input
    order: an endpoint out of range, then a self-loop, then an edge whose
    key lo * n + hi an earlier edge already has, found by a stable sort of
    the keys.  The adjacency comes from one sort of both edge directions.
    """
    if n < 0:
        raise VertexRangeError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise VertexRangeError(f"vertex count {n} above {MAX_VERTICES}")
    u, v = pairs[:, 0], pairs[:, 1]
    out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    key = np.where(
        out, -1 - np.arange(len(pairs)), np.minimum(u, v) * n + np.maximum(u, v)
    )
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    bad = out | (u == v)
    bad[order[1:][ordered[1:] == ordered[:-1]]] = True
    if bad.any():
        i = int(bad.argmax())
        a, b = int(u[i]), int(v[i])
        if out[i]:
            raise VertexRangeError(f"edge ({a}, {b}) outside 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"self-loop at vertex {a}")
        raise DuplicateEdgeError(f"duplicate edge ({a}, {b})")
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    nbrs = dst[np.argsort(src * n + dst)].tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    adjacency = tuple([tuple(nbrs[i:j]) for i, j in zip([0] + ends, ends)])
    return Graph(n, adjacency, len(pairs))


def _bfs(
    adjacency: Sequence[Iterable[int]],
    source: int,
    dist: list[int],
    depth: int | None = None,
) -> list[int]:
    """BFS from ``source`` over the entries of ``dist`` still UNREACHABLE.

    Writes each distance it finds into the caller's ``dist`` (``source``
    gets 0) and returns the reached vertices in visiting order, so their
    distances never decrease along the list.  With ``depth``, vertices
    farther than ``depth`` from ``source`` stay UNREACHABLE.  Entries of
    ``dist`` that are already set act as walls, which lets one ``dist``
    list carry a whole BFS forest.
    """
    if depth is None:
        depth = len(dist)
    dist[source] = 0
    order = [source]
    for u in order:
        du1 = dist[u] + 1
        if du1 > depth:
            break
        for w in adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du1
                order.append(w)
    return order


def _bfs_dist(adjacency: Sequence[Iterable[int]], n: int, source: int) -> list[int]:
    dist = [UNREACHABLE] * n
    _bfs(adjacency, source, dist)
    return dist


def bfs_rows(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """int32 matrix of shape (len(sources), n); row i holds the distances from ``sources[i]``.

    UNREACHABLE entries are kept; each caller decides whether they are an
    error.
    """
    rows = np.empty((len(sources), g.n), dtype=np.int32)
    for r, source in enumerate(sources):
        if not (0 <= source < g.n):
            raise VertexRangeError(f"source {source} outside 0..{g.n - 1}")
        rows[r] = _bfs_dist(g.adjacency, g.n, source)
    return rows


def fingerprint_types(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal rows of the 2-d integer array ``cols``, one fingerprint per row.

    Returns (first, inverse, counts): for each of the T distinct
    fingerprints, the index of its first row and its number of rows, and
    for each row the index of its type.  Types come in an order fixed by
    the bytes of each fingerprint, not in numeric order.
    """
    # one opaque key per fingerprint: a 1-d np.unique over the keys is about
    # 15x faster than np.unique(axis=0), which compares rows field by field
    cols = np.ascontiguousarray(cols)
    keys = cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse, counts


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return UNREACHABLE not in _bfs_dist(g.adjacency, g.n, 0)


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def eccentricity(g: Graph, v: int) -> int:
    row = _bfs_dist(g.adjacency, g.n, v)
    ecc = max(row)
    if UNREACHABLE in row:
        raise DisconnectedGraphError("graph is not connected")
    return ecc


def naive_diameter(g: Graph) -> int:
    """Diameter by one BFS per vertex; the reference oracle for all solvers."""
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    require_connected(g)
    best = 0
    for v in range(g.n):
        best = max(best, max(_bfs_dist(g.adjacency, g.n, v)))
    return best


def bounding_diameters(
    g: Graph,
    pen: np.ndarray,
    pool: np.ndarray | None = None,
    budget: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int, dict[int, np.ndarray]]:
    """BoundingDiameters (Takes & Kosters, CIKM 2011) for a pen-weighted diameter.

    D = max over v != w of pen[v] + d(v, w) + pen[w] on a connected g, so D
    is the largest pen[v] + e(v), where e(v) = max over w != v of
    d(v, w) + pen[w] (0 on a lone vertex).  A BFS from u finds e(u) exactly
    and bounds every other vertex v:
    max(d(u, v) + pen[u], e(u) - d(u, v)) <= e(v) <= d(u, v) + max(e(u), pen[u]),
    except that when v is u's farthest weighted vertex the lower bound
    subtracts from the second-farthest instead, as v cannot count itself.

    The largest pen[v] + lower bound is a lower bound on D.  A candidate
    leaves once pen + its upper bound is at most that, and D is found once
    no candidate is left.  Sources alternate between the candidate of
    largest pen + upper bound and the one of smallest lower bound, the
    higher degree winning ties, and come from the candidates in the boolean
    mask ``pool`` while any is left.  The int32 distance row of each pool
    source searched is kept.  With no ``pool`` and pen = 0 this is plain
    BoundingDiameters, and a vertex-transitive graph takes n passes.

    Stops after ``budget`` BFS passes at the latest.  Returns (lower,
    upper, passes, rows): the int64 arrays of bounds on every e(v), the
    BFS passes made and the kept rows by source.  The largest pen + lower
    and pen + upper bound D, and are equal unless the budget ran out.
    """
    n = g.n
    adjacency = g.adjacency
    degree = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
    lower = np.zeros(n, dtype=np.int64)
    upper = np.full(n, n + int(pen.max()), dtype=np.int64)  # above every e(v)
    cand = np.arange(n)
    rows: dict[int, np.ndarray] = {}
    best = passes = 0
    while cand.size and passes != budget:
        pick = cand
        if pool is not None and pool[cand].any():
            pick = cand[pool[cand]]
        if passes % 2:
            source = int(pick[np.argmin(lower[pick] * n - degree[pick])])
        else:
            source = int(pick[np.argmax((pen[pick] + upper[pick]) * n + degree[pick])])
        dist = [UNREACHABLE] * n
        if len(_bfs(adjacency, source, dist)) < n:
            raise DisconnectedGraphError("graph is not connected")
        passes += 1
        d = np.array(dist, dtype=np.int32)
        if pool is not None and pool[source]:
            rows[source] = d
        reach = d + pen
        reach[source] = 0  # below every other entry, and e = 0 when n = 1
        far = int(reach.argmax())
        ecc = int(reach[far])
        reach[far] = 0
        low = np.maximum(d + pen[source], ecc - d)
        low[far] = max(d[far] + pen[source], reach.max() - d[far])
        up = d + max(ecc, int(pen[source]))
        low[source] = up[source] = ecc
        np.maximum(lower, low, out=lower)
        np.minimum(upper, up, out=upper)
        best = int((pen + lower).max())
        cand = cand[pen[cand] + upper[cand] > best]
    return lower, upper, passes, rows


def solve_bounded(g: Graph, trace: TraceSink = None) -> int:
    """Exact diameter by :func:`bounding_diameters` with every pen 0.

    ``trace`` gets one final event: the BFS passes made and the lower and
    upper bounds on the diameter, which are then equal.
    """
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    lower, upper, passes, _ = bounding_diameters(g, np.zeros(g.n, dtype=np.int64))
    best = int(lower.max())
    if trace is not None:
        trace({"passes": passes, "lower": best, "upper": int(upper.max())})
    return best


def _bfs_forest(
    g: Graph, removed: Iterable[int] = ()
) -> tuple[list[int], list[list[int]]]:
    """One BFS per unreached root in ascending order, over one shared dist.

    The ``removed`` vertices are walls: they join no tree and stop every
    search, so the trees are the components of G minus them.  Returns the
    distance of each vertex from its tree's root and the vertices of each
    tree in visiting order.
    """
    dist = [UNREACHABLE] * g.n
    for x in removed:
        dist[x] = 0
    trees = [
        _bfs(g.adjacency, root, dist)
        for root in range(g.n)
        if dist[root] == UNREACHABLE
    ]
    return dist, trees


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[int]:
    """Component labels of G minus ``removed``, which are labelled -1.

    labels[v] == labels[u] iff u, v are connected outside ``removed``.
    Labels are consecutive integers starting at 0, assigned in order of the
    smallest vertex of each component.
    """
    labels = [-1] * g.n
    for label, tree in enumerate(_bfs_forest(g, removed)[1]):
        for v in tree:
            labels[v] = label
    return labels


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``vertices``; returns (subgraph, old-id order).

    New vertex i corresponds to the i-th smallest member of ``vertices``.
    """
    order = sorted(set(vertices))
    for v in order:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"vertex {v} outside 0..{g.n - 1}")
    new_id = {v: i for i, v in enumerate(order)}
    adjacency = []
    m = 0
    for v in order:
        row = tuple(sorted(new_id[w] for w in g.adjacency[v] if w in new_id))
        m += len(row)
        adjacency.append(row)
    return Graph(len(order), tuple(adjacency), m // 2), order


# ---------------------------------------------------------------------------
# Edge-list text interchange: '#' comments, "n m" header, then m "u v" lines.

def parse_edge_list(text: str) -> Graph:
    r"""Parse edge-list text into a validated Graph.

    The grammar is whitespace-separated rows of decimal integers with an
    optional sign: a first row ``n m``, then exactly m ``u v`` rows.  A
    ``#`` starts a comment to the end of its line, blank lines are skipped,
    and ``\n``, ``\r\n`` and ``\r`` all end a line.  Anything else, such as
    ``1.0``, ``0x1`` or ``1_000``, raises :class:`EdgeListParseError`;
    an invalid graph raises what :func:`from_edge_list` raises.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            # numpy 1.23 to 2.x read a field such as 1.5 or 1e3 via a float,
            # truncated it and only warned; raise instead, so the grammar is
            # the same on every numpy.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                io.StringIO(text, newline=None), dtype=np.int64, comments="#", ndmin=2
            )
    except (ValueError, DeprecationWarning) as exc:
        raise EdgeListParseError(f"malformed edge list: {exc}") from None
    if rows.size == 0:
        raise EdgeListParseError("empty input")
    if rows.shape[1] != 2:
        raise EdgeListParseError(f"expected 'n m' header, got {rows[0].tolist()}")
    n, m = rows[0].tolist()
    if len(rows) - 1 != m:
        raise EdgeListParseError(
            f"header declares {m} edges but {len(rows) - 1} edge lines found"
        )
    return _from_pairs(rows[1:], n)


def format_edge_list(g: Graph, comment: str | None = None) -> str:
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"{g.n} {g.m}")
    for u, v in g.edges():
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def load_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(g: Graph, path: str, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g, comment))
