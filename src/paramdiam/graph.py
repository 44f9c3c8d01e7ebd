"""Immutable simple-graph substrate and BFS-based primitives.

Graphs are undirected, unweighted, simple, with vertices 0..n-1.
Distances are plain Python integers in lists, or int32 in the numpy tables
of :func:`bfs_rows`; ``UNREACHABLE`` (-1) marks vertices in other
components.
A :class:`Graph` holds only its adjacency, with no cache beside it, and
never changes after construction, so it can be shared freely between
threads.

Traversals run on two kernels.  :func:`_bfs` is one search from one
source: it writes the distances it finds into a ``dist`` list owned by its
caller, and every other traversal in the package calls it.  A traversal of
G - X needs no copy of it: the vertices of X are set in ``dist`` before the
search, as walls.  Every int32 table of distances from a set of sources
is one :func:`bfs_rows` matrix, checked against ``BFS_ROWS_MAX_BYTES``
before it is allocated: both modulator solvers group the vertices
outside X by their columns of the table from X, through
:func:`fingerprint_types`, and fes case 1 builds the table from the high
vertices of its core, handing in the rows the bounds kept.
:func:`_ms_bfs` runs many searches at once, one bit per source in a Python
int per vertex, and returns only the largest eccentricity among its
sources.  It is the second kernel because on graphs whose eccentricities
are nearly equal no bound prunes, every vertex must be searched from, and
an interpreted loop per source is then all the cost: one C-level OR moves
thousands of searches along an edge.  Only :func:`solve_certified` calls
it, and every public function here is pure.

Two diameter solvers live here: :func:`naive_diameter`, one BFS per
vertex and the reference oracle for every other solver, and
:func:`solve_certified`, which needs no structural parameter: it prunes BFS
sources with eccentricity bounds under a pass budget and certifies the
vertices they leave with :func:`_ms_bfs`.  The bounds loop,
:func:`bounding_diameters`, takes vertex weights, so it also bounds the
weighted core that ``solve_fes`` reduces to.  It runs on Python lists,
with C-level ``map``, ``min`` and ``max`` over the candidates and updates
written only where a bound moves, and keeps bounds only for the candidates
still open: it returns its best lower bound on the diameter and the open
candidates with their upper bounds, which is all its two callers read.

numpy is imported only by the functions that need it: :func:`bfs_rows`,
:func:`fingerprint_types`, :func:`from_edge_list` and the parse of edge
lists of at least ``LIST_PARSE_MAX_EDGES`` edges.  A smaller edge list is
parsed into lists, so ``solve`` on it, by ``naive``, ``msbfs`` or a
``fes`` run whose core bounds settle, never loads numpy.

Both parsers and both graph builders drop each temporary as soon as the
step that uses it is done: the lines, the tokens, the parsed values and the
per-edge check arrays never outlive their step, and no per-edge key is kept
beside the rows.  What a parse leaves is its graph, and its peak memory is
about twice that graph.
"""

from __future__ import annotations

import io
import re
import warnings
from bisect import bisect_left
from collections import deque
from itertools import chain, compress, count, repeat
from operator import add, eq, gt, index, lt, mul, sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListParseError,
    GraphInputError,
    MemoryLimitError,
    ParamDiamError,
    SelfLoopError,
    VertexRangeError,
)

if TYPE_CHECKING:
    import numpy as np

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

    Each edge is a pair of integers: Python ints, numpy integer scalars, or
    a row of an (m, 2) integer ndarray.  Any other pair, such as
    ``(0, 1, 2)``, ``(2,)``, ``(0.5, 1)`` or ``("0", "1")``, raises
    :class:`GraphInputError`.  Rejects a vertex count outside
    0..2**31 - 1, out-of-range endpoints, self-loops and duplicate
    (including symmetric) edges with distinct error types; the error names
    the first faulty edge in input order.
    """
    import numpy as np

    edges = list(edges)
    not_pairs = GraphInputError("edges must be (u, v) pairs of integers")
    try:
        if set(map(len, edges)) - {2}:
            raise not_pairs
        # index() takes ints and numpy integers, and raises TypeError on the rest
        flat = np.fromiter(
            map(index, chain.from_iterable(edges)), dtype=np.int64, count=2 * len(edges)
        )
    except TypeError:
        raise not_pairs from None
    except OverflowError as exc:
        raise VertexRangeError(f"vertex id outside 0..{n - 1}") from exc
    return _from_pairs(flat.reshape(-1, 2), n)


def _from_pairs(pairs: np.ndarray, n: int, connected: bool = False) -> Graph:
    """The validated Graph on vertices 0..n-1 with the int64 (m, 2) ``pairs``.

    The same checks, errors and order as :func:`_from_lists`.  Vectorised
    scans find an endpoint out of range or a self-loop.  Both directions of
    every edge become one key ``src * n + dst``, sorted in place, and a
    duplicate edge shows as two equal neighbouring keys.  Whenever a check
    fails, :func:`_raise_first_faulty_edge` names the first faulty edge in
    input order.  With ``connected``, too few edges to connect n vertices
    raise next.  The sorted keys, taken ``% n``, are the rows.
    """
    import numpy as np

    _check_vertex_count(n)
    u, v = pairs[:, 0], pairs[:, 1]
    m = len(pairs)
    if m and (pairs.min() < 0 or pairs.max() >= n or (u == v).any()):
        _raise_first_faulty_edge(u.tolist(), v.tolist(), n)
    key = np.concatenate((u, v))
    key *= n
    key += np.concatenate((v, u))
    key.sort()
    if (key[1:] == key[:-1]).any():
        _raise_first_faulty_edge(u.tolist(), v.tolist(), n)
    if connected:
        _check_enough_edges(n, m)
    ends = np.bincount(u, minlength=n)
    ends += np.bincount(v, minlength=n)
    ends = np.cumsum(ends).tolist()
    np.remainder(key, n, out=key)
    nbrs = tuple(key.tolist())
    del key
    adjacency = tuple([nbrs[i:j] for i, j in zip([0] + ends, ends)])
    return Graph(n, adjacency, m)


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise VertexRangeError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise VertexRangeError(f"vertex count {n} above {MAX_VERTICES}")


def _check_enough_edges(n: int, m: int) -> None:
    """Raise for n >= 2 vertices and fewer than n - 1 edges: no such graph is connected."""
    if n >= 2 and m < n - 1:
        raise DisconnectedGraphError(f"{m} edges are too few to connect {n} vertices")


def _from_lists(us: list[int], vs: list[int], n: int, connected: bool = False) -> Graph:
    """The validated Graph on vertices 0..n-1 with the edges (us[i], vs[i]).

    The same checks, errors and order as :func:`_from_pairs`, without numpy.
    C-level scans of ``us`` and ``vs`` find an endpoint out of range or a
    self-loop.  With ``connected``, too few edges raise next, before any
    per-vertex allocation, unless a walk over the edges finds a duplicate
    first.  Otherwise the rows are built, and a duplicate edge shows as a
    row with a repeated neighbour.  Whenever a check fails, a per-edge walk
    names the first faulty edge.  Only the rows are built beside the edge
    lists: no per-edge key is kept.
    """
    _check_vertex_count(n)
    m = len(us)
    if us and (
        min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n
        or any(map(eq, us, vs))
    ):
        _raise_first_faulty_edge(us, vs, n)
    if connected and m < n - 1:
        _raise_first_faulty_edge(us, vs, n)  # a duplicate edge keeps its own error
        _check_enough_edges(n, m)
    adjacency = [[] for _ in range(n)]
    for ends, others in ((us, vs), (vs, us)):
        deque(map(list.append, map(adjacency.__getitem__, ends), others), maxlen=0)
    if sum(map(len, map(set, adjacency))) < 2 * m:
        _raise_first_faulty_edge(us, vs, n)
    deque(map(list.sort, adjacency), maxlen=0)
    return Graph(n, tuple(map(tuple, adjacency)), m)


def _raise_first_faulty_edge(us: list[int], vs: list[int], n: int) -> None:
    seen: set[tuple[int, int]] = set()
    for u, v in zip(us, vs):
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        seen.add(pair)


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


def _ms_bfs(adjacency: Sequence[Sequence[int]], n: int, sources: Sequence[int]) -> int:
    """Multi-source bit-parallel BFS; the largest eccentricity among ``sources``.

    MS-BFS (Then et al., PVLDB 2014): source i owns bit i of one Python int
    per vertex, so one C-level OR carries every search that has reached a
    vertex across an edge.  ``todo[v]`` holds the bits that have not reached
    v yet, and the frontier maps each vertex reached in the last round to
    the bits that reached it then.  A round pushes the frontier's bits to
    its neighbours and keeps what is new to them, so a vertex is in the
    frontier once per distinct distance to it from the sources:
    O(min(|S|, D + 1) * (n + m)) big-int operations in all, and no round
    visits a vertex that no frontier vertex is next to.

    Returns the number of rounds until every bit has reached every vertex.
    Raises :class:`DisconnectedGraphError` when a round adds no bit before
    that.
    """
    todo = [(1 << len(sources)) - 1] * n
    pushed = [0] * n  # the bits pushed to each vertex this round; 0 between rounds
    frontier: dict[int, int] = {}
    for i, source in enumerate(sources):
        frontier[source] = frontier.get(source, 0) | 1 << i
    for source, bits in frontier.items():
        todo[source] ^= bits
    left = n - todo.count(0)
    rounds = 0
    while left:
        if not frontier:
            raise DisconnectedGraphError("graph is not connected")
        rounds += 1
        for v, bits in frontier.items():
            for w in adjacency[v]:
                pushed[w] |= bits
        reached = set().union(*map(adjacency.__getitem__, frontier))
        frontier = {}
        for w in reached:
            rest = todo[w]
            new = pushed[w] & rest
            pushed[w] = 0
            if new:
                rest ^= new
                todo[w] = rest
                frontier[w] = new
                if not rest:
                    left -= 1
    return rounds


# The most bytes of working state one _ms_bfs call may take.
MS_BFS_MAX_BYTES = 64 * 2**20


def _ms_bfs_width(n: int) -> int:
    """The most sources one :func:`_ms_bfs` call on n vertices may take; 0 if not one.

    Its working state per vertex is up to three ints of one bit per source
    (todo, pushed and frontier bits), at 4 bytes per 30-bit digit, plus at
    most 512 bytes of int headers and list, dict and set entries.  Its
    tracemalloc peak was 68-96% of that on trees plus edges, grids, paths
    and random graphs of 700 to 20000 vertices.
    """
    return max(0, 30 * ((MS_BFS_MAX_BYTES // n - 512) // 12))


# The most bytes one bfs_rows table may take.  The largest table the test
# suite builds is 213 x 500 entries (426 kB).
BFS_ROWS_MAX_BYTES = 256 * 2**20


def bfs_rows(
    g: Graph, sources: Sequence[int], known: dict[int, Sequence[int]] | None = None
) -> np.ndarray:
    """int32 matrix of shape (len(sources), n); row i holds the distances from ``sources[i]``.

    Raises :class:`MemoryLimitError` before it allocates when the table
    would take more than ``BFS_ROWS_MAX_BYTES``.

    ``known`` holds distance rows the caller already has, by source.  A
    source with a row there is not searched: its row is popped out of
    ``known`` into the matrix, so a repeated source is searched for its
    later occurrences.  Every source is range-checked first, known or not.
    UNREACHABLE entries are kept; each caller decides whether they are an
    error.
    """
    size = 4 * len(sources) * g.n
    if size > BFS_ROWS_MAX_BYTES:
        raise MemoryLimitError(
            f"a distance table from {len(sources)} sources over {g.n} vertices needs"
            f" {size} bytes, above graph.BFS_ROWS_MAX_BYTES = {BFS_ROWS_MAX_BYTES}"
        )
    import numpy as np

    rows = np.empty((len(sources), g.n), dtype=np.int32)
    for r, source in enumerate(sources):
        if not (0 <= source < g.n):
            raise VertexRangeError(f"source {source} outside 0..{g.n - 1}")
        row = None if known is None else known.pop(source, None)
        rows[r] = _bfs_dist(g.adjacency, g.n, source) if row is None else row
    return rows


def fingerprint_types(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal rows of the 2-d integer array ``cols``, one fingerprint per row.

    Returns (first, inverse, counts): for each of the T distinct
    fingerprints, the index of its first row and its number of rows, and
    for each row the index of its type.  Types come in an order fixed by
    the bytes of each fingerprint, not in numeric order.
    """
    import numpy as np

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
    if not (0 <= v < g.n):
        raise VertexRangeError(f"vertex {v} outside 0..{g.n - 1}")
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
    pen: Sequence[int],
    pool: Sequence[bool] | None = None,
    budget: int | Callable[[int], int] | None = None,
) -> tuple[int, dict[int, int], int, dict[int, list[int]]]:
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
    mask ``pool`` while any is left.  The distance row of each pool source
    searched is kept.  With no ``pool`` and pen = 0 this is plain
    BoundingDiameters, and a vertex-transitive graph takes n passes.

    Stops after ``budget`` BFS passes at the latest, or, when ``budget`` is
    a function, after as many as it returns for the first source's e(u).
    Returns (best, left, passes, rows).  ``best`` is the largest pen + lower
    bound, so best <= D.  ``left`` maps each candidate still open, in
    ascending order, to its upper bound on e(v), and pen + that bound is
    above best; every other vertex v has pen[v] + e(v) <= best.  So left is
    empty exactly when the bounds have met, and then best = D; it is
    nonempty only when the budget ran out.  ``passes`` counts the BFS passes
    made and ``rows`` holds the kept distance rows, lists, by source.
    """
    n = g.n
    adjacency = g.adjacency
    top = max(pen, default=0)
    # The candidates, ascending, and columns aligned with them: pen, the
    # tie-break key, the bounds on e(v), pen + upper bound, and the source
    # scores of the two kinds of pass.
    cand = list(range(n))
    c_pen = list(pen)
    key = list(map(len, adjacency))
    if pool is not None:
        # above every score: a pool candidate wins both kinds of pass
        bonus = (n + 2 * top + 1) * n
        key = [k + bonus if p else k for k, p in zip(key, pool)]
    low = [0] * n
    up = [n + top] * n  # above every e(v)
    pu = list(map(add, c_pen, up))
    hi = list(map(add, map(mul, pu, repeat(n)), key))  # largest pen + upper first
    lo = list(map(sub, map(mul, low, repeat(n)), key))  # smallest lower first
    rows: dict[int, list[int]] = {}
    best, passes = top, 0  # the largest pen + lower bound while every low is 0
    while cand and passes != budget:
        i = lo.index(min(lo)) if passes % 2 else hi.index(max(hi))
        source = cand[i]
        dist = [UNREACHABLE] * n
        if len(_bfs(adjacency, source, dist)) < n:
            raise DisconnectedGraphError("graph is not connected")
        passes += 1
        if pool is not None and pool[source]:
            rows[source] = dist
        ps = pen[source]
        reach = list(map(add, dist, pen))
        reach[source] = 0  # below every other entry, and e = 0 when n = 1
        ecc = max(reach)
        far = reach.index(ecc)
        if callable(budget):
            budget = budget(ecc)
        # this pass's lower bound at distance x from the source
        low_at = list(map(max, range(ps, ps + ecc + 1), range(ecc, -1, -1)))
        up_plus = max(ecc, ps)
        d = list(map(dist.__getitem__, cand))
        j = bisect_left(cand, far)
        far_low = None
        if j < len(cand) and cand[j] == far:
            reach[far] = 0  # far cannot count itself: the second farthest
            far_low = max(low[j], dist[far] + ps, max(reach) - dist[far])
        # write only where a bound moves; in the long passes over graphs
        # that prune little, few do
        rise = list(compress(count(), map(gt, map(low_at.__getitem__, d), low)))
        _put(low, rise, map(low_at.__getitem__, map(d.__getitem__, rise)))
        fall = list(compress(count(), map(lt, map(add, d, repeat(up_plus)), up)))
        _put(up, fall, map(add, map(d.__getitem__, fall), repeat(up_plus)))
        _put(pu, fall, map(add, map(c_pen.__getitem__, fall), map(up.__getitem__, fall)))
        _put(hi, fall, map(add, map(mul, map(pu.__getitem__, fall), repeat(n)),
                           map(key.__getitem__, fall)))
        if far_low is not None:
            low[j] = far_low
            rise.append(j)
        _put(lo, rise, map(sub, map(mul, map(low.__getitem__, rise), repeat(n)),
                           map(key.__getitem__, rise)))
        low[i] = ecc
        best = max(
            best,
            ps + ecc,
            max(map(add, map(c_pen.__getitem__, rise), map(low.__getitem__, rise)), default=0),
        )
        # the source leaves: pen + its upper bound ecc is at most best
        for column in (cand, c_pen, key, low, up, pu, hi, lo):
            del column[i]
        if pu and min(pu) <= best:
            keep = list(map(gt, pu, repeat(best)))
            cand, c_pen, key, low, up, pu, hi, lo = (
                list(compress(column, keep))
                for column in (cand, c_pen, key, low, up, pu, hi, lo)
            )
    return best, dict(zip(cand, up)), passes, rows


def _put(target: list, at: Iterable[int], values: Iterable) -> None:
    """``target[i] = value`` for each index i of ``at`` and value of ``values``, at C speed."""
    deque(map(target.__setitem__, at, values), maxlen=0)


def solve_certified(g: Graph, trace: TraceSink = None) -> int:
    """Exact diameter: eccentricity bounds first, then :func:`_ms_bfs` over what they leave.

    :func:`bounding_diameters` with every pen 0 runs until its bounds meet or
    it has made 2e + 1 BFS passes, e being its first source's eccentricity.
    D <= 2e, so one kernel call makes at most that many rounds, each about
    as costly as one pass.  It returns its best lower bound and the
    candidates it leaves open, whose upper bound is above that best.  They
    are then searched in chunks of at most :func:`_ms_bfs_width` sources,
    largest upper bound first, and a chunk leaves out every candidate that
    the chunks before it have settled.
    When the memory budget does not fit one source, the bounds run with no
    pass budget until they meet, which is plain BoundingDiameters.

    ``trace`` gets one final event: the BFS passes, the candidates the
    bounds left, the kernel's chunks and its rounds summed over them, and
    the lower and upper bounds on the diameter, which are then equal.
    """
    n = g.n
    if n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    width = _ms_bfs_width(n)
    budget = (lambda ecc: 2 * ecc + 1) if width else None
    best, left, passes, _ = bounding_diameters(g, [0] * n, budget=budget)
    cand = sorted(left, key=left.__getitem__, reverse=True)
    candidates = len(cand)
    chunks = rounds = 0
    while cand:
        parts = -(-len(cand) // width)
        size = -(-len(cand) // parts)  # equal chunks of at most width
        found = _ms_bfs(g.adjacency, n, cand[:size])
        chunks += 1
        rounds += found
        best = max(best, found)
        cand = [v for v in cand[size:] if left[v] > best]
    if trace is not None:
        trace({"passes": passes, "candidates": candidates, "chunks": chunks,
               "rounds": rounds, "lower": best, "upper": best})
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

# Texts whose header declares at least this many edges are parsed with
# numpy, smaller ones into lists, which saves importing numpy (60-85 ms and
# 13 MB in a fresh process) but costs more per edge.  Measured as
# spawn-to-exit medians of 15 alternating `paramdiam solve --algo fes`
# processes per size, on trees plus 50 edges with a shared 2-CPU machine,
# lists minus numpy: -38 ms at 30k edges, -21 ms at 40k, +15 ms at 50k,
# +31 ms at 60k and +64 ms at 80k.
LIST_PARSE_MAX_EDGES = 45_000

# The header row: a first "n m" after blank and comment lines.  Only its m
# is read, to pick the parser; either parser checks the whole text.
_HEADER = re.compile(r"\s*(?:#[^\r\n]*\s*)*[+-]?[0-9]+[^\S\r\n]+([+-]?[0-9]+)")
_COMMENT = re.compile(r"#[^\r\n]*")
_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_edge_list(text: str, connected: bool = False) -> Graph:
    r"""Parse edge-list text into a validated Graph.

    The grammar is whitespace-separated rows of decimal integers with an
    optional sign: a first row ``n m``, then exactly m ``u v`` rows.  A
    ``#`` starts a comment to the end of its line, blank lines are skipped,
    and ``\n``, ``\r\n`` and ``\r`` all end a line.  Anything else, such as
    ``1.0``, ``0x1`` or ``1_000``, raises :class:`EdgeListParseError`;
    an invalid graph raises what :func:`from_edge_list` raises.

    A header declaring fewer than ``LIST_PARSE_MAX_EDGES`` edges is parsed
    without numpy.  Either parser checks, in this order:

    1. the text: not empty, two fields on every row, decimal int64 tokens,
       and as many edge rows as the header declares;
    2. the vertex count n, which must fit 0..2**31 - 1;
    3. the edges: the first faulty one in input order raises, for an
       endpoint out of range, a self-loop or a duplicate edge;
    4. with ``connected``, a header of n >= 2 vertices and fewer than n - 1
       edges raises :class:`DisconnectedGraphError` before any per-vertex
       allocation: no such graph is connected, whatever its edges.

    The list parser counts the fields of each line before it splits the
    text into tokens, drops the tokens once they are ints and the ints once
    they are split into the two endpoint lists, and :func:`_from_lists`
    finds duplicate edges in the rows it builds.  The numpy parser reads
    one int64 array, and :func:`_from_pairs` sorts one array of edge keys,
    finds duplicate edges in it and turns it into the rows.  Only the graph
    outlives the call.
    """
    header = _HEADER.match(text)
    if header is not None and int(_unpad(header[1])[:20]) >= LIST_PARSE_MAX_EDGES:
        return _parse_with_numpy(text, connected)
    return _parse_with_lists(text, connected)


def _parse_with_lists(text: str, connected: bool = False) -> Graph:
    if "#" in text:
        text = _COMMENT.sub("", text)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # fields per non-blank line, counted before the text is tokenised, so the
    # lines are gone before the tokens exist
    widths = set(map(len, map(str.split, text.split("\n")))) - {0}
    if not widths:
        raise EdgeListParseError("empty input")
    if widths != {2}:
        raise EdgeListParseError("malformed edge list: every row needs two fields")
    tokens = text.split()
    # int() also takes '_' between digits and non-ASCII digits; the token
    # pattern is checked only when the text holds either
    if not (text.isascii() and "_" not in text) and not all(map(_TOKEN.fullmatch, tokens)):
        raise EdgeListParseError("malformed edge list: a token is no decimal integer")
    # int() refuses more than sys.get_int_max_str_digits() digits even when
    # they are leading zeros, which numpy reads; no int64 needs 21 characters
    if max(map(len, tokens)) > 20:
        tokens = [_unpad(t) if len(t) > 20 else t for t in tokens]
    try:
        values = list(map(int, tokens))
    except ValueError as exc:
        raise EdgeListParseError(f"malformed edge list: {exc}") from None
    del tokens
    if min(values) < -(2**63) or max(values) >= 2**63:
        raise EdgeListParseError("malformed edge list: a value outside int64")
    n, m = values[0], values[1]
    if len(values) // 2 - 1 != m:
        raise EdgeListParseError(
            f"header declares {m} edges but {len(values) // 2 - 1} edge lines found"
        )
    us, vs = values[2::2], values[3::2]
    del values
    return _from_lists(us, vs, n, connected)


def _unpad(token: str) -> str:
    """``token`` without the leading zeros of its digits."""
    sign, digits = (token[0], token[1:]) if token[0] in "+-" else ("", token)
    return sign + (digits.lstrip("0") or "0")


def _parse_with_numpy(text: str, connected: bool = False) -> Graph:
    import numpy as np

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
    return _from_pairs(rows[1:], n, connected)


def format_edge_list(g: Graph, comment: str | None = None) -> str:
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"{g.n} {g.m}")
    for u, v in g.edges():
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def load_edge_list(path: str, connected: bool = False) -> Graph:
    """:func:`parse_edge_list` of the file at ``path``."""
    return parse_edge_list(_read_text(path, EdgeListParseError), connected)


def _read_text(path: str, error: type[ParamDiamError]) -> str:
    """The text of the UTF-8 file at ``path``; raises ``error`` if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc}") from None


def save_edge_list(g: Graph, path: str, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g, comment))
