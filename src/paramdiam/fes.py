"""Exact diameter for graphs with small feedback edge number.

Pipeline: peel degree-one vertices and pending cycles with two weight-
carrying reduction rules, decompose what is left into high-degree vertices,
maximal paths and pending cycles, then bound the pen-weighted eccentricities
of that core with :func:`graph.bounding_diameters`, BFS sources drawn from
the high vertices first.  On tree-plus-k graphs the bounds meet after a few
dozen BFS passes, where the paper's algorithm makes one per high vertex.

If they have not met after one pass per high vertex, three cases answer
the core instead, reusing the distance rows of the high sources already
searched, so a call never makes more than two passes per high vertex:

1. pairs touching a high vertex, from one BFS per high vertex, kept as the
   rows of an int32 numpy matrix (high x core vertices);
2. pairs inside one path, by an O(length) cyclic sweep per path;
3. pairs in two different paths, by one sweep per path over the interiors
   of all later paths at once: an interior is reached only through its own
   path's endpoints, so the endpoint rows of the matrix give every distance
   the sweep needs.

The reduction state is a :class:`WeightedDiameterInstance`: the input
graph with an alive mask and live degrees, a per-vertex weight ``pen``
recording the deepest peeled vertex reachable through each survivor, and a
scalar ``s`` holding the best answer realized entirely inside peeled
structures.  Both rules preserve max(s, weighted diameter of the graph
induced by the alive vertices).

Connectivity is decided on the core, not on the input: neither rule
changes the number of components, and each leaves every component at least
one alive vertex, so one alive vertex means a connected input, and
otherwise the input is connected exactly when the compacted core is.

Up to the core bounds everything runs on Python lists.  numpy is imported
only by cases 1 and 3, so a run whose bounds settle never loads it.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import ContractViolationError, DisconnectedGraphError, VertexRangeError
from .graph import (
    UNREACHABLE,
    Graph,
    TraceSink,
    _bfs_dist,
    bounding_diameters,
    induced_subgraph,
    is_connected,
)

if TYPE_CHECKING:
    import numpy as np


class WeightedDiameterInstance:
    """Mutable reduction state over the input graph, which is shared, not copied.

    ``alive`` masks the removed vertices; ``deg[v]`` is the number of alive
    neighbours of an alive v, 0 once v is removed.  ``pen`` and ``s`` are
    the weights and the folded-away scalar described above.
    """

    __slots__ = ("graph", "alive", "deg", "pen", "s", "alive_count", "n")

    def __init__(self, graph: Graph, pen: Sequence[int] | None = None, s: int = 0):
        self.graph = graph
        self.n = graph.n
        self.alive = [True] * graph.n
        self.deg = [len(nbrs) for nbrs in graph.adjacency]
        self.alive_count = graph.n
        if pen is None:
            self.pen = [0] * graph.n
        else:
            if len(pen) != graph.n or any(p < 0 for p in pen):
                raise VertexRangeError("pen must assign a nonnegative int per vertex")
            self.pen = list(pen)
        if s < 0:
            raise VertexRangeError("s must be nonnegative")
        self.s = s

    def degree(self, v: int) -> int:
        return self.deg[v]

    def neighbors(self, v: int) -> list[int]:
        alive = self.alive
        return [w for w in self.graph.adjacency[v] if alive[w]]

    def alive_vertices(self) -> list[int]:
        return list(compress(range(self.n), self.alive))

    def remove_vertex(self, v: int) -> None:
        alive, deg = self.alive, self.deg
        alive[v] = False
        deg[v] = 0
        for w in self.graph.adjacency[v]:
            if alive[w]:
                deg[w] -= 1
        self.alive_count -= 1

    def compacted(self) -> tuple[Graph, list[int], list[int]]:
        """Freeze the surviving graph; returns (graph, old ids, pen per new id)."""
        red, order = induced_subgraph(self.graph, self.alive_vertices())
        return red, order, [self.pen[v] for v in order]


def max_weighted_pair_cyclic(
    positions: Sequence[int], weights: Sequence[int], cycle_len: int
) -> int | None:
    """Max over pairs p != q of w_p + w_q + min(|Δ|, L - |Δ|) in O(len).

    ``positions`` are strictly increasing ints in [0, cycle_len); Δ is the
    position difference.  Rotating sweep: for each entry, the candidates at
    forward distance at most L//2 form a sliding window whose maximum of
    (weight + position) is kept in a monotonic deque.  Returns None with
    fewer than two entries.
    """
    k = len(positions)
    if k < 2:
        return None
    half = cycle_len // 2
    ext_pos = list(positions) + [p + cycle_len for p in positions]
    best: int | None = None
    dq: deque[int] = deque()  # ext indices, keys weight+ext_pos decreasing
    r = 1
    for i in range(k):
        lo = positions[i]
        hi = lo + half
        if r < i + 1:
            r = i + 1
        while r < i + k and ext_pos[r] <= hi:
            key = weights[r % k] + ext_pos[r]
            while dq and weights[dq[-1] % k] + ext_pos[dq[-1]] <= key:
                dq.pop()
            dq.append(r)
            r += 1
        while dq and ext_pos[dq[0]] <= lo:
            dq.popleft()
        if dq:
            j = dq[0]
            cand = weights[i] + (weights[j % k] + ext_pos[j] - lo)
            if best is None or cand > best:
                best = cand
    return best


# ---------------------------------------------------------------------------
# Reduction rules


def apply_rr2(
    inst: WeightedDiameterInstance, cycle: Sequence[int], trace: TraceSink = None
) -> None:
    """Remove a pending cycle (anchor-first vertex sequence), keeping the anchor.

    Folds the weighted diameter of the cycle into s and the best
    (pen + cycle distance) into the anchor's pen.
    """
    a = len(cycle)
    if a < 3 or len(set(cycle)) != a:
        raise ContractViolationError("pending cycle must list at least 3 distinct vertices")
    x0 = cycle[0]
    for idx, v in enumerate(cycle):
        if not inst.alive[v]:
            raise ContractViolationError(f"cycle vertex {v} was already removed")
        nxt = cycle[(idx + 1) % a]
        if nxt not in inst.neighbors(v):
            raise ContractViolationError(f"cycle edge ({v}, {nxt}) missing")
        if idx > 0 and inst.degree(v) != 2:
            raise ContractViolationError(f"interior vertex {v} has degree != 2")
    pens = [inst.pen[v] for v in cycle]
    inner = max_weighted_pair_cyclic(range(a), pens, a)
    assert inner is not None
    inst.s = max(inst.s, inner)
    reach = max(min(k, a - k) + pens[k] for k in range(a))
    inst.pen[x0] = max(inst.pen[x0], reach)
    for v in cycle[1:]:
        inst.remove_vertex(v)
    if trace is not None:
        trace({
            "rule": "pending-cycle",
            "anchor": x0,
            "removed": list(cycle[1:]),
            "s": inst.s,
            "pen_anchor": inst.pen[x0],
        })


def _rr1_exhaust(inst: WeightedDiameterInstance, trace: TraceSink) -> None:
    """The degree-one rule until no live degree-one vertex is left, as one loop.

    Each step removes a live degree-one vertex u with neighbour v, raising s
    to at least pen(u) + pen(v) + 1 and pen(v) to at least pen(u) + 1.  The
    leaves are taken first in ascending order, then each anchor as it drops
    to degree one, with one ``degree-one`` trace event per removal.
    """
    adjacency = inst.graph.adjacency
    alive, deg, pen = inst.alive, inst.deg, inst.pen
    s = inst.s
    leaves = [u for u in range(inst.n) if deg[u] == 1]
    removed = 0
    for u in leaves:  # grows while it is walked: a FIFO queue
        if deg[u] != 1:
            continue
        for v in adjacency[u]:
            if alive[v]:
                break
        pu, pv = pen[u], pen[v]
        if pu + pv + 1 > s:
            s = pu + pv + 1
        if pu + 1 > pv:
            pen[v] = pu + 1
        alive[u] = False
        deg[u] = 0
        deg[v] -= 1
        removed += 1
        if trace is not None:
            trace({
                "rule": "degree-one",
                "removed": u,
                "anchor": v,
                "s": s,
                "pen_anchor": pen[v],
            })
        if deg[v] == 1:
            leaves.append(v)
    inst.s = s
    inst.alive_count -= removed


def _chains(degree, neighbors, vertices):
    """Shared path/cycle walker for graphs with no degree-one vertices."""
    high = [v for v in vertices if degree(v) >= 3]
    paths: list[list[int]] = []
    cycles: list[list[int]] = []
    visited: set[int] = set()
    for v in high:
        for w in sorted(neighbors(v)):
            if degree(w) >= 3:
                if v < w:
                    paths.append([v, w])
                continue
            if w in visited:
                continue
            chain = [v]
            prev, cur = v, w
            while True:
                chain.append(cur)
                if degree(cur) != 2:
                    break
                visited.add(cur)
                nxt = next(x for x in neighbors(cur) if x != prev)
                prev, cur = cur, nxt
            if chain[-1] == v:
                cycles.append(chain[:-1])
            else:
                paths.append(chain)
    for v in vertices:
        if degree(v) == 2 and v not in visited:
            # candidate bare cycle, anchored at its smallest id; the walk
            # can instead run into a leaf when the graph is not yet reduced
            chain = [v]
            visited.add(v)
            prev, cur = v, min(neighbors(v))
            is_cycle = True
            while cur != v:
                chain.append(cur)
                visited.add(cur)
                if degree(cur) != 2:
                    is_cycle = False
                    break
                nxt = next(x for x in neighbors(cur) if x != prev)
                prev, cur = cur, nxt
            if is_cycle:
                cycles.append(chain)
    return high, paths, cycles


def find_pending_cycles(inst: WeightedDiameterInstance) -> list[list[int]]:
    """All pending cycles of the current graph, each anchor-first."""
    _, _, cycles = _chains(inst.degree, inst.neighbors, inst.alive_vertices())
    return cycles


def reduce_exhaustively(inst: WeightedDiameterInstance, trace: TraceSink = None) -> None:
    """Apply both rules until neither fits: no degree-one vertex, no pending cycle.

    Removing a cycle can drop its anchor to degree one, and peeling leaves
    can merge maximal paths into new pending cycles, so the two phases
    alternate until a fixed point.
    """
    while True:
        _rr1_exhaust(inst, trace)
        if inst.alive_count <= 1:
            return
        cycles = find_pending_cycles(inst)
        if not cycles:
            return
        for cycle in cycles:
            apply_rr2(inst, cycle, trace)


# ---------------------------------------------------------------------------
# Decomposition and the three cases


class PathCycleDecomposition:
    """Degree-based partition of a graph with no degree-one vertices.

    ``high`` are the vertices of degree >= 3.  ``paths`` are maximal paths
    (both endpoints of degree >= 3, interior of degree 2; a plain edge
    between high vertices is a length-1 path).  ``cycles`` are pending
    cycles, anchor first.
    """

    __slots__ = ("high", "paths", "cycles")

    def __init__(self, high: list[int], paths: list[list[int]], cycles: list[list[int]]):
        self.high = high
        self.paths = paths
        self.cycles = cycles


def decompose(g: Graph) -> PathCycleDecomposition:
    for v in range(g.n):
        if g.degree(v) == 1:
            raise ContractViolationError("decompose requires no degree-one vertices")
    high, paths, cycles = _chains(g.degree, g.neighbors, range(g.n))
    return PathCycleDecomposition(high, paths, cycles)


def case1_high_bfs(
    g: Graph,
    pen: Sequence[int],
    dec: PathCycleDecomposition,
    known: dict[int, Sequence[int]] | None = None,
) -> tuple[int, np.ndarray]:
    """BFS per high vertex; best pen-weighted distance touching one, plus rows.

    Row ``r`` of the returned int32 matrix holds the distances from
    ``dec.high[r]`` to every vertex of ``g``.  A high vertex with a row in
    ``known`` is not searched again; its row is moved out of ``known``.
    """
    import numpy as np

    known = {} if known is None else known
    rows = np.empty((len(dec.high), g.n), dtype=np.int32)
    for r, v in enumerate(dec.high):
        row = known.pop(v, None)
        rows[r] = _bfs_dist(g.adjacency, g.n, v) if row is None else row
    if rows.size and rows.min() == UNREACHABLE:
        raise DisconnectedGraphError("reduced graph is not connected")
    best = 0
    pen_arr = np.asarray(pen, dtype=np.int32)
    for v, row in zip(dec.high, rows):
        score = row + pen_arr
        score[v] = -1  # pairs exclude u == v
        best = max(best, pen[v] + int(score.max()))
    return best, rows


def case2_same_path(pens: Sequence[int], endpoint_distance: int) -> int | None:
    """Best pen-weighted distance between two interior vertices of one path.

    ``pens[i]`` is the weight of path vertex x_i, i = 0..a.  An interior
    pair (i, j) is at distance min(j - i, i + endpoint_distance + (a - j)):
    interiors leave the path only via its endpoints, so the path plus the
    outside x_0..x_a route behave like a cycle of length a + endpoint
    distance.  None if fewer than two interior vertices.
    """
    a = len(pens) - 1
    if a < 3:
        return None
    return max_weighted_pair_cyclic(
        range(1, a), list(pens[1:a]), a + endpoint_distance
    )


_NEG = -(2**63) // 4  # below any real candidate, safe to add to in int64


def _path_sweep(pens: np.ndarray, f: np.ndarray, g: np.ndarray, w: np.ndarray) -> int:
    """Best pen-weighted distance from an interior of one path to a set of vertices.

    The path has endpoints x_0 and x_a and interior weights ``pens[i - 1]``
    for i = 1..a-1.  Target j has weight ``w[j]`` and distance
    min(i + f[j], a - i + g[j]) from x_i, where f and g are its distances
    from x_0 and x_a.  The route through x_0 wins exactly when
    g[j] - f[j] >= 2i - a, so sorting the targets once by g - f splits every
    i into a via-x_0 suffix and a via-x_a prefix, each answered by a running
    maximum.  Needs at least one interior and one target.
    """
    import numpy as np

    a = len(pens) + 1
    t = g - f
    order = np.argsort(t)
    ts = t[order]
    wf = (w + f)[order]
    wg = (w + g)[order]
    suffix_wf = np.append(np.maximum.accumulate(wf[::-1])[::-1], _NEG)
    prefix_wg = np.insert(np.maximum.accumulate(wg), 0, _NEG)
    i = np.arange(1, a)
    cut = np.searchsorted(ts, 2 * i - a)
    cand = np.maximum(i + suffix_wf[cut], (a - i) + prefix_wg[cut])
    return int((cand + pens).max())


def case3_all_paths(
    rows: np.ndarray, row_of: dict[int, int], pen: Sequence[int], paths: list[list[int]]
) -> int:
    """Best pen-weighted distance between interiors of two distinct paths.

    An interior w of another path is reached from x_i only through x_0 or
    x_a, and the rows of those endpoints already hold the exact distance to
    w, so each path is swept once against the interiors of every later path
    together.  Later paths only: each unordered pair is covered once and a
    path's own interiors, which case 2 handles, never enter.  0 when fewer
    than two paths have interiors.
    """
    import numpy as np

    paths = [p for p in paths if len(p) >= 3]
    interior = np.fromiter((v for p in paths for v in p[1:-1]), dtype=np.int64)
    pen_arr = np.asarray(pen, dtype=np.int64)
    w_all = pen_arr[interior]
    best = 0
    start = 0
    for path in paths:
        start += len(path) - 2
        if start == len(interior):
            break
        others = interior[start:]
        f = rows[row_of[path[0]], others].astype(np.int64)
        g = rows[row_of[path[-1]], others].astype(np.int64)
        best = max(best, _path_sweep(pen_arr[path[1:-1]], f, g, w_all[start:]))
    return best


def solve_fes(g: Graph, trace: TraceSink = None) -> int:
    """Exact diameter via the reduction rules, core bounds and the three cases.

    ``trace`` gets the reduction rule events and then one ``core-bounds``
    event: the core's size, its high vertices, the bounds' BFS passes, and
    ``fallback``, the BFS passes case 1 then adds, or None when the bounds
    settled the core.  Raises :class:`DisconnectedGraphError` when the
    reduced core, and so ``g``, is disconnected.
    """
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    inst = WeightedDiameterInstance(g)
    reduce_exhaustively(inst, trace)
    if inst.alive_count <= 1:
        return inst.s
    red, _, pen = inst.compacted()
    if not is_connected(red):
        raise DisconnectedGraphError("graph is not connected")
    dec = decompose(red)
    assert not dec.cycles, "pending cycles must not survive reduction"
    high = [False] * red.n
    for v in dec.high:
        high[v] = True
    lower, upper, passes, known = bounding_diameters(red, pen, high, len(dec.high))
    best = max(map(add, pen, lower))
    settled = best == max(map(add, pen, upper))
    if trace is not None:
        trace({
            "phase": "core-bounds",
            "core_n": red.n,
            "high": len(dec.high),
            "passes": passes,
            "fallback": None if settled else len(dec.high) - len(known),
        })
    if settled:
        return max(inst.s, best)
    s1, rows = case1_high_bfs(red, pen, dec, known)
    best = max(inst.s, s1)
    row_of = {v: r for r, v in enumerate(dec.high)}
    for path in dec.paths:
        pens = [pen[v] for v in path]
        cand = case2_same_path(pens, int(rows[row_of[path[0]], path[-1]]))
        if cand is not None and cand > best:
            best = cand
    return max(best, case3_all_paths(rows, row_of, pen, dec.paths))
