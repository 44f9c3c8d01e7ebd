"""Exact diameter for graphs with small feedback edge number.

Pipeline: peel degree-one vertices and pending cycles with two weight-
carrying reduction rules.  Each round compacts the survivors and decomposes
them into high-degree vertices, maximal paths and pending cycles, and the
cycles it finds are the ones the second rule peels.  The first round that
finds none leaves the core, whose pen-weighted eccentricities
:func:`graph.bounding_diameters` then bounds, BFS sources drawn from the
high vertices first.  On tree-plus-k graphs the bounds meet after a few
dozen BFS passes, where the paper's algorithm makes one per high vertex.

If they have not met after one pass per high vertex, the paper's three
cases finish the core.  By then every high vertex has been a source of the
bounds or has left their candidates, so the bounds' best lower bound
already covers the pairs touching a high vertex, and:

1. case 1 only gathers one int32 distance row per high vertex, by
   source: the rows the bounds kept, as they are, and one
   :func:`graph.bfs_rows` table for the others, so a call never makes more
   than two passes per high vertex and holds no row twice;
2. pairs inside one path, by an O(length) cyclic sweep per path;
3. pairs in two different paths, by one sweep per path over the interiors
   of all later paths at once: an interior is reached only through its own
   path's endpoints, so the endpoint rows give every distance the sweep
   needs.

The reduction state is a :class:`WeightedDiameterInstance`: the input
graph with an alive mask and live degrees, a per-vertex weight ``pen``
recording the deepest peeled vertex reachable through each survivor, and a
scalar ``s`` holding the best answer realized entirely inside peeled
structures.  Both rules preserve max(s, weighted diameter of the graph
induced by the alive vertices).

Connectivity is decided on the core, not on the input: neither rule
changes the number of components, and each leaves every component at least
one alive vertex, so one alive vertex means a connected input, and
otherwise the input is connected exactly when the core is.  A connected
core of two or more vertices has a high vertex, since a bare cycle is a
pending cycle the rules peel, so a core without one is isolated vertices
and is rejected.  Any other core is searched from a high vertex by the
bounds' first BFS pass, which raises when that pass misses a vertex.

The rules and the cases take no trace sink: :func:`solve_fes` traces once,
at the core bounds, so a traced run costs the untraced one plus one event.

Up to the core bounds everything runs on Python lists.  numpy is imported
only by :func:`graph.bfs_rows` for case 1, and by case 3, so a run whose
bounds settle never loads it.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import TYPE_CHECKING, Sequence

from .errors import ContractViolationError, DisconnectedGraphError, VertexRangeError
from .graph import (
    Graph,
    TraceSink,
    _check_rows_budget,
    bfs_rows,
    bounding_diameters,
    induced_subgraph,
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


def apply_rr2(inst: WeightedDiameterInstance, cycle: Sequence[int]) -> None:
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


def _rr1_exhaust(inst: WeightedDiameterInstance) -> None:
    """The degree-one rule until no live degree-one vertex is left, as one loop.

    Each step removes a live degree-one vertex u with neighbour v, raising s
    to at least pen(u) + pen(v) + 1 and pen(v) to at least pen(u) + 1.  The
    leaves are taken first in ascending order, then each anchor as it drops
    to degree one.
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
        if deg[v] == 1:
            leaves.append(v)
    inst.s = s
    inst.alive_count -= removed


def reduce_exhaustively(
    inst: WeightedDiameterInstance,
) -> tuple[Graph, list[int], PathCycleDecomposition] | None:
    """Apply both rules until neither fits; returns the core, or None at one vertex.

    Each round peels the degree-one vertices, compacts the survivors and
    decomposes them, and the decomposition's pending cycles, mapped back to
    input ids, are the round's pending-cycle removals.  Removing a cycle can
    drop its anchor to degree one, and peeling leaves can merge maximal
    paths into new pending cycles, so the rounds repeat until one finds no
    cycle.  Its (compacted graph, pen per compacted id, decomposition) is
    returned: a core with no degree-one vertex and no pending cycle.  None
    means at most one vertex is left and ``inst.s`` is the answer.
    """
    while True:
        _rr1_exhaust(inst)
        if inst.alive_count <= 1:
            return None
        red, order, pen = inst.compacted()
        dec = decompose(red)
        if not dec.cycles:
            return red, pen, dec
        for cycle in dec.cycles:
            apply_rr2(inst, [order[v] for v in cycle])


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
    """The high vertices, maximal paths and pending cycles of ``g``.

    Each path and each cycle hanging off a high vertex is walked once from
    that vertex, neighbours in ascending order, so a pending cycle comes out
    anchor first.  The degree-two vertices left over form bare-cycle
    components, each anchored at its smallest id.
    """
    adjacency = g.adjacency
    deg = list(map(len, adjacency))
    if 1 in deg:
        raise ContractViolationError("decompose requires no degree-one vertices")
    high = [v for v in range(g.n) if deg[v] >= 3]
    paths: list[list[int]] = []
    cycles: list[list[int]] = []
    visited = [False] * g.n

    def walk(v: int, w: int) -> tuple[list[int], int]:
        """v and the degree-two run entered through w, and where the run stops."""
        chain = [v]
        prev, cur = v, w
        while cur != v and deg[cur] == 2:
            chain.append(cur)
            visited[cur] = True
            x, y = adjacency[cur]
            prev, cur = cur, (y if x == prev else x)
        return chain, cur

    for v in high:
        for w in adjacency[v]:
            if deg[w] >= 3:
                if v < w:
                    paths.append([v, w])
            elif not visited[w]:
                chain, end = walk(v, w)
                if end == v:
                    cycles.append(chain)
                else:
                    chain.append(end)
                    paths.append(chain)
    for v in range(g.n):
        if deg[v] == 2 and not visited[v]:
            cycles.append(walk(v, adjacency[v][0])[0])
    return PathCycleDecomposition(high, paths, cycles)


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
    rows: dict[int, Sequence[int]], pen: Sequence[int], paths: list[list[int]]
) -> int:
    """Best pen-weighted distance between interiors of two distinct paths.

    An interior w of another path is reached from x_i only through x_0 or
    x_a, whose rows ``rows[x_0]`` and ``rows[x_a]``, viewed, not copied,
    hold the exact distance to w, so each path is swept once against the
    interiors of every later path together.  Later paths only: each
    unordered pair is covered once and a path's own interiors, which case 2
    handles, never enter.  0 when fewer than two paths have interiors.
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
        f = np.asarray(rows[path[0]])[others].astype(np.int64)
        g = np.asarray(rows[path[-1]])[others].astype(np.int64)
        best = max(best, _path_sweep(pen_arr[path[1:-1]], f, g, w_all[start:]))
    return best


def solve_fes(g: Graph, trace: TraceSink = None) -> int:
    """Exact diameter via the reduction rules, core bounds and the three cases.

    ``trace`` gets one event, ``core-bounds``, when a core of two or more
    vertices is left: its size, its high vertices, the bounds' BFS passes, and
    ``fallback``, the BFS passes case 1 then adds, or None when the bounds
    left no candidate open and their best is the core's answer.  On
    fallback that best still answers the pairs touching a high vertex, as
    none is left open.  Case 1 checks the budget of one int32 row per high
    vertex, then searches the high vertices without a kept row into one
    :func:`graph.bfs_rows` table, and cases 2 and 3 read the rows by source.
    Raises :class:`DisconnectedGraphError` when the reduced core, and so
    ``g``, is disconnected: at once for a core of isolated vertices, else
    from the bounds' first pass.
    """
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    inst = WeightedDiameterInstance(g)
    core = reduce_exhaustively(inst)
    if core is None:
        return inst.s
    red, pen, dec = core
    if not dec.high:
        raise DisconnectedGraphError("graph is not connected")
    high = [len(nbrs) >= 3 for nbrs in red.adjacency]  # exactly dec.high
    best, left, passes, rows = bounding_diameters(red, pen, high, len(dec.high))
    if trace is not None:
        trace({
            "phase": "core-bounds",
            "core_n": red.n,
            "high": len(dec.high),
            "passes": passes,
            "fallback": len(dec.high) - len(rows) if left else None,
        })
    best = max(inst.s, best)
    if not left:
        return best
    _check_rows_budget(len(dec.high), red.n)
    missing = [v for v in dec.high if v not in rows]
    rows.update(zip(missing, bfs_rows(red, missing)))
    for path in dec.paths:
        cand = case2_same_path([pen[v] for v in path], int(rows[path[0]][path[-1]]))
        if cand is not None and cand > best:
            best = cand
    return max(best, case3_all_paths(rows, pen, dec.paths))
