"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and avoids the code paths it checks:
distances come from Floyd-Warshall rather than BFS, components from
union-find rather than traversal, the structural searches enumerate
subsets outright, and ``is_satisfiable`` tries every assignment.  The
modulator references are the peel-and-restart and quadratic versions that
``paramdiam.params`` replaced, kept to check that the single-pass versions
return the same sets, and the edge-list references read text line by line
and check edges one at a time, where ``paramdiam.graph`` works on whole
arrays.  ``format_dimacs_cnf`` writes the text the CNF parser reads back.

The helpers at the end are the exceptions: they run on the package's BFS
kernel, and no code in the package calls them.  ``bfs``, ``is_bipartite``
and ``girth`` serve the graph and construction tests; ``apply_rr1`` and
``case3_path_pair`` are the one-step rule and the one-pair sweep that
``paramdiam.fes`` replaced with single loops, kept as their references;
``find_pending_cycles`` finds the pending cycles of an instance that may
still have leaves, which the package only looks for once none are left; and
``weighted_diameter_oracle`` is the brute-force weighted diameter that the
reduction rules are checked against.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Sequence

import numpy as np

from paramdiam import (
    ContractViolationError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListParseError,
    GenerationError,
    Graph,
    SelfLoopError,
    VertexRangeError,
)
from paramdiam.constructions import CnfFormula
from paramdiam.fes import WeightedDiameterInstance, _path_sweep
from paramdiam.graph import (
    UNREACHABLE,
    _bfs,
    _bfs_forest,
    induced_subgraph,
)
from paramdiam.params import neighbor_masks

INF = float("inf")


def floyd_warshall(g: Graph) -> list[list[float]]:
    dist = [[INF] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        dk = dist[k]
        for i in range(g.n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(g.n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def diameter_floyd(g: Graph) -> int:
    dist = floyd_warshall(g)
    best = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            assert dist[i][j] != INF, "oracle expects a connected graph"
            best = max(best, int(dist[i][j]))
    return best


def components_union_find(g: Graph) -> list[int]:
    """Component labels in first-seen order of the smallest member."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    label: dict[int, int] = {}
    out = []
    for v in range(g.n):
        r = find(v)
        if r not in label:
            label[r] = len(label)
        out.append(label[r])
    return out


def has_induced_p4(g: Graph) -> bool:
    """Exhaustive scan over 4-subsets for an induced path on four vertices."""
    for quad in combinations(range(g.n), 4):
        inside = set(quad)
        degs = []
        edge_count = 0
        for v in quad:
            d = sum(1 for w in g.adjacency[v] if w in inside)
            degs.append(d)
            edge_count += d
        edge_count //= 2
        if edge_count == 3 and sorted(degs) == [1, 1, 2, 2]:
            # 3 edges with that degree multiset is either P4 or K3 + K1;
            # the latter has a degree-0 vertex, so this is a P4
            return True
    return False


def min_clique_modulator_size(g: Graph) -> int:
    """Smallest K with G - K a clique, by subset enumeration (small n only)."""
    masks = neighbor_masks(g)
    for size in range(g.n + 1):
        for keep_out in combinations(range(g.n), size):
            rest = [v for v in range(g.n) if v not in keep_out]
            rest_mask = 0
            for v in rest:
                rest_mask |= 1 << v
            if all(not (rest_mask & ~masks[v] & ~(1 << v)) for v in rest):
                return size
    raise AssertionError("unreachable: removing everything always works")


def is_satisfiable(formula: CnfFormula) -> bool:
    """Brute force over all assignments; intended for small formulas only."""
    if formula.num_vars > 24:
        raise GenerationError("brute-force SAT capped at 24 variables")
    for bits in range(1 << formula.num_vars):
        if all(
            any(
                (lit > 0) == bool(bits >> (abs(lit) - 1) & 1)
                for lit in clause
            )
            for clause in formula.clauses
        ):
            return True
    return False


def format_dimacs_cnf(formula: CnfFormula) -> str:
    """DIMACS text of ``formula``, for round trips through ``parse_dimacs_cnf``."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def max_weighted_pair_cyclic_quadratic(positions, weights, cycle_len):
    k = len(positions)
    if k < 2:
        return None
    best = None
    for i in range(k):
        for j in range(i + 1, k):
            delta = positions[j] - positions[i]
            d = min(delta, cycle_len - delta)
            cand = weights[i] + weights[j] + d
            if best is None or cand > best:
                best = cand
    return best


def case2_quadratic(pens, endpoint_distance):
    a = len(pens) - 1
    if a < 3:
        return None
    best = None
    for i in range(1, a):
        for j in range(i + 1, a):
            d = min(j - i, i + endpoint_distance + (a - j))
            cand = pens[i] + pens[j] + d
            if best is None or cand > best:
                best = cand
    return best


def case3_quadratic(pens1, pens2, d00, d0b, da0, dab):
    a = len(pens1) - 1
    b = len(pens2) - 1
    if a < 2 or b < 2:
        return None
    best = None
    for i in range(1, a):
        for j in range(1, b):
            d = min(
                i + d00 + j,
                i + d0b + (b - j),
                (a - i) + da0 + j,
                (a - i) + dab + (b - j),
            )
            cand = pens1[i] + pens2[j] + d
            if best is None or cand > best:
                best = cand
    return best


def weighted_diameter_floyd(g: Graph, pen, s: int) -> int:
    """max(s, pen-weighted diameter) via Floyd-Warshall distances."""
    if g.n == 1:
        return s
    dist = floyd_warshall(g)
    best = s
    for i in range(g.n):
        for j in range(i + 1, g.n):
            assert dist[i][j] != INF
            best = max(best, pen[i] + int(dist[i][j]) + pen[j])
    return best


def find_induced_p4_restarting(g: Graph) -> tuple[int, int, int, int] | None:
    """The first induced P4 a-b-c-d over edges (b, c) in scan order."""
    masks = neighbor_masks(g)
    full = (1 << g.n) - 1
    for b in range(g.n):
        mb = masks[b]
        for c in g.adjacency[b]:
            a_cands = mb & ~masks[c] & ~(1 << c)
            d_cands = masks[c] & ~mb & ~(1 << b)
            if not a_cands or not d_cands:
                continue
            rest = a_cands
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                ok = d_cands & ~masks[a] & ~low & full
                if ok:
                    d = (ok & -ok).bit_length() - 1
                    return (a, b, c, d)
                rest ^= low
    return None


def cograph_modulator_restarting(g: Graph) -> set[int]:
    """Peel a P4, rebuild the induced subgraph, rescan from the first edge."""
    removed: set[int] = set()
    current = g
    order = list(range(g.n))
    while True:
        hit = find_induced_p4_restarting(current)
        if hit is None:
            return removed
        removed.update(order[v] for v in hit)
        keep = [v for v in range(current.n) if v not in hit]
        current, sub_order = induced_subgraph(current, keep)
        order = [order[v] for v in sub_order]


def clique_modulator_quadratic(g: Graph) -> set[int]:
    """Keep a vertex adjacent to all alive others, else delete it and its
    smallest alive non-neighbor, found by a ``min`` over the alive set."""
    alive = set(range(g.n))
    deg = {v: len(g.adjacency[v]) for v in alive}
    modulator: set[int] = set()
    pending = sorted(alive)
    i = 0
    while i < len(pending):
        v = pending[i]
        if v not in alive:
            i += 1
            continue
        if deg[v] == len(alive) - 1:
            alive.discard(v)
            for w in g.adjacency[v]:
                if w in alive:
                    deg[w] -= 1
            i += 1
            continue
        nbrs = set(g.adjacency[v])
        w = min(u for u in alive if u != v and u not in nbrs)
        modulator.update((v, w))
        for x in (v, w):
            alive.discard(x)
        for x in (v, w):
            for u in g.adjacency[x]:
                if u in alive:
                    deg[u] -= 1
        i += 1
    return modulator


def edge_list_reference(edges, n: int):
    """(adjacency, m) of the graph on 0..n-1 with ``edges``, or the error of
    the first faulty edge: out of range, then self-loop, then duplicate."""
    if n < 0:
        raise VertexRangeError(f"negative vertex count {n}")
    if n > 2**31 - 1:
        raise VertexRangeError(f"vertex count {n} above {2**31 - 1}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return tuple(tuple(sorted(a)) for a in adjacency), len(seen)


_INT64_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_edge_list_reference(text: str):
    """(adjacency, m) of an edge-list text, by the grammar in the README:
    lines end at \\n, \\r\\n or \\r, ``#`` comments to the end of its line,
    rows of equally many signed decimal int64 tokens, ``n m`` then m edges."""
    rows: list[list[int]] = []
    for line in re.split(r"\r\n|\r|\n", text):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if not all(_INT64_TOKEN.fullmatch(t) for t in tokens):
            raise EdgeListParseError(f"non-integer token in {line!r}")
        row = [int(t) for t in tokens]
        if any(not -(2**63) <= x < 2**63 for x in row):
            raise EdgeListParseError(f"token outside int64 in {line!r}")
        if rows and len(row) != len(rows[0]):
            raise EdgeListParseError(f"column count changed at {line!r}")
        rows.append(row)
    if not rows:
        raise EdgeListParseError("empty input")
    if len(rows[0]) != 2:
        raise EdgeListParseError("expected 'n m' header")
    n, m = rows[0]
    if len(rows) - 1 != m:
        raise EdgeListParseError("edge count differs from the header")
    return edge_list_reference(rows[1:], n)


# ---------------------------------------------------------------------------
# Helpers on the package's BFS kernel that the package itself does not call


def bfs(g: Graph, source: int) -> tuple[int, ...]:
    """Exact unweighted shortest-path distances from ``source``.

    ``bfs(g, source)[v] == UNREACHABLE`` if v is in another component.
    """
    if not (0 <= source < g.n):
        raise VertexRangeError(f"source {source} outside 0..{g.n - 1}")
    dist = [UNREACHABLE] * g.n
    _bfs(g.adjacency, source, dist)
    return tuple(dist)


def is_bipartite(g: Graph) -> bool:
    """Whether g is 2-colourable: no edge joins two vertices of one BFS layer."""
    dist, _ = _bfs_forest(g)
    return all(dist[u] != dist[v] for u, v in g.edges())


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for acyclic graphs.

    BFS from every vertex v, only as deep as a shorter cycle could reach.
    An edge inside layer d closes a walk of length 2d + 1 through v, and a
    vertex of layer d with two neighbours in layer d - 1 one of length 2d;
    either walk contains a cycle at most that long, and for v on a
    shortest cycle one of them is that cycle.
    """
    best: int | None = None
    for v in range(g.n):
        dist = [UNREACHABLE] * g.n
        depth = None if best is None else (best - 1) // 2
        for u in _bfs(g.adjacency, v, dist, depth)[1:]:
            d = dist[u]
            layers = [dist[w] for w in g.adjacency[u]]
            if layers.count(d - 1) >= 2:
                cand = 2 * d
            elif d in layers:
                cand = 2 * d + 1
            else:
                continue
            if best is None or cand < best:
                best = cand
    return best


def apply_rr1(inst: WeightedDiameterInstance, u: int) -> int:
    """Remove a degree-one vertex, folding its pen weight into the neighbor.

    Returns that neighbor.
    """
    if not inst.alive[u] or inst.degree(u) != 1:
        raise ContractViolationError(f"vertex {u} is not a live degree-one vertex")
    (v,) = inst.neighbors(u)
    inst.s = max(inst.s, inst.pen[u] + inst.pen[v] + 1)
    inst.pen[v] = max(inst.pen[u] + 1, inst.pen[v])
    inst.remove_vertex(u)
    return v


def find_pending_cycles(inst: WeightedDiameterInstance) -> list[list[int]]:
    """All pending cycles of the alive graph, each anchor first.

    The cycle walk of ``paramdiam.fes.decompose`` on the live graph, which
    may still have degree-one vertices: a chain from a high vertex back to
    itself is a pending cycle, and a walk over degree-two vertices only is a
    bare cycle anchored at its smallest id, unless it runs into a leaf.
    """
    degree, neighbors = inst.degree, inst.neighbors
    cycles: list[list[int]] = []
    visited: set[int] = set()
    for v in inst.alive_vertices():
        if degree(v) < 3:
            continue
        for w in neighbors(v):
            if degree(w) >= 3 or w in visited:
                continue
            chain = [v]
            prev, cur = v, w
            while True:
                chain.append(cur)
                if degree(cur) != 2:
                    break
                visited.add(cur)
                prev, cur = cur, next(x for x in neighbors(cur) if x != prev)
            if chain[-1] == v:
                cycles.append(chain[:-1])
    for v in inst.alive_vertices():
        if degree(v) == 2 and v not in visited:
            chain = [v]
            visited.add(v)
            prev, cur = v, neighbors(v)[0]
            while cur != v:
                chain.append(cur)
                visited.add(cur)
                if degree(cur) != 2:
                    break
                prev, cur = cur, next(x for x in neighbors(cur) if x != prev)
            else:
                cycles.append(chain)
    return cycles


def case3_path_pair(
    pens1: Sequence[int],
    pens2: Sequence[int],
    d00: int,
    d0b: int,
    da0: int,
    dab: int,
) -> int | None:
    """Best pen-weighted distance between interiors of two distinct paths.

    The four arguments are the graph distances between the path endpoints
    (x_0/x_a of the first path to y_0/y_b of the second).  Interior-to-
    interior routes must exit through one endpoint of each path, so the
    distance from x_0 to y_j is f(j) = min(d00 + j, d0b + b - j), likewise
    g(j) from x_a, and :func:`_path_sweep` does the rest.
    """
    a = len(pens1) - 1
    b = len(pens2) - 1
    if a < 2 or b < 2:
        return None
    j = np.arange(1, b, dtype=np.int64)
    f = np.minimum(d00 + j, d0b + (b - j))
    g = np.minimum(da0 + j, dab + (b - j))
    w = np.asarray(pens2[1:b], dtype=np.int64)
    return _path_sweep(np.asarray(pens1[1:a], dtype=np.int64), f, g, w)


def weighted_diameter_oracle(inst: WeightedDiameterInstance) -> int:
    """max(s, max over pairs v != w of pen(v) + dist(v, w) + pen(w)).

    Brute force by one BFS per surviving vertex; the reference against which
    the reduction rules and case sweeps are validated.  A single surviving
    vertex yields s (the pair range is unordered and excludes v = w).
    """
    red, _, pen = inst.compacted()
    if red.n == 0:
        raise VertexRangeError("no vertices left")
    best = inst.s
    for v in range(red.n):
        row = bfs(red, v)
        for w in range(v + 1, red.n):
            d = row[w]
            if d == UNREACHABLE:
                raise DisconnectedGraphError("instance graph is not connected")
            cand = pen[v] + d + pen[w]
            if cand > best:
                best = cand
    return best
