"""Structural parameters and the modulators consumed by the solvers.

Everything here is deterministic: ties are broken by ascending vertex id so
repeated runs pick identical modulators.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import VertexRangeError
from .graph import Graph, induced_subgraph, require_connected


def find_induced_p4(g: Graph) -> tuple[int, int, int, int] | None:
    """An induced path a-b-c-d (exactly edges ab, bc, cd), or None.

    None iff the graph is a cograph.  Scans each edge (b, c) for a suitable
    private-neighbor pair using adjacency bitmasks; O(n*m) word operations.
    """
    masks = g.neighbor_masks
    full = (1 << g.n) - 1
    for b in range(g.n):
        mb = masks[b]
        for c in g.adjacency[b]:
            # candidates adjacent to b but not c, and vice versa
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


def cograph_modulator(g: Graph, limit: int | None = None) -> set[int]:
    """Vertex set whose removal leaves the graph P4-free.

    Iteratively peels all four vertices of some induced P4; the result size
    is a multiple of four and at most four times the optimum.  With a
    ``limit``, peeling stops once more than ``limit`` vertices are removed:
    the result is then the full modulator if that has at most ``limit``
    vertices, and otherwise a part of it with more than ``limit`` vertices
    (not a valid modulator), which is enough to compare its size with
    ``limit`` or any smaller number.
    """
    removed: set[int] = set()
    current = g
    order = list(range(g.n))
    while True:
        hit = find_induced_p4(current)
        if hit is None:
            return removed
        removed.update(order[v] for v in hit)
        if limit is not None and len(removed) > limit:
            return removed
        keep = [v for v in range(current.n) if v not in hit]
        current, sub_order = induced_subgraph(current, keep)
        order = [order[v] for v in sub_order]


def h_index(g: Graph) -> int:
    """Largest l such that at least l vertices have degree at least l."""
    degrees = sorted((len(a) for a in g.adjacency), reverse=True)
    h = 0
    for i, d in enumerate(degrees):
        if d >= i + 1:
            h = i + 1
        else:
            break
    return h


def hub_set(g: Graph) -> set[int]:
    """The h highest-degree vertices (ties by ascending id).

    Every vertex outside the returned set has degree at most h_index(g).
    """
    h = h_index(g)
    by_degree = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))
    return set(by_degree[:h])


def clique_modulator_2approx(g: Graph) -> set[int]:
    """Deletion set leaving a clique; at most twice the minimum size.

    Repeatedly inspects the smallest remaining vertex: a vertex adjacent to
    everything else is kept, otherwise it and its smallest non-neighbor are
    both deleted.  Each deleted pair intersects every clique-deletion set,
    hence the factor-2 bound.
    """
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


def degree_stats(g: Graph) -> tuple[int, int, Fraction]:
    """(max degree, min degree, average degree as an exact rational)."""
    if g.n == 0:
        raise VertexRangeError("degree stats undefined for the empty graph")
    degrees = [len(a) for a in g.adjacency]
    return max(degrees), min(degrees), Fraction(2 * g.m, g.n)


def parameter_report(g: Graph) -> dict:
    """The JSON-able parameter summary emitted by the CLI.

    The graph must be connected; its feedback edge number is then m - n + 1.
    """
    dmax, dmin, davg = degree_stats(g)
    require_connected(g)
    return {
        "n": g.n,
        "m": g.m,
        "feedback_edge_number": g.m - g.n + 1,
        "cograph_modulator_size": len(cograph_modulator(g)),
        "clique_modulator_size": len(clique_modulator_2approx(g)),
        "h_index": h_index(g),
        "max_degree": dmax,
        "min_degree": dmin,
        "average_degree": str(davg),
    }
