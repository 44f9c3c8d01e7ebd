"""Structural parameters and the modulators consumed by the solvers.

Everything here is deterministic: ties are broken by ascending vertex id so
repeated runs pick identical modulators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import DisconnectedGraphError, VertexRangeError
from .graph import Graph, is_connected


def neighbor_masks(g: Graph) -> list[int]:
    """Adjacency as one bitmask (int) per vertex, built afresh on each call.

    Working state of :func:`_p4_scan` and of the 2-ball check in
    ``cograph.component_diameters``.  Each mask is as wide as its vertex's
    largest neighbour id: about n^2/16 bytes in all with random ids.
    """
    masks = []
    for nbrs in g.adjacency:
        m = 0
        for w in nbrs:
            m |= 1 << w
        masks.append(m)
    return masks


def _p4_scan(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    """Yield induced P4s a-b-c-d, deleting each one's vertices as it goes.

    One pass over the edges (b, c) in ascending b, then in adjacency order,
    against an ``alive`` bitmask: a P4 is looked for among alive vertices
    only, with a the smallest candidate that has a partner d and d the
    smallest partner of a.  After a yield the four vertices leave ``alive``.

    This finds the same P4s, in the same order, as restarting the scan from
    the first edge after every deletion.  Deleting vertices never creates
    an induced P4, so an edge with no P4 earlier in the pass has none
    later, and a restarted scan would pass over it; the edges of b after
    the hit are skipped either way, since b itself is deleted.
    O(n*m) word operations in all.
    """
    masks = neighbor_masks(g)
    alive = (1 << g.n) - 1
    for b in range(g.n):
        if not alive >> b & 1:
            continue
        mb = masks[b] & alive
        for c in g.adjacency[b]:
            if not alive >> c & 1:
                continue
            mc = masks[c] & alive
            # candidates adjacent to b but not c, and vice versa
            a_cands = mb & ~mc & ~(1 << c)
            d_cands = mc & ~mb & ~(1 << b)
            if not d_cands:
                continue
            rest = a_cands
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                ok = d_cands & ~masks[a]
                if ok:
                    break
                rest ^= low
            else:
                continue
            d = (ok & -ok).bit_length() - 1
            alive &= ~(1 << a | 1 << b | 1 << c | 1 << d)
            yield (a, b, c, d)
            break


def find_induced_p4(g: Graph) -> tuple[int, int, int, int] | None:
    """An induced path a-b-c-d (exactly edges ab, bc, cd), or None.

    None iff the graph is a cograph.  The first P4 of :func:`_p4_scan`.
    """
    return next(_p4_scan(g), None)


def cograph_modulator(g: Graph) -> set[int]:
    """Vertex set whose removal leaves the graph P4-free.

    The union of the disjoint P4s that one :func:`_p4_scan` pass deletes;
    the result size is a multiple of four and at most four times the
    optimum, since every modulator meets each of those P4s.
    """
    return {v for hit in _p4_scan(g) for v in hit}


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

    One walk over the vertices in ascending order.  An alive vertex adjacent
    to every other alive vertex is kept, otherwise it and its smallest
    alive non-neighbor are both deleted; either way it stops being alive.
    Each deleted pair intersects every clique-deletion set, hence the
    factor-2 bound.

    Every alive vertex at v's turn is at least v, so the non-neighbor is
    found by stepping upwards from v + 1 through alive vertices only, along
    a ``nxt`` array: an alive vertex points to itself, a dead one to a later
    vertex with no alive vertex in between (shortened by path halving).  Every step before
    the hit lands on an alive neighbor of v, so the walk costs O(m) plus
    the pointer chasing, where a ``min`` over the alive set at each turn
    would cost O(n^2).
    """
    deg = [len(a) for a in g.adjacency]
    alive_count = g.n
    nxt = list(range(g.n + 1))

    def next_alive(u: int) -> int:
        while nxt[u] != u:
            nxt[u] = nxt[nxt[u]]
            u = nxt[u]
        return u

    def drop(x: int) -> None:
        nonlocal alive_count
        alive_count -= 1
        nxt[x] = x + 1
        for u in g.adjacency[x]:
            deg[u] -= 1  # read only while u is alive

    modulator: set[int] = set()
    for v in range(g.n):
        if nxt[v] != v:
            continue
        if deg[v] == alive_count - 1:
            drop(v)
            continue
        nbrs = set(g.adjacency[v])
        w = next_alive(v + 1)
        while w in nbrs:
            w = next_alive(w + 1)
        modulator.update((v, w))
        drop(v)
        drop(w)
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
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")
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
