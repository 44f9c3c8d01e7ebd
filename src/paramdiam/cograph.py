"""Exact diameter given a vertex modulator to a P4-free graph.

After removing the modulator K, every component has diameter at most two,
so each third vertex of any long shortest path lies in K.  Vertices outside
K are bucketed by their capped distance fingerprint towards K; one exact
distance per fingerprint pair (evaluated through K with the full BFS
tables) covers all cross-component pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraphError, InvalidModulatorError, VertexRangeError
from .graph import (
    Graph,
    _bfs_dist,
    connected_components,
    induced_subgraph,
    is_connected,
)
from .params import cograph_modulator, find_induced_p4

DISTANCE_CAP = 4  # fingerprint entries: min(dist, 4)

MULTIPLE = -1  # component marker for fingerprints spread over several components


@dataclass
class TypeRecord:
    """All vertices sharing one capped fingerprint.

    ``type`` holds the distances to the modulator vertices, values above
    three capped to 4.  ``component`` is the single component id of G - K
    holding them, or ``MULTIPLE``; ``representatives`` holds up to two
    (vertex, component) pairs with distinct components.
    """

    type: tuple[int, ...]
    count: int
    component: int
    representatives: tuple[tuple[int, int], ...]


def component_diameters(g_minus_k: Graph) -> list[int]:
    """Per-component diameter, each 0 (singleton), 1 (clique) or 2.

    Raises InvalidModulatorError if some component has diameter above two,
    which a valid modulator never leaves behind.  The non-clique case is
    confirmed by checking that every 2-step neighborhood ball covers the
    whole component (bitmask union per vertex).
    """
    labels = connected_components(g_minus_k)
    n_labels = max(labels, default=-1) + 1
    sizes = [0] * n_labels
    edge_counts = [0] * n_labels
    comp_mask = [0] * n_labels
    for v, lab in enumerate(labels):
        sizes[lab] += 1
        comp_mask[lab] |= 1 << v
    for u, v in g_minus_k.edges():
        edge_counts[labels[u]] += 1
    masks = g_minus_k.neighbor_masks
    diams = []
    for lab in range(n_labels):
        n_c = sizes[lab]
        if n_c == 1:
            diams.append(0)
        elif edge_counts[lab] == n_c * (n_c - 1) // 2:
            diams.append(1)
        else:
            for v in range(g_minus_k.n):
                if labels[v] != lab:
                    continue
                ball = masks[v] | (1 << v)
                for w in g_minus_k.adjacency[v]:
                    ball |= masks[w]
                if ball & comp_mask[lab] != comp_mask[lab]:
                    raise InvalidModulatorError(
                        "a component of the remainder has diameter above two"
                    )
            diams.append(2)
    return diams


def build_types(
    g: Graph,
    k_list: list[int],
    bfs_rows: dict[int, list[int]],
    labels: dict[int, int],
) -> list[TypeRecord]:
    """Group the vertices outside K by capped distance fingerprint.

    ``bfs_rows`` maps each modulator vertex to its full-graph BFS row and
    ``labels`` each non-modulator vertex to its component of G - K.
    """
    records: dict[tuple[int, ...], TypeRecord] = {}
    in_k = set(k_list)
    for v in range(g.n):
        if v in in_k:
            continue
        vec = tuple(min(bfs_rows[x][v], DISTANCE_CAP) for x in k_list)
        comp = labels[v]
        rec = records.get(vec)
        if rec is None:
            records[vec] = TypeRecord(vec, 1, comp, ((v, comp),))
        else:
            rec.count += 1
            if rec.component != MULTIPLE and rec.component != comp:
                rec.representatives = (rec.representatives[0], (v, comp))
                rec.component = MULTIPLE
    return [records[key] for key in sorted(records)]


def solve_cograph(g: Graph, k_set: set[int] | None = None) -> int:
    """Exact diameter; K defaults to the iteratively peeled modulator.

    Correct for any valid modulator, minimal or not.  With an empty K the
    graph itself must be P4-free.
    """
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")
    if k_set is None:
        k_set = cograph_modulator(g)
    for v in k_set:
        if not (0 <= v < g.n):
            raise InvalidModulatorError(f"modulator vertex {v} outside 0..{g.n - 1}")
    in_k = set(k_set)
    k_list = sorted(in_k)
    if not k_list and find_induced_p4(g) is not None:
        raise InvalidModulatorError("empty modulator but the graph is not P4-free")
    rest = [v for v in range(g.n) if v not in in_k]
    sub, order = induced_subgraph(g, rest)
    diams = component_diameters(sub)  # validates the modulator
    best = max(diams, default=0)

    if not k_list:
        return best

    rows = {x: _bfs_dist(g.adjacency, g.n, x) for x in k_list}
    for x in k_list:
        row = rows[x]
        for u in range(g.n):
            if u != x and row[u] > best:
                best = row[u]

    sub_labels = connected_components(sub)
    labels = {old: sub_labels[i] for i, old in enumerate(order)}
    records = build_types(g, k_list, rows, labels)

    for i, r1 in enumerate(records):
        for r2 in records[i:]:
            pair = _cross_component_pair(r1, r2)
            if pair is None:
                # both confined to one shared component: distance at most
                # that component's diameter, already counted
                continue
            y, z = pair
            d = min(rows[x][y] + rows[x][z] for x in k_list)
            if d > best:
                best = d
    return best


def _cross_component_pair(r1: TypeRecord, r2: TypeRecord) -> tuple[int, int] | None:
    for y, cy in r1.representatives:
        for z, cz in r2.representatives:
            if cy != cz:
                return y, z
    return None
