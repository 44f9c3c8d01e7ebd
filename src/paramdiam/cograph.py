"""Exact diameter given a vertex modulator to a P4-free graph.

After removing the modulator K, every component has diameter at most two,
so each third vertex of any long shortest path lies in K.  Vertices outside
K are bucketed by their capped distance fingerprint towards K; one exact
distance per fingerprint pair (evaluated through K with the full BFS
tables) covers all cross-component pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, InvalidModulatorError, VertexRangeError
from .graph import Graph, bfs_rows, connected_components, is_connected
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


def component_diameters(g: Graph, labels: list[int]) -> list[int]:
    """Per-component diameter of G - K, each 0 (singleton), 1 (clique) or 2.

    ``labels`` are the component labels of G - K, -1 on K, as
    :func:`connected_components` gives them.  Raises InvalidModulatorError
    if some component has diameter above two, which a valid modulator never
    leaves behind.  The non-clique case is confirmed by checking that every
    2-step neighborhood ball, grown only through neighbours in the same
    component, covers the whole component (bitmask union per vertex).
    """
    members: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
    comp_mask = [0] * len(members)
    for v, lab in enumerate(labels):
        if lab >= 0:
            members[lab].append(v)
            comp_mask[lab] |= 1 << v
    edge_counts = [0] * len(members)
    for u, v in g.edges():
        if labels[u] == labels[v] >= 0:
            edge_counts[labels[u]] += 1
    masks = g.neighbor_masks
    diams = []
    for lab, vertices in enumerate(members):
        n_c = len(vertices)
        if n_c == 1:
            diams.append(0)
        elif edge_counts[lab] == n_c * (n_c - 1) // 2:
            diams.append(1)
        else:
            for v in vertices:
                ball = masks[v] | (1 << v)
                for w in g.adjacency[v]:
                    if labels[w] == lab:
                        ball |= masks[w]
                if ball & comp_mask[lab] != comp_mask[lab]:
                    raise InvalidModulatorError(
                        "a component of the remainder has diameter above two"
                    )
            diams.append(2)
    return diams


def build_types(rows: np.ndarray, labels: list[int]) -> list[TypeRecord]:
    """Group the vertices outside K by capped distance fingerprint.

    ``rows`` is the :func:`bfs_rows` table of the modulator vertices, and
    ``labels`` gives each vertex its component of G - K, -1 on K.
    """
    records: dict[tuple[int, ...], TypeRecord] = {}
    capped = np.minimum(rows, DISTANCE_CAP).T.tolist()
    for v, comp in enumerate(labels):
        if comp < 0:
            continue
        vec = tuple(capped[v])
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
    """Exact diameter; K defaults to the one-scan cograph modulator.

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
    k_list = sorted(k_set)
    if not k_list and find_induced_p4(g) is not None:
        raise InvalidModulatorError("empty modulator but the graph is not P4-free")
    labels = connected_components(g, k_list)
    best = max(component_diameters(g, labels), default=0)  # validates K

    if not k_list:
        return best

    rows = bfs_rows(g, k_list)
    best = max(best, int(rows.max()))
    records = build_types(rows, labels)

    for i, r1 in enumerate(records):
        for r2 in records[i:]:
            pair = _cross_component_pair(r1, r2)
            if pair is None:
                # both confined to one shared component: distance at most
                # that component's diameter, already counted
                continue
            y, z = pair
            best = max(best, int((rows[:, y] + rows[:, z]).min()))
    return best


def _cross_component_pair(r1: TypeRecord, r2: TypeRecord) -> tuple[int, int] | None:
    for y, cy in r1.representatives:
        for z, cz in r2.representatives:
            if cy != cz:
                return y, z
    return None
