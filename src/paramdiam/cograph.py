"""Exact diameter given a vertex modulator to a P4-free graph.

After removing the modulator K, every component has diameter at most two,
so each third vertex of any long shortest path lies in K.  Vertices outside
K are grouped into types by their capped distance fingerprint towards K
(:func:`graph.fingerprint_types`).  One exact BFS row per type, and one
numpy reduction per type against the types it has a cross-component pair
with, give every distance between two components of G - K.  The first
BFS row from K decides connectivity; with K empty the component labels of
G do, since a cograph may be disconnected.  The input Graph holds only
adjacency: the 2-ball check builds its bitmasks as working state and
drops them.
"""

from __future__ import annotations

import numpy as np

from .errors import DisconnectedGraphError, InvalidModulatorError, VertexRangeError
from .graph import (
    Graph,
    bfs_rows,
    connected_components,
    fingerprint_types,
)
from .params import cograph_modulator, neighbor_masks

DISTANCE_CAP = 4  # fingerprint entries: min(dist, 4)

MULTIPLE = -1  # component marker for fingerprints spread over several components


def component_diameters(g: Graph, labels: list[int]) -> list[int]:
    """Per-component diameter of G - K, each 0 (singleton), 1 (clique) or 2.

    ``labels`` are the component labels of G - K, -1 on K, as
    :func:`connected_components` gives them.  Raises InvalidModulatorError
    if some component has diameter above two, which a valid modulator never
    leaves behind.  The non-clique case is confirmed by checking that every
    2-step neighborhood ball, grown only through neighbours in the same
    component, covers the whole component (bitmask union per vertex, over
    masks built only when some component is not a clique, and component
    masks only for those components).
    """
    sizes = [0] * (max(labels, default=-1) + 1)
    for lab in labels:
        if lab >= 0:
            sizes[lab] += 1
    edge_counts = [0] * len(sizes)
    for u, v in g.edges():
        if labels[u] == labels[v] >= 0:
            edge_counts[labels[u]] += 1
    diams = [
        0 if n_c == 1 else 1 if e_c == n_c * (n_c - 1) // 2 else 2
        for n_c, e_c in zip(sizes, edge_counts)
    ]
    if 2 not in diams:
        return diams
    comp_mask = [0] * len(sizes)
    for v, lab in enumerate(labels):
        if lab >= 0 and diams[lab] == 2:
            comp_mask[lab] |= 1 << v
    masks = neighbor_masks(g)
    for v, lab in enumerate(labels):
        if lab < 0 or diams[lab] != 2:
            continue
        ball = masks[v] | (1 << v)
        for w in g.adjacency[v]:
            if labels[w] == lab:
                ball |= masks[w]
        if ball & comp_mask[lab] != comp_mask[lab]:
            raise InvalidModulatorError(
                "a component of the remainder has diameter above two"
            )
    return diams


def solve_cograph(g: Graph, k_set: set[int] | None = None) -> int:
    """Exact diameter; K defaults to the one-scan cograph modulator.

    Correct for any K, minimal or not, that leaves components of diameter
    at most two, which :func:`component_diameters` checks; no K is scanned
    for P4s, so an empty K on C5 gives its diameter 2.
    """
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    if k_set is None:
        k_set = cograph_modulator(g)
    for v in k_set:
        if not (0 <= v < g.n):
            raise InvalidModulatorError(f"modulator vertex {v} outside 0..{g.n - 1}")
    k_list = sorted(k_set)
    labels = connected_components(g, k_list)
    best = max(component_diameters(g, labels), default=0)  # validates K

    if not k_list:
        if max(labels) > 0:  # a cograph may be disconnected
            raise DisconnectedGraphError("graph is not connected")
        return best

    rows = bfs_rows(g, k_list)  # its first search decides connectivity
    best = max(best, int(rows.max()))
    lab = np.array(labels)
    outside = np.flatnonzero(lab >= 0)
    lab = lab[outside]  # the component of each vertex outside K
    capped = np.minimum(rows[:, outside], DISTANCE_CAP).T
    first, inverse, _ = fingerprint_types(capped)
    # One exact row per type stands for all its vertices.  A vertex y
    # outside K lies in a component of diameter <= 2 that touches K (g is
    # connected), so a shortest path from y to a vertex k of K enters K
    # within 3 steps, at some k': d(y, k) = min over k' with d(y, k') <= 3
    # of d(y, k') + d(k', k).  Those entries of y's fingerprint are below
    # the cap, so y's exact row, and with it y's via-K distance to any
    # vertex, depends only on its capped fingerprint.
    reps = rows[:, outside[first]].T  # (T, |K|) int32
    comp = lab[first]
    comp[inverse[lab != comp[inverse]]] = MULTIPLE
    for t, row in enumerate(reps):
        # the types with a vertex in another component than one of t's;
        # a pair inside one component is within its diameter, counted above
        cross = (comp != comp[t]) | (comp == MULTIPLE)
        if cross.any():
            best = max(best, int(np.min(reps[cross] + row, axis=1).max()))
    return best
