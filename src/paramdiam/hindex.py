"""Exact diameter via hub distance fingerprints and bounded-depth probes.

Phase 1 BFSes from a hub set H (everything outside H has small degree) and
fingerprints each non-hub vertex by its exact distances to H; the first of
these searches decides connectivity, and an empty default H means an
edgeless graph, connected only on one vertex.  Phase 2
maintains a diameter candidate e, starting at the largest distance seen in
the hub tables, and certifies it: a fingerprint pair whose best via-hub
route exceeds e forces a depth-e BFS in G - H, and a missing vertex of the
probed fingerprint proves a pair at distance e + 1.  Then e rises by one
and the same vertex is probed again.  A vertex certified at e stays
certified as e grows, so one pass over the vertices certifies the final e,
with at most one probe per vertex plus one per raise.

Certification works per fingerprint type, not per vertex.  The T distinct
fingerprints form one int32 (T, h) matrix, and each type's largest via-hub
distance to any type is computed once, as T numpy reductions over T x h
entries; no T x T matrix is built, so memory stays O(T * h).  The pass
skips a vertex whose type reaches no further than the current e, and takes
a probed vertex's pending types from one numpy minimum over the matrix.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraphError, InvalidModulatorError, VertexRangeError
from .graph import (
    UNREACHABLE,
    Graph,
    TraceSink,
    _bfs,
    bfs_rows,
    fingerprint_types,
)
from .params import h_index, hub_set


def truncated_bfs_count(
    g: Graph, v: int, depth: int, types: Sequence[Hashable], removed: Iterable[int] = ()
) -> Counter:
    """Count fingerprints among vertices within ``depth`` of v in G - removed.

    ``types[u]`` is the fingerprint of vertex u, or any label that
    identifies it such as a type index; v itself, which must not be
    removed, is counted (distance 0).  The ``removed`` vertices (the hubs)
    are walls and are never counted.
    """
    if not (0 <= v < g.n):
        raise VertexRangeError(f"vertex {v} outside 0..{g.n - 1}")
    dist = [UNREACHABLE] * g.n
    for x in removed:
        dist[x] = 0
    return Counter(types[u] for u in _bfs(g.adjacency, v, dist, depth))


def solve_hd(
    g: Graph, hubs: set[int] | None = None, trace: TraceSink = None
) -> int:
    """Exact diameter; the hub set defaults to the h highest-degree vertices.

    A custom set must be nonempty when g has more than one vertex, and
    every vertex outside it must have degree at most ``h_index(g)``.
    """
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    if hubs is None:
        hubs = hub_set(g)
    else:
        if not hubs and g.n > 1:
            raise InvalidModulatorError("the hub set is empty")
        h = h_index(g)
        for v in hubs:
            if not (0 <= v < g.n):
                raise InvalidModulatorError(f"hub {v} outside 0..{g.n - 1}")
        for v in range(g.n):
            if v not in hubs and g.degree(v) > h:
                raise InvalidModulatorError(
                    f"vertex {v} outside the hub set has degree above h_index"
                )
    hub_list = sorted(hubs)
    if not hub_list:  # only on an edgeless graph
        if g.n > 1:
            raise DisconnectedGraphError("graph is not connected")
        return 0

    rows = bfs_rows(g, hub_list)  # its first search decides connectivity
    e = int(rows.max())

    non_hubs = np.setdiff1d(np.arange(g.n), hub_list)
    if not non_hubs.size:
        return e
    cols = rows[:, non_hubs].T
    first, inverse, counts = fingerprint_types(cols)
    tmat = cols[first]  # the T distinct fingerprints of G - H: (T, h) int32
    type_arr = np.full(g.n, -1)
    type_arr[non_hubs] = inverse
    type_of, totals = type_arr.tolist(), counts.tolist()
    # largest via-hub distance from each type to any type
    reach = np.array([np.min(tmat + t, axis=1).max() for t in tmat])

    probes = 0
    for v in non_hubs[reach[inverse] > e].tolist():
        tv = type_of[v]
        while reach[tv] > e:  # a vertex certified at e stays so as e grows
            via_hub = np.min(tmat + tmat[tv], axis=1)
            pending = np.flatnonzero(via_hub > e).tolist()
            probes += 1
            reached = truncated_bfs_count(g, v, e, type_of, hub_list)
            short = next((t for t in pending if reached.get(t, 0) != totals[t]), None)
            if short is None:
                break
            # some vertex of this fingerprint is at distance >= e + 1
            if trace is not None:
                trace({"e": e, "probes": probes, "vertex": v, "type": tmat[short].tolist()})
            e += 1
    if trace is not None:
        trace({"e": e, "probes": probes, "vertex": None, "type": None})
    return e
