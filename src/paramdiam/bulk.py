"""Graph builders that take a whole edge list at once, loaded only by a run that calls one.

:func:`_from_pairs` builds the validated graph of an int64 (m, 2) array
with numpy, for :func:`graph.from_edge_list`, the generators and
:func:`_parse_with_numpy`, the parse of an edge list of at least
``graph.LIST_PARSE_MAX_EDGES`` edges.  :func:`_parse_exactly` is the list
parser's walk over a whole text, taken only when its chunked walk meets an
anomaly, and builds through :func:`_from_lists`.  ``solve`` on a small
valid edge list never imports this module, so it never compiles it either.
"""

from __future__ import annotations

import io
import warnings
from array import array
from collections import deque
from operator import eq
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListParseError,
    SelfLoopError,
    VertexRangeError,
)
from .graph import MAX_VERTICES, _TOKEN, Graph, _add_edges, _finish_rows, _unpad

if TYPE_CHECKING:
    import numpy as np


def _from_pairs(pairs: np.ndarray, n: int, connected: bool = False) -> Graph:
    """The validated Graph on vertices 0..n-1 with the int64 (m, 2) ``pairs``.

    The same checks, errors and order as :func:`_from_lists`.  Vectorised
    scans find an endpoint out of range or a self-loop.  Both directions of
    every edge become one key ``src * n + dst``, sorted in place, and a
    duplicate edge shows as two equal neighbouring keys.  Whenever a check
    fails, :func:`_raise_first_faulty_edge` names the first faulty edge in
    input order.  With ``connected``, too few edges to connect n vertices
    raise next.  The sorted keys, taken ``% n``, are the rows, cut at
    bounds kept in an int64 array.
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
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n) + np.bincount(v, minlength=n), out=bounds[1:])
    np.remainder(key, n, out=key)
    nbrs = tuple(key.tolist())
    del key
    bounds = memoryview(bounds)  # read one int at a time; tolist() would make n of them
    adjacency = tuple([nbrs[i:j] for i, j in zip(bounds, bounds[1:])])
    return Graph(n, adjacency, m)


def _from_lists(us: Sequence[int], vs: Sequence[int], n: int, connected: bool = False) -> Graph:
    """The validated Graph on vertices 0..n-1 with the edges (us[i], vs[i]).

    The same checks, errors and order as :func:`_from_pairs`, without numpy.
    C-level scans find an endpoint out of range or a self-loop, and a
    duplicate edge shows as a row with a repeated neighbour; only then, or
    with ``connected`` and too few edges, does a per-edge walk name the
    first faulty edge, before any per-vertex allocation.  The list parser's
    exact walk builds through here; its chunked walk builds its rows as it
    reads.
    """
    _check_vertex_count(n)
    m = len(us)
    if us and (min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n
               or any(map(eq, us, vs))) or connected and m < n - 1:
        _raise_first_faulty_edge(us, vs, n)
        _check_enough_edges(n, m)
    ids = list(range(n))  # the one int per vertex that the rows share
    adjacency = [[] for _ in ids]
    _add_edges(ids, adjacency, us, vs)
    del ids
    g = _finish_rows(adjacency, m)
    if g is None:
        _raise_first_faulty_edge(us, vs, n)
    return g


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise VertexRangeError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise VertexRangeError(f"vertex count {n} above {MAX_VERTICES}")


def _check_enough_edges(n: int, m: int) -> None:
    """Raise for n >= 2 vertices and fewer than n - 1 edges: no such graph is connected."""
    if n >= 2 and m < n - 1:
        raise DisconnectedGraphError(f"{m} edges are too few to connect {n} vertices")


def _raise_first_faulty_edge(us: Sequence[int], vs: Sequence[int], n: int) -> None:
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


def _parse_exactly(text: str, connected: bool) -> Graph:
    """The graph of a clean edge-list text, or the first error in the documented order.

    Checks the whole text at once: the width of every line, then its tokens
    as one list.  Takes the time and memory of that list, so it runs only
    where :func:`_parse_in_chunks` met an anomaly.
    """
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
        try:
            values = array("q", map(int, tokens))
        except OverflowError:
            deque(map(int, tokens), maxlen=0)  # a malformed token anywhere comes first
            raise EdgeListParseError("malformed edge list: a value outside int64") from None
    except ValueError as exc:
        raise EdgeListParseError(f"malformed edge list: {exc}") from None
    del tokens
    n, m = values[0], values[1]
    if len(values) // 2 - 1 != m:
        raise EdgeListParseError(
            f"header declares {m} edges but {len(values) // 2 - 1} edge lines found"
        )
    us, vs = values[2::2], values[3::2]
    del values
    return _from_lists(us, vs, n, connected)


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
