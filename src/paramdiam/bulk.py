"""The numpy graph builder and the list parse's error ranking, loaded only on use.

:func:`_from_pairs` builds the validated graph of an int64 (m, 2) array
with numpy, for :func:`graph.from_edge_list`, the generators and
:func:`_parse_with_numpy`, the parse of an edge list of at least
``graph.LIST_PARSE_MAX_EDGES`` edges.  :func:`_raise_first_error` ranks
the errors of a text the list parser refused, reading it through the
list parser's own chunks and ints, and builds nothing.  ``solve`` on a
small valid edge list never imports this module, so it never compiles it
either.
"""

from __future__ import annotations

import io
import warnings
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListParseError,
    SelfLoopError,
    VertexRangeError,
)
from .graph import MAX_VERTICES, Graph, _chunks, _ints

if TYPE_CHECKING:
    import numpy as np


def _from_pairs(pairs: np.ndarray, n: int, connected: bool = False) -> Graph:
    """The validated Graph on vertices 0..n-1 with the int64 (m, 2) ``pairs``.

    The same checks, errors and order as the list parse.  Vectorised scans
    find an endpoint out of range or a self-loop.  Both directions of
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
        _raise_first_faulty_edge(zip(u.tolist(), v.tolist()), n)
    key = np.concatenate((u, v))
    key *= n
    key += np.concatenate((v, u))
    key.sort()
    if (key[1:] == key[:-1]).any():
        _raise_first_faulty_edge(zip(u.tolist(), v.tolist()), n)
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


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise VertexRangeError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise VertexRangeError(f"vertex count {n} above {MAX_VERTICES}")


def _check_enough_edges(n: int, m: int) -> None:
    """Raise for n >= 2 vertices and fewer than n - 1 edges: no such graph is connected."""
    if n >= 2 and m < n - 1:
        raise DisconnectedGraphError(f"{m} edges are too few to connect {n} vertices")


def _raise_first_faulty_edge(pairs: Iterable[tuple[int, int]], n: int) -> None:
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        seen.add(pair)


def _raise_first_error(text: str, grammar: bool, connected: bool) -> None:
    """Raise the first error of a list-route edge-list text, in ``parse_edge_list``'s order.

    Builds nothing.  A first walk over :func:`graph._chunks` finds the text
    errors and the header, a second walk names the first faulty edge in
    input order.  Returns only for a clean text, which the list parse
    refuses for a far vertex alone.
    """
    malformed = None
    outside = False
    header: list[int] = []
    rows_read = 0
    for rows in _chunks(text):
        if set(map(len, rows)) - {2}:
            raise EdgeListParseError("malformed edge list: every row needs two fields")
        rows_read += len(rows)
        try:
            ints = _ints(rows, grammar)
        except ValueError as exc:
            # a token off the grammar outranks an earlier one that int()
            # refuses only for its length
            if malformed is None or str(exc) == "a token is no decimal integer":
                malformed = str(exc)
            continue
        if ints:
            header = header or ints[:2]
            outside = outside or min(ints) < -1 << 63 or max(ints) >= 1 << 63
    if malformed is not None:
        raise EdgeListParseError(f"malformed edge list: {malformed}")
    if outside:
        raise EdgeListParseError("malformed edge list: a value outside int64")
    if not header:
        raise EdgeListParseError("empty input")
    n, m = header
    if rows_read - 1 != m:
        raise EdgeListParseError(f"header declares {m} edges but {rows_read - 1} edge lines found")
    _check_vertex_count(n)
    ends = islice(chain.from_iterable(_ints(rows, grammar) for rows in _chunks(text)), 2, None)
    _raise_first_faulty_edge(zip(ends, ends), n)
    if connected:
        _check_enough_edges(n, m)


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
