"""The numpy graph builder and the list parse's error ranking, loaded only on use.

:func:`_from_pairs` builds the validated graph of an int64 (m, 2) array
with numpy, for :func:`from_edge_list`, the generators and
:func:`_parse_with_numpy`, the parse of an edge list of at least
``graph.LIST_PARSE_MAX_EDGES`` edges.  Its rows share one int per vertex,
as the list parser's do.  :func:`_raise_first_error` ranks
the errors of a text the list parser refused, reading it through the
list parser's own chunks and ints, and builds nothing.  ``solve`` on a
small valid edge list never imports this module, so it never compiles it
either.
"""

from __future__ import annotations

import warnings
from itertools import chain, islice
from operator import index
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListParseError,
    GraphInputError,
    SelfLoopError,
    VertexRangeError,
)
from .graph import MAX_VERTICES, Graph, _chunks, _ints

if TYPE_CHECKING:
    import numpy as np


def from_edge_list(edges: Iterable[tuple[int, int]], n: int) -> Graph:
    """Build a validated Graph from an edge list over vertices 0..n-1.

    Each edge is a pair of integers: Python ints, numpy integer scalars, or
    a row of an (m, 2) integer ndarray.  Any other pair, such as
    ``(0, 1, 2)``, ``(2,)``, ``(0.5, 1)`` or ``("0", "1")``, raises
    :class:`GraphInputError`.  Rejects a vertex count outside
    0..2**31 - 1, out-of-range endpoints, self-loops and duplicate
    (including symmetric) edges with distinct error types; the error names
    the first faulty edge in input order.
    """
    import numpy as np

    edges = list(edges)
    not_pairs = GraphInputError("edges must be (u, v) pairs of integers")
    try:
        if set(map(len, edges)) - {2}:
            raise not_pairs
        # index() takes ints and numpy integers, and raises TypeError on the rest
        flat = np.fromiter(
            map(index, chain.from_iterable(edges)), dtype=np.int64, count=2 * len(edges)
        )
    except TypeError:
        raise not_pairs from None
    except OverflowError as exc:
        raise VertexRangeError(f"vertex id outside 0..{n - 1}") from exc
    return _from_pairs(flat.reshape(-1, 2), n)


def _from_pairs(pairs: np.ndarray, n: int, connected: bool = False) -> Graph:
    """The validated Graph on vertices 0..n-1 with the int64 (m, 2) ``pairs``."""
    return _cut_rows(*_sorted_rows(pairs, n, connected))


def _sorted_rows(pairs: np.ndarray, n: int, connected: bool) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the graph with the edges ``pairs``: int32 neighbours and their bounds.

    The same checks, errors and order as the list parse.  Vectorised scans
    find an endpoint out of range or a self-loop.  Both directions of every
    edge become one key ``src * n + dst``, sorted in place, and a duplicate
    edge shows as two equal neighbouring keys.  Whenever a check fails,
    :func:`_raise_first_faulty_edge` names the first faulty edge in input
    order.  With ``connected``, too few edges to connect n vertices raise
    next.  The sorted keys, taken ``% n``, are the neighbours, and row v's
    lie from ``bounds[v]`` up to ``bounds[v + 1]``.  Both arrays are new, so
    no view of ``pairs`` outlives the call.
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
    return key.astype(np.int32), bounds


# Neighbours per chunk when the rows are cut
_CUT_CHUNK = 1 << 11


def _cut_rows(nbrs: np.ndarray, bounds: np.ndarray) -> Graph:
    """The Graph whose row v is ``nbrs[bounds[v]:bounds[v + 1]]``.

    Every entry is the one int of its vertex, picked from an object array
    of them a chunk of about ``_CUT_CHUNK`` neighbours at a time, so the rows
    share n ints, not 2m, and no chunk's temporaries outgrow the chunk.
    """
    import numpy as np

    n = len(bounds) - 1
    ids = np.arange(n, dtype=object)

    def rows(a: int, b: int) -> list[tuple[int, ...]]:
        lo = bounds[a]
        picked = tuple(ids.take(nbrs[lo:bounds[b]]).tolist())
        ends = memoryview(bounds[a:b + 1] - lo)  # one int at a time, not b - a of them
        return [picked[i:j] for i, j in zip(ends, ends[1:])]

    cuts = [0, *np.searchsorted(bounds, range(_CUT_CHUNK, len(nbrs), _CUT_CHUNK)).tolist(), n]
    # the rows go into a list before their tuple: a tuple grown in place
    # rejoins the GC's youngest generation at each resize, and every
    # collection while the GC is on then walks it whole
    return Graph(n, tuple([*chain.from_iterable(map(rows, cuts, cuts[1:]))]), len(nbrs) // 2)


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


# Characters per chunk of _lines, which cuts each at the next line end
_LINE_CHARS = 1 << 16


def _lines(text: str) -> Iterator[list[str]]:
    r"""The lines of ``text`` without their ends, a list per chunk of lines.

    ``\n``, ``\r\n`` and ``\r`` end a line, as in
    ``io.StringIO(text, newline=None)``, which yields the same lines but
    first copies the whole text at four bytes per character.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _LINE_CHARS)
        if stop < 0:
            stop = len(text) - 1 if text.endswith("\n") else len(text)
        yield text[start:stop].split("\n")
        start = stop + 1


def _parse_with_numpy(text: str, connected: bool = False) -> Graph:
    """The numpy parse of ``parse_edge_list``: one int64 array, then its keys, then the rows.

    Neither the text, which the caller hands over as its only reference,
    nor the loadtxt array is alive while the rows are cut.
    """
    import numpy as np

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            # numpy 1.23 to 2.x read a field such as 1.5 or 1e3 via a float,
            # truncated it and only warned; raise instead, so the grammar is
            # the same on every numpy.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                chain.from_iterable(_lines(text)), dtype=np.int64, comments="#", ndmin=2
            )
    except (ValueError, DeprecationWarning) as exc:
        raise EdgeListParseError(f"malformed edge list: {exc}") from None
    del text
    if rows.size == 0:
        raise EdgeListParseError("empty input")
    if rows.shape[1] != 2:
        raise EdgeListParseError(f"expected 'n m' header, got {rows[0].tolist()}")
    n, m = rows[0].tolist()
    if len(rows) - 1 != m:
        raise EdgeListParseError(
            f"header declares {m} edges but {len(rows) - 1} edge lines found"
        )
    nbrs, bounds = _sorted_rows(rows[1:], n, connected)
    del rows
    return _cut_rows(nbrs, bounds)
