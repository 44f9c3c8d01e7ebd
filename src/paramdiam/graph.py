"""Immutable simple-graph substrate and BFS-based primitives.

Graphs are undirected, unweighted, simple, with vertices 0..n-1.
Distances are plain Python integers in lists, or int32 in the numpy tables
of :func:`bfs_rows`; ``UNREACHABLE`` (-1) marks vertices in other
components.
A :class:`Graph` holds only its adjacency, with no cache beside it, and
never changes after construction, so it can be shared freely between
threads.

Traversals run on two kernels.  :func:`_bfs` is one search from one
source: it writes the distances it finds into a ``dist`` list owned by its
caller, and every other traversal in the package calls it.  A traversal of
G - X needs no copy of it: the vertices of X are set in ``dist`` before the
search, as walls.  Every distance row kept is int32: the rows
:func:`bounding_diameters` keeps are ``array('i')``, and every other table
from a set of sources is one :func:`bfs_rows` matrix, checked against
``BFS_ROWS_MAX_BYTES`` before it is allocated.
:func:`_ms_bfs` runs many searches at once, one bit per source in a Python
int per vertex, and returns only the largest eccentricity among its
sources: where no bound prunes, one C-level OR moves thousands of searches
along an edge.  Only :func:`solve_certified` calls it, and every public
function here is pure.

A full search decides connectivity: :func:`bfs_rows`,
:func:`eccentricity`, :func:`bounding_diameters` and :func:`_ms_bfs` raise
:class:`DisconnectedGraphError` as soon as one misses a vertex, so no
solver that makes one runs a check of its own.

Two diameter solvers live here: :func:`naive_diameter`, the largest
:func:`eccentricity` and the reference oracle for every other solver, and
:func:`solve_certified`, which needs no structural parameter: it prunes BFS
sources with eccentricity bounds under a pass budget and certifies the
vertices they leave with :func:`_ms_bfs`.  The bounds loop,
:func:`bounding_diameters`, takes vertex weights, so it also bounds the
weighted core that ``solve_fes`` reduces to.  It keeps four lists over
the candidates still open, sorted once so that the first max or min breaks
ties, runs C-level ``map``, ``min`` and ``max`` over them and writes only
where a bound moves.  It returns its best lower bound on the diameter and
the open candidates with their upper bounds, which is all its callers read.

numpy is imported only by the functions that need it: :func:`bfs_rows`,
:func:`fingerprint_types` and the parse of edge lists of at least
``LIST_PARSE_MAX_EDGES`` edges.  A smaller edge list is parsed into
lists, so ``solve`` on it, by ``naive``, ``msbfs`` or a ``fes`` run whose
core bounds settle, never loads numpy.  numpy's builder and parse, with
``from_edge_list``, and the ranking of the errors of a text the list
parser refused live in ``bulk``, which loads only when a run calls one.

The list parser alone decides the edge-list grammar and the text errors;
the numpy parse is a fast path that hands it every text ``np.loadtxt``
does not read cleanly.  Both cut the text into lines with :func:`_lines`.

Both parsers and both graph builders drop each temporary as soon as the
step that uses it is done, keep no per-edge key beside the rows and keep no
int the graph does not hold: every builder's rows share one int per
vertex.  The list parser reads its text a chunk of lines at a time
straight into the rows, so beside them it holds one chunk's tokens, never
the whole text's.  What a parse leaves is its graph, and its peak memory
is about 1.5 times that graph through lists (1.2 on dense graphs) and 1.3
times through numpy.
"""

from __future__ import annotations

import re
from array import array
from collections import deque
from itertools import chain, compress, count, repeat
from operator import add, eq, gt, lt, sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import (
    DisconnectedGraphError,
    EdgeListParseError,
    MemoryLimitError,
    ParamDiamError,
    VertexRangeError,
)

if TYPE_CHECKING:
    import numpy as np

UNREACHABLE = -1
MAX_VERTICES = 2**31 - 1  # int32 distance tables; lo * n + hi fits in int64

TraceSink = Callable[[dict], None] | None


class Graph:
    """Undirected simple graph in compact adjacency form.

    ``adjacency[v]`` is the sorted tuple of neighbors of ``v``.  Use
    :func:`bulk.from_edge_list` to build a validated instance.
    """

    __slots__ = ("n", "m", "adjacency")

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...], m: int):
        self.n = n
        self.m = m
        self.adjacency = adjacency

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


def _bfs(
    adjacency: Sequence[Iterable[int]],
    source: int,
    dist: list[int],
    depth: int | None = None,
) -> list[int]:
    """BFS from ``source`` over the entries of ``dist`` still UNREACHABLE.

    Writes each distance it finds into the caller's ``dist`` (``source``
    gets 0) and returns the reached vertices in visiting order, so their
    distances never decrease along the list.  With ``depth``, vertices
    farther than ``depth`` from ``source`` stay UNREACHABLE.  Entries of
    ``dist`` that are already set act as walls, which lets one ``dist``
    list carry a whole BFS forest.
    """
    if depth is None:
        depth = len(dist)
    dist[source] = 0
    order = [source]
    for u in order:
        du1 = dist[u] + 1
        if du1 > depth:
            break
        for w in adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du1
                order.append(w)
    return order


def _ms_bfs(adjacency: Sequence[Sequence[int]], n: int, sources: Sequence[int]) -> int:
    """Multi-source bit-parallel BFS; the largest eccentricity among ``sources``.

    MS-BFS (Then et al., PVLDB 2014): source i owns bit i of one Python int
    per vertex, so one C-level OR carries every search that has reached a
    vertex across an edge.  ``todo[v]`` holds the bits that have not reached
    v yet, and the frontier maps each vertex reached in the last round to
    the bits that reached it then.  A round pushes the frontier's bits to
    its neighbours and keeps what is new to them, so a vertex is in the
    frontier once per distinct distance to it from the sources:
    O(min(|S|, D + 1) * (n + m)) big-int operations in all, and no round
    visits a vertex that no frontier vertex is next to.

    Returns the number of rounds until every bit has reached every vertex.
    Raises :class:`DisconnectedGraphError` when a round adds no bit before
    that.
    """
    todo = [(1 << len(sources)) - 1] * n
    pushed = [0] * n  # the bits pushed to each vertex this round; 0 between rounds
    frontier: dict[int, int] = {}
    for i, source in enumerate(sources):
        frontier[source] = frontier.get(source, 0) | 1 << i
    for source, bits in frontier.items():
        todo[source] ^= bits
    left = n - todo.count(0)
    rounds = 0
    while left:
        if not frontier:
            raise DisconnectedGraphError("graph is not connected")
        rounds += 1
        for v, bits in frontier.items():
            for w in adjacency[v]:
                pushed[w] |= bits
        reached = set().union(*map(adjacency.__getitem__, frontier))
        frontier = {}
        for w in reached:
            rest = todo[w]
            new = pushed[w] & rest
            pushed[w] = 0
            if new:
                rest ^= new
                todo[w] = rest
                frontier[w] = new
                if not rest:
                    left -= 1
    return rounds


# The most bytes of working state one _ms_bfs call may take.
MS_BFS_MAX_BYTES = 64 * 2**20


def _ms_bfs_width(n: int) -> int:
    """The most sources one :func:`_ms_bfs` call on n vertices may take; 0 if not one.

    Its working state per vertex is up to three ints of one bit per source
    (todo, pushed and frontier bits), at 4 bytes per 30-bit digit, plus at
    most 512 bytes of int headers and list, dict and set entries.  Its
    tracemalloc peak was 68-96% of that on trees plus edges, grids, paths
    and random graphs of 700 to 20000 vertices.
    """
    return max(0, 30 * ((MS_BFS_MAX_BYTES // n - 512) // 12))


# The most bytes one bfs_rows table, or fes case 1's rows, may take.  The
# test suite's largest are 213 x 500 entries (426 kB) and 300 x 2100 (2.5 MB).
BFS_ROWS_MAX_BYTES = 256 * 2**20


def _check_rows_budget(count: int, n: int) -> None:
    """Raise :class:`MemoryLimitError` if ``count`` int32 rows of n entries pass the limit."""
    if 4 * count * n > BFS_ROWS_MAX_BYTES:
        raise MemoryLimitError(
            f"a distance table from {count} sources over {n} vertices needs"
            f" {4 * count * n} bytes, above graph.BFS_ROWS_MAX_BYTES = {BFS_ROWS_MAX_BYTES}"
        )


def bfs_rows(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """int32 matrix of shape (len(sources), n); row i holds the distances from ``sources[i]``.

    Raises :class:`MemoryLimitError` before it allocates when the table
    would take more than ``BFS_ROWS_MAX_BYTES``, then checks every source's
    range before the first search.  A search that misses a vertex raises
    :class:`DisconnectedGraphError`.
    """
    _check_rows_budget(len(sources), g.n)
    for source in sources:
        if not (0 <= source < g.n):
            raise VertexRangeError(f"source {source} outside 0..{g.n - 1}")
    import numpy as np

    rows = np.empty((len(sources), g.n), dtype=np.int32)
    for r, source in enumerate(sources):
        row = [UNREACHABLE] * g.n
        if len(_bfs(g.adjacency, source, row)) < g.n:
            raise DisconnectedGraphError("graph is not connected")
        rows[r] = row
    return rows


def fingerprint_types(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal rows of the 2-d integer array ``cols``, one fingerprint per row.

    Returns (first, inverse, counts): for each of the T distinct
    fingerprints, the index of its first row and its number of rows, and
    for each row the index of its type.  Types come in an order fixed by
    the bytes of each fingerprint, not in numeric order.
    """
    import numpy as np

    # one opaque key per fingerprint: a 1-d np.unique over the keys is about
    # 15x faster than np.unique(axis=0), which compares rows field by field
    cols = np.ascontiguousarray(cols)
    keys = cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return first, inverse, counts


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(_bfs(g.adjacency, 0, [UNREACHABLE] * g.n)) == g.n


def eccentricity(g: Graph, v: int) -> int:
    """The largest distance from v: its BFS visits the farthest vertex last."""
    if not (0 <= v < g.n):
        raise VertexRangeError(f"vertex {v} outside 0..{g.n - 1}")
    dist = [UNREACHABLE] * g.n
    order = _bfs(g.adjacency, v, dist)
    if len(order) < g.n:
        raise DisconnectedGraphError("graph is not connected")
    return dist[order[-1]]


def naive_diameter(g: Graph) -> int:
    """The largest :func:`eccentricity`; the reference oracle for all solvers."""
    if g.n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    return max(eccentricity(g, v) for v in range(g.n))


def bounding_diameters(
    g: Graph,
    pen: Sequence[int],
    pool: Sequence[bool] | None = None,
    budget: int | Callable[[int], int] | None = None,
) -> tuple[int, dict[int, int], int, dict[int, array]]:
    """BoundingDiameters (Takes & Kosters, CIKM 2011) for a pen-weighted diameter.

    D = max over v != w of pen[v] + d(v, w) + pen[w] on a connected g, so D
    is the largest pen[v] + e(v), where e(v) = max over w != v of
    d(v, w) + pen[w] (0 on a lone vertex).  A BFS from u finds e(u) exactly
    and bounds every other vertex v:
    max(d(u, v) + pen[u], e(u) - d(u, v)) <= e(v) <= d(u, v) + max(e(u), pen[u]),
    except that when v is u's farthest weighted vertex the lower bound
    subtracts from the second-farthest instead, as v cannot count itself.

    The largest pen[v] + lower bound is a lower bound on D.  A candidate
    leaves once pen + its upper bound is at most that, and D is found once
    no candidate is left.  Sources alternate between the candidate of
    largest pen + upper bound and the one of smallest lower bound, and come
    from the candidates in the boolean mask ``pool`` while any is left.
    Ties go to the first in the candidates' order: higher degree first,
    then lower id.  Each pool source's distance row is kept as an int32
    ``array('i')`` while the kept rows fit ``BFS_ROWS_MAX_BYTES``.  With no
    ``pool`` and pen = 0 this is plain
    BoundingDiameters, and a vertex-transitive graph takes n passes.

    Stops after ``budget`` BFS passes at the latest, or, when ``budget`` is
    a function, after as many as it returns for the first source's e(u).
    Returns (best, left, passes, rows).  ``best`` is the largest pen + lower
    bound, so best <= D.  ``left`` maps each candidate still open, in
    ascending order, to its upper bound on e(v), and pen + that bound is
    above best; every other vertex v has pen[v] + e(v) <= best.  So left is
    empty exactly when the bounds have met, and then best = D; it is
    nonempty only when the budget ran out.  ``passes`` counts the BFS passes
    made and ``rows`` holds the kept distance rows by source.
    """
    n = g.n
    adjacency = g.adjacency
    top = max(pen, default=0)
    # The candidates in source order (pool, higher degree, lower id), so
    # the first max or min breaks ties, and columns aligned with them: pen,
    # the lower bound on e(v) and pen + the upper bound.  The first npool
    # candidates are the pool's.
    cand = sorted(range(n), key=list(map(len, adjacency)).__getitem__, reverse=True)
    npool = 0
    if pool is not None:
        cand.sort(key=pool.__getitem__, reverse=True)
        npool = sum(pool)
    c_pen = list(map(pen.__getitem__, cand))
    low = [0] * n
    pu = list(map(add, c_pen, repeat(n + top)))  # above every pen + e(v)
    rows: dict[int, array] = {}
    best, passes = top, 0  # the largest pen + lower bound while every low is 0
    while cand and passes != budget:
        scores = low if passes % 2 else pu
        head = scores[:npool] if npool else scores
        i = scores.index(min(head) if passes % 2 else max(head))
        source = cand[i]
        dist = [UNREACHABLE] * n
        if len(_bfs(adjacency, source, dist)) < n:
            raise DisconnectedGraphError("graph is not connected")
        passes += 1
        if i < npool:
            if 4 * (len(rows) + 1) * n <= BFS_ROWS_MAX_BYTES:
                rows[source] = array("i", dist)
            npool -= 1
        ps = pen[source]
        reach = list(map(add, dist, pen))
        reach[source] = 0  # below every other entry, and e = 0 when n = 1
        ecc = max(reach)
        far = reach.index(ecc)
        if callable(budget):
            budget = budget(ecc)
        # write only where a bound moves; in the long passes over graphs
        # that prune little, few do.  reach[v] is pen[v] + d(u, v)
        up_plus = max(ecc, ps)
        fall = list(compress(count(), map(
            lt, map(add, map(reach.__getitem__, cand), repeat(up_plus)), pu)))
        _put(pu, fall, map(add, map(reach.__getitem__, map(cand.__getitem__, fall)),
                           repeat(up_plus)))
        far_low = None
        if far in cand:
            j = cand.index(far)
            reach[far] = 0  # far cannot count itself: the second farthest
            far_low = max(low[j], dist[far] + ps, max(reach) - dist[far])
        # this pass's lower bound at distance x from the source
        low_at = list(map(max, range(ps, ps + ecc + 1), range(ecc, -1, -1))).__getitem__
        rise = list(compress(count(), map(gt, map(low_at, map(dist.__getitem__, cand)), low)))
        _put(low, rise, map(low_at, map(dist.__getitem__, map(cand.__getitem__, rise))))
        if far_low is not None:
            low[j] = far_low
            rise.append(j)
        low[i] = ecc
        best = max(
            best,
            ps + ecc,
            max(map(add, map(c_pen.__getitem__, rise), map(low.__getitem__, rise)), default=0),
        )
        # the source leaves: pen + its upper bound ecc is at most best
        for column in (cand, c_pen, low, pu):
            del column[i]
        if pu and min(pu) <= best:
            keep = list(map(gt, pu, repeat(best)))
            npool = sum(keep[:npool])
            cand, c_pen, low, pu = (
                list(compress(column, keep)) for column in (cand, c_pen, low, pu)
            )
    return best, dict(sorted(zip(cand, map(sub, pu, c_pen)))), passes, rows


def _put(target: list, at: Iterable[int], values: Iterable) -> None:
    """``target[i] = value`` for each index i of ``at`` and value of ``values``, at C speed."""
    deque(map(target.__setitem__, at, values), maxlen=0)


def solve_certified(g: Graph, trace: TraceSink = None) -> int:
    """Exact diameter: eccentricity bounds first, then :func:`_ms_bfs` over what they leave.

    :func:`bounding_diameters` with every pen 0 runs until its bounds meet or
    it has made 2e + 1 BFS passes, e being its first source's eccentricity.
    D <= 2e, so one kernel call makes at most that many rounds, each about
    as costly as one pass.  It returns its best lower bound and the
    candidates it leaves open, whose upper bound is above that best.  They
    are then searched in chunks of at most :func:`_ms_bfs_width` sources,
    largest upper bound first, and a chunk leaves out every candidate that
    the chunks before it have settled.
    When the memory budget does not fit one source, the bounds run with no
    pass budget until they meet, which is plain BoundingDiameters.

    ``trace`` gets one final event: the BFS passes, the candidates the
    bounds left, the kernel's chunks and its rounds summed over them, and
    the lower and upper bounds on the diameter, which are then equal.
    """
    n = g.n
    if n == 0:
        raise VertexRangeError("diameter undefined for the empty graph")
    width = _ms_bfs_width(n)
    budget = (lambda ecc: 2 * ecc + 1) if width else None
    best, left, passes, _ = bounding_diameters(g, [0] * n, budget=budget)
    cand = sorted(left, key=left.__getitem__, reverse=True)
    candidates = len(cand)
    chunks = rounds = 0
    while cand:
        parts = -(-len(cand) // width)
        size = -(-len(cand) // parts)  # equal chunks of at most width
        found = _ms_bfs(g.adjacency, n, cand[:size])
        chunks += 1
        rounds += found
        best = max(best, found)
        cand = [v for v in cand[size:] if left[v] > best]
    if trace is not None:
        trace({"passes": passes, "candidates": candidates, "chunks": chunks,
               "rounds": rounds, "lower": best, "upper": best})
    return best


def _bfs_forest(
    g: Graph, removed: Iterable[int] = ()
) -> tuple[list[int], list[list[int]]]:
    """One BFS per unreached root in ascending order, over one shared dist.

    The ``removed`` vertices are walls: they join no tree and stop every
    search, so the trees are the components of G minus them.  Returns the
    distance of each vertex from its tree's root and the vertices of each
    tree in visiting order.
    """
    dist = [UNREACHABLE] * g.n
    for x in removed:
        dist[x] = 0
    trees = [
        _bfs(g.adjacency, root, dist)
        for root in range(g.n)
        if dist[root] == UNREACHABLE
    ]
    return dist, trees


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[int]:
    """Component labels of G minus ``removed``, which are labelled -1.

    labels[v] == labels[u] iff u, v are connected outside ``removed``.
    Labels are consecutive integers starting at 0, assigned in order of the
    smallest vertex of each component.
    """
    labels = [-1] * g.n
    for label, tree in enumerate(_bfs_forest(g, removed)[1]):
        for v in tree:
            labels[v] = label
    return labels


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced by ``vertices``; returns (subgraph, old-id order).

    New vertex i corresponds to the i-th smallest member of ``vertices``.
    """
    order = sorted(set(vertices))
    for v in order:
        if not (0 <= v < g.n):
            raise VertexRangeError(f"vertex {v} outside 0..{g.n - 1}")
    new_id = {v: i for i, v in enumerate(order)}
    adjacency = []
    m = 0
    for v in order:
        # new ids keep the old order, so each filtered row stays sorted
        row = tuple(map(new_id.__getitem__, filter(new_id.__contains__, g.adjacency[v])))
        m += len(row)
        adjacency.append(row)
    return Graph(len(order), tuple(adjacency), m // 2), order


# ---------------------------------------------------------------------------
# Edge-list text interchange: '#' comments, "n m" header, then m "u v" lines.

# Texts whose header declares at least this many edges are parsed with
# numpy, smaller ones into lists, which saves importing numpy (60-85 ms and
# 13 MB in a fresh process) but costs more per edge.  Measured as
# spawn-to-exit medians of 15 alternating `paramdiam solve --algo fes`
# processes per size, on trees plus 50 edges with a shared 2-CPU machine,
# lists minus numpy: -38 ms at 30k edges, -21 ms at 40k, +15 ms at 50k,
# +31 ms at 60k and +64 ms at 80k.
LIST_PARSE_MAX_EDGES = 45_000

# The header row: a first "n m" after blank and comment lines.  Only its m
# is read, to pick the parser; either parser checks the whole text.
_HEADER = re.compile(r"\s*(?:#[^\r\n]*\s*)*[+-]?[0-9]+[^\S\r\n]+([+-]?[0-9]+)")
_COMMENT = re.compile(r"#[^\r\n]*")
_TOKEN = re.compile(r"[+-]?[0-9]+")


def parse_edge_list(text: str, connected: bool = False) -> Graph:
    r"""Parse edge-list text into a validated Graph.

    The grammar is whitespace-separated rows of decimal integers with an
    optional sign: a first row ``n m``, then exactly m ``u v`` rows.  A
    ``#`` starts a comment to the end of its line, blank lines are skipped,
    and ``\n``, ``\r\n`` and ``\r`` all end a line.  Anything else, such as
    ``1.0``, ``0x1`` or ``1_000``, raises :class:`EdgeListParseError`;
    an invalid graph raises what :func:`bulk.from_edge_list` raises.

    A header declaring fewer than ``LIST_PARSE_MAX_EDGES`` edges is parsed
    without numpy.  The list parser checks, in this order:

    1. the text: not empty, two fields on every row, decimal int64 tokens,
       and as many edge rows as the header declares;
    2. the vertex count n, which must fit 0..2**31 - 1;
    3. the edges: the first faulty one in input order raises, for an
       endpoint out of range, a self-loop or a duplicate edge;
    4. with ``connected``, a header of n >= 2 vertices and fewer than n - 1
       edges raises :class:`DisconnectedGraphError` before any per-vertex
       allocation: no such graph is connected, whatever its edges.

    The list parser reads the text in chunks cut at line ends.  It splits
    each line once, into the fields it counts and reads as ints, checks
    their range and self-loops and appends each edge to the rows; a
    duplicate edge shows as a row with a repeated neighbour.  At the first
    anomaly it stops, and ``bulk._raise_first_error`` walks the same chunks
    again, without building, and raises in the order above; a text it
    finds clean, refused only for a vertex id of at least the text's count
    of digits, is built by the chunked walk again.  The numpy parser reads
    one int64 array and drops the text, sorts one array of edge keys, finds
    duplicate edges in it and drops the int64 array before it cuts the
    rows, with the same graph checks in the same order.  A text that is not
    ASCII, that ``np.loadtxt`` refuses or whose rows are not a header and
    m two-field rows goes to the list parser, so either route raises the
    same error with the same message.  Only the graph outlives the call.
    """
    header = _HEADER.match(text)
    if header is not None and int(_unpad(header[1])[:20]) >= LIST_PARSE_MAX_EDGES:
        from .bulk import _parse_with_numpy

        # hand the text over, so that the numpy parse holds its only
        # reference (the header match holds one too) and drops it once read
        held = [text]
        del text, header
        return _parse_with_numpy(held.pop(), connected)
    return _parse_with_lists(text, connected)


def _parse_with_lists(text: str, connected: bool = False) -> Graph:
    if "#" in text:
        text = _COMMENT.sub("", text)
    # int() also takes '_' between digits and non-ASCII digits; the token
    # pattern is checked only when the text holds either
    grammar = not text.isascii() or "_" in text
    # every vertex that ends an edge is written with one digit at least, so
    # an id of at least the text's digit count leaves vertices out of every
    # edge; such a text is judged whole before a row is built for it, so a
    # faulty text with few digits never builds rows for the n of its
    # header, however much whitespace pads it
    g = _parse_in_chunks(text, grammar, connected, sum(map(text.count, "0123456789")))
    if g is None:
        from .bulk import _raise_first_error

        _raise_first_error(text, grammar, connected)  # returns for a clean text only
        g = _parse_in_chunks(text, grammar, connected, MAX_VERTICES)
    return g


# Characters per chunk of _lines, which cuts each at the next line end
_CHUNK_CHARS = 1 << 11


def _lines(text: str) -> Iterator[list[str]]:
    r"""The lines of ``text``, a chunk of them at a time; ``\n``, ``\r\n`` and ``\r`` end one."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:stop].split("\n")
        start = stop


def _chunks(text: str) -> Iterator[list[list[str]]]:
    """The fields of the nonblank lines of ``text``, a chunk of lines at a time."""
    return (list(filter(None, map(str.split, lines))) for lines in _lines(text))


def _ints(rows: list[list[str]], grammar: bool) -> list[int]:
    """The ints of the tokens in ``rows``; ValueError for a token off the edge-list grammar.

    With ``grammar`` every token must match ``_TOKEN`` as well.  int()
    refuses more than ``sys.get_int_max_str_digits()`` digits even when they
    are leading zeros, which numpy reads, so only when it refuses a token are
    those longer than any int64 needs unpadded.
    """
    if grammar and not all(map(_TOKEN.fullmatch, chain.from_iterable(rows))):
        raise ValueError("a token is no decimal integer")
    try:
        return list(map(int, chain.from_iterable(rows)))
    except ValueError:
        return [int(_unpad(t) if len(t) > 20 else t) for t in chain.from_iterable(rows)]


def _parse_in_chunks(text: str, grammar: bool, connected: bool, far: int) -> Graph | None:
    """The graph of a clean edge-list text, or None at the first anomaly.

    Walks :func:`_chunks` of the text.  A chunk's ints are checked for range
    and self-loops while they are still Python ints, then each edge goes
    into both its rows, each end as the one int per vertex that the rows
    share.  The rows grow only as far as the largest vertex read until the
    whole text is read.  A text or edge error, a header that fails the
    vertex count or, with ``connected``, has too few edges, a vertex id of
    at least ``far`` or a duplicate edge, which shows as a row with a
    repeated neighbour, gives None.
    """
    ids: list[int] = []
    adjacency: list[list[int]] = []
    n = m = None
    edges = 0
    for rows in _chunks(text):
        if set(map(len, rows)) - {2}:
            return None
        try:
            ints = _ints(rows, grammar)
        except ValueError:
            return None
        del rows
        if not ints:
            continue
        if n is None:
            n, m, *ints = ints
            if not 0 <= n <= MAX_VERTICES or connected and m < n - 1:
                return None
        us, vs = ints[0::2], ints[1::2]
        top = max(ints, default=-1)
        if min(ints, default=0) < 0 or top >= n or any(map(eq, us, vs)) or top >= far:
            return None
        del ints
        edges += len(us)
        ids += range(len(ids), top + 1)
        adjacency += [[] for _ in range(len(adjacency), top + 1)]
        for ends, others in ((us, vs), (vs, us)):
            # no map over ids outlives the loop, so del ids below frees it
            ends = map(adjacency.__getitem__, ends)
            deque(map(list.append, ends, map(ids.__getitem__, others)), maxlen=0)
    if n is None or edges != m:
        return None
    ids += range(len(ids), n)
    adjacency += [[] for _ in range(len(adjacency), n)]
    del ids
    if sum(map(len, map(set, adjacency))) < 2 * m:
        return None
    # each row list becomes its sorted tuple in place, popped from the end,
    # so no list of lists lives beside the tuple of tuples
    deque(map(list.sort, adjacency), maxlen=0)
    adjacency.reverse()
    return Graph(n, tuple(map(tuple, map(adjacency.pop, repeat(-1, n)))), m)


def _unpad(token: str) -> str:
    """``token`` without the leading zeros of its digits."""
    signed = token[0] in "+-"
    return token[:signed] + (token[signed:].lstrip("0") or "0")


def format_edge_list(g: Graph, comment: str | None = None) -> str:
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"{g.n} {g.m}")
    for u, v in g.edges():
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def load_edge_list(path: str, connected: bool = False) -> Graph:
    """:func:`parse_edge_list` of the file at ``path``."""
    return parse_edge_list(_read_text(path, EdgeListParseError), connected)


def _read_text(path: str, error: type[ParamDiamError]) -> str:
    """The text of the UTF-8 file at ``path``; raises ``error`` if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc}") from None


def save_edge_list(g: Graph, path: str, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g, comment))
