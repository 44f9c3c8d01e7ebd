import functools
import io
import math
import random
import time
import tracemalloc
import warnings
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListParseError,
    Graph,
    GraphInputError,
    MemoryLimitError,
    SelfLoopError,
    VertexRangeError,
    format_edge_list,
    from_edge_list,
    naive_diameter,
    parse_edge_list,
    solve_certified,
)
from paramdiam.constructions import (
    CnfFormula,
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
    sat_to_diameter,
)
import paramdiam.bulk
import paramdiam.graph
from paramdiam.bulk import _lines, _parse_with_numpy
from paramdiam.graph import (
    _CHUNK_CHARS,
    UNREACHABLE,
    _bfs,
    _ms_bfs,
    _ms_bfs_width,
    _parse_with_lists,
    bfs_rows,
    connected_components,
    eccentricity,
    induced_subgraph,
    is_connected,
)
from oracles import (
    bfs,
    components_union_find,
    diameter_floyd,
    edge_list_reference,
    floyd_warshall,
    girth,
    is_bipartite,
    parse_edge_list_reference,
)


# the two edge-list parsers behind parse_edge_list, which picks one by the
# header's edge count; both implement one grammar
PARSERS = (_parse_with_lists, _parse_with_numpy)


def graphs(max_n=12, connected_only=False):
    """Hypothesis strategy for small simple graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = from_edge_list(picked, n)
        if connected_only and not is_connected(g):
            # wire consecutive components together with a path
            labels = connected_components(g)
            extra = set(picked)
            reps = {}
            for v, lab in enumerate(labels):
                reps.setdefault(lab, v)
            rep_list = [reps[lab] for lab in sorted(reps)]
            for a, b in zip(rep_list, rep_list[1:]):
                extra.add((min(a, b), max(a, b)))
            g = from_edge_list(sorted(extra), n)
        return g

    return build()


FUZZ_ALPHABET = "0123456789+-#abxzE \t\r\n"


@st.composite
def edge_list_texts(draw):
    """Edge-list texts: free text over FUZZ_ALPHABET, or the text of a small
    graph with up to three runs of FUZZ_ALPHABET characters put in."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=FUZZ_ALPHABET, max_size=60))
    text = format_edge_list(draw(graphs(max_n=6)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.text(alphabet=FUZZ_ALPHABET, max_size=3)) + text[at + cut:]
    return text


class TestConstruction:
    def test_basic(self):
        g = from_edge_list([(0, 1), (1, 2)], 3)
        assert g.n == 3 and g.m == 2
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            from_edge_list([(1, 1)], 3)

    def test_duplicate(self):
        with pytest.raises(DuplicateEdgeError):
            from_edge_list([(0, 1), (1, 0)], 3)

    def test_out_of_range(self):
        with pytest.raises(VertexRangeError):
            from_edge_list([(0, 3)], 3)
        with pytest.raises(VertexRangeError):
            from_edge_list([(-1, 0)], 3)

    def test_first_faulty_edge_names_the_error(self):
        with pytest.raises(SelfLoopError):
            from_edge_list([(1, 1), (0, 5)], 3)
        with pytest.raises(DuplicateEdgeError, match=r"\(1, 0\)"):
            from_edge_list([(0, 1), (1, 0), (2, 2)], 3)
        for parse in PARSERS:
            with pytest.raises(SelfLoopError):
                parse("3 2\n1 1\n0 5\n")
            with pytest.raises(DuplicateEdgeError, match=r"\(1, 0\)"):
                parse("3 3\n0 1\n1 0\n2 2\n")

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (2,)],
            [(0, 1, 2)],
            [(0.5, 1)],
            [(0, 1.0)],
            [("0", "1")],
            ["01"],
            [0, 1],
            np.array([[0.0, 1.0]]),
        ],
        ids=["ragged", "triple", "float", "integral-float", "strings", "string-pair", "flat", "float-array"],
    )
    def test_rejects_a_pair_that_is_not_two_integers(self, edges):
        with pytest.raises(GraphInputError, match="pairs"):
            from_edge_list(edges, 3)

    def test_accepts_numpy_integers(self):
        want = from_edge_list([(0, 1), (1, 2)], 3).adjacency
        assert from_edge_list([(np.int32(0), np.int64(1)), (np.uint8(1), 2)], 3).adjacency == want
        assert from_edge_list(np.array([[0, 1], [1, 2]]), 3).adjacency == want
        assert from_edge_list(np.array([[0, 1], [1, 2]], dtype=np.uint16), 3).adjacency == want
        assert from_edge_list(np.empty((0, 2), dtype=np.int64), 1).m == 0

    def test_rejects_vertex_count_above_int32(self):
        tracemalloc.start()
        try:
            with pytest.raises(VertexRangeError):
                from_edge_list([], 3_000_000_000)
            for parse in PARSERS:
                with pytest.raises(VertexRangeError):
                    parse("3000000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # rejected before any per-vertex allocation

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=12),
                st.just(n),
            )
        )
    )
    def test_matches_per_edge_reference(self, case):
        edges, n = case
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        for build in (lambda: from_edge_list(edges, n), lambda: _parse_with_lists(text)):
            try:
                want = edge_list_reference(edges, n)
            except GraphInputError as exc:
                with pytest.raises(type(exc)) as got:
                    build()
                assert str(got.value) == str(exc)
            else:
                g = build()
                assert (g.adjacency, g.m, g.n) == (*want, n)


class TestBfsAndDiameter:
    def test_path_distances(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        assert bfs(g, 0) == (0, 1, 2, 3)
        assert eccentricity(g, 1) == 2
        assert naive_diameter(g) == 3

    def test_single_vertex(self):
        g = from_edge_list([], 1)
        assert naive_diameter(g) == 0
        assert eccentricity(g, 0) == 0

    @pytest.mark.parametrize("v", [-1, 4])
    def test_eccentricity_rejects_a_vertex_out_of_range(self, v):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        with pytest.raises(VertexRangeError):
            eccentricity(g, v)

    def test_disconnected_markers(self):
        g = from_edge_list([(0, 1)], 3)
        assert bfs(g, 0) == (0, 1, UNREACHABLE)
        assert not is_connected(g)
        with pytest.raises(DisconnectedGraphError):
            naive_diameter(g)

    @settings(max_examples=150, deadline=None)
    @given(graphs(connected_only=True))
    def test_matches_floyd_warshall(self, g):
        assert naive_diameter(g) == diameter_floyd(g)

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.data())
    def test_bfs_symmetric_and_triangle(self, g, data):
        dist = [bfs(g, v) for v in range(g.n)]
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.integers(0, g.n - 1))
        w = data.draw(st.integers(0, g.n - 1))
        assert dist[u][v] == dist[v][u]
        if dist[u][w] != UNREACHABLE and dist[w][v] != UNREACHABLE:
            assert dist[u][v] != UNREACHABLE
            assert dist[u][v] <= dist[u][w] + dist[w][v]


class TestBfsKernel:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_matches_oracle_within_depth(self, g, data):
        source = data.draw(st.integers(0, g.n - 1))
        ref = floyd_warshall(g)[source]
        for depth in (None, 0, 1, 2, 3):
            dist = [UNREACHABLE] * g.n
            order = _bfs(g.adjacency, source, dist, depth)
            for v in range(g.n):
                within = ref[v] != float("inf") and (depth is None or ref[v] <= depth)
                assert dist[v] == (int(ref[v]) if within else UNREACHABLE)
            assert order[0] == source
            assert sorted(order) == [v for v in range(g.n) if dist[v] != UNREACHABLE]
            layers = [dist[v] for v in order]
            assert layers == sorted(layers)

    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_shared_dist_reproduces_union_find(self, g):
        dist = [UNREACHABLE] * g.n
        labels = [None] * g.n
        label = 0
        for root in range(g.n):
            if dist[root] == UNREACHABLE:
                for v in _bfs(g.adjacency, root, dist):
                    assert labels[v] is None
                    labels[v] = label
                label += 1
        assert labels == components_union_find(g)


def best_of_three(fn, g):
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        fn(g)
        best = min(best, time.perf_counter() - start)
    return best


def circulant(n, offsets):
    """Vertex i joined to i + j (mod n) for j in 1..offsets: every vertex
    looks alike, so no eccentricity bound prunes anything."""
    return from_edge_list(
        [(i, (i + j) % n) for i in range(n) for j in range(1, offsets + 1)], n
    )


def circular_ladder(rungs, subdivisions=1):
    """Prism over a rungs-cycle, each edge a path of ``subdivisions`` edges:
    every branch vertex has the same eccentricity, so no bound settles one
    without a BFS of its own."""
    edges = []
    for i in range(rungs):
        j = (i + 1) % rungs
        edges += [(2 * i, 2 * j), (2 * i + 1, 2 * j + 1), (2 * i, 2 * i + 1)]
    n = 2 * rungs
    paths = []
    for u, v in edges:
        chain = [u, *range(n, n + subdivisions - 1), v]
        n += subdivisions - 1
        paths += zip(chain, chain[1:])
    return from_edge_list(paths, n)


def random_3cnf(num_vars, clauses, seed):
    rng = random.Random(seed)
    return CnfFormula(num_vars, tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(clauses)
    ))


def bounded_corpus():
    """Seeded instances of every family and construction, small enough for
    Floyd-Warshall."""
    graphs = [gen_tree_plus_k(n, k, seed) for seed, (n, k) in
              enumerate(((2, 0), (30, 0), (40, 3), (60, 8)))]
    graphs += [gen_connected_er(n, p, seed) for seed, (n, p) in
               enumerate(((10, 0.5), (25, 0.15), (40, 0.1)))]
    graphs += [gen_random_cograph_plus(n, extra, seed) for seed, (n, extra) in
               enumerate(((20, 0), (30, 2), (40, 3)))]
    graphs += [bipartite_girth_construction(gen_connected_er(12, 0.3, seed)).graph
               for seed in range(2)]
    graphs += [bisection_construction(gen_tree_plus_k(12, 2, seed)).graph
               for seed in range(2)]
    graphs += [sat_to_diameter(f).graph for f in (
        CnfFormula(2, ((1, -2), (-1, 2))),
        CnfFormula(1, ((1,), (-1,))),
        CnfFormula(4, ((1, -2, 3), (-1, 2, -4), (2, 3, 4), (-3, -4, 1))),
    )]
    return graphs


def solve_bounds_alone(g, trace=None):
    """:func:`solve_certified` with a memory budget that fits no MS-BFS
    source: plain BoundingDiameters, run until the bounds meet."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("paramdiam.graph.MS_BFS_MAX_BYTES", 0)
        assert g.n == 0 or _ms_bfs_width(g.n) == 0
        return solve_certified(g, trace)


class TestSolveBounded:
    """The route of :func:`solve_certified` that runs the bounds alone."""

    @pytest.mark.parametrize("g", bounded_corpus())
    def test_seeded_corpus_matches_both_oracles(self, g):
        events = []
        got = solve_bounds_alone(g, events.append)
        assert got == naive_diameter(g) == diameter_floyd(g)
        (event,) = events
        assert event["lower"] == event["upper"] == got
        assert event["candidates"] == event["chunks"] == event["rounds"] == 0
        assert 1 <= event["passes"] <= g.n

    def test_seeded_corpus_passes_unchanged(self):
        # recorded before the loop took weights, a source pool and a budget;
        # with pen = 0 and none of them it must pick the same sources
        passes = []
        for g in bounded_corpus():
            events = []
            solve_bounds_alone(g, events.append)
            passes.append(events[0]["passes"])
        assert passes == [2, 4, 7, 6, 4, 3, 14, 3, 3, 6, 19, 8, 4, 4, 3, 6, 3]

    @settings(max_examples=150, deadline=None)
    @given(graphs(connected_only=True))
    def test_matches_floyd_warshall(self, g):
        assert solve_bounds_alone(g) == naive_diameter(g) == diameter_floyd(g)

    @pytest.mark.parametrize("g", [
        circulant(7, 1), circulant(8, 1), circulant(30, 1), circulant(31, 1),
        circulant(40, 3), from_edge_list([(i, j) for i in range(6) for j in range(i)], 6),
    ], ids=["C7", "C8", "C30", "C31", "C40-3", "K6"])
    def test_vertex_transitive(self, g):
        assert solve_bounds_alone(g) == naive_diameter(g) == diameter_floyd(g)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")

        @settings(max_examples=150, deadline=None)
        @given(graphs(max_n=30, connected_only=True))
        def check(g):
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            assert solve_bounds_alone(g) == nx.diameter(ref)

        check()

    def test_single_vertex(self):
        assert solve_bounds_alone(from_edge_list([], 1)) == 0

    def test_rejects_empty_graph(self):
        with pytest.raises(VertexRangeError):
            solve_bounds_alone(from_edge_list([], 0))

    def test_rejects_disconnected_graph(self):
        with pytest.raises(DisconnectedGraphError):
            solve_bounds_alone(from_edge_list([(0, 1), (2, 3)], 4))


def test_much_faster_than_naive_on_thm6():
    g = sat_to_diameter(random_3cnf(12, 50, 0)).graph
    assert solve_bounds_alone(g) == naive_diameter(g)
    assert 5 * best_of_three(solve_bounds_alone, g) <= best_of_three(naive_diameter, g)


def test_no_pruning_within_a_quarter_of_naive():
    g = circulant(500, 21)
    assert solve_bounds_alone(g) == naive_diameter(g)
    assert best_of_three(solve_bounds_alone, g) <= 1.25 * best_of_three(naive_diameter, g)


def test_no_pruning_takes_at_most_n_passes(monkeypatch):
    """The pass count behind the timing gate above: one BFS per vertex at
    most, each one a kernel call."""
    g = circulant(500, 21)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _bfs(*args, **kwargs)

    monkeypatch.setattr("paramdiam.graph._bfs", counted)
    events = []
    solve_bounds_alone(g, events.append)
    (event,) = events
    assert event["lower"] == event["upper"]
    assert event["passes"] == len(calls) <= g.n


def parse_peak_over_graph(parse, text):
    """The tracemalloc peak of ``parse(text)`` over the traced size of the graph it returns."""
    parse(text)  # first-call set-up, such as numpy's lazy imports, is not measured
    # Hold 2000 new tuples of each size up to 20, more than the interpreter's
    # tuple free lists keep, so that every row of the graph is a traced
    # allocation whatever earlier code freed.
    held = [tuple([None] * k) for k in range(1, 21) for _ in range(2000)]
    tracemalloc.start()
    try:
        g = parse(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del held, g
    return peak / size


@functools.cache
def sparse_text():
    """The 206 KiB text of gen_tree_plus_k(20000, 300, 1): 20,299 edge rows."""
    return format_edge_list(gen_tree_plus_k(20000, 300, 1))


# Deterministic memory gates.  On gen_tree_plus_k(20000, 300, 1) the ratio
# reads 3.89 through lists and 2.11 through numpy when every parse
# temporary lives to the end of the call, 1.98 and 1.64 when each is
# dropped after its step, and 1.61 and 1.39 when, besides, the list parse
# reads its values into one int64 array, its rows share one int per vertex
# and the numpy rows are sliced at int64 bounds.  Reading the text in
# 2 KiB chunks straight into the rows takes the list ratio to 1.49, and
# that of the dense text of gen_random_cograph_plus(400, 0, 0), 62,109
# edges, from 8.15 to 1.17.  Sharing one int per vertex in the numpy rows
# too takes the numpy ratio to 1.51, as the same temporaries sit over a
# smaller graph; cutting the rows a chunk at a time from int32 neighbours,
# with the loadtxt array dropped first, takes it to 1.34 (Python 3.11).
@pytest.mark.parametrize(
    "parse, bound", [(_parse_with_lists, 1.75), (_parse_with_numpy, 1.4)]
)
def test_parse_peaks_near_the_graph_it_returns(parse, bound):
    assert parse_peak_over_graph(parse, sparse_text()) <= bound


def test_dense_list_parse_peaks_near_the_graph_it_returns():
    text = format_edge_list(gen_random_cograph_plus(400, 0, 0))
    assert parse_peak_over_graph(_parse_with_lists, text) <= 3.0


def test_list_parsed_rows_share_one_int_per_vertex():
    g = _parse_with_lists(sparse_text())
    entries = list(chain.from_iterable(g.adjacency))
    assert len(set(map(id, entries))) == len(set(entries)) == g.n


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="01 #\n\r\x0b\x85", max_size=40), st.integers(0, 8))
def test_numpy_parse_reads_the_lines_stringio_gives(text, chunk):
    # loadtxt numbers the rows of its errors by these lines
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(paramdiam.bulk, "_LINE_CHARS", chunk)
        got = list(chain.from_iterable(_lines(text)))
    assert got == [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]


@pytest.mark.parametrize("build", [
    lambda: _parse_with_numpy(sparse_text()),
    lambda: gen_tree_plus_k(20000, 300, 1),
], ids=["parsed", "generated"])
def test_numpy_parsed_rows_share_one_int_per_vertex(build):
    g = build()
    entries = list(chain.from_iterable(g.adjacency))
    assert len(set(map(id, entries))) == len(set(entries)) == g.n


def grid(rows, cols):
    """The rows x cols grid graph, vertex r * cols + c at row r and column c."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return from_edge_list(edges, rows * cols)


def torus(rows, cols):
    """The rows x cols grid with wrap-around edges: vertex-transitive."""
    edges = [(v, v - v % cols + (v + 1) % cols) for v in range(rows * cols)]
    edges += [(v, (v + cols) % (rows * cols)) for v in range(rows * cols)]
    return from_edge_list(edges, rows * cols)


class TestMsBfs:
    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=14), st.data())
    def test_matches_the_largest_bfs_row(self, g, data):
        # repeated sources included
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n))
        if is_connected(g):
            want = max(max(bfs(g, s)) for s in sources)
            assert _ms_bfs(g.adjacency, g.n, sources) == want
        else:
            with pytest.raises(DisconnectedGraphError):
                _ms_bfs(g.adjacency, g.n, sources)

    def test_working_state_fits_the_memory_budget(self, monkeypatch):
        budget = 2 * 2**20
        monkeypatch.setattr("paramdiam.graph.MS_BFS_MAX_BYTES", budget)
        g = gen_tree_plus_k(2000, 6000, 1)
        width = _ms_bfs_width(g.n)
        assert 0 < width < g.n
        sources = list(range(width))
        tracemalloc.start()
        try:
            _ms_bfs(g.adjacency, g.n, sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget


def count_kernel_calls(monkeypatch):
    """Count the calls of both traversal kernels from here on: the sources
    of each ``_bfs`` call, and the number of ``_ms_bfs`` calls."""
    calls = {"bfs": [], "ms_bfs": 0}

    def bfs_counted(*args, **kwargs):
        calls["bfs"].append(args[1])
        return _bfs(*args, **kwargs)

    def ms_bfs_counted(*args):
        calls["ms_bfs"] += 1
        return _ms_bfs(*args)

    monkeypatch.setattr("paramdiam.graph._bfs", bfs_counted)
    monkeypatch.setattr("paramdiam.graph._ms_bfs", ms_bfs_counted)
    return calls


class TestSolveCertified:
    @pytest.mark.parametrize("g", bounded_corpus())
    def test_seeded_corpus_matches_both_oracles(self, g):
        events = []
        got = solve_certified(g, events.append)
        assert got == naive_diameter(g) == diameter_floyd(g)
        (event,) = events
        assert set(event) == {"passes", "candidates", "chunks", "rounds", "lower", "upper"}
        assert event["lower"] == event["upper"] == got
        assert 1 <= event["passes"] <= g.n

    @settings(max_examples=150, deadline=None)
    @given(graphs(connected_only=True))
    def test_matches_floyd_warshall(self, g):
        assert solve_certified(g) == diameter_floyd(g)

    def test_single_vertex(self):
        assert solve_certified(from_edge_list([], 1)) == 0

    def test_rejects_empty_graph(self):
        with pytest.raises(VertexRangeError):
            solve_certified(from_edge_list([], 0))

    def test_rejects_disconnected_graph(self):
        with pytest.raises(DisconnectedGraphError):
            solve_certified(from_edge_list([(0, 1), (2, 3)], 4))

    def test_stalled_bounds_hand_over_to_one_chunk(self, monkeypatch):
        """Where the bounds alone make over a thousand passes, the route
        makes at most 2 ecc(first source) + 1, then one kernel call."""
        g = gen_tree_plus_k(5000, 15000, 1)
        want = naive_diameter(g)
        calls = count_kernel_calls(monkeypatch)
        events = []
        assert solve_certified(g, events.append) == want
        (event,) = events
        passes, first = len(calls["bfs"]), calls["bfs"][0]
        assert calls["ms_bfs"] == event["chunks"] == 1
        assert event["passes"] == passes <= 2 * max(bfs(g, first)) + 1

    @pytest.mark.parametrize("g, passes, candidates, rounds", [
        (circular_ladder(300), 303, 297, 151), (torus(30, 30), 61, 839, 30),
    ], ids=["prism-600", "torus-30x30"])
    def test_vertex_transitive_counts_unchanged(self, g, passes, candidates, rounds):
        """The count gate beside the timing gates: on graphs where no bound
        prunes, the route makes 2e + 1 passes, then one kernel chunk whose
        rounds are the diameter."""
        events = []
        assert solve_certified(g, events.append) == rounds
        assert events == [{"passes": passes, "candidates": candidates, "chunks": 1,
                           "rounds": rounds, "lower": rounds, "upper": rounds}]

    def test_settled_bounds_call_no_kernel(self, monkeypatch):
        g = grid(60, 60)
        want = naive_diameter(g)
        bounded = []
        solve_bounds_alone(g, bounded.append)
        calls = count_kernel_calls(monkeypatch)
        events = []
        assert solve_certified(g, events.append) == want
        (event,) = events
        assert event["passes"] == len(calls["bfs"]) == bounded[0]["passes"]
        assert calls["ms_bfs"] == event["chunks"] == event["candidates"] == 0

    def test_small_memory_budget_takes_several_chunks(self, monkeypatch):
        g = gen_connected_er(300, 0.03, 1)
        want = naive_diameter(g)
        monkeypatch.setattr("paramdiam.graph.MS_BFS_MAX_BYTES", g.n * (512 + 12))
        assert _ms_bfs_width(g.n) == 30
        calls = count_kernel_calls(monkeypatch)
        events = []
        assert solve_certified(g, events.append) == want
        assert calls["ms_bfs"] == events[0]["chunks"] >= 2

    def test_budget_below_one_bit_per_vertex_keeps_bounding(self, monkeypatch):
        g = gen_connected_er(300, 0.03, 1)
        bounded = []
        want = solve_bounds_alone(g, bounded.append)
        monkeypatch.setattr("paramdiam.graph.MS_BFS_MAX_BYTES", g.n // 8 - 1)
        assert _ms_bfs_width(g.n) == 0
        calls = count_kernel_calls(monkeypatch)
        events = []
        assert solve_certified(g, events.append) == want
        (event,) = events
        assert event["passes"] == bounded[0]["passes"]
        assert calls["ms_bfs"] == event["chunks"] == event["candidates"] == 0


class TestBfsRows:
    @settings(max_examples=150, deadline=None)
    @given(graphs(connected_only=True), st.data())
    def test_rows_equal_bfs(self, g, data):
        sources = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        rows = bfs_rows(g, sources)
        assert rows.dtype == np.int32
        assert rows.shape == (len(sources), g.n)
        for row, s in zip(rows, sources):
            assert tuple(row.tolist()) == bfs(g, s)

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_every_search_decides_connectivity(self, g, data):
        """A search on a disconnected graph raises."""
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n))
        if is_connected(g):
            assert bfs_rows(g, sources).min() >= 0
        else:
            with pytest.raises(DisconnectedGraphError):
                bfs_rows(g, sources)

    def test_no_sources(self):
        g = from_edge_list([(0, 1)], 3)
        assert bfs_rows(g, []).shape == (0, 3)

    def test_rejects_bad_source(self):
        g = from_edge_list([(0, 1)], 3)
        with pytest.raises(VertexRangeError):
            bfs_rows(g, [0, 3])

    def test_memory_limit_is_checked_before_any_search(self, monkeypatch):
        g = from_edge_list([(0, 1), (1, 2)], 3)
        monkeypatch.setattr("paramdiam.graph.BFS_ROWS_MAX_BYTES", 4 * 2 * 3)
        assert bfs_rows(g, [0, 2]).shape == (2, 3)  # exactly at the limit
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(MemoryLimitError, match="BFS_ROWS_MAX_BYTES"):
            bfs_rows(g, [0, 1, 2])
        assert calls["bfs"] == []
        with pytest.raises(MemoryLimitError):
            bfs_rows(g, [0, 9, 1])  # before the range check


class TestComponents:
    def test_labels_in_smallest_vertex_order(self):
        g = from_edge_list([(2, 3), (0, 4)], 5)
        assert connected_components(g) == [0, 1, 2, 2, 0]

    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_matches_union_find(self, g):
        assert connected_components(g) == components_union_find(g)

    def test_removed_vertices_are_walls(self):
        # path 0-1-2-3-4 without 2: two components, -1 on the wall
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        assert connected_components(g, {2}) == [0, 0, -1, 1, 1]

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_removed_matches_induced_copy(self, g, data):
        removed = data.draw(st.sets(st.integers(0, g.n - 1)))
        rest = [v for v in range(g.n) if v not in removed]
        sub, order = induced_subgraph(g, rest)
        want = [-1] * g.n
        for i, lab in enumerate(connected_components(sub)):
            want[order[i]] = lab
        assert connected_components(g, removed) == want


class TestBipartiteAndGirth:
    def test_even_cycle(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        assert is_bipartite(g)
        assert girth(g) == 4

    def test_odd_cycle(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        assert not is_bipartite(g)
        assert girth(g) == 3

    def test_forest_has_no_girth(self):
        g = from_edge_list([(0, 1), (1, 2)], 4)
        assert girth(g) is None
        assert is_bipartite(g)

    def test_even_cycle_found_after_longer_odd_cycle(self):
        # the first BFS, from 0, sees the 5-cycle; the 4-cycle 5-6-7-8 needs
        # depth 2 from its own vertices, which (5 - 1) // 2 still allows
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)]
        edges += [(5, 6), (6, 7), (7, 8), (8, 5)]
        assert girth(from_edge_list(edges, 9)) == 4

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=9))
    def test_bipartite_matches_two_colouring(self, g):
        colourable = any(
            all(colour[u] != colour[v] for u, v in g.edges())
            for colour in product((0, 1), repeat=g.n)
        )
        assert is_bipartite(g) == colourable

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=9))
    def test_girth_matches_enumeration(self, g):
        from itertools import combinations, permutations

        adj = [set(a) for a in g.adjacency]

        def has_cycle_of_size(size):
            for sub in combinations(range(g.n), size):
                for perm in permutations(sub[1:]):
                    cyc = (sub[0],) + perm
                    if all(cyc[(i + 1) % size] in adj[cyc[i]] for i in range(size)):
                        return True
            return False

        best = next((s for s in range(3, g.n + 1) if has_cycle_of_size(s)), None)
        assert girth(g) == best


class TestInducedSubgraph:
    def test_relabels_and_reports_order(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3)], 4)
        sub, order = induced_subgraph(g, [3, 1, 2])
        assert order == [1, 2, 3]
        assert sub.n == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_rejects_bad_vertex(self):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(VertexRangeError):
            induced_subgraph(g, [0, 5])

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.data())
    def test_matches_sorted_reference(self, g, data):
        # vertices unsorted and with repeats
        vertices = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        sub, order = induced_subgraph(g, vertices)
        assert order == sorted(set(vertices))
        new_id = {v: i for i, v in enumerate(order)}
        kept = [(new_id[u], new_id[v]) for u, v in g.edges() if u in new_id and v in new_id]
        assert (sub.adjacency, sub.m, sub.n) == (*edge_list_reference(kept, len(order)), len(order))


def fault_rows(text):
    """Edge rows of ``text`` by name: the first, the last row of the list
    parse's first chunk and the first of its second, and the last."""
    chunk_end = text.count("\n", 0, text.index("\n", _CHUNK_CHARS))
    return {"first": 1, "chunk-end": chunk_end, "chunk-start": chunk_end + 1,
            "last": text.count("\n") - 1}


FAULT_KINDS = (
    "one-field", "three-fields", "non-decimal", "overflow",
    "out-of-range", "self-loop", "duplicate", "edge-count",
)


def put_fault(lines, i, kind):
    """Put a fault of ``kind`` on edge row i of the 20000-vertex text ``lines``;
    (error type, message) of the fault alone."""
    u, v = lines[i].split()
    fields = "malformed edge list: every row needs two fields"
    if kind == "edge-count":
        del lines[i]
        m = int(lines[0].split()[1])
        return EdgeListParseError, f"header declares {m} edges but {m - 1} edge lines found"
    if kind == "duplicate":
        # the reverse of a neighbouring row: the later of the two is named
        j = i + 1 if i == 1 else i - 1
        lines[i] = " ".join(reversed(lines[j].split()))
        return DuplicateEdgeError, f"duplicate edge ({', '.join(lines[max(i, j)].split())})"
    lines[i], error, message = {
        "one-field": (u, EdgeListParseError, fields),
        "three-fields": (f"{u} {v} {v}", EdgeListParseError, fields),
        "non-decimal": (f"{u} 0x{v}", EdgeListParseError,
                        f"malformed edge list: invalid literal for int() with base 10: '0x{v}'"),
        "overflow": (f"{u} 9223372036854775808", EdgeListParseError,
                     "malformed edge list: a value outside int64"),
        "out-of-range": (f"{u} 20000", VertexRangeError, f"edge ({u}, 20000) outside 0..19999"),
        "self-loop": (f"{u} {u}", SelfLoopError, f"self-loop at vertex {u}"),
    }[kind]
    return error, message


# (faults as (kind, row), index of the fault whose error the parse raises):
# each kind alone on each named row, then pairs in which a later fault
# outranks an earlier one, or the earlier of two edge faults wins
LATE_FAULTS = [([(kind, row)], 0) for kind in FAULT_KINDS
               for row in ("first", "chunk-end", "chunk-start", "last")] + [
    ([("out-of-range", "first"), ("three-fields", "last")], 1),
    ([("self-loop", "chunk-end"), ("non-decimal", "last")], 1),
    ([("duplicate", "first"), ("overflow", "chunk-start")], 1),
    ([("out-of-range", "first"), ("edge-count", "last")], 1),
    ([("non-decimal", "first"), ("one-field", "last")], 1),
    ([("overflow", "first"), ("non-decimal", "chunk-start")], 1),
    ([("overflow", "chunk-end"), ("non-decimal", "last")], 1),
    ([("self-loop", "chunk-start"), ("out-of-range", "last")], 0),
]
LATE_FAULT_IDS = ["+".join(f"{kind}@{row}" for kind, row in faults) for faults, _ in LATE_FAULTS]

# LATE_FAULTS again, and a valid token of 5000 leading zeros on the first
# edge row with a self-loop in a later chunk, as (faults, winner, padded)
GRAMMAR_FAULTS = [(faults, winner, False) for faults, winner in LATE_FAULTS] + [
    ([("self-loop", "chunk-start")], 0, True),
]
GRAMMAR_FAULT_IDS = LATE_FAULT_IDS + ["padded@first+self-loop@chunk-start"]


class TestEdgeListFormat:
    def test_round_trip(self):
        g = from_edge_list([(0, 1), (1, 2)], 4)
        again = parse_edge_list(format_edge_list(g, comment="hello"))
        assert again.n == g.n and sorted(again.edges()) == sorted(g.edges())

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# header\n\n3 1\n# mid\n0 2\n")
        assert g.n == 3 and g.m == 1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n",
            "a b\n",
            "3 2\n0 1\n",  # fewer edges than declared
            "3 1\n0 1\n1 2\n",  # more edges than declared
            "3 1\n0 1 2\n",
        ],
    )
    def test_parse_errors(self, text):
        for parse in (parse_edge_list, *PARSERS):
            with pytest.raises(EdgeListParseError):
                parse(text)

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_round_trip_random(self, g):
        again = parse_edge_list(format_edge_list(g))
        assert again.n == g.n
        assert sorted(again.edges()) == sorted(g.edges())

    def test_trailing_comments_signs_and_line_ends(self):
        for parse in (parse_edge_list, *PARSERS):
            g = parse("3 2 # n m\r0 +2 # an edge\r\n\t-0\t1\n")
            assert g.adjacency == ((1, 2), (0,), (0,))
            # more digits than int() takes by default, all but one of them
            # leading zeros
            pad = "0" * 5000
            g = parse(f"{pad}3 +{pad}2\n-{pad}0 {pad}2\n+{pad}1 {pad}\n")
            assert g.adjacency == ((1, 2), (0,), (0,))

    @pytest.mark.parametrize("token", ["1_0", "1.0", "0x1", "1e1", "+-1", "9" * 20])
    def test_rejects_non_decimal_ids(self, token):
        for parse in (parse_edge_list, *PARSERS):
            with pytest.raises(EdgeListParseError):
                parse(f"11 1\n0 {token}\n")

    # Pinned messages of the list parse, which numpy's loadtxt words its own
    # way: a value outside int64 has one message, and a malformed token
    # anywhere in the text is reported before an earlier overflow.
    @pytest.mark.parametrize("text, message", [
        ("3 1\n0 9223372036854775808\n", "malformed edge list: a value outside int64"),
        ("3 1\n0 -9223372036854775809\n", "malformed edge list: a value outside int64"),
        ("3 2\n0 99999999999999999999\n1 x\n",
         "malformed edge list: invalid literal for int() with base 10: 'x'"),
    ])
    def test_int64_overflow_messages(self, text, message):
        for parse in (_parse_with_lists, parse_edge_list):
            with pytest.raises(EdgeListParseError) as got:
                parse(text)
            assert type(got.value) is EdgeListParseError and str(got.value) == message

    def test_rejects_ids_numpy_reads_via_float(self, monkeypatch):
        # numpy 1.23 to 2.x parse "1.5" as int64 1 and only emit a
        # DeprecationWarning; stand in for that fallback on any numpy.
        def via_float(*args, **kwargs):
            warnings.warn(
                "loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning
            )
            return np.array([[3, 1], [0, 1]], dtype=np.int64)

        monkeypatch.setattr(np, "loadtxt", via_float)
        with pytest.raises(EdgeListParseError):
            _parse_with_numpy("3 1\n0 1.5\n")

    def test_connected_rejects_too_few_edges_before_allocating(self):
        for parse in (parse_edge_list, *PARSERS):
            # a billion per-vertex lists would be built without the check
            with pytest.raises(DisconnectedGraphError):
                parse("1000000000 0\n", connected=True)
            with pytest.raises(DisconnectedGraphError):
                parse("4 2\n0 1\n2 3\n", connected=True)
            assert parse("4 2\n0 1\n2 3\n").n == 4
            assert parse("1 0\n", connected=True).n == 1
            assert parse("3 2\n0 1\n1 2\n", connected=True).m == 2
            # a faulty text keeps its own error
            with pytest.raises(EdgeListParseError):
                parse("3 1\n0 x\n", connected=True)
            with pytest.raises(VertexRangeError):
                parse("3 1\n0 5\n", connected=True)

    def test_connected_names_a_duplicate_edge_before_too_few_edges(self):
        # the duplicate is found before the edge count is checked, though
        # two edges are too few to connect four vertices
        for parse in (parse_edge_list, *PARSERS):
            with pytest.raises(DuplicateEdgeError, match=r"\(1, 0\)"):
                parse("4 2\n0 1\n1 0\n", connected=True)

    @pytest.mark.parametrize("faults, winner", LATE_FAULTS, ids=LATE_FAULT_IDS)
    def test_faults_anywhere_in_a_text_of_many_chunks(self, faults, winner):
        # the list parse reads its text in chunks, yet every text error still
        # comes before any edge error, and the first faulty edge in input
        # order is named
        rows = fault_rows(sparse_text())
        lines = sparse_text().split("\n")
        raised = {}
        for kind, row in sorted(faults, key=lambda f: rows[f[1]], reverse=True):
            raised[kind, row] = put_fault(lines, rows[row], kind)
        error, message = raised[faults[winner]]
        text = "\n".join(lines)
        for parse in (_parse_with_lists, parse_edge_list):
            with pytest.raises(GraphInputError) as got:
                parse(text)
            assert (type(got.value), str(got.value)) == (error, message)
        with pytest.raises(error):
            _parse_with_numpy(text)

    @pytest.mark.parametrize("faults, winner, padded", GRAMMAR_FAULTS, ids=GRAMMAR_FAULT_IDS)
    def test_faults_anywhere_in_a_text_the_token_pattern_checks(self, faults, winner, padded):
        # one U+00A0 separator makes every token of the text meet the token
        # pattern, which words a non-decimal token its own way; the list
        # parse still ranks the faults of every chunk as on an ASCII text
        rows = fault_rows(sparse_text())
        lines = sparse_text().split("\n")
        lines[5] = lines[5].replace(" ", "\xa0")
        raised = {}
        for kind, row in sorted(faults, key=lambda f: rows[f[1]], reverse=True):
            raised[kind, row] = put_fault(lines, rows[row], kind)
        if padded:
            lines[rows["first"]] = "0" * 5000 + lines[rows["first"]]
        error, message = raised[faults[winner]]
        if message.startswith("malformed edge list: invalid literal"):
            message = "malformed edge list: a token is no decimal integer"
        text = "\n".join(lines)
        for parse in (_parse_with_lists, parse_edge_list):
            with pytest.raises(GraphInputError) as got:
                parse(text)
            assert (type(got.value), str(got.value)) == (error, message)

    def test_token_off_the_grammar_outranks_an_earlier_token_too_long_for_int(self, monkeypatch):
        # int() refuses a token of 4400 digits for its length alone; a token
        # off the grammar in a later chunk is still the error reported
        monkeypatch.setattr(paramdiam.graph, "_CHUNK_CHARS", 1)
        for parse in (_parse_with_lists, parse_edge_list):
            with pytest.raises(EdgeListParseError) as got:
                parse("3 2\n0 " + "1" * 4400 + "\n1 \u0661\n")
            assert str(got.value) == "malformed edge list: a token is no decimal integer"

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts(), st.integers(1, 12))
    def test_fuzz_small_chunks_match_whole_text(self, text, chunk):
        # texts of many chunks: the list parse gives the graph or the error,
        # message and all, that it gives when the whole text is one chunk
        def outcome():
            try:
                g = _parse_with_lists(text)
            except GraphInputError as exc:
                return type(exc), str(exc)
            return g.n, g.m, g.adjacency

        whole = outcome()
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(paramdiam.graph, "_CHUNK_CHARS", chunk)
            assert outcome() == whole

    @pytest.mark.parametrize("text, error", [
        ("400000 2\n0 399999\n", EdgeListParseError),
        ("400000 2\n0 399999\n3 3\n", SelfLoopError),
        ("400000 2\n0 399999\n3 400000\n", VertexRangeError),
    ])
    def test_short_faulty_text_builds_no_row_for_a_far_vertex(self, monkeypatch, text, error):
        # the fault lies in a later chunk than the far vertex, and is still
        # found before a row is built for the 400,000 vertices of the header
        monkeypatch.setattr(paramdiam.graph, "_CHUNK_CHARS", 1)
        tracemalloc.start()
        try:
            with pytest.raises(error):
                _parse_with_lists(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_whitespace_padded_faulty_text_builds_no_row_for_a_far_vertex(self, monkeypatch):
        # the self-loop case above with 0.76 MiB of padding, which the walk
        # copies once as its chunk: only the digits of a text bound its far
        # vertex, so the error and its message are the same and no row is
        # built for the header's n
        monkeypatch.setattr(paramdiam.graph, "_CHUNK_CHARS", 1)
        text = "400000 2\n0 399999\n" + " " * 800000 + "\n3 3\n"
        tracemalloc.start()
        try:
            with pytest.raises(SelfLoopError) as got:
                _parse_with_lists(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(got.value) == "self-loop at vertex 3"
        assert peak < 2 << 20

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_fuzz_matches_line_reference(self, text):
        try:
            want = parse_edge_list_reference(text)
        except GraphInputError as exc:
            want = type(exc)
        for parse in PARSERS:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    g = parse(text)
                except GraphInputError as exc:
                    assert type(exc) is want
                else:
                    assert isinstance(g, Graph)
                    assert (g.adjacency, g.m) == want
            assert caught == []
