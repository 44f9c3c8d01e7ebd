import math
import random
import time
import tracemalloc
import warnings
from itertools import product

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
    SelfLoopError,
    VertexRangeError,
    format_edge_list,
    from_edge_list,
    naive_diameter,
    parse_edge_list,
    solve_bounded,
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
from paramdiam.graph import (
    UNREACHABLE,
    _bfs,
    bfs_rows,
    connected_components,
    eccentricity,
    induced_subgraph,
    is_connected,
    require_connected,
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

    def test_rejects_vertex_count_above_int32(self):
        tracemalloc.start()
        try:
            with pytest.raises(VertexRangeError):
                from_edge_list([], 3_000_000_000)
            with pytest.raises(VertexRangeError):
                parse_edge_list("3000000000 0\n")
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
        try:
            want = edge_list_reference(edges, n)
        except GraphInputError as exc:
            with pytest.raises(type(exc)) as got:
                from_edge_list(edges, n)
            assert str(got.value) == str(exc)
        else:
            g = from_edge_list(edges, n)
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

    def test_disconnected_markers(self):
        g = from_edge_list([(0, 1)], 3)
        assert bfs(g, 0) == (0, 1, UNREACHABLE)
        assert not is_connected(g)
        with pytest.raises(DisconnectedGraphError):
            require_connected(g)
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


class TestSolveBounded:
    @pytest.mark.parametrize("g", bounded_corpus())
    def test_seeded_corpus_matches_both_oracles(self, g):
        events = []
        got = solve_bounded(g, events.append)
        assert got == naive_diameter(g) == diameter_floyd(g)
        assert len(events) == 1
        assert events[0]["lower"] == events[0]["upper"] == got
        assert 1 <= events[0]["passes"] <= g.n

    def test_seeded_corpus_passes_unchanged(self):
        # recorded before the loop took weights, a source pool and a budget;
        # with pen = 0 and none of them it must pick the same sources
        passes = []
        for g in bounded_corpus():
            events = []
            solve_bounded(g, events.append)
            passes.append(events[0]["passes"])
        assert passes == [2, 4, 7, 6, 4, 3, 14, 3, 3, 6, 19, 8, 4, 4, 3, 6, 3]

    @settings(max_examples=150, deadline=None)
    @given(graphs(connected_only=True))
    def test_matches_floyd_warshall(self, g):
        assert solve_bounded(g) == naive_diameter(g) == diameter_floyd(g)

    @pytest.mark.parametrize("g", [
        circulant(7, 1), circulant(8, 1), circulant(30, 1), circulant(31, 1),
        circulant(40, 3), from_edge_list([(i, j) for i in range(6) for j in range(i)], 6),
    ], ids=["C7", "C8", "C30", "C31", "C40-3", "K6"])
    def test_vertex_transitive(self, g):
        assert solve_bounded(g) == naive_diameter(g) == diameter_floyd(g)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")

        @settings(max_examples=150, deadline=None)
        @given(graphs(max_n=30, connected_only=True))
        def check(g):
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            assert solve_bounded(g) == nx.diameter(ref)

        check()

    def test_single_vertex(self):
        assert solve_bounded(from_edge_list([], 1)) == 0

    def test_rejects_empty_graph(self):
        with pytest.raises(VertexRangeError):
            solve_bounded(from_edge_list([], 0))

    def test_rejects_disconnected_graph(self):
        with pytest.raises(DisconnectedGraphError):
            solve_bounded(from_edge_list([(0, 1), (2, 3)], 4))


def test_much_faster_than_naive_on_thm6():
    g = sat_to_diameter(random_3cnf(12, 50, 0)).graph
    assert solve_bounded(g) == naive_diameter(g)
    assert 5 * best_of_three(solve_bounded, g) <= best_of_three(naive_diameter, g)


def test_no_pruning_within_a_quarter_of_naive():
    g = circulant(500, 21)
    assert solve_bounded(g) == naive_diameter(g)
    assert best_of_three(solve_bounded, g) <= 1.25 * best_of_three(naive_diameter, g)


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
    solve_bounded(g, events.append)
    (event,) = events
    assert event["lower"] == event["upper"]
    assert event["passes"] == len(calls) <= g.n


class TestBfsRows:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_rows_equal_bfs(self, g, data):
        sources = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        rows = bfs_rows(g, sources)
        assert rows.dtype == np.int32
        assert rows.shape == (len(sources), g.n)
        for row, s in zip(rows, sources):
            assert tuple(row.tolist()) == bfs(g, s)  # UNREACHABLE kept

    def test_no_sources(self):
        g = from_edge_list([(0, 1)], 3)
        assert bfs_rows(g, []).shape == (0, 3)

    def test_rejects_bad_source(self):
        g = from_edge_list([(0, 1)], 3)
        with pytest.raises(VertexRangeError):
            bfs_rows(g, [0, 3])


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
        with pytest.raises(EdgeListParseError):
            parse_edge_list(text)

    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_round_trip_random(self, g):
        again = parse_edge_list(format_edge_list(g))
        assert again.n == g.n
        assert sorted(again.edges()) == sorted(g.edges())

    def test_trailing_comments_signs_and_line_ends(self):
        g = parse_edge_list("3 2 # n m\r0 +2 # an edge\r\n\t-0\t1\n")
        assert g.adjacency == ((1, 2), (0,), (0,))

    @pytest.mark.parametrize("token", ["1_0", "1.0", "0x1", "1e1", "+-1", "9" * 20])
    def test_rejects_non_decimal_ids(self, token):
        with pytest.raises(EdgeListParseError):
            parse_edge_list(f"11 1\n0 {token}\n")

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
            parse_edge_list("3 1\n0 1.5\n")

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_fuzz_matches_line_reference(self, text):
        try:
            want = parse_edge_list_reference(text)
        except GraphInputError as exc:
            want = type(exc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                g = parse_edge_list(text)
            except GraphInputError as exc:
                assert type(exc) is want
            else:
                assert isinstance(g, Graph)
                assert (g.adjacency, g.m) == want
        assert caught == []
