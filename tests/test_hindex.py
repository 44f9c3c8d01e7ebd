import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    DisconnectedGraphError,
    InvalidModulatorError,
    from_edge_list,
    naive_diameter,
    solve_hd,
)
from paramdiam.constructions import (
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_tree_plus_k,
)
from paramdiam.graph import induced_subgraph
from paramdiam.hindex import truncated_bfs_count
from paramdiam.params import hub_set
from oracles import bfs, floyd_warshall
from test_graph import best_of_three, graphs


class TestTruncatedBfs:
    def test_counts_within_depth(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        types = ["a", "b", "a", "b"]
        assert truncated_bfs_count(g, 0, 2, types) == Counter({"a": 2, "b": 1})
        assert truncated_bfs_count(g, 0, 0, types) == Counter({"a": 1})
        assert truncated_bfs_count(g, 0, 9, types) == Counter({"a": 2, "b": 2})

    def test_respects_components(self):
        g = from_edge_list([(0, 1)], 3)
        assert truncated_bfs_count(g, 2, 5, ["x", "x", "x"]) == Counter({"x": 1})

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_matches_oracle_distances(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        depth = data.draw(st.integers(0, 4))
        types = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        ref = floyd_warshall(g)[v]
        want = Counter(types[u] for u in range(g.n) if ref[u] <= depth)
        assert truncated_bfs_count(g, v, depth, types) == want

    def test_walls_are_not_crossed_or_counted(self):
        # path 0-1-2-3 with wall 1: from 0 nothing else is reached
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        types = ["a", "b", "a", "b"]
        assert truncated_bfs_count(g, 0, 9, types, {1}) == Counter({"a": 1})
        assert truncated_bfs_count(g, 3, 9, types, {1}) == Counter({"a": 1, "b": 1})

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_walls_match_induced_copy(self, g, data):
        removed = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
        rest = [v for v in range(g.n) if v not in removed]
        v = data.draw(st.sampled_from(rest))
        depth = data.draw(st.integers(0, 4))
        types = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        sub, order = induced_subgraph(g, rest)
        want = truncated_bfs_count(sub, order.index(v), depth, [types[u] for u in order])
        assert truncated_bfs_count(g, v, depth, types, removed) == want


class TestSolve:
    def test_star(self):
        g = from_edge_list([(0, i) for i in range(1, 6)], 6)
        assert solve_hd(g) == 2

    def test_path(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        assert solve_hd(g) == 4

    def test_single_vertex(self):
        assert solve_hd(from_edge_list([], 1)) == 0

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            solve_hd(from_edge_list([(0, 1)], 3))

    def test_custom_hub_set_validated(self):
        g = from_edge_list([(0, 1), (0, 2), (0, 3), (1, 2)], 4)
        # leaving the degree-3 center out of the hubs is rejected
        with pytest.raises(InvalidModulatorError):
            solve_hd(g, {1, 2})
        assert solve_hd(g, {0, 1}) == naive_diameter(g)

    def test_empty_hub_set_rejected(self):
        # on a cycle every degree is at most h_index, so only the emptiness
        # of the set is wrong with it
        c5 = from_edge_list([(i, (i + 1) % 5) for i in range(5)], 5)
        with pytest.raises(InvalidModulatorError):
            solve_hd(c5, set())
        assert solve_hd(from_edge_list([], 1), set()) == 0

    def test_trace_ends_with_certificate(self):
        events = []
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        solve_hd(g, None, events.append)
        assert events[-1]["vertex"] is None  # final pass found no shortfall
        assert events[-1]["e"] == 4

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=12, connected_only=True))
    def test_matches_naive(self, g):
        assert solve_hd(g) == naive_diameter(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=9, connected_only=True), st.data())
    def test_larger_hub_sets_stay_exact(self, g, data):
        extra = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3))
        assert solve_hd(g, hub_set(g) | extra) == naive_diameter(g)

    def test_er_family(self):
        for seed in range(30):
            g = gen_connected_er(8 + seed, 0.15 + (seed % 5) * 0.1, seed)
            assert solve_hd(g) == naive_diameter(g)


def sparse_er(n, seed):
    """Connected ER with about 1.6 ln(n) expected degree: low h, many types."""
    return gen_connected_er(n, 1.6 * math.log(n) / n, seed)


def probed_vertices(g, e):
    """Per-vertex reference for the pending filter.

    Counts the non-hub vertices with some fingerprint type whose best
    via-hub route to it exceeds e, computed one vertex at a time.
    """
    hubs = sorted(hub_set(g))
    rows = [bfs(g, x) for x in hubs]
    vecs = [tuple(row[v] for row in rows) for v in range(g.n) if v not in hubs]
    types = set(vecs)
    return sum(
        any(min(a + b for a, b in zip(vec, t)) > e for t in types) for vec in vecs
    )


class TestPerTypeCertification:
    def test_seeded_families_match_naive(self):
        graphs = [sparse_er(n, seed) for seed, n in enumerate((200, 450, 700))]
        graphs += [gen_tree_plus_k(n, k, seed) for seed, (n, k) in
                   enumerate(((400, 5), (900, 12), (1500, 15)))]
        graphs += [bipartite_girth_construction(sparse_er(n, seed)).graph
                   for seed, n in enumerate((120, 200))]
        graphs += [bisection_construction(gen_tree_plus_k(n, 5, seed)).graph
                   for seed, n in enumerate((150, 300))]
        events_per_graph = []
        for g in graphs:
            events = []
            assert solve_hd(g, None, events.append) == naive_diameter(g)
            events_per_graph.append(len(events))
        # e starts below the diameter on most of these, so it is raised
        assert sum(r > 1 for r in events_per_graph) >= len(graphs) // 2

    def test_one_pass_probes_within_per_vertex_filter(self):
        """One pass probes each vertex the filter keeps at the final e, and
        never more than those it keeps at the first e plus one per raise."""
        graphs = [sparse_er(n, 30 + seed) for seed, n in enumerate((120, 200))]
        graphs += [gen_tree_plus_k(300, 6, 31), gen_tree_plus_k(250, 20, 32)]
        graphs.append(bisection_construction(gen_tree_plus_k(80, 3, 33)).graph)
        for g in graphs:
            events = []
            solve_hd(g, None, events.append)
            *shortfalls, last = events
            assert last["vertex"] is None
            first_e = events[0]["e"]
            assert last["e"] == first_e + len(shortfalls)
            assert (
                probed_vertices(g, last["e"])
                <= last["probes"]
                <= probed_vertices(g, first_e) + len(shortfalls)
            )
            # the pass never returns to a vertex it has left
            vertices = [ev["vertex"] for ev in shortfalls]
            assert vertices == sorted(vertices)

    def test_shortfall_events_name_a_pending_type(self):
        g = gen_tree_plus_k(600, 8, 41)
        hubs = sorted(hub_set(g))
        rows = [bfs(g, x) for x in hubs]
        fingerprint = {v: [row[v] for row in rows] for v in range(g.n)}
        events = []
        solve_hd(g, None, events.append)
        assert len(events) > 1
        for ev in events[:-1]:
            via_hub = min(a + b for a, b in zip(fingerprint[ev["vertex"]], ev["type"]))
            assert via_hub > ev["e"]
            assert ev["type"] in fingerprint.values()


@pytest.mark.parametrize("make", [
    lambda: gen_tree_plus_k(1500, 15, 0),
    lambda: bisection_construction(gen_tree_plus_k(300, 5, 0)).graph,
], ids=["tree-plus-k-1500-15", "thm4-of-tree-plus-k-300-5"])
def test_no_slower_than_naive_on_low_h_families(make):
    g = make()
    assert solve_hd(g) == naive_diameter(g)
    assert best_of_three(solve_hd, g) <= best_of_three(naive_diameter, g)
