import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from paramdiam import from_edge_list
from paramdiam.constructions import (
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
    sat_to_diameter,
)
from paramdiam.graph import induced_subgraph
from paramdiam.params import (
    clique_modulator_2approx,
    cograph_modulator,
    find_induced_p4,
    h_index,
    hub_set,
    neighbor_masks,
    parameter_report,
)
from oracles import (
    clique_modulator_quadratic,
    cograph_modulator_restarting,
    find_induced_p4_restarting,
    has_induced_p4,
    min_clique_modulator_size,
)
from test_graph import graphs, random_3cnf


def is_clique(g, vertices):
    masks = neighbor_masks(g)
    vs = list(vertices)
    return all(
        masks[v] >> w & 1 for i, v in enumerate(vs) for w in vs[i + 1:]
    )


class TestP4:
    def test_path_on_four(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        a, b, c, d = find_induced_p4(g)
        assert {a, b, c, d} == {0, 1, 2, 3}

    def test_cycle_on_four_is_free(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        assert find_induced_p4(g) is None

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=10))
    def test_detection_matches_exhaustive(self, g):
        found = find_induced_p4(g)
        assert (found is not None) == has_induced_p4(g)
        if found is not None:
            a, b, c, d = found
            masks = neighbor_masks(g)
            assert len({a, b, c, d}) == 4
            assert masks[a] >> b & 1 and masks[b] >> c & 1 and masks[c] >> d & 1
            assert not masks[a] >> c & 1
            assert not masks[b] >> d & 1
            assert not masks[a] >> d & 1


class TestCographModulator:
    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=10))
    def test_remainder_is_p4_free(self, g):
        k = cograph_modulator(g)
        rest = [v for v in range(g.n) if v not in k]
        sub, _ = induced_subgraph(g, rest)
        assert not has_induced_p4(sub)

    def test_p4_free_graph_gives_empty_modulator(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (3, 2)], 4)
        assert cograph_modulator(g) == set()


class TestHIndex:
    def test_star(self):
        g = from_edge_list([(0, i) for i in range(1, 5)], 5)
        assert h_index(g) == 1
        assert hub_set(g) == {0}

    def test_clique(self):
        g = from_edge_list([(i, j) for i in range(4) for j in range(i + 1, 4)], 4)
        assert h_index(g) == 3

    @settings(max_examples=120, deadline=None)
    @given(graphs())
    def test_definition(self, g):
        h = h_index(g)
        degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
        assert sum(1 for d in degs if d >= h) >= h
        assert sum(1 for d in degs if d >= h + 1) < h + 1
        hubs = hub_set(g)
        assert len(hubs) == h
        assert all(g.degree(v) <= h for v in range(g.n) if v not in hubs)


class TestCliqueModulator:
    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=10))
    def test_remainder_is_clique(self, g):
        k = clique_modulator_2approx(g)
        assert is_clique(g, (v for v in range(g.n) if v not in k))

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=8))
    def test_within_factor_two(self, g):
        assert len(clique_modulator_2approx(g)) <= 2 * min_clique_modulator_size(g)


class TestReport:
    def test_fields(self):
        g = from_edge_list([(0, 1), (0, 2), (1, 2), (2, 3)], 4)
        rep = parameter_report(g)
        assert rep["n"] == 4 and rep["m"] == 4
        assert rep["feedback_edge_number"] == 1
        assert rep["cograph_modulator_size"] == 0
        assert rep["h_index"] == 2
        assert rep["max_degree"] == 3 and rep["min_degree"] == 1
        assert Fraction(rep["average_degree"]) == Fraction(2)


def single_scan_corpus():
    """Seeded graphs of every family and construction, small enough for the
    peel-and-restart reference."""
    graphs = [gen_tree_plus_k(n, k, seed) for seed, (n, k) in
              enumerate(((30, 0), (120, 5), (300, 20)))]
    graphs += [gen_connected_er(n, p, seed) for seed, (n, p) in
               enumerate(((60, 0.05), (100, 0.04), (30, 0.5), (50, 0.4), (40, 0.9)))]
    graphs += [gen_random_cograph_plus(n, extra, seed) for seed, (n, extra) in
               enumerate(((30, 2), (60, 6), (40, 0)))]
    graphs += [bipartite_girth_construction(gen_connected_er(15, 0.3, 1)).graph,
               bisection_construction(gen_tree_plus_k(15, 3, 2)).graph,
               sat_to_diameter(random_3cnf(4, 6, 3)).graph]
    return graphs


def assert_same_as_restarting(g):
    assert cograph_modulator(g) == cograph_modulator_restarting(g)
    assert find_induced_p4(g) == find_induced_p4_restarting(g)
    assert clique_modulator_2approx(g) == clique_modulator_quadratic(g)


class TestSingleScan:
    """One alive-mask scan returns what peel-and-restart returned."""

    @pytest.mark.parametrize("g", single_scan_corpus())
    def test_seeded_corpus_every_limit(self, g):
        assert_same_as_restarting(g)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=14))
    def test_random_graphs(self, g):
        assert_same_as_restarting(g)

    def test_report_on_ten_thousand_vertices_in_seconds(self):
        g = gen_tree_plus_k(10000, 10, 1)
        start = time.perf_counter()
        rep = parameter_report(g)
        assert time.perf_counter() - start < 3.0
        assert rep["cograph_modulator_size"] > 0
