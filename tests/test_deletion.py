import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    DisconnectedGraphError,
    InvalidModulatorError,
    from_edge_list,
    naive_diameter,
    solve_clique_modulator,
)
from paramdiam.deletion import ApspMatrix, apsp_by_bfs, combine_apsp
from paramdiam.graph import UNREACHABLE, induced_subgraph
from paramdiam.params import clique_modulator_2approx
from oracles import floyd_warshall
from test_graph import best_of_three, graphs


def base_matrix(g, k_set):
    rest = [v for v in range(g.n) if v not in k_set]
    sub, order = induced_subgraph(g, rest)
    base = apsp_by_bfs(sub)
    return ApspMatrix(tuple(order), base.dist)


class TestApspByBfs:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=10))
    def test_matches_floyd(self, g):
        mat = apsp_by_bfs(g)
        ref = floyd_warshall(g)
        for i in range(g.n):
            for j in range(g.n):
                want = UNREACHABLE if ref[i][j] == float("inf") else int(ref[i][j])
                assert mat.dist[i, j] == want

    def test_diameter_rejects_unreachable(self):
        mat = apsp_by_bfs(from_edge_list([(0, 1)], 3))
        with pytest.raises(DisconnectedGraphError):
            mat.diameter()


class TestCombine:
    def test_path_through_deleted_vertex(self):
        g = from_edge_list([(0, 1), (1, 2)], 3)
        full = combine_apsp(g, {1}, base_matrix(g, {1}))
        assert full.dist[0, 2] == 2
        assert full.diameter() == 2

    def test_rejects_wrong_order(self):
        g = from_edge_list([(0, 1), (1, 2)], 3)
        bad = ApspMatrix((0, 1), np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(InvalidModulatorError):
            combine_apsp(g, {1}, bad)

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=10), st.data())
    def test_matches_direct_apsp(self, g, data):
        k = data.draw(st.sets(st.integers(0, g.n - 1), max_size=min(4, g.n)))
        full = combine_apsp(g, k, base_matrix(g, k))
        assert (full.dist == apsp_by_bfs(g).dist).all()


class TestCliqueSolver:
    def test_clique_alone(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2)], 3)
        assert solve_clique_modulator(g, set()) == 1

    def test_single_vertex(self):
        assert solve_clique_modulator(from_edge_list([], 1), set()) == 0

    def test_rejects_non_clique_remainder(self):
        g = from_edge_list([(0, 1), (1, 2)], 3)
        with pytest.raises(InvalidModulatorError):
            solve_clique_modulator(g, set())

    def test_path_with_modulator(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        assert solve_clique_modulator(g, {0, 1}) == 3

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=10, connected_only=True))
    def test_default_modulator_matches_naive(self, g):
        assert solve_clique_modulator(g) == naive_diameter(g)

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=9, connected_only=True), st.data())
    def test_superset_modulators_stay_exact(self, g, data):
        base = clique_modulator_2approx(g)
        extra = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3))
        assert solve_clique_modulator(g, base | extra) == naive_diameter(g)


def near_clique(n, k, seed):
    """A clique on n - k vertices plus k planted vertices, each joined to one
    to three earlier vertices: the planted ones are a clique modulator."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n - k) for j in range(i)]
    for v in range(n - k, n):
        edges += [(w, v) for w in rng.sample(range(v), rng.randint(1, 3))]
    return from_edge_list(edges, n)


def test_no_slower_than_naive_on_near_clique():
    g = near_clique(300, 5, 0)
    planted = set(range(295, 300))
    assert solve_clique_modulator(g, planted) == naive_diameter(g)
    solve_time = best_of_three(lambda g: solve_clique_modulator(g, planted), g)
    assert solve_time <= best_of_three(naive_diameter, g)
