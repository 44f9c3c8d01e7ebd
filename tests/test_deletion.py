import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    InvalidModulatorError,
    from_edge_list,
    naive_diameter,
    solve_clique_modulator,
)
from paramdiam.params import clique_modulator_2approx
from test_graph import best_of_three, graphs


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
