import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    DisconnectedGraphError,
    InvalidModulatorError,
    from_edge_list,
    naive_diameter,
    solve_clique_modulator,
    solve_cograph,
    solve_hd,
)
from paramdiam.constructions import gen_random_cograph_plus, gen_tree_plus_k
from paramdiam.graph import connected_components
from paramdiam.params import clique_modulator_2approx, cograph_modulator, hub_set
from test_graph import best_of_three, count_kernel_calls, graphs


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


TWO_TRIANGLES = from_edge_list([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6)
EDGELESS_PAIR = from_edge_list([], 2)
TREE_PLUS_10 = gen_tree_plus_k(2000, 10, 1)


SOLVERS = {
    "hindex-diam": solve_hd,
    "cograph": solve_cograph,
    "clique": solve_clique_modulator,
    "naive": naive_diameter,
}


@pytest.mark.parametrize(
    "solve, g",
    [
        pytest.param(solve, g, id=f"{name}-{graph}")
        for graph, g in (("two-triangles", TWO_TRIANGLES), ("edgeless-pair", EDGELESS_PAIR))
        for name, solve in SOLVERS.items()
    ]
    + [
        pytest.param(lambda g: solve_hd(g, {0, 3}), TWO_TRIANGLES, id="hindex-diam-hubs-0-3"),
        pytest.param(lambda g: solve_cograph(g, {0, 3}), TWO_TRIANGLES, id="cograph-k-0-3"),
        pytest.param(
            lambda g: solve_clique_modulator(g, {0, 1, 2}), TWO_TRIANGLES, id="clique-k-0-1-2"
        ),
    ],
)
def test_the_distance_searches_reject_a_disconnected_graph(solve, g):
    """Default and valid explicit modulators alike: the first search from
    the modulator, or the component labels when it is empty, decide."""
    with pytest.raises(DisconnectedGraphError):
        solve(g)


def cograph_searches(g):
    """One search per vertex of the default modulator K, and one per
    component of G - K for its labels."""
    k = cograph_modulator(g)
    return len(k) + max(connected_components(g, k)) + 1


# A deterministic gate beside the timing gates: no solver makes a search
# for connectivity beside its distance searches.  The hd probes run through
# hindex._bfs, so only the hub rows are counted.
@pytest.mark.parametrize(
    "solve, g, want",
    [
        (
            lambda g: solve_clique_modulator(g, set(range(295, 300))),
            near_clique(300, 5, 0),
            lambda g: 5,
        ),
        (solve_clique_modulator, near_clique(60, 5, 1), lambda g: len(clique_modulator_2approx(g))),
        (solve_cograph, gen_random_cograph_plus(200, 3, 1), cograph_searches),
        (solve_hd, TREE_PLUS_10, lambda g: len(hub_set(g))),
        (naive_diameter, TREE_PLUS_10, lambda g: g.n),
    ],
    ids=["clique-planted", "clique-default", "cograph", "hindex-diam", "naive"],
)
def test_one_bfs_per_source(monkeypatch, solve, g, want):
    searches, diameter = want(g), naive_diameter(g)
    calls = count_kernel_calls(monkeypatch)
    assert solve(g) == diameter
    assert len(calls["bfs"]) == searches
