import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramdiam.params
from paramdiam import (
    DisconnectedGraphError,
    InvalidModulatorError,
    from_edge_list,
    naive_diameter,
    solve_cograph,
)
from paramdiam.cograph import DISTANCE_CAP, component_diameters
from paramdiam.constructions import (
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
)
from paramdiam.graph import bfs_rows, connected_components, fingerprint_types
from paramdiam.params import cograph_modulator
from test_graph import best_of_three, graphs


class TestComponentDiameters:
    def test_mixed(self):
        # singleton, edge, path on 3
        g = from_edge_list([(1, 2), (3, 4), (4, 5)], 6)
        assert component_diameters(g, connected_components(g)) == [0, 1, 2]

    def test_rejects_long_component(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        with pytest.raises(InvalidModulatorError):
            component_diameters(g, connected_components(g))


class TestFingerprintTypes:
    def test_groups_by_capped_fingerprint(self):
        # star center 0 as modulator; leaves share one fingerprint
        g = from_edge_list([(0, 1), (0, 2), (0, 3)], 4)
        cols = bfs_rows(g, [0])[:, 1:].T
        first, inverse, counts = fingerprint_types(cols)
        assert cols[first].tolist() == [[1]]
        assert first.tolist() == [0]
        assert inverse.tolist() == [0, 0, 0]
        assert counts.tolist() == [3]

    def test_distance_cap(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], 7)
        capped = np.minimum(bfs_rows(g, [0])[:, 1:], DISTANCE_CAP).T
        first, inverse, counts = fingerprint_types(capped)
        types = capped[first, 0].tolist()
        assert sorted(types) == [1, 2, 3, 4]
        assert counts[types.index(4)] == 3  # distances 4, 5, 6 all capped
        assert (capped[first[inverse]] == capped).all()


class TestSolve:
    def test_p4_free_needs_no_modulator(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (3, 1)], 4)
        assert solve_cograph(g, set()) == 2

    def test_empty_modulator_on_a_graph_of_diameter_two(self):
        # C5 has an induced P4, but its one component has diameter 2, which
        # is all the algorithm needs of G - K
        c5 = from_edge_list([(i, (i + 1) % 5) for i in range(5)], 5)
        assert solve_cograph(c5, set()) == 2

    def test_empty_modulator_on_p4_raises(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        with pytest.raises(InvalidModulatorError):
            solve_cograph(g, set())

    def test_two_ball_does_not_pass_through_modulator(self):
        # P4 0-1-2-3 plus an apex 4 on all of it: G - {4} is the P4, of
        # diameter 3, although every pair is within two steps through 4
        g = from_edge_list([(0, 1), (1, 2), (2, 3)] + [(v, 4) for v in range(4)], 5)
        with pytest.raises(InvalidModulatorError):
            solve_cograph(g, {4})

    def test_type_spread_over_components_pairs_with_itself(self):
        # K1,3 minus its center: three leaves of one type in three
        # components, at distance 2 from each other through the center
        g = from_edge_list([(0, 1), (0, 2), (0, 3)], 4)
        assert solve_cograph(g, {0}) == 2

    def test_default_modulator_scans_once(self, monkeypatch):
        """An empty default modulator already proves g P4-free."""
        scan = paramdiam.params._p4_scan
        calls = []

        def counted(g):
            calls.append(g)
            return scan(g)

        monkeypatch.setattr(paramdiam.params, "_p4_scan", counted)
        g = gen_random_cograph_plus(60, 0, 0)
        assert solve_cograph(g) == naive_diameter(g)
        assert len(calls) == 1
        solve_cograph(g, set())  # K is checked by the component diameters
        assert len(calls) == 1

    def test_no_component_masks_when_every_component_is_a_clique(self):
        # the friendship graph: 20,000 triangles sharing vertex 0.  G - {0}
        # is 20,000 edges, so no 2-ball check runs; one mask per component,
        # as wide as its largest vertex id, would hold about 50 MB of ints
        t = 20_000
        g = from_edge_list(
            [(0, 2 * i + 1) for i in range(t)]
            + [(0, 2 * i + 2) for i in range(t)]
            + [(2 * i + 1, 2 * i + 2) for i in range(t)],
            2 * t + 1,
        )
        tracemalloc.start()
        try:
            assert solve_cograph(g, {0}) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_oversized_modulator_still_exact(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        assert solve_cograph(g, {0, 1, 2, 3}) == 3
        assert solve_cograph(g, {1, 2}) == 3

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            solve_cograph(from_edge_list([(0, 1)], 3))

    def test_bad_vertex_id(self):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(InvalidModulatorError):
            solve_cograph(g, {9})

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=11, connected_only=True))
    def test_default_modulator_matches_naive(self, g):
        assert solve_cograph(g) == naive_diameter(g)

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=9, connected_only=True), st.data())
    def test_any_superset_modulator_matches_naive(self, g, data):
        base = cograph_modulator(g)
        extra = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3))
        assert solve_cograph(g, base | extra) == naive_diameter(g)

    def test_random_cograph_plus_family(self):
        for seed in range(40):
            g = gen_random_cograph_plus(5 + seed % 20, seed % 4, seed)
            assert solve_cograph(g) == naive_diameter(g)


def seeded_corpus():
    """Graphs of a few hundred vertices from each family the solvers are
    tested on; the trees and thm4 graphs reach diameters far past the
    fingerprint cap."""
    graphs = []
    for seed in range(3):
        graphs.append(gen_tree_plus_k(300 + 100 * seed, 5 + seed, seed))
        n = 200 + 50 * seed
        graphs.append(gen_connected_er(n, 1.6 * math.log(n) / n, seed))
        graphs.append(bisection_construction(gen_tree_plus_k(80, 3, seed)).graph)
        graphs.append(gen_random_cograph_plus(150 + 50 * seed, 3, seed))
    return graphs


def test_seeded_corpus_matches_naive():
    rng = random.Random(0)
    for g in seeded_corpus():
        want = naive_diameter(g)
        base = cograph_modulator(g)
        extra = set(rng.sample(range(g.n), 3))
        assert solve_cograph(g, base) == want
        assert solve_cograph(g, base | extra) == want


def test_no_slower_than_naive_on_cograph_plus():
    g = gen_random_cograph_plus(200, 3, 0)
    planted = {200, 201, 202}  # the attached vertices; the rest is a cograph
    assert solve_cograph(g, planted) == naive_diameter(g)
    solve_time = best_of_three(lambda g: solve_cograph(g, planted), g)
    assert solve_time <= best_of_three(naive_diameter, g)
