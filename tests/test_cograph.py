import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    DisconnectedGraphError,
    InvalidModulatorError,
    from_edge_list,
    naive_diameter,
    solve_cograph,
)
from paramdiam.cograph import build_types, component_diameters
from paramdiam.constructions import gen_random_cograph_plus
from paramdiam.graph import bfs_rows, connected_components
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


class TestBuildTypes:
    def test_groups_by_capped_fingerprint(self):
        # star center 0 as modulator; leaves share one fingerprint
        g = from_edge_list([(0, 1), (0, 2), (0, 3)], 4)
        records = build_types(bfs_rows(g, [0]), connected_components(g, {0}))
        assert len(records) == 1
        assert records[0].count == 3
        assert records[0].type == (1,)
        # three singleton components: flagged as spread over several
        assert records[0].component == -1

    def test_distance_cap(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], 7)
        labels = [-1] + [0] * 6
        records = build_types(bfs_rows(g, [0]), labels)
        vecs = sorted(r.type for r in records)
        assert vecs == [(1,), (2,), (3,), (4,)]
        counts = {r.type: r.count for r in records}
        assert counts[(4,)] == 3  # distances 4, 5, 6 all capped


class TestSolve:
    def test_p4_free_needs_no_modulator(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (3, 1)], 4)
        assert solve_cograph(g, set()) == 2

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


def test_no_slower_than_naive_on_cograph_plus():
    g = gen_random_cograph_plus(200, 3, 0)
    planted = {200, 201, 202}  # the attached vertices; the rest is a cograph
    assert solve_cograph(g, planted) == naive_diameter(g)
    solve_time = best_of_three(lambda g: solve_cograph(g, planted), g)
    assert solve_time <= best_of_three(naive_diameter, g)
