import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    CnfParseError,
    EmptyClauseError,
    GenerationError,
    from_edge_list,
    naive_diameter,
)
from paramdiam.constructions import (
    CnfFormula,
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
    parse_dimacs_cnf,
    sat_to_diameter,
)
from paramdiam.graph import is_connected
from paramdiam.params import find_induced_p4, neighbor_masks
from oracles import format_dimacs_cnf, girth, is_bipartite, is_satisfiable
from test_graph import graphs

TRIANGLE_PLUS_TAIL = from_edge_list([(0, 1), (0, 2), (1, 2), (2, 3)], 4)


class TestBipartiteGirth:
    def test_reference_example(self):
        out = bipartite_girth_construction(TRIANGLE_PLUS_TAIL)
        g = out.graph
        assert naive_diameter(TRIANGLE_PLUS_TAIL) == 2
        assert naive_diameter(g) == 3
        assert g.n == 8 and g.m == 2 * 4 + 4
        assert is_bipartite(g) and girth(g) == 4
        assert out.relation == "plus-one"

    def test_witness_sides_are_a_bipartition(self):
        out = bipartite_girth_construction(TRIANGLE_PLUS_TAIL)
        u_side = set(out.witnesses["side_u"])
        w_side = set(out.witnesses["side_w"])
        assert u_side | w_side == set(range(out.graph.n))
        for a, b in out.graph.edges():
            assert (a in u_side) != (b in u_side)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=9, connected_only=True))
    def test_properties_hold_generally(self, g):
        if g.m == 0:
            return  # a single vertex doubles to a disconnected pair
        out = bipartite_girth_construction(g)
        assert out.graph.n == 2 * g.n
        assert out.graph.m == 2 * g.m + g.n
        assert is_bipartite(out.graph)
        assert naive_diameter(out.graph) == naive_diameter(g) + 1
        if g.n >= 2:
            assert girth(out.graph) == 4


class TestBisection:
    def test_reference_example(self):
        out = bisection_construction(TRIANGLE_PLUS_TAIL)
        g = out.graph
        assert naive_diameter(g) == 6
        assert g.n == 6 * 4
        assert g.m == 5 * 4 + 4

    def test_cut_edge_splits_in_halves(self):
        out = bisection_construction(TRIANGLE_PLUS_TAIL)
        g = out.graph
        half_a = set(out.witnesses["half_a"])
        half_b = set(out.witnesses["half_b"])
        u0, w0 = out.witnesses["cut_edge"]
        assert len(half_a) == len(half_b) == g.n // 2
        assert half_a | half_b == set(range(g.n))
        crossing = [
            (x, y)
            for x, y in g.edges()
            if (x in half_a) != (y in half_a)
        ]
        assert crossing == [(min(u0, w0), max(u0, w0))]

    @settings(max_examples=50, deadline=None)
    @given(graphs(max_n=7, connected_only=True))
    def test_properties_hold_generally(self, g):
        out = bisection_construction(g)
        assert out.graph.n == 6 * g.n
        assert out.graph.m == 5 * g.n + g.m
        assert naive_diameter(out.graph) == naive_diameter(g) + 4
        assert min(out.graph.degree(v) for v in range(out.graph.n)) == 1


def all_formulas(num_vars, max_clauses):
    """Every CNF over the given variables with up to max_clauses clauses."""
    lits = list(range(1, num_vars + 1)) + [-v for v in range(1, num_vars + 1)]
    clauses = []
    for size in range(1, num_vars + 1):
        for vs in combinations(range(1, num_vars + 1), size):
            for signs in product((1, -1), repeat=size):
                clauses.append(tuple(s * v for s, v in zip(signs, vs)))
    for count in range(1, max_clauses + 1):
        for chosen in combinations(clauses, count):
            yield CnfFormula(num_vars, chosen)


class TestSatConstruction:
    def test_satisfiable_example(self):
        f = CnfFormula(2, ((1, -2), (-1, 2)))
        out = sat_to_diameter(f)
        assert is_satisfiable(f)
        assert naive_diameter(out.graph) == 5

    def test_unsatisfiable_example(self):
        f = CnfFormula(1, ((1,), (-1,)))
        out = sat_to_diameter(f)
        assert not is_satisfiable(f)
        assert naive_diameter(out.graph) <= 4

    def test_vertex_counts(self):
        f = CnfFormula(4, ((1, 2), (-3, 4)))
        out = sat_to_diameter(f)
        roles = out.witnesses["roles"]
        half = out.witnesses["padded_num_vars"] // 2
        assert len(roles["assignments_first_half"]) == 2 ** half
        assert len(roles["assignments_second_half"]) == 2 ** half
        assert len(roles["clauses"]) == 2

    def test_dominating_set(self):
        f = CnfFormula(3, ((1, -2), (2, 3), (-1,)))
        out = sat_to_diameter(f)
        g = out.graph
        dom = set(out.witnesses["dominating_set"])
        assert len(dom) == 4
        masks = neighbor_masks(g)
        for v in range(g.n):
            assert v in dom or any(masks[v] >> t & 1 for t in dom)

    def test_diameter_never_exceeds_five(self):
        rng = random.Random(0)
        for _ in range(25):
            nv = rng.randrange(1, 5)
            clauses = []
            for _ in range(rng.randrange(1, 4)):
                size = rng.randrange(1, nv + 1)
                vs = rng.sample(range(1, nv + 1), size)
                clauses.append(tuple(v * rng.choice((1, -1)) for v in vs))
            out = sat_to_diameter(CnfFormula(nv, tuple(clauses)))
            assert naive_diameter(out.graph) <= 5

    def test_equivalence_small_exhaustive(self):
        for f in all_formulas(2, 2):
            out = sat_to_diameter(f)
            assert (naive_diameter(out.graph) == 5) == is_satisfiable(f)


class TestCnfIo:
    def test_round_trip(self):
        f = CnfFormula(3, ((1, -2), (3,)))
        assert parse_dimacs_cnf(format_dimacs_cnf(f)) == f

    def test_rejects_empty_clause(self):
        with pytest.raises(EmptyClauseError):
            CnfFormula(2, ((1,), ()))

    def test_rejects_bad_literal(self):
        with pytest.raises(CnfParseError):
            CnfFormula(2, ((3,),))
        with pytest.raises(CnfParseError):
            CnfFormula(2, ((0,),))

    def test_parse_errors(self):
        with pytest.raises(CnfParseError):
            parse_dimacs_cnf("1 2 0\n")
        with pytest.raises(CnfParseError):
            parse_dimacs_cnf("p cnf x y\n")


class TestGenerators:
    def test_tree_plus_k_counts(self):
        for seed in range(20):
            g = gen_tree_plus_k(30, 5, seed)
            assert g.n == 30 and g.m == 34
            assert is_connected(g)

    def test_tree_plus_k_deterministic(self):
        a = gen_tree_plus_k(25, 3, 99)
        b = gen_tree_plus_k(25, 3, 99)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_tree_plus_k_infeasible(self):
        with pytest.raises(GenerationError):
            gen_tree_plus_k(3, 10, 0)

    def test_cograph_plus_base_is_p4_free(self):
        for seed in range(20):
            g = gen_random_cograph_plus(15, 0, seed)
            assert is_connected(g)
            assert find_induced_p4(g) is None

    def test_cograph_plus_extra_vertices(self):
        g = gen_random_cograph_plus(10, 3, 5)
        assert g.n == 13
        assert is_connected(g)

    def test_er_connected_and_deterministic(self):
        a = gen_connected_er(20, 0.2, 3)
        b = gen_connected_er(20, 0.2, 3)
        assert is_connected(a)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_er_gives_up_on_hopeless_density(self):
        with pytest.raises(GenerationError):
            gen_connected_er(40, 0.0, 0, max_tries=5)
