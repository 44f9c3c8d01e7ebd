import hashlib
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    CnfParseError,
    EmptyClauseError,
    GenerationError,
    format_edge_list,
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
from test_graph import graphs, random_3cnf

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


# sha256 of format_edge_list for each seeded family and construction, at the
# sizes the benchmark generates.  A seeded family must give the same file for
# the same arguments from one version to the next.
PINNED = {
    ("tree-plus-k(100000, 50)", 1): "5de2f4d135561e91788bb0418c1fca28be6d788dfc5e9baf576a47c8fd5ab3a9",
    ("tree-plus-k(100000, 50)", 2): "a2bc8d810e71d2a8dd99812f807ee63a66856903571a9eab38f3f4adcf0efcb9",
    ("tree-plus-k(20000, 300)", 1): "f2ec48e89822ceecd49af134eac075bbdd6005719268133a8dddb02299cb7f13",
    ("tree-plus-k(20000, 300)", 2): "daa975fe98f30537efb4564df84ab31b2c61e1c85daf0be13e72178a6e7951e7",
    ("er(700, 0.012)", 1): "2fb8c423dcdd7e2f2517d2d1edf6d5cff6f2d6c4e59c69c8b9804914230b07b0",
    ("er(700, 0.012)", 2): "bec15fceba757407ddf8179f9d59a8b9ad2f65ec01b4bfae83f4f79e71e7f4b8",
    ("cograph-plus(200, 3)", 1): "7243b958636139a91ef39108a8f911a0ee11a539efc65275c7bf69e71dd9677c",
    ("cograph-plus(200, 3)", 2): "39d9cbeb7f332ad54ddedbc00aeb6b648134d778e02f543451b75fb5e20aeab5",
    ("thm1(er(300, 0.02))", 1): "d8dec3f8d4cc3f61b551d4e686c33756f1bc2a5345591ce89b6e0c1f8416a1d5",
    ("thm1(er(300, 0.02))", 2): "a7ae338e105010bb70e75b1eb74f97e666b1278ddf105c013ffcd39535493f7d",
    ("thm4(tree-plus-k(300, 5))", 1): "f5b94a9857bd94d0f0b5d7b08c83f9cb72d53f62186f77fa564dacb63a79cbdf",
    ("thm4(tree-plus-k(300, 5))", 2): "a35e1321cc8f6d0848340d783fc20255057a591eccba087ce3da7d4f8b114178",
    ("thm6(3-cnf(12, 50))", 1): "701b5a355352eff99f2cec481d9d3a081cead2905e6c7d3e11b8a5e5c907e30f",
    ("thm6(3-cnf(12, 50))", 2): "c4b8d648cda986beb9304e19ab47684fc1663e3b0e7a4af5ede65b5bfa8cf8cf",
}

MAKE = {
    "tree-plus-k(100000, 50)": lambda s: gen_tree_plus_k(100_000, 50, s),
    "tree-plus-k(20000, 300)": lambda s: gen_tree_plus_k(20_000, 300, s),
    "er(700, 0.012)": lambda s: gen_connected_er(700, 0.012, s),
    "cograph-plus(200, 3)": lambda s: gen_random_cograph_plus(200, 3, s),
    "thm1(er(300, 0.02))": lambda s: bipartite_girth_construction(gen_connected_er(300, 0.02, s)).graph,
    "thm4(tree-plus-k(300, 5))": lambda s: bisection_construction(gen_tree_plus_k(300, 5, s)).graph,
    "thm6(3-cnf(12, 50))": lambda s: sat_to_diameter(random_3cnf(12, 50, s)).graph,
}


@pytest.mark.parametrize(("family", "seed"), sorted(PINNED), ids=lambda x: str(x))
def test_generated_file_is_pinned(family, seed):
    text = format_edge_list(MAKE[family](seed))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[family, seed]
