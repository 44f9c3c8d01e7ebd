import hashlib
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramdiam import (
    ContractViolationError,
    DisconnectedGraphError,
    MemoryLimitError,
    from_edge_list,
    naive_diameter,
    solve_certified,
    solve_fes,
)
from paramdiam.constructions import gen_connected_er, gen_tree_plus_k
from paramdiam.fes import (
    WeightedDiameterInstance,
    _rr1_exhaust,
    apply_rr2,
    case2_same_path,
    case3_all_paths,
    decompose,
    max_weighted_pair_cyclic,
    reduce_exhaustively,
)
import paramdiam.fes
import paramdiam.graph
from paramdiam.graph import (
    bfs_rows,
    bounding_diameters,
    connected_components,
    induced_subgraph,
    is_connected,
)
from oracles import (
    apply_rr1,
    bfs,
    case2_quadratic,
    case3_path_pair,
    case3_quadratic,
    max_weighted_pair_cyclic_quadratic,
    weighted_diameter_floyd,
    weighted_diameter_oracle,
)
from test_graph import bounded_corpus, circulant, circular_ladder, graphs


def instance(edges, n, pen=None, s=0):
    return WeightedDiameterInstance(from_edge_list(edges, n), pen, s)


class TestOracle:
    def test_unit_weights_match_diameter(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
        assert weighted_diameter_oracle(WeightedDiameterInstance(g)) == 3

    def test_weights_and_scalar(self):
        inst = instance([(0, 1)], 2, pen=[2, 5], s=4)
        assert weighted_diameter_oracle(inst) == 8

    def test_single_vertex_returns_s(self):
        inst = instance([], 1, s=7)
        assert weighted_diameter_oracle(inst) == 7

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=9, connected_only=True), st.data())
    def test_matches_floyd(self, g, data):
        pen = data.draw(
            st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n)
        )
        s = data.draw(st.integers(0, 10))
        inst = WeightedDiameterInstance(g, pen, s)
        assert weighted_diameter_oracle(inst) == weighted_diameter_floyd(g, pen, s)


class TestCyclicSweep:
    def test_plain_cycle(self):
        assert max_weighted_pair_cyclic(range(6), [0] * 6, 6) == 3

    def test_weighted(self):
        # heavy pair sits adjacent; distance 1 plus the two weights
        assert max_weighted_pair_cyclic([0, 1, 2], [10, 10, 0], 3) == 21

    def test_too_few_entries(self):
        assert max_weighted_pair_cyclic([0], [5], 4) is None
        assert max_weighted_pair_cyclic([], [], 4) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_quadratic(self, data):
        cycle_len = data.draw(st.integers(2, 30))
        k = data.draw(st.integers(2, min(cycle_len, 12)))
        positions = sorted(
            data.draw(
                st.sets(st.integers(0, cycle_len - 1), min_size=k, max_size=k)
            )
        )
        weights = data.draw(st.lists(st.integers(0, 20), min_size=k, max_size=k))
        assert max_weighted_pair_cyclic(
            positions, weights, cycle_len
        ) == max_weighted_pair_cyclic_quadratic(positions, weights, cycle_len)


class TestDegreeOneRule:
    def test_edge(self):
        inst = instance([(0, 1)], 2, pen=[3, 1])
        apply_rr1(inst, 0)
        assert inst.s == 5
        assert inst.pen[1] == 4
        assert inst.alive_vertices() == [1]

    def test_star(self):
        inst = instance([(0, 1), (0, 2), (0, 3)], 4)
        for leaf in (1, 2, 3):
            apply_rr1(inst, leaf)
        assert inst.s == 2  # two leaves over the center
        assert inst.pen[0] == 1

    def test_rejects_wrong_degree(self):
        inst = instance([(0, 1), (1, 2), (2, 0)], 3)
        with pytest.raises(ContractViolationError):
            apply_rr1(inst, 0)

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=9, connected_only=True), st.data())
    def test_preserves_answer(self, g, data):
        leaves = [v for v in range(g.n) if g.degree(v) == 1]
        if not leaves or g.n < 2:
            return
        pen = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n))
        inst = WeightedDiameterInstance(g, pen)
        before = weighted_diameter_oracle(inst)
        apply_rr1(inst, data.draw(st.sampled_from(leaves)))
        assert weighted_diameter_oracle(inst) == before


def peel_by_rr1(g, pen, s, pick):
    """apply_rr1 on the live leaf ``pick(leaves)`` until none is left."""
    inst = WeightedDiameterInstance(g, pen, s)
    while True:
        leaves = [v for v in range(g.n) if inst.alive[v] and inst.degree(v) == 1]
        if not leaves:
            return inst
        apply_rr1(inst, pick(leaves))


def peel_in_queue_order(g, pen, s):
    """apply_rr1 on the leaves in ascending order, then on each anchor as it
    drops to degree one."""
    inst = WeightedDiameterInstance(g, pen, s)
    queue = deque(v for v in range(g.n) if inst.degree(v) == 1)
    while queue:
        u = queue.popleft()
        if inst.alive[u] and inst.degree(u) == 1:
            v = apply_rr1(inst, u)
            if inst.degree(v) == 1:
                queue.append(v)
    return inst


def state(inst):
    return inst.alive, inst.deg, inst.pen, inst.s, inst.alive_count


class TestLeafPeel:
    """The flat loop of _rr1_exhaust against apply_rr1, one checked step at a time."""

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=10), st.data())
    def test_same_state_as_rr1_in_queue_order(self, g, data):
        pen = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n))
        s = data.draw(st.integers(0, 10))
        inst = WeightedDiameterInstance(g, pen, s)
        _rr1_exhaust(inst)
        assert state(inst) == state(peel_in_queue_order(g, pen, s))

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=10), st.data())
    def test_same_state_as_random_rr1_steps(self, g, data):
        """Any order leaves the same s, the same survivors with the same pen
        and degree in each component with a cycle, and one survivor of
        degree 0 in each tree component."""
        pen = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n))
        s = data.draw(st.integers(0, 10))
        inst = WeightedDiameterInstance(g, pen, s)
        _rr1_exhaust(inst)
        want = peel_by_rr1(g, pen, s, lambda leaves: data.draw(st.sampled_from(leaves)))
        assert (inst.s, inst.alive_count) == (want.s, want.alive_count)
        labels = connected_components(g)
        sizes = [labels.count(c) for c in range(max(labels) + 1)]
        edges = [0] * len(sizes)
        for u, _ in g.edges():
            edges[labels[u]] += 1
        for c, size in enumerate(sizes):
            members = [v for v in range(g.n) if labels[v] == c]
            if edges[c] >= size:
                for v in members:
                    got = (inst.alive[v], inst.deg[v], inst.pen[v])
                    assert got == (want.alive[v], want.deg[v], want.pen[v])
            else:
                for peeled in (inst, want):
                    (last,) = [v for v in members if peeled.alive[v]]
                    assert peeled.deg[last] == 0


def test_reduction_state_takes_few_bytes_per_vertex():
    # Deterministic memory gate.  On gen_tree_plus_k(20000, 300, 1) the
    # traced peak of a reduction, its state included, reads 48.0 bytes per
    # vertex with a list alive mask and a leaf queue that makes one int per
    # first leaf, 45.2 with a queue that makes none, and 38.2 with one byte
    # of alive mask per vertex besides (Python 3.11).
    g = gen_tree_plus_k(20000, 300, 1)
    reduce_exhaustively(WeightedDiameterInstance(g))  # first-call set-up is not measured
    tracemalloc.start()
    try:
        reduce_exhaustively(WeightedDiameterInstance(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.n <= 42


class TestPendingCycleRule:
    def test_triangle_component(self):
        inst = instance([(0, 1), (1, 2), (2, 0)], 3, pen=[0, 2, 0])
        before = weighted_diameter_oracle(inst)
        apply_rr2(inst, [0, 1, 2])
        assert inst.alive_vertices() == [0]
        assert weighted_diameter_oracle(inst) == before

    def test_pending_square(self):
        # C4 hanging off a high vertex through its anchor
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (4, 6)]
        inst = instance(edges, 7)
        before = weighted_diameter_oracle(inst)
        apply_rr2(inst, [0, 1, 2, 3])
        assert weighted_diameter_oracle(inst) == before
        assert inst.pen[0] == 2  # opposite corner folded in

    def test_rejects_broken_cycle(self):
        inst = instance([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        with pytest.raises(ContractViolationError):
            apply_rr2(inst, [0, 1, 3, 2])

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_preserves_answer_random(self, data):
        # high vertex 0 with two pendant paths plus a pending cycle at 0
        a = data.draw(st.integers(3, 9))
        n = a + 3
        edges = [(0, a), (0, a + 1), (a + 1, a + 2)]
        cycle = list(range(a))
        for i in range(a):
            edges.append((cycle[i], cycle[(i + 1) % a]))
        pen = [data.draw(st.integers(0, 5)) for _ in range(n)]
        inst = instance(sorted(set(edges)), n, pen=pen)
        before = weighted_diameter_oracle(inst)
        apply_rr2(inst, cycle)
        assert weighted_diameter_oracle(inst) == before


class TestReduceExhaustively:
    def test_tree_reduces_to_nothing(self):
        inst = instance([(0, 1), (1, 2), (2, 3), (2, 4)], 5)
        before = weighted_diameter_oracle(inst)
        assert reduce_exhaustively(inst) is None
        assert inst.alive_count == 1
        assert inst.s == before

    def test_theta_graph_is_irreducible(self):
        # two degree-3 vertices joined by three internally disjoint paths
        edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
        inst = instance(edges, 5)
        red, pen, dec = reduce_exhaustively(inst)
        assert inst.alive_count == 5
        assert red.adjacency == inst.graph.adjacency and pen == [0] * 5
        assert dec.high == [0, 1] and dec.paths == [[0, 2, 1], [0, 3, 1], [0, 4, 1]]
        assert not dec.cycles

    def test_tadpole_collapses(self):
        # path into a cycle: the rules alternate to a single vertex
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)]
        inst = instance(edges, 5)
        before = weighted_diameter_oracle(inst)
        assert reduce_exhaustively(inst) is None
        assert inst.alive_count == 1
        assert inst.s == before

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=10, connected_only=True))
    def test_preserves_answer_and_reaches_fixed_point(self, g):
        inst = WeightedDiameterInstance(g)
        before = weighted_diameter_oracle(inst)
        core = reduce_exhaustively(inst)
        assert weighted_diameter_oracle(inst) == before
        if core is None:
            assert inst.alive_count == 1
        else:
            red, _, dec = core
            assert red.n == inst.alive_count > 1
            assert all(
                inst.degree(v) >= 2 for v in inst.alive_vertices()
            )
            assert not dec.cycles


def with_pending_cycles(g, rng):
    """g plus one to three cycles, each hung off one vertex of g."""
    edges = list(g.edges())
    n = g.n
    for _ in range(rng.randrange(1, 4)):
        length = rng.randrange(3, 8)
        cycle = [rng.randrange(g.n)] + list(range(n, n + length - 1))
        n += length - 1
        edges += [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
    return from_edge_list(edges, n)


class TestInstanceState:
    """After the reduction the live degrees, the alive mask and the compacted
    graph still describe the graph induced by the alive vertices."""

    @staticmethod
    def reduce_and_check(g, pen, s):
        inst = WeightedDiameterInstance(g, pen, s)
        before = weighted_diameter_oracle(inst)
        reduce_exhaustively(inst)
        for v in range(g.n):
            if inst.alive[v]:
                assert inst.degree(v) == len(inst.neighbors(v))
            else:
                assert inst.degree(v) == 0
        red, order, red_pen = inst.compacted()
        sub, sub_order = induced_subgraph(g, inst.alive_vertices())
        assert order == sub_order and red.n == inst.alive_count
        assert (red.m, red.adjacency) == (sub.m, sub.adjacency)
        assert red_pen == [inst.pen[v] for v in order]
        assert weighted_diameter_oracle(inst) == before

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=10, connected_only=True), st.data())
    def test_random_graphs(self, g, data):
        pen = data.draw(st.lists(st.integers(0, 6), min_size=g.n, max_size=g.n))
        self.reduce_and_check(g, pen, data.draw(st.integers(0, 10)))

    def test_seeded_families(self):
        for seed in range(60):
            rng = random.Random(seed)
            family = seed % 3
            if family == 0:
                g = gen_tree_plus_k(rng.randrange(10, 80), rng.randrange(0, 8), seed)
            elif family == 1:
                g = gen_connected_er(rng.randrange(8, 40), 0.12, seed)
            else:
                tree = gen_tree_plus_k(rng.randrange(5, 40), rng.randrange(0, 4), seed)
                g = with_pending_cycles(tree, rng)
            pen = [rng.randrange(0, 6) for _ in range(g.n)]
            self.reduce_and_check(g, pen, rng.randrange(0, 6))


class TestDecompose:
    def test_k4(self):
        g = from_edge_list([(i, j) for i in range(4) for j in range(i + 1, 4)], 4)
        dec = decompose(g)
        assert sorted(dec.high) == [0, 1, 2, 3]
        assert len(dec.paths) == 6
        assert all(len(p) == 2 for p in dec.paths)
        assert not dec.cycles

    def test_theta(self):
        edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
        dec = decompose(from_edge_list(edges, 5))
        assert sorted(dec.high) == [0, 1]
        assert sorted(len(p) for p in dec.paths) == [3, 3, 3]

    def test_rejects_degree_one(self):
        with pytest.raises(ContractViolationError):
            decompose(from_edge_list([(0, 1)], 2))

    def test_pending_cycles_come_out_anchor_first(self):
        # a triangle and a square hanging off vertex 5, the largest id
        edges = [(5, 0), (0, 1), (1, 5), (5, 2), (2, 3), (3, 4), (4, 5)]
        dec = decompose(from_edge_list(edges, 6))
        assert dec.high == [5] and not dec.paths
        assert dec.cycles == [[5, 0, 1], [5, 2, 3, 4]]

    def test_bare_cycle_anchored_at_smallest_id(self):
        # K4 on 0..3 beside the cycle 6-4-7-5-6
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(6, 4), (4, 7), (7, 5), (5, 6)]
        dec = decompose(from_edge_list(edges, 8))
        assert dec.high == [0, 1, 2, 3]
        assert dec.cycles == [[4, 6, 5, 7]]

    def test_partition_covers_everything(self):
        edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 1)]
        dec = decompose(from_edge_list(edges, 4))
        interior = {v for p in dec.paths for v in p[1:-1]}
        assert set(dec.high) | interior == {0, 1, 2, 3}


class TestCaseSweeps:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_case2_matches_quadratic(self, data):
        a = data.draw(st.integers(1, 15))
        pens = data.draw(st.lists(st.integers(0, 8), min_size=a + 1, max_size=a + 1))
        d0a = data.draw(st.integers(1, a + 4))
        assert case2_same_path(pens, d0a) == case2_quadratic(pens, d0a)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_case3_matches_quadratic(self, data):
        a = data.draw(st.integers(1, 12))
        b = data.draw(st.integers(1, 12))
        pens1 = data.draw(st.lists(st.integers(0, 8), min_size=a + 1, max_size=a + 1))
        pens2 = data.draw(st.lists(st.integers(0, 8), min_size=b + 1, max_size=b + 1))
        ds = [data.draw(st.integers(0, 10)) for _ in range(4)]
        assert case3_path_pair(pens1, pens2, *ds) == case3_quadratic(
            pens1, pens2, *ds
        )


class TestSolve:
    def test_path(self):
        assert solve_fes(from_edge_list([(0, 1), (1, 2), (2, 3)], 4)) == 3

    def test_cycle(self):
        edges = [(i, (i + 1) % 7) for i in range(7)]
        assert solve_fes(from_edge_list(edges, 7)) == 3

    def test_single_vertex(self):
        assert solve_fes(from_edge_list([], 1)) == 0

    def test_trace_is_one_core_bounds_event(self):
        events = []
        solve_fes(gen_tree_plus_k(20000, 300, 1), events.append)
        (event,) = events
        assert event["phase"] == "core-bounds"
        # path into a cycle: the rules peel it to one vertex, and no core is left
        events.clear()
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 1)], 4)
        assert solve_fes(g, events.append) == 2
        assert events == []

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=12, connected_only=True))
    def test_matches_naive(self, g):
        assert solve_fes(g) == naive_diameter(g)

    @pytest.mark.parametrize(
        "edges, n",
        [
            ([(0, 1), (1, 2), (3, 4), (4, 5)], 6),  # two disjoint paths
            ([], 2),
            ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6),  # two triangles
            ([(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1), (5, 6)], 7),  # theta + K2
            (  # two thetas
                [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
                + [(5, 7), (7, 6), (5, 8), (8, 6), (5, 9), (9, 6)],
                10,
            ),
        ],
    )
    def test_rejects_disconnected(self, edges, n):
        with pytest.raises(DisconnectedGraphError):
            solve_fes(from_edge_list(edges, n))

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=12))
    def test_connectivity_decided_on_the_core(self, g):
        if is_connected(g):
            assert solve_fes(g) == naive_diameter(g)
        else:
            with pytest.raises(DisconnectedGraphError):
                solve_fes(g)

    def test_matches_naive_on_sparse_family(self):
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randrange(5, 60)
            k = rng.randrange(0, min(10, n * (n - 1) // 2 - (n - 1) + 1))
            g = gen_tree_plus_k(n, k, seed)
            assert solve_fes(g) == naive_diameter(g)


def reduced_core(g):
    """(core graph, pen, decomposition) of a graph after both reduction
    rules, or None when they leave one vertex."""
    return reduce_exhaustively(WeightedDiameterInstance(g))


def case3_both_ways(red, pen, dec):
    """(max of case3_path_pair over all path pairs, case3_all_paths) of a core."""
    rows = dict(zip(dec.high, bfs_rows(red, dec.high)))
    paths = dec.paths
    pair_best = 0
    for i, p1 in enumerate(paths):
        x0, xa = rows[p1[0]], rows[p1[-1]]
        for p2 in paths[i + 1:]:
            y0, yb = p2[0], p2[-1]
            cand = case3_path_pair(
                [pen[v] for v in p1],
                [pen[v] for v in p2],
                int(x0[y0]),
                int(x0[yb]),
                int(xa[y0]),
                int(xa[yb]),
            )
            if cand is not None:
                pair_best = max(pair_best, cand)
    return pair_best, case3_all_paths(rows, pen, paths)


# (n, k) of tree-plus-k graphs whose reduced cores have dozens of paths
CORE_SIZES = [(800, 120), (600, 80), (400, 20), (800, 60), (300, 40), (700, 100)]


class TestPathSweep:
    @pytest.mark.parametrize("seed", range(len(CORE_SIZES)))
    def test_tree_plus_k_matches_naive(self, seed):
        n, k = CORE_SIZES[seed]
        g = gen_tree_plus_k(n, k, seed)
        assert len(reduced_core(g)[2].paths) >= 24
        assert solve_fes(g) == naive_diameter(g)

    @pytest.mark.parametrize("seed", range(len(CORE_SIZES)))
    def test_sweep_matches_every_path_pair(self, seed):
        n, k = CORE_SIZES[seed]
        red, pen, dec = reduced_core(gen_tree_plus_k(n, k, seed))
        assert any(pen)
        pair_best, swept = case3_both_ways(red, pen, dec)
        assert pair_best > 0
        assert swept == pair_best

    def test_sweep_matches_every_path_pair_on_small_cores(self):
        checked = 0
        for seed in range(80):
            rng = random.Random(seed)
            core = reduced_core(
                gen_tree_plus_k(rng.randrange(10, 60), rng.randrange(3, 12), seed)
            )
            if core is None or sum(len(p) >= 3 for p in core[2].paths) < 2:
                continue
            pair_best, swept = case3_both_ways(*core)
            assert swept == pair_best
            checked += 1
        assert checked >= 40

    def test_case1_excludes_the_vertex_itself(self):
        # theta graph on high vertices 0 and 1, plus a pendant path of length
        # 10 on vertex 0: after reduction pen[0] = 10, so pairing 0 with
        # itself would claim 20, while the true diameter is 10 + 2 = 12; the
        # bounds, which answer the pairs touching a high vertex, claim 12
        edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1), (0, 5)]
        edges += [(v, v + 1) for v in range(5, 14)]
        g = from_edge_list(edges, 15)
        red, pen, dec = reduced_core(g)
        assert 2 * max(pen) > 12
        assert core_bounds(red, pen, dec)[0] == 12
        assert solve_fes(g) == naive_diameter(g) == 12


def core_bounds_args(red, pen, dec):
    """The arguments solve_fes passes bounding_diameters on a core: the high
    vertices as the pool, and as many passes as there are of them."""
    pool = set(dec.high)
    return red, pen, [v in pool for v in range(red.n)], len(dec.high)


def core_bounds(red, pen, dec):
    """(best lower bound, settled, kept rows) of the bounds solve_fes runs on a core."""
    best, left, _, kept = bounding_diameters(*core_bounds_args(red, pen, dec))
    check_bounds(red, pen, best, left)
    return best, not left, kept


def check_bounds(g, pen, best, left):
    """What both callers read of bounding_diameters' (best, left): best <= D,
    and best == D when no candidate is left open; a vertex outside ``left``
    has pen[v] + e(v) <= best, and one in it has e(v) <= left[v] and
    pen[v] + left[v] > best.  ``left`` is in ascending vertex order."""
    ecc = weighted_eccentricities(g, pen)
    diameter = max(p + e for p, e in zip(pen, ecc))
    assert best <= diameter
    assert left or best == diameter
    assert list(left) == sorted(left)
    for v in range(g.n):
        if v in left:
            assert ecc[v] <= left[v] and pen[v] + left[v] > best
        else:
            assert pen[v] + ecc[v] <= best


def check_case1_covered(g):
    """On a core the bounds leave unsettled: no high v's pen[v] + e(v) beats
    the bounds' best, so case 1 need not score those pairs.  The rows
    solve_fes hands to case 3 are the int32 BFS rows of the high vertices,
    by source: each row the bounds kept as its own array('i'), and the
    others searched anew into one bfs_rows table."""
    red, pen, dec = reduced_core(g)
    best, settled, kept = core_bounds(red, pen, dec)
    assert not settled
    ecc = weighted_eccentricities(red, pen)
    assert max(pen[v] + ecc[v] for v in dec.high) <= best
    seen = []
    sweep = paramdiam.fes.case3_all_paths

    def spy(rows, *args):
        seen.append(rows)
        return sweep(rows, *args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(paramdiam.fes, "case3_all_paths", spy)
        solve_fes(g)
    (rows,) = seen
    assert sorted(rows) == dec.high
    for v in dec.high:
        row = rows[v]
        assert row.typecode == "i" if v in kept else row.dtype == np.int32
        assert tuple(row) == bfs(red, v)
    # the searched rows are views of one table
    assert len({id(rows[v].base) for v in dec.high if v not in kept}) <= 1


def weighted_eccentricities(g, pen):
    """e(v) = max over w != v of d(v, w) + pen[w], by one BFS per vertex."""
    return [
        max(d + pen[w] for w, d in enumerate(bfs(g, v)) if w != v)
        for v in range(g.n)
    ]


class TestBoundingDiameters:
    """The loop behind solve_certified, with the weights and pool of the fes core."""

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=10, connected_only=True), st.data())
    def test_matches_oracle(self, g, data):
        if g.n < 2:
            return
        pen = data.draw(st.lists(st.integers(0, 8), min_size=g.n, max_size=g.n))
        s = data.draw(st.integers(0, 12))
        best, left, passes, rows = bounding_diameters(g, pen)
        check_bounds(g, pen, best, left)
        assert left == {}
        assert max(s, best) == weighted_diameter_oracle(WeightedDiameterInstance(g, pen, s))
        assert 1 <= passes <= g.n and rows == {}

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=10, connected_only=True), st.data())
    def test_pool_and_budget_keep_every_bound(self, g, data):
        if g.n < 2:
            return
        pen = data.draw(st.lists(st.integers(0, 8), min_size=g.n, max_size=g.n))
        pool = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        budget = data.draw(st.integers(1, g.n))
        best, left, passes, rows = bounding_diameters(g, pen, pool, budget)
        check_bounds(g, pen, best, left)
        assert passes <= budget
        assert all(pool[v] for v in rows)
        for v, row in rows.items():
            assert row.typecode == "i" and tuple(row) == bfs(g, v)
        if all(pool):
            assert len(rows) == passes

    def test_source_order_unchanged(self, monkeypatch):
        # the BFS sources of each call in order, recorded when the tie-break
        # was an integer score; the pass counts alone would miss a
        # reordering that keeps them.  Long lists are pinned by sha256
        kernel = paramdiam.graph._bfs

        def sources(g, pen, *args):
            calls = []
            monkeypatch.setattr(
                paramdiam.graph, "_bfs", lambda *a: calls.append(a[1]) or kernel(*a)
            )
            bounding_diameters(g, pen, *args)
            monkeypatch.undo()
            return calls

        def digest(lists):
            return hashlib.sha256(repr(lists).encode()).hexdigest()

        corpus = bounded_corpus()
        plain = [sources(g, [0] * g.n) for g in corpus]
        assert digest(plain) == (
            "38503a28ff256d07c07281055f491878502ac8a1fdf78f953f3bf380ca064da6")
        budgeted = [sources(g, [0] * g.n, None, lambda e: 2 * e + 1) for g in corpus]
        assert digest(budgeted) == (
            "4ff6751379fc08dc6843f847e75cd165c3d66d1c48fa3225f2cae05e86156195")
        cores = [sources(*core_bounds_args(*reduced_core(g))) for g in HARD_CORES.values()]
        assert digest(cores) == (
            "d32e2b5a947ca4588290001c6de95300fa7f79bfdcbee175b86e74b48becc581")
        assert sources(*core_bounds_args(*reduced_core(circular_ladder(12, 5)))) == [
            0, 5, 12, 6, 19, 9, 15, 3, 16, 4, 20, 7, 23, 8, 1, 11, 2, 10, 13, 14, 17, 18, 21, 22
        ]

    def test_seeded_bounds(self):
        # the answer and the open candidates, on a fixed corpus, free of
        # hypothesis's search: weighted cores with and without a pool and a
        # budget
        for seed in range(300):
            rng = random.Random(seed)
            g = gen_connected_er(rng.randrange(2, 12), rng.uniform(0.2, 0.7), seed)
            pen = [rng.randrange(0, 9) for _ in range(g.n)]
            pool = [rng.random() < 0.5 for _ in range(g.n)]
            for args in ((), (pool, rng.randrange(1, g.n + 1))):
                best, left, _, _ = bounding_diameters(g, pen, *args)
                check_bounds(g, pen, best, left)
                if not args:
                    assert left == {}
        # every vertex of a circulant looks alike, so the budget runs out
        # with candidates open, with and without weights and a pool
        g = circulant(40, 3)
        for seed in range(20):
            rng = random.Random(seed)
            pen = [rng.randrange(0, 3) if seed else 0 for _ in range(g.n)]
            pool = [rng.random() < 0.5 for _ in range(g.n)] if seed % 2 else None
            budget = 1 + seed % 3
            best, left, passes, _ = bounding_diameters(g, pen, pool, budget)
            assert passes == budget and left
            check_bounds(g, pen, best, left)


def check_core_cost(g, monkeypatch):
    """solve_fes on g: (diameter, its core-bounds event or None), with the
    cost gate: the event counts every BFS pass solve_fes makes, all over
    the core, and there are at most two per high vertex.
    A core has at most 2(k - 1) high vertices, k = m - n + 1, so at most
    4(k - 1) passes: the bound ``auto`` weighs against the n passes that
    the bounds alone may take.
    With no event g reduced to one vertex, and no BFS ran at all."""
    kernel = paramdiam.graph._bfs
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(paramdiam.graph, "_bfs", counted)
    events = []
    got = solve_fes(g, events.append)
    monkeypatch.undo()
    if not events:
        assert calls == []
        return got, None
    (event,) = events
    passes = len(calls)
    assert passes == event["passes"] + (event["fallback"] or 0)
    assert passes <= 2 * event["high"]
    k = g.m - g.n + 1
    assert event["high"] <= 2 * (k - 1)
    assert passes <= 4 * (k - 1)
    return got, event


# Cores on which the bounds settle little before the budget runs out: the
# branch vertices of a ladder or a circulant all look alike, and a dense ER
# graph has diameter 2, below every upper bound d(u, v) + e(u) with v != u.
HARD_CORES = {
    **{f"ladder-{r}": circular_ladder(r) for r in (3, 4, 9)},
    **{f"ladder-{r}-sub{k}": circular_ladder(r, k) for r in (3, 4, 9) for k in (3, 10)},
    "circulant-40-3": circulant(40, 3),
    "circulant-61-2": circulant(61, 2),
    "er-50-0.5": gen_connected_er(50, 0.5, 0),
    "er-40-0.3": gen_connected_er(40, 0.3, 1),
}


class TestCoreBounds:
    def test_trace_reports_core_bounds(self):
        g = gen_tree_plus_k(400, 30, 3)
        red, _, dec = reduced_core(g)
        events = []
        solve_fes(g, events.append)
        (event,) = events
        assert event == {
            "phase": "core-bounds",
            "core_n": red.n,
            "high": len(dec.high),
            "passes": event["passes"],
            "fallback": None,
        }
        assert 1 <= event["passes"] <= len(dec.high)

    @pytest.mark.parametrize("name", HARD_CORES)
    def test_hard_cores(self, name, monkeypatch):
        g = HARD_CORES[name]
        got, event = check_core_cost(g, monkeypatch)
        assert got == naive_diameter(g)
        assert event["core_n"] == g.n
        if event["fallback"] is not None:
            check_case1_covered(g)

    @pytest.mark.parametrize("rungs", [3, 4, 9])
    @pytest.mark.parametrize("subdivisions", [3, 10])
    def test_subdivided_ladder_costs_no_more_than_case1(
        self, rungs, subdivisions, monkeypatch
    ):
        _, event = check_core_cost(circular_ladder(rungs, subdivisions), monkeypatch)
        assert event["high"] == 2 * rungs
        assert event["fallback"] is not None
        assert event["passes"] + event["fallback"] <= event["high"]

    def test_pending_cycles_and_seeded_families(self, monkeypatch):
        settled = fallen_back = 0
        for seed in range(60):
            rng = random.Random(seed)
            tree = gen_tree_plus_k(rng.randrange(20, 150), rng.randrange(1, 15), seed)
            g = with_pending_cycles(tree, rng) if seed % 2 else tree
            got, event = check_core_cost(g, monkeypatch)
            assert got == naive_diameter(g)
            if event is None:
                continue
            if event["fallback"] is None:
                settled += 1
            else:
                check_case1_covered(g)
                fallen_back += 1
        assert settled >= 40 and fallen_back >= 2

    @pytest.mark.parametrize("k", [300, 400])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sparse_cyclic_cores_settle_in_a_quarter_of_case1(self, k, seed, monkeypatch):
        g = gen_tree_plus_k(20000, k, seed)
        got, event = check_core_cost(g, monkeypatch)
        assert got == solve_certified(g)
        assert event["fallback"] is None
        assert 4 * event["passes"] <= event["high"]

    @pytest.mark.parametrize(
        "g, kept, searched",
        [(gen_tree_plus_k(300, 5, 5), 1, 3), (circular_ladder(12, 5), 24, 0)],
        ids=["mixed", "all-kept"],
    )
    def test_case1_reads_kept_and_searched_rows_by_source(self, g, kept, searched):
        events = []
        assert solve_fes(g, events.append) == naive_diameter(g)
        (event,) = events
        assert event["high"] == kept + searched and event["fallback"] == searched
        check_case1_covered(g)

    def test_case1_checks_the_budget_of_every_row_before_a_search(self, monkeypatch):
        # one row kept and three searched: the limit counts all four
        g = gen_tree_plus_k(300, 5, 5)
        red, _, dec = reduced_core(g)
        table = 4 * len(dec.high) * red.n
        monkeypatch.setattr(paramdiam.graph, "BFS_ROWS_MAX_BYTES", table)
        assert solve_fes(g) == naive_diameter(g)
        monkeypatch.setattr(paramdiam.graph, "BFS_ROWS_MAX_BYTES", table - 1)
        kernel = paramdiam.graph._bfs
        calls = []
        monkeypatch.setattr(
            paramdiam.graph, "_bfs", lambda *args: calls.append(args[1]) or kernel(*args)
        )
        events = []
        with pytest.raises(MemoryLimitError, match="BFS_ROWS_MAX_BYTES"):
            solve_fes(g, events.append)
        (event,) = events
        assert event["fallback"] == 3 and len(calls) == event["passes"]

    def test_bounds_keep_rows_only_within_the_budget(self, monkeypatch):
        # the ladder core's bounds never settle, and without the budget they
        # would keep all 120 rows before solve_fes checks it and raises
        g = circular_ladder(60, 5)
        red, _, dec = reduced_core(g)
        table = 4 * len(dec.high) * red.n
        budget = 64 * 1024
        assert table > 6 * budget

        def peak(limit):
            monkeypatch.setattr(paramdiam.graph, "BFS_ROWS_MAX_BYTES", limit)
            tracemalloc.start()
            try:
                with pytest.raises(MemoryLimitError, match=(
                    f"a distance table from {len(dec.high)} sources over {red.n} vertices"
                )):
                    solve_fes(g)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rowless = peak(0)
        assert rowless < table
        assert peak(budget) <= rowless + budget + 4096  # the rows' headers and dict

    def test_settling_core_needs_no_room_for_its_rows(self, monkeypatch):
        # the budget holds 11 of the bounds' 14 rows, and the bounds settle
        g = gen_tree_plus_k(2000, 60, 2)
        red, _, dec = reduced_core(g)
        budget = 16 * 1024
        assert 4 * len(dec.high) * red.n > budget
        monkeypatch.setattr(paramdiam.graph, "BFS_ROWS_MAX_BYTES", budget)
        events = []
        assert solve_fes(g, events.append) == naive_diameter(g)
        (event,) = events
        assert event["fallback"] is None and event["passes"] > budget // (4 * red.n)

    def test_fallback_peak_is_about_one_int32_row_per_high_vertex(self):
        # the kept rows are int32, and case 1 copies none of them; a kept
        # row of Python ints takes several times its int32 size.  tracemalloc
        # slows the bounds about 25x, so the ladder is smaller than CI's
        g = circular_ladder(150, 5)
        red, _, dec = reduced_core(g)
        table = 4 * len(dec.high) * red.n
        events = []
        tracemalloc.start()
        try:
            solve_fes(g, events.append)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (event,) = events
        assert event["fallback"] == 0
        assert peak <= 2 * table
