"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line on the real stdout so the result
survives pytest's capture.  All numeric comparisons are exact.
"""

import random
import sys
import time

import paramdiam.graph
from paramdiam import (
    from_edge_list,
    naive_diameter,
    solve_clique_modulator,
    solve_cograph,
    solve_fes,
    solve_hd,
)
from paramdiam.constructions import (
    CnfFormula,
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
    sat_to_diameter,
)
from paramdiam.fes import (
    WeightedDiameterInstance,
    apply_rr2,
    case2_same_path,
    reduce_exhaustively,
)
from paramdiam.graph import induced_subgraph
from paramdiam.params import (
    clique_modulator_2approx,
    cograph_modulator,
    neighbor_masks,
)
from oracles import (
    apply_rr1,
    bfs,
    case2_quadratic,
    case3_path_pair,
    case3_quadratic,
    find_pending_cycles,
    girth,
    has_induced_p4,
    is_bipartite,
    is_satisfiable,
    min_clique_modulator_size,
    weighted_diameter_oracle,
)
from test_constructions import TRIANGLE_PLUS_TAIL, all_formulas

REFERENCE_INPUT = TRIANGLE_PLUS_TAIL  # triangle with a tail, diameter 2


def report(name: str, ok: bool) -> None:
    sys.__stdout__.write(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}\n")
    sys.__stdout__.flush()
    assert ok, name


def seeded_corpus(count_per_family: int):
    """tree-plus-k (k <= 10), connected ER and cograph-plus instances, n <= 60."""
    instances = []
    for seed in range(count_per_family):
        rng = random.Random(seed)
        n = rng.randrange(2, 61)
        k = min(rng.randrange(0, 11), n * (n - 1) // 2 - (n - 1))
        instances.append(gen_tree_plus_k(n, k, seed))
    for seed in range(count_per_family):
        rng = random.Random(10_000 + seed)
        n = rng.randrange(2, 31)
        instances.append(gen_connected_er(n, rng.uniform(0.1, 0.5), seed))
    for seed in range(count_per_family):
        rng = random.Random(20_000 + seed)
        n = rng.randrange(2, 45)
        instances.append(gen_random_cograph_plus(n, rng.randrange(0, 4), seed))
    return instances


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for g in seeded_corpus(500):
        want = naive_diameter(g)
        if not (
            solve_fes(g) == want
            and solve_cograph(g) == want
            and solve_hd(g) == want
            and solve_clique_modulator(g) == want
        ):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report("1 oracle-equivalence", ok and elapsed < 60)


def test_criterion_2_reduction_rule_soundness():
    checked = 0
    ok = True
    seed = 0
    while checked < 500 and ok:
        rng = random.Random(seed)
        seed += 1
        n = rng.randrange(3, 41)
        k = min(rng.randrange(0, 6), n * (n - 1) // 2 - (n - 1))
        g = gen_tree_plus_k(n, k, seed)
        pen = [rng.randrange(0, 8) for _ in range(n)]
        inst = WeightedDiameterInstance(g, pen, rng.randrange(0, 10))
        before = weighted_diameter_oracle(inst)
        leaves = [v for v in range(n) if inst.degree(v) == 1]
        cycles = find_pending_cycles(inst)
        if leaves and (not cycles or seed % 2):
            apply_rr1(inst, rng.choice(leaves))
        elif cycles:
            apply_rr2(inst, rng.choice(cycles))
        else:
            continue
        ok = weighted_diameter_oracle(inst) == before
        checked += 1
    report("2 reduction-rule-soundness", ok and checked >= 500)


def test_criterion_3_case_formula_soundness():
    checked = 0
    ok = True
    seed = 0
    while checked < 200 and ok:
        rng = random.Random(seed)
        seed += 1
        n = rng.randrange(8, 41)
        kmax = n * (n - 1) // 2 - (n - 1)
        k = min(rng.randrange(2, 11), kmax)
        inst = WeightedDiameterInstance(gen_tree_plus_k(n, k, seed))
        core = reduce_exhaustively(inst)
        if core is None:
            continue
        red, pen, dec = core
        if not dec.paths:
            continue
        rows = {v: list(bfs(red, v)) for v in dec.high}
        for path in dec.paths:
            a = len(path) - 1
            pens = [pen[v] for v in path]
            d0a = rows[path[0]][path[-1]]
            if case2_same_path(pens, d0a) != case2_quadratic(pens, d0a):
                ok = False
            inner_rows = {
                i: list(bfs(red, path[i])) for i in range(1, a)
            }
            for i in range(1, a):
                for j in range(i + 1, a):
                    formula = min(j - i, i + d0a + (a - j))
                    if inner_rows[i][path[j]] != formula:
                        ok = False
        for pi in range(len(dec.paths)):
            p1 = dec.paths[pi]
            if len(p1) < 3:
                continue
            a = len(p1) - 1
            p1_rows = {i: list(bfs(red, p1[i])) for i in range(1, a)}
            for pj in range(pi + 1, len(dec.paths)):
                p2 = dec.paths[pj]
                if len(p2) < 3:
                    continue
                b = len(p2) - 1
                ds = (
                    rows[p1[0]][p2[0]],
                    rows[p1[0]][p2[-1]],
                    rows[p1[-1]][p2[0]],
                    rows[p1[-1]][p2[-1]],
                )
                pens1 = [pen[v] for v in p1]
                pens2 = [pen[v] for v in p2]
                if case3_path_pair(pens1, pens2, *ds) != case3_quadratic(
                    pens1, pens2, *ds
                ):
                    ok = False
                for i in range(1, a):
                    for j in range(1, b):
                        formula = min(
                            i + ds[0] + j,
                            i + ds[1] + (b - j),
                            (a - i) + ds[2] + j,
                            (a - i) + ds[3] + (b - j),
                        )
                        if p1_rows[i][p2[j]] != formula:
                            ok = False
        checked += 1
    report("3 case-formula-soundness", ok and checked >= 200)


def test_criterion_4_plus_one_construction():
    ok = True
    checked = 0
    seed = 0
    while checked < 200:
        rng = random.Random(seed)
        seed += 1
        n = rng.randrange(2, 16)
        g = gen_connected_er(n, rng.uniform(0.2, 0.7), seed)
        if g.m < 1:
            continue
        out = bipartite_girth_construction(g)
        if not (
            naive_diameter(out.graph) == naive_diameter(g) + 1
            and is_bipartite(out.graph)
            and girth(out.graph) == 4
        ):
            ok = False
            break
        checked += 1
    ref = bipartite_girth_construction(REFERENCE_INPUT)
    ok = ok and naive_diameter(REFERENCE_INPUT) == 2
    ok = ok and naive_diameter(ref.graph) == 3
    report("4 plus-one-construction", ok)


def test_criterion_5_plus_four_construction():
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randrange(1, 12)
        g = gen_connected_er(n, rng.uniform(0.2, 0.8), 500 + seed)
        out = bisection_construction(g)
        if not (
            naive_diameter(out.graph) == naive_diameter(g) + 4
            and out.graph.n == 6 * g.n
            and out.graph.m == 5 * g.n + g.m
        ):
            ok = False
            break
    ref = bisection_construction(REFERENCE_INPUT)
    ok = ok and naive_diameter(ref.graph) == 6
    report("5 plus-four-construction", ok)


def test_criterion_6_sat_construction():
    ok = True

    def check(formula):
        out = sat_to_diameter(formula)
        g = out.graph
        d = naive_diameter(g)
        if (d == 5) != is_satisfiable(formula):
            return False
        dom = set(out.witnesses["dominating_set"])
        masks = neighbor_masks(g)
        if any(
            v not in dom and not any(masks[v] >> t & 1 for t in dom)
            for v in range(g.n)
        ):
            return False
        roles = out.witnesses["roles"]
        half = out.witnesses["padded_num_vars"] // 2
        count = len(roles["assignments_first_half"]) + len(
            roles["assignments_second_half"]
        )
        return count == 2 * 2 ** half

    for num_vars in (1, 2, 3):
        for formula in all_formulas(num_vars, 3):
            if not check(formula):
                ok = False
                break
        if not ok:
            break

    rng = random.Random(42)
    for _ in range(100):
        if not ok:
            break
        clauses = []
        for _ in range(rng.randrange(1, 5)):
            size = rng.randrange(1, 5)
            vs = rng.sample(range(1, 5), size)
            clauses.append(tuple(v * rng.choice((1, -1)) for v in vs))
        ok = check(CnfFormula(4, tuple(clauses)))
    report("6 sat-construction", ok)


def test_criterion_7_scaling_sanity():
    times = []
    answers = []
    for n in (10_000, 20_000, 40_000):
        g = gen_tree_plus_k(n, 20, 7)
        best = None
        for _ in range(3):
            start = time.perf_counter()
            answers.append(solve_fes(g))
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        times.append(best)
    ok = all(t < 5.0 for t in times)
    ok = ok and times[1] / times[0] < 3 and times[2] / times[1] < 3
    report("7 scaling-sanity", ok)


def test_criterion_7_passes_independent_of_n(monkeypatch):
    """The pass count behind the timing gate above: whatever n, solve_fes
    makes at most 4(k - 1) BFS passes on the core, and its core-bounds
    event reports every one of them."""
    kernel = paramdiam.graph._bfs
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(paramdiam.graph, "_bfs", counted)
    ok = True
    for n in (10_000, 20_000, 40_000):
        g = gen_tree_plus_k(n, 20, 7)
        calls.clear()
        events = []
        solve_fes(g, events.append)
        (event,) = events
        passes = event["passes"] + (event["fallback"] or 0)
        ok = ok and passes == len(calls) <= 4 * (g.m - g.n)
    report("7 pass-count", ok)


def test_criterion_8_modulator_validity():
    ok = True
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randrange(4, 31)
        g = gen_connected_er(n, rng.uniform(0.1, 0.5), 900 + seed)
        k = cograph_modulator(g)
        rest = [v for v in range(g.n) if v not in k]
        sub, _ = induced_subgraph(g, rest)
        if has_induced_p4(sub):
            ok = False
            break
    for seed in range(200):
        if not ok:
            break
        rng = random.Random(seed)
        n = rng.randrange(2, 21)
        g = gen_connected_er(n, rng.uniform(0.1, 0.7), 1800 + seed)
        k = clique_modulator_2approx(g)
        rest = [v for v in range(g.n) if v not in k]
        masks = neighbor_masks(g)
        ok = all(
            masks[v] >> w & 1 for i, v in enumerate(rest) for w in rest[i + 1:]
        )
        if ok and n <= 12:
            ok = len(k) <= 2 * min_clique_modulator_size(g)
    report("8 modulator-validity", ok)
