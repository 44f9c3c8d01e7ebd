import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramdiam.cli
import paramdiam.cograph
import paramdiam.params
from paramdiam import (
    from_edge_list,
    load_edge_list,
    naive_diameter,
    save_edge_list,
)
from paramdiam.constructions import (
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
    sat_to_diameter,
)
from paramdiam.cli import ALGOS, MODULATOR_ALGOS, _pick_auto, main
from test_graph import graphs, random_3cnf, solve_bounds_alone


@pytest.fixture
def path_graph(tmp_path):
    p = str(tmp_path / "path.el")
    save_edge_list(from_edge_list([(0, 1), (1, 2), (2, 3)], 4), p)
    return p


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_THETA = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
_K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
# disconnected graphs with enough edges to pass the loader, so each solver's
# own connectivity check decides
DISCONNECTED = {
    # fes's core is two isolated vertices
    "two-triangles": ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6),
    # fes's core bounds' first pass misses the other theta
    "two-thetas": (_THETA + [(u + 5, v + 5) for u, v in _THETA], 10),
    # auto routes it to msbfs, whose bounds' first pass misses the other K4
    "two-k4s": (_K4 + [(u + 4, v + 4) for u, v in _K4], 8),
}


def check_disconnected_exits_3(capsys, tmp_path, *argv):
    """``paramdiam *argv FILE`` on each DISCONNECTED graph exits 3 with
    nothing on stdout and one ``error: `` line on stderr."""
    for name, (edges, n) in DISCONNECTED.items():
        p = tmp_path / f"{name}.el"
        save_edge_list(from_edge_list(edges, n), str(p))
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert code == 3, (name, argv)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (name, argv)


class TestParams:
    def test_report(self, capsys, path_graph):
        code, out, _ = run(capsys, "params", path_graph)
        assert code == 0
        rep = json.loads(out)
        assert rep["n"] == 4 and rep["feedback_edge_number"] == 0

    def test_exit_code_disconnected(self, capsys, tmp_path):
        p = tmp_path / "disc.el"
        save_edge_list(from_edge_list([(0, 1), (2, 3)], 4), str(p))
        code, out, err = run(capsys, "params", str(p))
        assert code == 3
        assert out == "" and "error" in err
        check_disconnected_exits_3(capsys, tmp_path, "params")


class TestSolve:
    @pytest.mark.parametrize(
        "algo", ["auto", "naive", "msbfs", "fes", "cograph", "hindex-diam", "clique"]
    )
    def test_all_algorithms_agree(self, capsys, path_graph, algo):
        code, out, _ = run(capsys, "solve", path_graph, "--algo", algo)
        assert code == 0
        assert json.loads(out)["diameter"] == 3

    def test_verify_match(self, capsys, path_graph):
        code, out, _ = run(capsys, "solve", path_graph, "--verify")
        assert code == 0
        assert json.loads(out)["verify"] == "match"

    def test_trace_goes_to_stderr(self, capsys, tmp_path):
        # a theta graph is its own core: three paths between two high vertices
        p = str(tmp_path / "theta.el")
        save_edge_list(from_edge_list(_THETA, 5), p)
        code, out, err = run(capsys, "solve", p, "--algo", "fes", "--trace")
        assert code == 0
        assert json.loads(out)["diameter"] == 2  # stdout stays valid JSON
        (event,) = [json.loads(line) for line in err.splitlines()]
        assert event["phase"] == "core-bounds" and event["core_n"] == 5

    def test_explicit_modulator(self, capsys, path_graph, tmp_path):
        mod = tmp_path / "k.txt"
        mod.write_text("1 2\n")
        code, out, _ = run(
            capsys, "solve", path_graph, "--algo", "cograph", "--modulator", str(mod)
        )
        assert code == 0
        assert json.loads(out)["diameter"] == 3

    def test_msbfs_trace_is_one_final_event(self, capsys, path_graph):
        code, out, err = run(capsys, "solve", path_graph, "--algo", "msbfs", "--trace")
        assert code == 0
        assert json.loads(out)["diameter"] == 3
        (event,) = [json.loads(line) for line in err.splitlines()]
        assert set(event) == {"passes", "candidates", "chunks", "rounds", "lower", "upper"}
        assert event["lower"] == event["upper"] == 3

    @pytest.mark.parametrize("algo", ["auto", "fes"])
    def test_modulator_rejected_for_algos_that_take_none(self, capsys, path_graph, tmp_path, algo):
        mod = tmp_path / "k.txt"
        mod.write_text("1 2\n")
        code, out, err = run(
            capsys, "solve", path_graph, "--algo", algo, "--modulator", str(mod)
        )
        assert code == 4
        assert out == "" and "needs --algo cograph|hindex-diam|clique, not" in err

    def test_deletion_is_not_an_algorithm(self, capsys, path_graph):
        # nor is bounded: the bounds alone are a route inside msbfs
        for algo in ("deletion", "bounded"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", path_graph, "--algo", algo])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_exit_code_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("not a graph\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "error" in err

    def test_exit_code_non_integer_edge(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("3 1\n0 x\n")
        code, out, err = run(capsys, "solve", str(bad), "--algo", "fes")
        assert code == 2
        assert out == "" and "error" in err

    def test_exit_code_duplicate_edge_before_too_few_edges(self, capsys, tmp_path):
        p = tmp_path / "dup.el"
        p.write_text("4 2\n0 1\n1 0\n")  # also too few edges to connect 4 vertices
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2
        assert out == "" and "duplicate edge (1, 0)" in err

    def test_exit_code_disconnected(self, capsys, tmp_path):
        p = tmp_path / "disc.el"
        save_edge_list(from_edge_list([(0, 1)], 3), str(p))
        code, _, _ = run(capsys, "solve", str(p), "--algo", "naive")
        assert code == 3
        for algo in ALGOS:
            check_disconnected_exits_3(capsys, tmp_path, "solve", "--algo", algo)

    def test_exit_code_disconnected_fes(self, capsys, tmp_path):
        # the loader rejects too few edges before fes runs
        p = tmp_path / "two-paths.el"
        save_edge_list(from_edge_list([(0, 1), (1, 2), (3, 4), (4, 5)], 6), str(p))
        code, out, err = run(capsys, "solve", str(p), "--algo", "fes")
        assert code == 3
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        check_disconnected_exits_3(capsys, tmp_path, "solve", "--algo", "fes")

    def test_exit_code_bad_modulator(self, capsys, tmp_path):
        p = str(tmp_path / "long.el")
        save_edge_list(from_edge_list([(i, i + 1) for i in range(6)], 7), p)
        mod = tmp_path / "k.txt"
        mod.write_text("0\n")  # removing 0 still leaves a path on six vertices
        code, _, _ = run(
            capsys, "solve", p, "--algo", "cograph", "--modulator", str(mod)
        )
        assert code == 4

    def test_empty_modulator_is_checked_like_any_other(self, capsys, tmp_path):
        # component_diameters checks every modulator: C5 has induced P4s
        # but diameter 2, so K = {} is valid for it, while P4 has diameter 3
        c5 = str(tmp_path / "c5.el")
        save_edge_list(from_edge_list([(i, (i + 1) % 5) for i in range(5)], 5), c5)
        mod = tmp_path / "empty.txt"
        mod.write_text("")
        code, out, _ = run(
            capsys, "solve", c5, "--algo", "cograph", "--modulator", str(mod), "--verify"
        )
        assert code == 0
        report = json.loads(out)
        assert report["diameter"] == 2 and report["verify"] == "match"
        p4 = str(tmp_path / "p4.el")
        save_edge_list(from_edge_list([(0, 1), (1, 2), (2, 3)], 4), p4)
        code, out, err = run(capsys, "solve", p4, "--algo", "cograph", "--modulator", str(mod))
        assert code == 4
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_cograph_scans_for_p4s_once(self, capsys, tmp_path, monkeypatch):
        # the default modulator of a cograph is empty; the scan that found
        # it is the only one
        p = str(tmp_path / "cg.el")
        g = gen_random_cograph_plus(60, 0, 0)
        save_edge_list(g, p)
        scan = paramdiam.params._p4_scan
        calls = []

        def counted(g):
            calls.append(g)
            return scan(g)

        monkeypatch.setattr(paramdiam.params, "_p4_scan", counted)
        code, out, _ = run(capsys, "solve", p, "--algo", "cograph")
        assert code == 0
        report = json.loads(out)
        assert report["diameter"] == naive_diameter(g)
        assert report["parameters"] == {"cograph_modulator_size": 0}
        assert len(calls) == 1

    @pytest.mark.parametrize("algo", MODULATOR_ALGOS)
    def test_invalid_modulator_exits_4_before_disconnection(self, capsys, tmp_path, algo):
        # the modulator is validated before its first search finds the
        # graph disconnected
        p = str(tmp_path / "two-triangles.el")
        save_edge_list(from_edge_list(*DISCONNECTED["two-triangles"]), p)
        mod = tmp_path / "k.txt"
        mod.write_text("9\n")
        code, out, err = run(capsys, "solve", p, "--algo", algo, "--modulator", str(mod))
        assert code == 4
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("token", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
    def test_modulator_follows_the_edge_list_token_grammar(self, capsys, tmp_path, token):
        # K_{2,9} on sides {1, 10} and the rest: removing either 1 or 10
        # leaves a star, a cograph, so int() reading 1_0 as 10 or the
        # Arabic-Indic one as 1 would pass as a valid modulator
        p = str(tmp_path / "k29.el")
        save_edge_list(
            from_edge_list([(c, v) for c in (1, 10) for v in range(11) if v not in (1, 10)], 11),
            p,
        )
        mod = tmp_path / "k.txt"
        mod.write_text(token + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "solve", p, "--algo", "cograph", "--modulator", str(mod)
        )
        assert code == 4
        assert out == "" and "non-integer vertex id" in err

    def test_fes_fallback_runs_and_verifies(self, capsys, tmp_path):
        # the bounds do not settle this core: cases 1-3 answer it
        p = str(tmp_path / "g.el")
        code, _, _ = run(
            capsys,
            "generate", "tree-plus-k", "--n", "300", "--k", "5", "--seed", "5", "--out", p,
        )
        assert code == 0
        code, out, err = run(capsys, "solve", p, "--algo", "fes", "--trace", "--verify")
        assert code == 0
        assert json.loads(out)["verify"] == "match"
        (event,) = map(json.loads, err.splitlines())
        assert event["phase"] == "core-bounds" and event["fallback"] is not None

    @pytest.mark.parametrize("algo", ["fes", "cograph", "hindex-diam"])
    def test_distance_table_over_the_memory_limit_exits_1(
        self, capsys, tmp_path, monkeypatch, algo
    ):
        # fes falls back to case 1 on this graph (see the test above); the
        # case-1 rows, the modulator rows and the hub rows are bfs_rows tables
        p = str(tmp_path / "g.el")
        save_edge_list(gen_tree_plus_k(300, 5, 5), p)
        monkeypatch.setattr("paramdiam.graph.BFS_ROWS_MAX_BYTES", 0)
        code, out, err = run(capsys, "solve", p, "--algo", algo)
        assert code == 1
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "BFS_ROWS_MAX_BYTES" in err

    def test_exit_code_empty_hub_set(self, capsys, tmp_path):
        p = str(tmp_path / "c5.el")
        save_edge_list(from_edge_list([(i, (i + 1) % 5) for i in range(5)], 5), p)
        mod = tmp_path / "empty.txt"
        mod.write_text("")
        code, out, err = run(
            capsys, "solve", p, "--algo", "hindex-diam", "--modulator", str(mod), "--verify"
        )
        assert code == 4
        assert out == "" and "error" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "solve", str(tmp_path / "missing.el"))
        assert code == 1


@pytest.mark.parametrize(
    "argv, bad, code",
    [
        (["solve", "{bad}"], "3 2\n0 1\n1 2 # \xff\n", 2),
        (["params", "{bad}"], "3 2\n0 1\n1 2 # \xff\n", 2),
        (["solve", "{path}", "--algo", "clique", "--modulator", "{bad}"], "1 \xff\n", 4),
        (["generate", "thm6", "--cnf", "{bad}", "--out", "{out}"], "c \xff\np cnf 1 1\n1 0\n", 2),
    ],
    ids=["edge-list", "params", "modulator", "cnf"],
)
def test_non_utf8_input_is_one_error_line(capsys, tmp_path, path_graph, argv, bad, code):
    bad_path = tmp_path / "bad.txt"
    bad_path.write_bytes(bad.encode("latin-1"))
    names = {"bad": str(bad_path), "path": path_graph, "out": str(tmp_path / "g.el")}
    got, out, err = run(capsys, *(a.format(**names) for a in argv))
    assert got == code
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8" in err


class TestGenerate:
    def test_random_family_requires_seed(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "tree-plus-k", "--out", str(tmp_path / "g.el")
        )
        assert code == 1 and "seed" in err

    @pytest.mark.parametrize(
        "family, option", [("thm1", "input"), ("thm4", "input"), ("thm6", "cnf")]
    )
    def test_construction_requires_its_input(self, capsys, tmp_path, family, option):
        code, out, err = run(capsys, "generate", family, "--out", str(tmp_path / "g.el"))
        assert code == 1
        assert out == "" and err == f"error: --{option} is required for family {family!r}\n"

    def test_tree_plus_k(self, capsys, tmp_path):
        out_path = str(tmp_path / "g.el")
        code, _, _ = run(
            capsys,
            "generate", "tree-plus-k", "--n", "40", "--k", "6",
            "--seed", "1", "--out", out_path,
        )
        assert code == 0
        g = load_edge_list(out_path)
        assert g.n == 40 and g.m == 45

    def test_construction_writes_sidecar(self, capsys, tmp_path):
        src = str(tmp_path / "src.el")
        save_edge_list(from_edge_list([(0, 1), (0, 2), (1, 2), (2, 3)], 4), src)
        out_path = str(tmp_path / "g.el")
        code, _, _ = run(
            capsys, "generate", "thm1", "--input", src, "--out", out_path
        )
        assert code == 0
        g = load_edge_list(out_path)
        assert naive_diameter(g) == 3
        with open(out_path + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        assert sidecar["relation"] == "plus-one"

    def test_cnf_construction(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 -2 0\n-1 2 0\n")
        out_path = str(tmp_path / "g.el")
        code, _, _ = run(
            capsys, "generate", "thm6", "--cnf", str(cnf), "--out", out_path
        )
        assert code == 0
        assert naive_diameter(load_edge_list(out_path)) == 5


class TestSelectMs:
    def test_auto_reports_selection_time(self, capsys, path_graph):
        code, out, _ = run(capsys, "solve", path_graph)
        rep = json.loads(out)
        assert code == 0 and rep["algo"] != "auto"
        assert isinstance(rep["select_ms"], float) and rep["select_ms"] >= 0.0

    def test_explicit_algo_reports_zero(self, capsys, path_graph):
        code, out, _ = run(capsys, "solve", path_graph, "--algo", "naive")
        assert code == 0
        assert json.loads(out)["select_ms"] == 0.0

    @pytest.mark.parametrize("algo", ["auto", "fes"])
    def test_phase_times_are_nonnegative_floats(self, capsys, path_graph, algo):
        code, out, _ = run(capsys, "solve", path_graph, "--algo", algo)
        rep = json.loads(out)
        assert code == 0
        for key in ("load_ms", "select_ms", "ms"):
            assert isinstance(rep[key], float) and rep[key] >= 0.0, key


def caterpillar_plus(spine, leaves, extra):
    """A path of ``spine`` hubs with ``leaves`` leaves each, plus ``extra``
    leaf-to-leaf edges: h-index ``spine``, feedback edge number ``extra``."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    leaf_ids = []
    for i in range(spine):
        for j in range(leaves):
            leaf = spine + i * leaves + j
            edges.append((i, leaf))
            leaf_ids.append(leaf)
    edges += [(leaf_ids[j], leaf_ids[-1 - j]) for j in range(extra)]
    return from_edge_list(edges, spine * (leaves + 1))


def auto_corpus():
    """Seeded graphs of the random families, two small special cases, and
    the three constructions."""
    graphs = [gen_tree_plus_k(n, k, seed) for seed, (n, k) in
              enumerate(((60, 0), (80, 3), (120, 8), (200, 15)))]
    graphs += [gen_connected_er(n, p, seed) for seed, (n, p) in
               enumerate(((15, 0.4), (30, 0.2), (50, 0.12), (80, 0.08)))]
    graphs += [gen_random_cograph_plus(n, extra, seed) for seed, (n, extra) in
               enumerate(((20, 0), (40, 2), (60, 3), (90, 6)))]
    graphs.append(from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4))
    graphs.append(caterpillar_plus(10, 10, 6))
    graphs += [bipartite_girth_construction(gen_connected_er(15, 0.3, 1)).graph,
               bisection_construction(gen_tree_plus_k(15, 3, 2)).graph,
               sat_to_diameter(random_3cnf(4, 6, 3)).graph]
    return graphs


@pytest.fixture
def no_modulator_scan(monkeypatch):
    """Make any cograph-modulator scan fail the test."""
    def scan(g):
        raise AssertionError("the cograph-modulator scan ran")

    monkeypatch.setattr(paramdiam.params, "_p4_scan", scan)


def solve_auto(capsys, path):
    """``solve`` with the default algorithm: (exit code, report).  Building
    neighbour masks, at any name its callers look it up, fails the test."""
    def masks(g):
        raise AssertionError("auto built neighbour masks")

    with pytest.MonkeyPatch.context() as mp:
        for module in (paramdiam.params, paramdiam.cograph):
            mp.setattr(module, "neighbor_masks", masks)
        code, out, _ = run(capsys, "solve", path)
    return code, json.loads(out) if out else None


class TestPickAuto:
    def test_route_follows_pass_bound(self, capsys, tmp_path, no_modulator_scan):
        routes = set()
        for i, g in enumerate(auto_corpus()):
            want = "fes" if 4 * (g.m - g.n) < g.n else "msbfs"
            assert _pick_auto(g) == want
            path = str(tmp_path / f"g{i}.el")
            save_edge_list(g, path)
            code, rep = solve_auto(capsys, path)
            assert code == 0 and rep["algo"] == want
            assert rep["diameter"] == naive_diameter(g)
            routes.add(want)
        assert routes == {"fes", "msbfs"}

    def test_pass_bound_is_strict(self):
        """fes only while its 4(k - 1) passes stay below n: a cycle with
        two chords has k = 3, so 4(k - 1) = 8."""
        def cycle_with_two_chords(n):
            cycle = [(i, (i + 1) % n) for i in range(n)]
            return from_edge_list(cycle + [(0, 2), (0, 3)], n)

        assert _pick_auto(cycle_with_two_chords(8)) == "msbfs"
        assert _pick_auto(cycle_with_two_chords(9)) == "fes"

    def test_large_sparse_tree_routes_to_fes(self, capsys, tmp_path, no_modulator_scan):
        """n = 100000, where a modulator scan would build n^2/16 bytes of
        neighbour masks."""
        path = str(tmp_path / "tree.el")
        save_edge_list(gen_tree_plus_k(100000, 50, 2), path)
        code, rep = solve_auto(capsys, path)
        assert code == 0 and rep["algo"] == "fes"
        assert rep["parameters"] == {"feedback_edge_number": 50}


@pytest.mark.skipif(importlib.util.find_spec("networkx") is None, reason="needs networkx")
@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12, connected_only=True))
def test_every_algo_matches_networkx(g):
    """``solve --algo a`` prints networkx's diameter for every ``a`` in ALGOS."""
    import networkx as nx

    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    want = nx.diameter(ref)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.el")
        save_edge_list(g, path)
        for algo in ALGOS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["solve", path, "--algo", algo])
            assert code == 0, algo
            assert json.loads(out.getvalue())["diameter"] == want, algo


@st.composite
def family_instances(draw):
    """A seeded instance of one of the six families the benchmark's
    auto-mixed workload solves, at small sizes."""
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(["tree-plus-k", "er", "cograph-plus", "thm1", "thm4", "thm6"]))
    if family == "thm6":
        num_vars = draw(st.integers(3, 6))
        return sat_to_diameter(random_3cnf(num_vars, draw(st.integers(1, 12)), seed)).graph
    n = draw(st.integers(1, 14 if family in ("thm1", "thm4") else 40))
    if family == "cograph-plus":
        return gen_random_cograph_plus(n, draw(st.integers(0, 4)), seed)
    if family in ("er", "thm1"):
        g = gen_connected_er(n, draw(st.floats(0.25, 0.8)), seed)
        return g if family == "er" else bipartite_girth_construction(g).graph
    g = gen_tree_plus_k(n, draw(st.integers(0, min(6, (n - 1) * (n - 2) // 2))), seed)
    return g if family == "tree-plus-k" else bisection_construction(g).graph


@pytest.mark.skipif(importlib.util.find_spec("networkx") is None, reason="needs networkx")
@settings(max_examples=120, deadline=None)
@given(family_instances())
def test_generated_families_match_networkx(g):
    """``solve --algo auto``, ``solve --algo msbfs`` and the bounds alone
    give networkx's diameter on the generator families and constructions."""
    import networkx as nx

    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    want = nx.diameter(ref)
    assert solve_bounds_alone(g) == want
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.el")
        save_edge_list(g, path)
        for algo in ("auto", "msbfs"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["solve", path, "--algo", algo]) == 0
            assert json.loads(out.getvalue())["diameter"] == want, algo


def run_in_1_gib(*argv):
    """``python -m paramdiam.cli ARGV`` in a new interpreter whose address
    space is capped at 1 GiB, so that a run that allocates per vertex on a
    huge header fails fast instead of exhausting memory; the exit code."""
    resource = pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(paramdiam.cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "paramdiam.cli", *argv],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode


@pytest.mark.parametrize("command", ["solve", "params", "generate thm1", "generate thm4"])
def test_header_too_sparse_to_connect_exits_3_before_allocating(tmp_path, command):
    huge = tmp_path / "huge.el"
    huge.write_text("1000000000 0\n")
    small = tmp_path / "small.el"
    small.write_text("3 2\n0 1\n1 2\n")

    def argv(path):
        if command.startswith("generate"):
            return [*command.split(), "--input", str(path), "--out", str(tmp_path / "out.el")]
        return [command, str(path)]

    assert run_in_1_gib(*argv(small)) == 0  # the cap leaves room for a run
    assert run_in_1_gib(*argv(huge)) == 3
