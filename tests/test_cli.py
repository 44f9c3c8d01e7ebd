import json

import pytest

import paramdiam.cli
import paramdiam.cograph
import paramdiam.params
from paramdiam import from_edge_list, load_edge_list, naive_diameter, save_edge_list
from paramdiam.constructions import (
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
    sat_to_diameter,
)
from paramdiam.cli import _pick_auto, main
from test_graph import random_3cnf


@pytest.fixture
def path_graph(tmp_path):
    p = str(tmp_path / "path.el")
    save_edge_list(from_edge_list([(0, 1), (1, 2), (2, 3)], 4), p)
    return p


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestSolve:
    @pytest.mark.parametrize(
        "algo", ["auto", "naive", "fes", "cograph", "hindex-diam", "clique"]
    )
    def test_all_algorithms_agree(self, capsys, path_graph, algo):
        code, out, _ = run(capsys, "solve", path_graph, "--algo", algo)
        assert code == 0
        assert json.loads(out)["diameter"] == 3

    def test_verify_match(self, capsys, path_graph):
        code, out, _ = run(capsys, "solve", path_graph, "--verify")
        assert code == 0
        assert json.loads(out)["verify"] == "match"

    def test_trace_goes_to_stderr(self, capsys, path_graph):
        code, out, err = run(capsys, "solve", path_graph, "--algo", "fes", "--trace")
        assert code == 0
        json.loads(out)  # stdout stays valid JSON
        events = [json.loads(line) for line in err.splitlines()]
        assert events and all("rule" in e for e in events)

    def test_explicit_modulator(self, capsys, path_graph, tmp_path):
        mod = tmp_path / "k.txt"
        mod.write_text("1 2\n")
        code, out, _ = run(
            capsys, "solve", path_graph, "--algo", "cograph", "--modulator", str(mod)
        )
        assert code == 0
        assert json.loads(out)["diameter"] == 3

    def test_bounded(self, capsys, path_graph):
        code, out, _ = run(capsys, "solve", path_graph, "--algo", "bounded", "--verify")
        assert code == 0
        rep = json.loads(out)
        assert rep["diameter"] == 3 and rep["verify"] == "match"

    def test_bounded_trace_is_one_final_event(self, capsys, path_graph):
        code, out, err = run(capsys, "solve", path_graph, "--algo", "bounded", "--trace")
        assert code == 0
        assert json.loads(out)["diameter"] == 3
        events = [json.loads(line) for line in err.splitlines()]
        assert len(events) == 1
        assert events[0]["lower"] == events[0]["upper"] == 3
        assert 1 <= events[0]["passes"] <= 4

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
        with pytest.raises(SystemExit) as exc:
            main(["solve", path_graph, "--algo", "deletion"])
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

    def test_exit_code_disconnected(self, capsys, tmp_path):
        p = tmp_path / "disc.el"
        save_edge_list(from_edge_list([(0, 1)], 3), str(p))
        code, _, _ = run(capsys, "solve", str(p), "--algo", "naive")
        assert code == 3

    def test_exit_code_disconnected_fes(self, capsys, tmp_path):
        p = tmp_path / "two-paths.el"
        save_edge_list(from_edge_list([(0, 1), (1, 2), (3, 4), (4, 5)], 6), str(p))
        code, out, err = run(capsys, "solve", str(p), "--algo", "fes")
        assert code == 3
        assert out == "" and "error" in err

    def test_exit_code_bad_modulator(self, capsys, tmp_path):
        p = str(tmp_path / "long.el")
        save_edge_list(from_edge_list([(i, i + 1) for i in range(6)], 7), p)
        mod = tmp_path / "k.txt"
        mod.write_text("0\n")  # removing 0 still leaves a path on six vertices
        code, _, _ = run(
            capsys, "solve", p, "--algo", "cograph", "--modulator", str(mod)
        )
        assert code == 4

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


class TestGenerate:
    def test_random_family_requires_seed(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "generate", "tree-plus-k", "--out", str(tmp_path / "g.el")
        )
        assert code == 1 and "seed" in err

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
            want = "fes" if 4 * (g.m - g.n) < g.n else "bounded"
            assert _pick_auto(g) == want
            path = str(tmp_path / f"g{i}.el")
            save_edge_list(g, path)
            code, rep = solve_auto(capsys, path)
            assert code == 0 and rep["algo"] == want
            assert rep["diameter"] == naive_diameter(g)
            routes.add(want)
        assert routes == {"fes", "bounded"}

    def test_pass_bound_is_strict(self):
        """fes only while its 4(k - 1) passes stay below n: a cycle with
        two chords has k = 3, so 4(k - 1) = 8."""
        def cycle_with_two_chords(n):
            cycle = [(i, (i + 1) % n) for i in range(n)]
            return from_edge_list(cycle + [(0, 2), (0, 3)], n)

        assert _pick_auto(cycle_with_two_chords(8)) == "bounded"
        assert _pick_auto(cycle_with_two_chords(9)) == "fes"

    def test_large_sparse_tree_routes_to_fes(self, capsys, tmp_path, no_modulator_scan):
        """n = 100000, where a modulator scan would build n^2/16 bytes of
        neighbour masks."""
        path = str(tmp_path / "tree.el")
        save_edge_list(gen_tree_plus_k(100000, 50, 2), path)
        code, rep = solve_auto(capsys, path)
        assert code == 0 and rep["algo"] == "fes"
        assert rep["parameters"] == {"feedback_edge_number": 50}
