"""What a fresh interpreter loads and sets when it imports or runs paramdiam.

Each check runs in its own child process, because the test process has
long since imported numpy and every submodule.
"""

import json
import os
import subprocess
import sys
import tokenize

import pytest

import paramdiam
from paramdiam import from_edge_list, save_edge_list
from paramdiam.cli import _pick_auto
from paramdiam.constructions import gen_tree_plus_k
from paramdiam.graph import LIST_PARSE_MAX_EDGES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(paramdiam.__file__)))

EXPORTS = (
    "CnfParseError",
    "ContractViolationError",
    "DisconnectedGraphError",
    "DuplicateEdgeError",
    "EdgeListParseError",
    "EmptyClauseError",
    "GenerationError",
    "Graph",
    "GraphInputError",
    "InvalidModulatorError",
    "MemoryLimitError",
    "ParamDiamError",
    "SelfLoopError",
    "VertexRangeError",
    "format_edge_list",
    "from_edge_list",
    "load_edge_list",
    "naive_diameter",
    "parse_edge_list",
    "save_edge_list",
    "solve_certified",
    "solve_clique_modulator",
    "solve_cograph",
    "solve_fes",
    "solve_hd",
)

ON_DEMAND = (
    "paramdiam.params",
    "paramdiam.cograph",
    "paramdiam.hindex",
    "paramdiam.deletion",
    "paramdiam.constructions",
)


def fresh(code: str, **env_overrides):
    """Run ``code`` in a new interpreter on this checkout; the JSON it prints last.

    ``OPENBLAS_NUM_THREADS`` is removed from the child's environment unless
    given here.
    """
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_numpy():
    loaded = fresh(
        "import json, sys, paramdiam\n"
        "root = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('paramdiam'))\n"
        "import paramdiam.cli\n"
        "print(json.dumps([root, 'numpy' in sys.modules]))"
    )
    assert loaded == [["paramdiam"], False]


def test_every_export_resolves():
    out = fresh(
        "import json, sys, paramdiam\n"
        "star = {}\n"
        "exec('from paramdiam import *', star)\n"
        "names = paramdiam.__all__\n"
        "bound = [n for n in names if star.get(n) is getattr(paramdiam, n)]\n"
        "home = [n for n in names"
        " if getattr(sys.modules[star[n].__module__], n) is star[n]]\n"
        "try:\n"
        "    paramdiam.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps({'all': names, 'bound': bound, 'home': home,"
        " 'unknown': unknown}))"
    )
    assert out["all"] == sorted(EXPORTS)
    assert out["bound"] == out["all"] and out["home"] == out["all"]
    assert out["unknown"] == "AttributeError"



def test_graph_module_stays_below_the_parser_token_step():
    # Without a bytecode cache every solve compiles graph.py.  CPython's
    # parser doubles its token array once a module passes 4096 tokens
    # (comments and blank lines are none), and that compile's peak then
    # rises by about 0.22 MB, which perfbench's peak RSS shows.
    with open(os.path.join(SRC, "paramdiam", "graph.py"), "rb") as fh:
        tokens = tokenize.tokenize(fh.readline)
        kept = [t for t in tokens if t.type not in (tokenize.COMMENT, tokenize.NL)]
    assert len(kept) < 4096

@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_pins_blas_to_one_thread():
    # paramdiam.cli loads no numpy; a solve that needs it loads it later,
    # as this does
    out = fresh(
        "import json, os, paramdiam.cli\n"
        "import numpy\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),"
        " len(os.listdir('/proc/self/task'))]))"
    )
    assert out == ["1", 1]


def test_cli_keeps_an_explicit_thread_count():
    out = fresh(
        "import json, os, paramdiam.cli\n"
        "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))",
        OPENBLAS_NUM_THREADS="2",
    )
    assert out == "2"


@pytest.fixture
def cycle_file(tmp_path):
    """An 8-cycle with one chord (k = 2), as an edge-list file."""
    path = str(tmp_path / "g.el")
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)]
    save_edge_list(from_edge_list(edges, 8), path)
    return path


@pytest.fixture
def settling_file(tmp_path):
    """A tree plus 3 edges whose fes core bounds settle, so no case runs."""
    path = str(tmp_path / "t.el")
    save_edge_list(gen_tree_plus_k(40, 3, 1), path)
    return path


def run_module(*argv):
    """``python -m paramdiam.cli ARGV`` in a new interpreter, through runpy:
    the exit code and the GC state it leaves, ``[code, enabled, frozen,
    numpy_collectable]``; the last is None when numpy did not load, else
    whether the exit collection would still visit numpy's module dict."""
    return fresh(
        "import gc, json, runpy, sys\n"
        f"sys.argv = ['paramdiam', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('paramdiam.cli', run_name='__main__')\n"
        "    code = 'returned'\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "np = sys.modules.get('numpy')\n"
        "loose = None if np is None else any(o is np.__dict__ for o in gc.get_objects())\n"
        "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count(), loose]))"
    )


def solve_in_process(path, algo, watched):
    """``main(["solve", path, "--algo", algo])`` in a new interpreter: the
    exit code, the GC state before and after, and which ``watched`` modules
    it loaded."""
    return fresh(
        "import contextlib, gc, io, json, sys\n"
        "from paramdiam.cli import main\n"
        "before = [gc.isenabled(), gc.get_freeze_count()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['solve', {path!r}, '--algo', {algo!r}])\n"
        "print(json.dumps({'code': code, 'gc': [before,"
        " [gc.isenabled(), gc.get_freeze_count()]],"
        f" 'loaded': sorted(m for m in sys.modules if m in {tuple(watched)!r})}}))"
    )


@pytest.mark.parametrize("algo", ["auto", "fes", "msbfs"])
def test_in_process_solve_loads_no_other_solver_and_keeps_the_gc(cycle_file, algo):
    # the 8-cycle with a chord takes fes's fallback through cases 1 and 3,
    # whose numpy imports sit inside their functions
    out = solve_in_process(cycle_file, algo, ON_DEMAND)
    assert out == {"code": 0, "gc": [[True, 0], [True, 0]], "loaded": []}


@pytest.mark.parametrize("algo", ["auto", "fes", "msbfs"])
def test_small_solve_loads_no_numpy(settling_file, algo):
    # below LIST_PARSE_MAX_EDGES, and with fes's core bounds settled, numpy
    # is not needed either, nor bulk, which only a refused list parse loads
    out = solve_in_process(settling_file, algo, ON_DEMAND + ("numpy", "paramdiam.bulk"))
    assert out == {"code": 0, "gc": [[True, 0], [True, 0]], "loaded": []}


@pytest.fixture
def grid_file(tmp_path):
    """A 6 x 6 grid (k = 25), which ``auto`` routes to ``msbfs``."""
    path = str(tmp_path / "grid.el")
    edges = [(v, v + 1) for v in range(36) if (v + 1) % 6] + [(v, v + 6) for v in range(30)]
    g = from_edge_list(edges, 36)
    assert _pick_auto(g) == "msbfs"
    save_edge_list(g, path)
    return path


@pytest.mark.parametrize("algo", ["auto", "msbfs", "naive"])
def test_solve_off_the_fes_route_loads_no_fes(grid_file, algo):
    out = solve_in_process(grid_file, algo, ("paramdiam.fes",))
    assert out == {"code": 0, "gc": [[True, 0], [True, 0]], "loaded": []}


def test_fes_route_loads_fes(grid_file):
    out = solve_in_process(grid_file, "fes", ("paramdiam.fes",))
    assert out == {"code": 0, "gc": [[True, 0], [True, 0]], "loaded": ["paramdiam.fes"]}


def test_solve_above_the_list_parse_cutoff_loads_numpy_and_agrees(tmp_path):
    path = str(tmp_path / "big.el")
    save_edge_list(gen_tree_plus_k(LIST_PARSE_MAX_EDGES - 2, 3, 5), path)  # m = cutoff
    out = fresh(
        "import contextlib, io, json, sys\n"
        "from paramdiam.cli import main\n"
        "from paramdiam.fes import solve_fes\n"
        "from paramdiam.graph import _parse_with_lists, load_edge_list\n"
        "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        f"    code = main(['solve', {path!r}, '--algo', 'fes'])\n"
        "numpy_loaded = 'numpy' in sys.modules\n"
        f"listed = _parse_with_lists(open({path!r}).read())\n"
        f"same_graph = load_edge_list({path!r}).adjacency == listed.adjacency\n"
        "print(json.dumps([code, numpy_loaded, same_graph,"
        " json.loads(report.getvalue())['diameter'], solve_fes(listed)]))"
    )
    code, numpy_loaded, same_graph, diameter, listed_diameter = out
    assert code == 0 and numpy_loaded and same_graph
    assert diameter == listed_diameter


def test_module_entry_point_disables_and_freezes_the_gc(cycle_file):
    # fes's case 1 loads numpy during the run, after the first freeze
    code, enabled, frozen, numpy_collectable = run_module("solve", cycle_file)
    assert code == 0 and enabled is False and frozen > 0
    assert numpy_collectable is False


def test_clique_solve_loads_neither_numpy_nor_dataclasses(cycle_file):
    out = solve_in_process(cycle_file, "clique", ("numpy", "dataclasses"))
    assert out == {"code": 0, "gc": [[True, 0], [True, 0]], "loaded": []}


@pytest.mark.parametrize("algo", ["naive", "cograph", "hindex-diam", "clique"])
def test_on_demand_solvers_run_in_a_new_process(cycle_file, algo):
    assert run_module("solve", cycle_file, "--algo", algo, "--verify")[0] == 0


def test_params_and_generate_run_in_a_new_process(cycle_file, tmp_path):
    assert run_module("params", cycle_file)[0] == 0
    out = str(tmp_path / "t.el")
    assert run_module("generate", "tree-plus-k", "--n", "30", "--seed", "1", "--out", out)[0] == 0
    assert run_module("generate", "thm4", "--input", out, "--out", out + ".thm4")[0] == 0
    assert os.path.getsize(out + ".thm4") > 0
