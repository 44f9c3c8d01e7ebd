"""What a fresh interpreter loads and sets when it imports paramdiam.

Each check runs in its own child process, because the test process has
long since imported numpy and every submodule.
"""

import json
import os
import subprocess
import sys

import pytest

import paramdiam

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
    "ParamDiamError",
    "SelfLoopError",
    "VertexRangeError",
    "format_edge_list",
    "from_edge_list",
    "load_edge_list",
    "naive_diameter",
    "parse_edge_list",
    "save_edge_list",
    "solve_bounded",
    "solve_clique_modulator",
    "solve_cograph",
    "solve_fes",
    "solve_hd",
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
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('paramdiam'))))"
    )
    assert loaded == ["paramdiam"]


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_pins_blas_to_one_thread():
    out = fresh(
        "import json, os, paramdiam.cli\n"
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
