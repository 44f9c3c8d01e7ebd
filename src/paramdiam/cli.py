"""Command-line entry point: params, solve, generate.

Exit codes are part of the contract so harnesses can script against them:
0 success, 2 unparseable input, 3 disconnected graph, 4 invalid modulator,
5 verification mismatch, 1 anything else.  Each solver learns that a graph
is disconnected from its first distance search, and a ``--modulator`` is
validated in full, its ids and then its structure, before that search: a
disconnected graph with an invalid modulator exits 4.  The loader's edge
count check below still exits 3 before the modulator file is read.

A ``solve`` process is mostly start-up and shut-down, so this module keeps
both short:

- Of the solver modules, only ``graph`` is imported here, and it imports
  no numpy at module level.  ``fes``, ``params``, ``cograph``, ``hindex``, ``deletion`` and
  ``constructions`` are imported by the subcommand or ``--algo`` branch
  that runs them, so ``auto`` loads ``fes`` only on a graph it routes
  there, and ``msbfs`` and ``naive`` never load it.
- numpy loads only when a step needs it: an edge list of at least
  ``graph.LIST_PARSE_MAX_EDGES`` edges, fes's case sweeps when its core
  bounds do not settle, or the ``cograph`` and ``hindex-diam`` solvers.
  ``solve`` on a smaller input runs without it by ``clique`` or
  ``naive``, and usually by ``auto``, ``fes`` or ``msbfs``.
- ``solve``, ``params`` and the ``--input`` of ``generate thm1|thm4``
  need a connected graph, so a header of n >= 2 vertices and fewer than
  n - 1 edges exits 3 before any per-vertex allocation.  A malformed or
  non-UTF-8 text, or an edge out of range, a self-loop or a duplicate
  edge, exits 2 first.  So does a non-UTF-8 CNF file; a non-UTF-8
  ``--modulator`` file exits 4.  An edge list's ``error:`` line is the same
  whichever parser its header picks: the list parser words every text error.
- Loading keeps no parse temporary past the step that uses it (see
  ``graph.parse_edge_list``), so what a ``solve`` holds when its solver
  starts is its graph, and the parse peaks at about 1.5 times the graph.
- ``main()`` with no ``argv`` (``python -m paramdiam.cli`` and the
  ``paramdiam`` console script) turns off the cyclic garbage collector and
  freezes the import heap before parsing, and again when the run ends.
  The run then makes no GC pass over its graph, and the collection at
  interpreter exit skips every module loaded, numpy included when a step
  loaded it.  ``main([...])`` called in-process leaves the GC alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

# Set before numpy can load: no solver makes a BLAS call, so skip OpenBLAS's thread pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .errors import (
    CnfParseError,
    DisconnectedGraphError,
    GraphInputError,
    InvalidModulatorError,
    ParamDiamError,
)
from .graph import (
    Graph,
    _ints,
    _read_text,
    load_edge_list,
    naive_diameter,
    save_edge_list,
    solve_certified,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BAD_MODULATOR = 4
EXIT_VERIFY_MISMATCH = 5

ALGOS = ("auto", "naive", "msbfs", "fes", "cograph", "hindex-diam", "clique")
MODULATOR_ALGOS = ("cograph", "hindex-diam", "clique")


def _load_modulator(path: str) -> set[int]:
    toks = _read_text(path, InvalidModulatorError).split()
    try:
        return set(_ints([toks], True))  # the edge-list token grammar in full
    except ValueError:
        raise InvalidModulatorError(f"non-integer vertex id in {path}") from None


def _trace_sink(enabled: bool):
    if not enabled:
        return None

    def sink(event: dict) -> None:
        print(json.dumps(event), file=sys.stderr)

    return sink


def _pick_auto(g: Graph) -> str:
    """``"fes"`` when its worst case makes fewer BFS passes than n, else ``"msbfs"``.

    With k = m - n + 1, ``solve_fes`` makes at most two BFS passes per high
    vertex of its reduced core, which has at most 2(k - 1) of them: at most
    4(k - 1) passes.  Bounding alone may take n passes, one per vertex, so
    the other route, ``solve_certified``, bounds under a pass budget and
    certifies the vertices left with the multi-source bit-parallel kernel.
    Both are exact on any connected graph, so the rule picks in O(1), and no
    parameter or modulator is computed to choose.
    """
    k = g.m - g.n + 1
    return "fes" if 4 * (k - 1) < g.n else "msbfs"


def _run_solver(g: Graph, algo: str, modulator: set[int] | None, trace) -> tuple[int, dict]:
    if algo == "naive":
        return naive_diameter(g), {}
    if algo == "msbfs":
        return solve_certified(g, trace), {}
    if algo == "fes":
        from .fes import solve_fes

        return solve_fes(g, trace), {"feedback_edge_number": g.m - g.n + 1}
    if algo == "cograph":
        from .cograph import solve_cograph
        from .params import cograph_modulator

        if modulator is None:
            modulator = cograph_modulator(g)
        return solve_cograph(g, modulator), {"cograph_modulator_size": len(modulator)}
    if algo == "hindex-diam":
        from .hindex import solve_hd
        from .params import h_index

        return solve_hd(g, modulator, trace), {"h_index": h_index(g)}
    if algo == "clique":
        from .deletion import solve_clique_modulator
        from .params import clique_modulator_2approx

        k = modulator if modulator is not None else clique_modulator_2approx(g)
        return solve_clique_modulator(g, k), {"clique_modulator_size": len(k)}
    raise ParamDiamError(f"unknown algorithm {algo!r}")


def cmd_params(args) -> int:
    from .params import parameter_report

    g = load_edge_list(args.input, connected=True)
    print(json.dumps(parameter_report(g), indent=2))
    return EXIT_OK


def cmd_solve(args) -> int:
    algo = args.algo
    if args.modulator is not None and algo not in MODULATOR_ALGOS:
        raise InvalidModulatorError(
            f"--modulator needs --algo {'|'.join(MODULATOR_ALGOS)}, not {algo!r}"
        )
    start = time.perf_counter()
    g = load_edge_list(args.input, connected=True)
    load_ms = (time.perf_counter() - start) * 1000.0
    modulator = _load_modulator(args.modulator) if args.modulator is not None else None
    select_ms = 0.0
    if algo == "auto":
        start = time.perf_counter()
        algo = _pick_auto(g)
        select_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    diameter, used = _run_solver(g, algo, modulator, _trace_sink(args.trace))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = {
        "input": args.input,
        "algo": algo,
        "diameter": diameter,
        "parameters": used,
        "ms": elapsed_ms,
        "load_ms": load_ms,
        "select_ms": select_ms,
        "verify": None,
    }
    exit_code = EXIT_OK
    if args.verify:
        expected = naive_diameter(g)
        if expected == diameter:
            report["verify"] = "match"
        else:
            report["verify"] = {"mismatch": {"expected": expected, "got": diameter}}
            exit_code = EXIT_VERIFY_MISMATCH
    print(json.dumps(report, indent=2))
    return exit_code


def cmd_generate(args) -> int:
    from .constructions import (
        bipartite_girth_construction,
        bisection_construction,
        gen_connected_er,
        gen_random_cograph_plus,
        gen_tree_plus_k,
        parse_dimacs_cnf,
        sat_to_diameter,
    )

    family = args.family
    sidecar = None
    if family in ("thm1", "thm4"):
        build = bipartite_girth_construction if family == "thm1" else bisection_construction
        out = build(load_edge_list(_required(args, "input"), connected=True))
        g, sidecar = out.graph, {"relation": out.relation, "witnesses": out.witnesses}
    elif family == "thm6":
        formula = parse_dimacs_cnf(_read_text(_required(args, "cnf"), CnfParseError))
        out = sat_to_diameter(formula)
        g, sidecar = out.graph, {"relation": out.relation, "witnesses": out.witnesses}
    elif family == "tree-plus-k":
        g = gen_tree_plus_k(args.n, args.k, _required(args, "seed"))
    elif family == "cograph-plus":
        g = gen_random_cograph_plus(args.n, args.extra, _required(args, "seed"))
    elif family == "er":
        g = gen_connected_er(args.n, args.p, _required(args, "seed"))
    else:  # pragma: no cover - argparse restricts choices
        raise ParamDiamError(f"unknown family {family!r}")
    save_edge_list(g, args.out, comment=f"paramdiam generate {family}")
    if sidecar is not None:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
    return EXIT_OK


def _required(args, option: str):
    """The value of ``--option``, which the family being generated needs."""
    value = getattr(args, option)
    if value is None:
        raise ParamDiamError(f"--{option} is required for family {args.family!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramdiam",
        description="Exact graph diameter via parameterized algorithms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="structural parameter report as JSON")
    p.add_argument("input", help="edge-list file")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("solve", help="compute the diameter")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--algo", choices=ALGOS, default="auto")
    p.add_argument(
        "--modulator",
        help=f"file of vertex ids; only with --algo {'|'.join(MODULATOR_ALGOS)}",
    )
    p.add_argument("--verify", action="store_true", help="recompute with the naive oracle")
    p.add_argument("--trace", action="store_true", help="JSON trace lines on stderr")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="emit a construction or random instance")
    p.add_argument(
        "family",
        choices=["thm1", "thm4", "thm6", "tree-plus-k", "cograph-plus", "er"],
    )
    p.add_argument("--input", help="edge-list input (thm1, thm4)")
    p.add_argument("--cnf", help="DIMACS CNF input (thm6)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--extra", type=int, default=2)
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--seed", type=int, help="required for the random families")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # a process entry point: the process ends after this call
        gc.disable()
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except InvalidModulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODULATOR
    except (ParamDiamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if argv is None:  # numpy may have loaded since; keep it out of the exit collection
            gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
