"""Command-line entry point: params, solve, generate.

Exit codes are part of the contract so harnesses can script against them:
0 success, 2 unparseable input, 3 disconnected graph, 4 invalid modulator,
5 verification mismatch, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Set before numpy loads: no solver makes a BLAS call, so skip OpenBLAS's thread pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .cograph import solve_cograph
from .constructions import (
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
    parse_dimacs_cnf,
    sat_to_diameter,
)
from .deletion import solve_clique_modulator
from .errors import (
    DisconnectedGraphError,
    GraphInputError,
    InvalidModulatorError,
    ParamDiamError,
)
from .fes import solve_fes
from .graph import (
    Graph,
    load_edge_list,
    naive_diameter,
    save_edge_list,
    solve_bounded,
)
from .hindex import solve_hd
from .params import (
    clique_modulator_2approx,
    cograph_modulator,
    h_index,
    parameter_report,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BAD_MODULATOR = 4
EXIT_VERIFY_MISMATCH = 5

ALGOS = ("auto", "naive", "bounded", "fes", "cograph", "hindex-diam", "clique")
MODULATOR_ALGOS = ("cograph", "hindex-diam", "clique")


def _load_modulator(path: str) -> set[int]:
    with open(path, "r", encoding="utf-8") as fh:
        toks = fh.read().split()
    try:
        return {int(t) for t in toks}
    except ValueError as exc:
        raise InvalidModulatorError(f"non-integer vertex id in {path}") from exc


def _trace_sink(enabled: bool):
    if not enabled:
        return None

    def sink(event: dict) -> None:
        print(json.dumps(event), file=sys.stderr)

    return sink


def _pick_auto(g: Graph) -> str:
    """``"fes"`` when its worst case makes fewer BFS passes than bounded's.

    With k = m - n + 1, ``solve_fes`` makes at most two BFS passes per high
    vertex of its reduced core, which has at most 2(k - 1) of them: at most
    4(k - 1) passes.  ``solve_bounded`` makes at most n.  Both are exact on
    any connected graph, so the rule picks the smaller worst case in O(1),
    and no parameter or modulator is computed to choose.
    """
    k = g.m - g.n + 1
    return "fes" if 4 * (k - 1) < g.n else "bounded"


def _run_solver(g: Graph, algo: str, modulator: set[int] | None, trace) -> tuple[int, dict]:
    if algo == "naive":
        return naive_diameter(g), {}
    if algo == "bounded":
        return solve_bounded(g, trace), {}
    if algo == "fes":
        return solve_fes(g, trace), {"feedback_edge_number": g.m - g.n + 1}
    if algo == "cograph":
        k = modulator if modulator is not None else cograph_modulator(g)
        return solve_cograph(g, k), {"cograph_modulator_size": len(k)}
    if algo == "hindex-diam":
        return solve_hd(g, modulator, trace), {"h_index": h_index(g)}
    if algo == "clique":
        k = modulator if modulator is not None else clique_modulator_2approx(g)
        return solve_clique_modulator(g, k), {"clique_modulator_size": len(k)}
    raise ParamDiamError(f"unknown algorithm {algo!r}")


def cmd_params(args) -> int:
    g = load_edge_list(args.input)
    print(json.dumps(parameter_report(g), indent=2))
    return EXIT_OK


def cmd_solve(args) -> int:
    algo = args.algo
    if args.modulator is not None and algo not in MODULATOR_ALGOS:
        raise InvalidModulatorError(
            f"--modulator needs --algo {'|'.join(MODULATOR_ALGOS)}, not {algo!r}"
        )
    start = time.perf_counter()
    g = load_edge_list(args.input)
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
    family = args.family
    sidecar = None
    if family == "thm1":
        out = bipartite_girth_construction(load_edge_list(args.input))
        g, sidecar = out.graph, {"relation": out.relation, "witnesses": out.witnesses}
    elif family == "thm4":
        out = bisection_construction(load_edge_list(args.input))
        g, sidecar = out.graph, {"relation": out.relation, "witnesses": out.witnesses}
    elif family == "thm6":
        with open(args.cnf, "r", encoding="utf-8") as fh:
            formula = parse_dimacs_cnf(fh.read())
        out = sat_to_diameter(formula)
        g, sidecar = out.graph, {"relation": out.relation, "witnesses": out.witnesses}
    elif family == "tree-plus-k":
        _require_seed(args)
        g = gen_tree_plus_k(args.n, args.k, args.seed)
    elif family == "cograph-plus":
        _require_seed(args)
        g = gen_random_cograph_plus(args.n, args.extra, args.seed)
    elif family == "er":
        _require_seed(args)
        g = gen_connected_er(args.n, args.p, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ParamDiamError(f"unknown family {family!r}")
    save_edge_list(g, args.out, comment=f"paramdiam generate {family}")
    if sidecar is not None:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
    return EXIT_OK


def _require_seed(args) -> None:
    if args.seed is None:
        raise ParamDiamError(f"--seed is required for family {args.family!r}")


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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
