"""Exact graph diameter through parameterized algorithms.

The package bundles a small graph core, structural parameter estimators,
four exact diameter solvers keyed to different parameters, one exact
solver that needs no parameter (``solve_bounded``, which prunes BFS
sources with eccentricity bounds), lower-bound style graph constructions,
and a CLI wrapping all of it.

The package root exports the solvers, the graph type, edge-list I/O and
the error types; everything else is imported from its submodule
(``paramdiam.params``, ``paramdiam.constructions``, ...).

``import paramdiam`` loads no submodule, and so no numpy: each exported
name imports its submodule on first use (PEP 562).  That lets the CLI
choose numpy's BLAS threading before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    "CnfParseError": "errors",
    "ContractViolationError": "errors",
    "DisconnectedGraphError": "errors",
    "DuplicateEdgeError": "errors",
    "EdgeListParseError": "errors",
    "EmptyClauseError": "errors",
    "GenerationError": "errors",
    "GraphInputError": "errors",
    "InvalidModulatorError": "errors",
    "ParamDiamError": "errors",
    "SelfLoopError": "errors",
    "VertexRangeError": "errors",
    "Graph": "graph",
    "format_edge_list": "graph",
    "from_edge_list": "graph",
    "load_edge_list": "graph",
    "naive_diameter": "graph",
    "parse_edge_list": "graph",
    "save_edge_list": "graph",
    "solve_bounded": "graph",
    "solve_clique_modulator": "deletion",
    "solve_cograph": "cograph",
    "solve_fes": "fes",
    "solve_hd": "hindex",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
