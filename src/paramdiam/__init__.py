"""Exact graph diameter through parameterized algorithms.

The package bundles a small graph core, structural parameter estimators,
four exact diameter solvers keyed to different parameters, one exact
solver that needs no parameter (``solve_bounded``, which prunes BFS
sources with eccentricity bounds), lower-bound style graph constructions,
and a CLI wrapping all of it.

The package root exports the solvers, the graph type, edge-list I/O and
the error types; everything else is imported from its submodule
(``paramdiam.params``, ``paramdiam.constructions``, ...).
"""

from .cograph import solve_cograph
from .deletion import solve_clique_modulator
from .errors import (
    CnfParseError,
    ContractViolationError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeListParseError,
    EmptyClauseError,
    GenerationError,
    GraphInputError,
    InvalidModulatorError,
    ParamDiamError,
    SelfLoopError,
    VertexRangeError,
)
from .fes import solve_fes
from .graph import (
    Graph,
    format_edge_list,
    from_edge_list,
    load_edge_list,
    naive_diameter,
    parse_edge_list,
    save_edge_list,
    solve_bounded,
)
from .hindex import solve_hd

__version__ = "0.1.0"

__all__ = [
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
]
