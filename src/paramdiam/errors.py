"""Exception hierarchy shared by all modules."""


class ParamDiamError(Exception):
    """Base class for all errors raised by this package."""


class GraphInputError(ParamDiamError):
    """Unusable input: malformed file or invalid graph description."""


class EdgeListParseError(GraphInputError):
    """Edge-list text that does not follow the ``n m`` / ``u v`` format."""


class SelfLoopError(GraphInputError):
    """An edge of the form (v, v)."""


class DuplicateEdgeError(GraphInputError):
    """The same undirected edge listed twice."""


class VertexRangeError(GraphInputError):
    """An endpoint outside 0..n-1."""


class CnfParseError(GraphInputError):
    """Malformed DIMACS CNF input."""


class EmptyClauseError(GraphInputError):
    """A CNF clause with no literals."""


class DisconnectedGraphError(ParamDiamError):
    """Operation defined on connected graphs got a disconnected one."""


class InvalidModulatorError(ParamDiamError):
    """A supplied deletion set does not place the rest in the required class."""


class ContractViolationError(ParamDiamError):
    """A reduction rule or case analysis was invoked outside its precondition."""


class MemoryLimitError(ParamDiamError):
    """A table would take more bytes than the limit set for it."""


class GenerationError(ParamDiamError):
    """Infeasible generator parameters."""
