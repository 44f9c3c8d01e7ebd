"""Hardness-style graph constructions and seeded random instance generators.

The three constructions transform an input (a connected graph, or a CNF
formula) into a graph whose diameter relates to the input in a machine-
checkable way; each output carries structural witnesses so that the
relation can be verified without re-deriving the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .errors import (
    CnfParseError,
    DisconnectedGraphError,
    EmptyClauseError,
    GenerationError,
    VertexRangeError,
)
from .bulk import _from_pairs, from_edge_list
from .graph import Graph, is_connected


@dataclass(frozen=True)
class ConstructionOutput:
    """Generated graph plus its declared diameter relation and witnesses.

    ``relation`` is one of "plus-one", "plus-four", "five-iff-satisfiable";
    ``witnesses`` is a JSON-able dict of structural metadata (bipartition
    classes, cut edges, dominating sets, vertex role labels).
    """

    graph: Graph
    relation: str
    witnesses: dict


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..num_vars; clauses are tuples of signed literals."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise EmptyClauseError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise CnfParseError(f"literal {lit} outside +-1..{self.num_vars}")


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """DIMACS CNF: 'c' comments, 'p cnf V C' header, 0-terminated clauses."""
    num_vars = None
    declared_clauses = None
    literals: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfParseError(f"bad problem line {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise CnfParseError(f"bad problem line {line!r}") from exc
            continue
        if num_vars is None:
            raise CnfParseError("clause line before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise CnfParseError(f"non-integer literal {tok!r}") from exc
            if lit == 0:
                clauses.append(tuple(literals))
                literals = []
            else:
                literals.append(lit)
    if num_vars is None:
        raise CnfParseError("missing 'p cnf' header")
    if literals:
        raise CnfParseError("trailing clause without terminating 0")
    if declared_clauses != len(clauses):
        raise CnfParseError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))


# ---------------------------------------------------------------------------
# Construction 1: bipartite double cover with pairing edges.
# Vertex v_i splits into u_i = 2i and w_i = 2i + 1.


def bipartite_girth_construction(g: Graph) -> ConstructionOutput:
    """Bipartite output of girth four whose diameter is the input's plus one.

    2n vertices and 2m + n edges: each input edge {i, j} becomes the pair
    {u_i, w_j}, {u_j, w_i}, and every vertex contributes {u_i, w_i}.
    """
    if g.n < 1:
        raise VertexRangeError("input must have at least one vertex")
    if not is_connected(g):
        raise DisconnectedGraphError("input graph must be connected")
    edges = [(2 * i, 2 * i + 1) for i in range(g.n)]
    for i, j in g.edges():
        edges.append((2 * i, 2 * j + 1))
        edges.append((2 * j, 2 * i + 1))
    out = from_edge_list(edges, 2 * g.n)
    witnesses = {
        "side_u": [2 * i for i in range(g.n)],
        "side_w": [2 * i + 1 for i in range(g.n)],
        "pair_edges": [[2 * i, 2 * i + 1] for i in range(g.n)],
    }
    return ConstructionOutput(out, "plus-one", witnesses)


# ---------------------------------------------------------------------------
# Construction 2: pendant 2-paths plus a large star behind a 1-edge cut.
# Vertex v_i yields s_i = i, t_i = n + i, u_i = 2n + i; star vertices
# w_j = 3n + j for j in 0..3n-1 with center w_0.


def bisection_construction(g: Graph) -> ConstructionOutput:
    """Output with 6n vertices, 5n + m edges and diameter the input's plus four.

    The single edge {u_0, w_0} splits the vertices into two 3n halves, so
    the bisection width of the output is one; the minimum degree is one.
    """
    if g.n < 1:
        raise VertexRangeError("input must have at least one vertex")
    if not is_connected(g):
        raise DisconnectedGraphError("input graph must be connected")
    n = g.n
    s = lambda i: i
    t = lambda i: n + i
    u = lambda i: 2 * n + i
    w = lambda j: 3 * n + j
    edges = []
    for i in range(n):
        edges.append((s(i), t(i)))
        edges.append((t(i), u(i)))
    edges.append((u(0), w(0)))
    for j in range(1, 3 * n):
        edges.append((w(0), w(j)))
    for i, j in g.edges():
        edges.append((u(i), u(j)))
    out = from_edge_list(edges, 6 * n)
    witnesses = {
        "cut_edge": [u(0), w(0)],
        "half_a": [s(i) for i in range(n)] + [t(i) for i in range(n)] + [u(i) for i in range(n)],
        "half_b": [w(j) for j in range(3 * n)],
        "roles": {
            "pendant": [s(i) for i in range(n)],
            "middle": [t(i) for i in range(n)],
            "core": [u(i) for i in range(n)],
            "star": [w(j) for j in range(3 * n)],
        },
    }
    return ConstructionOutput(out, "plus-four", witnesses)


# ---------------------------------------------------------------------------
# Construction 3: CNF formula to a graph of diameter five iff satisfiable.


def sat_to_diameter(formula: CnfFormula) -> ConstructionOutput:
    """Graph whose diameter is five iff the formula is satisfiable, never more.

    The variables are split into halves by index (first half vs second);
    one vertex per half-assignment, one per clause, and a conflict vertex
    between an assignment and a clause exactly when the assignment does
    not satisfy the clause.  Four extra vertices dominate everything.
    """
    if not formula.clauses:
        raise EmptyClauseError("formula must contain at least one clause")
    num_vars = formula.num_vars
    if num_vars < 1:
        raise CnfParseError("formula must use at least one variable")
    if num_vars % 2:
        num_vars += 1  # pad with one fresh unused variable
    half = num_vars // 2

    # per clause and half, the bits of the half-assignment that its positive
    # and its negative literals test: an assignment ``bits`` satisfies the
    # clause on that half iff ``pos & bits or neg & ~bits``
    masks: tuple[list[tuple[int, int]], list[tuple[int, int]]] = ([], [])
    for clause in formula.clauses:
        first, second = [0, 0], [0, 0]
        for lit in clause:
            var = abs(lit) - 1
            half_masks, bit = (first, var) if var < half else (second, var - half)
            half_masks[lit < 0] |= 1 << bit
        masks[0].append(tuple(first))
        masks[1].append(tuple(second))

    n_assign = 1 << half
    n_clauses = len(formula.clauses)
    v1 = list(range(n_assign))
    v2 = [n_assign + i for i in range(n_assign)]
    b = [2 * n_assign + j for j in range(n_clauses)]
    next_id = 2 * n_assign + n_clauses

    edges: list[tuple[int, int]] = []
    conflicts: tuple[list[int], list[int]] = ([], [])
    for side, assignments in enumerate((v1, v2)):
        for bits, vertex in enumerate(assignments):
            for j, (pos, neg) in enumerate(masks[side]):
                if not (pos & bits or neg & ~bits):
                    conflicts[side].append(next_id)
                    edges.append((vertex, next_id))
                    edges.append((next_id, b[j]))
                    next_id += 1
    s1, s2 = conflicts
    t1, t2, t3, t4 = next_id, next_id + 1, next_id + 2, next_id + 3
    next_id += 4
    edges.extend((t1, v) for v in v1)
    edges.extend((t2, x) for x in s1)
    edges.extend((t3, x) for x in s2)
    edges.extend((t4, v) for v in v2)
    edges.extend((t2, x) for x in b)
    edges.extend((t3, x) for x in b)
    edges.extend([(t1, t2), (t2, t3), (t3, t4)])

    out = from_edge_list(edges, next_id)
    witnesses = {
        "dominating_set": [t1, t2, t3, t4],
        "roles": {
            "assignments_first_half": v1,
            "assignments_second_half": v2,
            "clauses": b,
            "conflicts_first_half": s1,
            "conflicts_second_half": s2,
            "anchors": [t1, t2, t3, t4],
        },
        "padded_num_vars": num_vars,
    }
    return ConstructionOutput(out, "five-iff-satisfiable", witnesses)


# ---------------------------------------------------------------------------
# Seeded random families for the test corpus.


def gen_tree_plus_k(n: int, k: int, seed: int) -> Graph:
    """Random tree plus k extra edges: feedback edge number exactly k.

    Vertex i >= 1 hangs off ``parent[i - 1] = rng.randrange(i)``; then
    random pairs are drawn until k of them are neither a tree edge nor
    drawn before.  The edges go to the builder unsorted, as one int64
    array of their two endpoint lists, since it sorts its rows anyway.
    """
    import numpy as np

    if n < 1:
        raise GenerationError("need at least one vertex")
    max_extra = n * (n - 1) // 2 - (n - 1)
    if k < 0 or k > max_extra:
        raise GenerationError(f"k={k} infeasible for n={n} (max {max_extra})")
    rng = random.Random(seed)
    parent = list(map(rng.randrange, range(1, n)))
    extra: set[tuple[int, int]] = set()
    while len(extra) < k:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            a, b = (u, v) if u < v else (v, u)
            if parent[b - 1] != a:
                extra.add((a, b))
    lo, hi = zip(*extra) if extra else ((), ())
    ends = np.fromiter(
        chain(parent, lo, range(1, n), hi), dtype=np.int64, count=2 * (n - 1 + k)
    )
    return _from_pairs(ends.reshape(2, -1).T, n)


def gen_random_cograph_plus(n: int, extra: int, seed: int) -> Graph:
    """Random connected cograph on n vertices plus ``extra`` attached vertices.

    The cograph comes from a random union/join recursion with a join at the
    top level (which forces connectivity); each extra vertex picks a small
    random nonempty neighborhood among the earlier vertices.
    """
    if n < 1 or extra < 0:
        raise GenerationError("need n >= 1 and extra >= 0")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []

    def build(ids: list[int], top: bool) -> None:
        if len(ids) == 1:
            return
        cut = rng.randint(1, len(ids) - 1)
        left, right = ids[:cut], ids[cut:]
        build(left, False)
        build(right, False)
        if top or rng.random() < 0.5:
            edges.extend((a, c) for a in left for c in right)

    build(list(range(n)), top=n > 1)
    for idx in range(extra):
        v = n + idx
        pool = list(range(v))
        size = rng.randint(1, min(3, len(pool)))
        for w in sorted(rng.sample(pool, size)):
            edges.append((w, v))
    return from_edge_list(edges, n + extra)


def gen_connected_er(n: int, p: float, seed: int, max_tries: int = 1000) -> Graph:
    """Erdos-Renyi G(n, p), resampled until connected."""
    if n < 1 or not (0.0 <= p <= 1.0):
        raise GenerationError("need n >= 1 and p in [0, 1]")
    rng = random.Random(seed)
    for _ in range(max_tries):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = from_edge_list(edges, n)
        if is_connected(g):
            return g
    raise GenerationError(
        f"no connected sample within {max_tries} tries for n={n}, p={p}"
    )
