"""The benchmark's oracle against networkx.diameter on small seeded graphs.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests
"""

import networkx as nx
import pytest

import oracle
from paramdiam.graph import save_edge_list
from workloads import (
    cograph_plus,
    er,
    thm1_of_er,
    thm4_of_tree,
    thm6_of_3cnf,
    tree_plus_k,
)

CLASSES = [
    tree_plus_k(1, 0),
    tree_plus_k(40, 0),
    tree_plus_k(60, 5),
    tree_plus_k(80, 30),
    er(30, 0.15),
    er(50, 0.3),
    cograph_plus(25, 3),
    thm1_of_er(20, 0.2),
    thm4_of_tree(15, 3),
    thm6_of_3cnf(4, 6),
    thm6_of_3cnf(6, 20),
]


def reference(path: str) -> int:
    g = oracle.read_edge_list(path)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(map(tuple, g.edges.tolist()))
    return nx.diameter(nxg)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: f"{c.family}-{'-'.join(map(str, c.args.values()))}")
@pytest.mark.parametrize("seed", range(5))
def test_matches_networkx(cls, seed, tmp_path):
    path = str(tmp_path / "g.el")
    save_edge_list(cls.make(seed), path)
    got, g = oracle.diameter_of_file(path)
    assert got == reference(path)
    assert g.m - g.n + 1 >= 0


def write(tmp_path, n, edges) -> str:
    path = tmp_path / "g.el"
    path.write_text(f"# hand-written\n{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


@pytest.mark.parametrize("n", [2, 3, 7, 10])
def test_paths_cycles_and_cliques(n, tmp_path):
    path_edges = [(i, i + 1) for i in range(n - 1)]
    assert oracle.diameter_of_file(write(tmp_path, n, path_edges))[0] == n - 1
    if n >= 3:
        cycle = path_edges + [(n - 1, 0)]
        assert oracle.diameter_of_file(write(tmp_path, n, cycle))[0] == n // 2
    clique = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert oracle.diameter_of_file(write(tmp_path, n, clique))[0] == 1


def test_h_index(tmp_path):
    star = [(0, i) for i in range(1, 6)]
    assert oracle.read_edge_list(write(tmp_path, 6, star)).h_index() == 1
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert oracle.read_edge_list(write(tmp_path, 4, k4)).h_index() == 3


def test_rejects_disconnected_and_short_files(tmp_path):
    with pytest.raises(ValueError):
        oracle.diameter_of_file(write(tmp_path, 4, [(0, 1), (2, 3)]))
    bad = tmp_path / "bad.el"
    bad.write_text("3 2\n0 1\n")
    with pytest.raises(ValueError):
        oracle.read_edge_list(str(bad))
