"""The benchmark's workloads and their set-up.

Instances come from paramdiam's own seeded generators and constructions and
are written with ``save_edge_list``; that generation plus writing is the
benchmark's set-up.  Every instance seed is derived from the benchmark seed,
the workload name and the instance's position, so one seed always gives the
same files.

Run as a script, it sets the workload up ``SETUP_REPEATS`` times, computes
each instance's reference diameter with the independent oracle, and prints
one JSON object describing the instances.  ``run.py`` runs it in its own
process, so that the benchmark's process stays small: a child's peak RSS
as ``wait4`` reports it includes its parent's peak at the time of the fork.

    PYTHONPATH=src python3 perfbench/workloads.py --workload auto-mixed --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
from paramdiam.constructions import (
    CnfFormula,
    bipartite_girth_construction,
    bisection_construction,
    gen_connected_er,
    gen_random_cograph_plus,
    gen_tree_plus_k,
    sat_to_diameter,
)
from paramdiam.graph import Graph, save_edge_list

SETUP_REPEATS = 5  # set-up runs per benchmark run; setup_s is their median


def random_3cnf(num_vars: int, clauses: int, seed: int) -> CnfFormula:
    """Uniform random 3-CNF: three distinct variables per clause, random signs."""
    rng = random.Random(seed)
    out = []
    for _ in range(clauses):
        picked = rng.sample(range(1, num_vars + 1), 3)
        out.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
    return CnfFormula(num_vars, tuple(out))


@dataclass(frozen=True)
class InstanceClass:
    """One generator call; ``make(seed)`` returns the graph."""

    family: str
    args: dict
    make: Callable[[int], Graph]


def tree_plus_k(n: int, k: int) -> InstanceClass:
    return InstanceClass("tree-plus-k", {"n": n, "k": k}, lambda s: gen_tree_plus_k(n, k, s))


def er(n: int, p: float) -> InstanceClass:
    return InstanceClass("er", {"n": n, "p": p}, lambda s: gen_connected_er(n, p, s))


def cograph_plus(n: int, extra: int) -> InstanceClass:
    return InstanceClass(
        "cograph-plus", {"n": n, "extra": extra},
        lambda s: gen_random_cograph_plus(n, extra, s),
    )


def thm1_of_er(n: int, p: float) -> InstanceClass:
    return InstanceClass(
        "thm1", {"of": "er", "n": n, "p": p},
        lambda s: bipartite_girth_construction(gen_connected_er(n, p, s)).graph,
    )


def thm4_of_tree(n: int, k: int) -> InstanceClass:
    return InstanceClass(
        "thm4", {"of": "tree-plus-k", "n": n, "k": k},
        lambda s: bisection_construction(gen_tree_plus_k(n, k, s)).graph,
    )


def thm6_of_3cnf(num_vars: int, clauses: int) -> InstanceClass:
    return InstanceClass(
        "thm6", {"of": "3-cnf", "vars": num_vars, "clauses": clauses},
        lambda s: sat_to_diameter(random_3cnf(num_vars, clauses, s)).graph,
    )


@dataclass(frozen=True)
class Workload:
    """``copies`` instances of each class, solved class by class in cycles.

    A run stops only at a cycle boundary (one instance of every class), so
    every run solves the same mix.
    """

    name: str
    algo: str  # the --algo every solve of this workload passes
    classes: tuple[InstanceClass, ...]
    copies: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # parsing and reduction dominate; the case sweeps barely show
        Workload("sparse-large", "fes", (tree_plus_k(100_000, 50),)),
        # the case-3 path-pair sweep and case-1 BFS dominate; parsing barely shows
        Workload(
            "sparse-cyclic", "fes",
            tuple(tree_plus_k(20_000, k) for k in (300, 325, 350, 375, 400)),
        ),
        # auto selection: the parameter layer and the hindex, cograph and
        # naive solvers, which neither fes workload reaches; two seeds per
        # class so one unusual instance moves the run less
        Workload(
            "auto-mixed", "auto",
            (
                tree_plus_k(1500, 15),
                er(700, 0.012),
                cograph_plus(200, 3),
                thm1_of_er(300, 0.02),
                thm4_of_tree(300, 5),
                thm6_of_3cnf(12, 50),
            ),
            copies=2,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    cls: InstanceClass
    seed: int
    path: str


def derived_seed(workload: str, seed: int, index: int) -> int:
    return zlib.crc32(f"{workload}/{seed}/{index}".encode())


def set_up(workload: Workload, seed: int, directory: Path) -> tuple[list[Instance], float, float]:
    """Generate and write every instance once.

    Returns the instances, the seconds spent in generators and
    constructions, and the seconds spent in ``save_edge_list``.
    """
    gc.collect()  # start every repetition from the same heap state
    instances = []
    generate_s = save_s = 0.0
    for index, cls in enumerate(workload.classes * workload.copies):
        inst_seed = derived_seed(workload.name, seed, index)
        path = str(directory / f"{index:02d}-{cls.family}.el")
        t0 = time.perf_counter()
        g = cls.make(inst_seed)
        t1 = time.perf_counter()
        save_edge_list(g, path, comment=f"{cls.family} {cls.args} seed={inst_seed}")
        t2 = time.perf_counter()
        generate_s += t1 - t0
        save_s += t2 - t1
        instances.append(Instance(cls, inst_seed, path))
    return instances, generate_s, save_s


def prepare(workload: Workload, seed: int, directory: Path) -> dict:
    """Set up ``SETUP_REPEATS`` times, then describe each instance with its reference."""
    setups = [set_up(workload, seed, directory) for _ in range(SETUP_REPEATS)]
    described = []
    oracle_s = 0.0
    for inst in setups[-1][0]:
        t0 = time.perf_counter()
        diameter, g = oracle.diameter_of_file(inst.path)
        oracle_s += time.perf_counter() - t0
        described.append({
            "path": inst.path,
            "family": inst.cls.family,
            "args": inst.cls.args,
            "seed": inst.seed,
            "n": g.n,
            "m": g.m,
            "feedback_edge_number": g.m - g.n + 1,
            "h_index": g.h_index(),
            "diameter": diameter,
        })
    return {
        "algo": workload.algo,
        "cycle": len(workload.classes),
        "generate_s": [s[1] for s in setups],
        "save_s": [s[2] for s in setups],
        "oracle_s": oracle_s / len(described),
        "instances": described,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Set up one workload and print its instances.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(prepare(WORKLOADS[args.workload], args.seed, Path(args.dir))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
