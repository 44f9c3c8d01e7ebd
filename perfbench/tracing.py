"""The traced run: per-layer time and counts for ``paramdiam solve``.

Each op calls ``paramdiam.cli.main(["solve", FILE, "--algo", ...])`` in
this process with stdout captured.  For a traced op, every entry of
``TARGETS`` is replaced with a timing wrapper at the name its caller looks
up (``paramdiam.cli.solve_fes``, ``paramdiam.fes.case3_path_pair``, ...),
and the originals are put back afterwards.  The program itself is not
changed.

A wrapped call records a span (name, start, end, parent, op id) in memory.
Hot inner calls (``hot=True``) record no span; their count and total time
are added to the enclosing span instead.  A span's self time is its
duration minus the time its child spans and hot calls cover.  A target
that no longer exists is listed as missing rather than failing the run, so
a refactor shows up as a moved span.

Each instance is solved untraced and then traced; the ratio of their op
times is the tracing overhead.  End-to-end numbers never come from this run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

SOLVER_SPANS = ("fes.solve", "hindex.solve", "cograph.solve", "graph.naive")
ROUTES = ("fes", "hindex-diam", "cograph", "naive")
NAIVE_SAMPLES = 20  # sampled BFS sources when naive is estimated
NAIVE_ESTIMATE_ABOVE = 10**8  # estimate naive instead of running it when n*m exceeds this


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # dotted for class attributes
    span: str
    hot: bool = False
    counts: Callable[[tuple, object], dict] | None = None


def _decompose_counts(args, result):
    return {"fes.core_n": args[0].n, "fes.high": len(result.high), "fes.paths": len(result.paths)}


TARGETS = (
    Target("paramdiam.cli", "load_edge_list", "graph.load"),
    Target("paramdiam.cli", "naive_diameter", "graph.naive"),
    Target("paramdiam.cli", "induced_subgraph", "graph.induced_subgraph"),
    Target("paramdiam.params", "induced_subgraph", "graph.induced_subgraph"),
    Target("paramdiam.hindex", "induced_subgraph", "graph.induced_subgraph"),
    Target("paramdiam.cograph", "induced_subgraph", "graph.induced_subgraph"),
    Target("paramdiam.fes", "is_connected", "graph.is_connected"),
    Target("paramdiam.hindex", "is_connected", "graph.is_connected"),
    Target("paramdiam.cograph", "is_connected", "graph.is_connected"),
    Target("paramdiam.cli", "cograph_modulator", "params.cograph_modulator"),
    Target("paramdiam.cograph", "cograph_modulator", "params.cograph_modulator"),
    Target("paramdiam.params", "find_induced_p4", "params.find_induced_p4", hot=True),
    Target("paramdiam.cograph", "find_induced_p4", "params.find_induced_p4", hot=True),
    Target("paramdiam.cli", "h_index", "params.h_index"),
    Target("paramdiam.params", "h_index", "params.h_index"),
    Target("paramdiam.hindex", "h_index", "params.h_index"),
    Target("paramdiam.hindex", "hub_set", "params.hub_set"),
    Target("paramdiam.cli", "solve_fes", "fes.solve"),
    Target("paramdiam.fes", "reduce_exhaustively", "fes.reduce"),
    Target("paramdiam.fes", "WeightedDiameterInstance.compacted", "fes.compact"),
    Target("paramdiam.fes", "decompose", "fes.decompose", counts=_decompose_counts),
    Target("paramdiam.fes", "case1_high_bfs", "fes.case1"),
    Target("paramdiam.fes", "case2_same_path", "fes.case2", hot=True),
    Target("paramdiam.fes", "case3_path_pair", "fes.case3", hot=True),
    Target("paramdiam.cli", "solve_hd", "hindex.solve"),
    Target("paramdiam.hindex", "truncated_bfs_count", "hindex.probe", hot=True),
    Target("paramdiam.cli", "solve_cograph", "cograph.solve"),
    Target("paramdiam.cograph", "component_diameters", "cograph.component_check"),
    Target("paramdiam.cograph", "build_types", "cograph.build_types",
           counts=lambda args, result: {"cograph.types": len(result)}),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for an op's root span
    op: int
    end: float = 0.0
    hot: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    Every target is resolved once, here; an absent one goes to ``missing``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self.op = 0
        self.targets = []  # (owner, attribute, original, wrapper)
        for target in TARGETS:
            *path, name = target.attr.split(".")
            try:
                owner = importlib.import_module(target.module)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.add(f"{target.module}.{target.attr}")
                continue
            self.targets.append((owner, name, original, self.wrap(target, original)))

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), self.stack[-1] if self.stack else -1, self.op))
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self.stack.pop()

    def wrap(self, target: Target, fn):
        if target.hot:
            def hot_call(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot = self.spans[self.stack[-1]].hot[target.span]
                    slot[0] += 1
                    slot[1] += time.perf_counter() - t0
            return hot_call

        def call(*args, **kwargs):
            with self.span(target.span):
                result = fn(*args, **kwargs)
            if target.counts is not None:
                try:
                    for key, value in target.counts(args, result).items():
                        self.counts[key] += value
                except (AttributeError, TypeError, IndexError):
                    self.missing.add(f"{target.span}:counts")
            return result
        return call

    @contextlib.contextmanager
    def installed(self):
        """Swap every resolved target for its wrapper; restore on exit."""
        for owner, name, _, wrapper in self.targets:
            setattr(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, original, _ in self.targets:
                setattr(owner, name, original)

    def dump(self, path) -> None:
        """Write every span as one JSON list; hot calls as {name: [count, seconds]}."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "hot": dict(s.hot)}
                for s in self.spans
            ], fh)

    def totals(self):
        """Per span name: total seconds, calls and self seconds; plus select time."""
        total = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            for name, (count, seconds) in span.hot.items():
                total[name] += seconds
                calls[name] += count
        for idx, span in enumerate(self.spans):
            covered[idx] += sum(seconds for _, seconds in span.hot.values())
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        for idx, span in enumerate(self.spans):
            total[span.name] += span.end - span.start
            calls[span.name] += 1
            self_s[span.name] += span.end - span.start - covered[idx]
        select = 0.0
        for idx, span in enumerate(self.spans):
            if span.name.startswith("params.") and self._outside_solver(span.parent):
                select += span.end - span.start
            if self._outside_solver(idx):
                select += sum(s for name, (_, s) in span.hot.items() if name.startswith("params."))
        return total, calls, self_s, select

    def _outside_solver(self, idx: int) -> bool:
        while idx >= 0:
            name = self.spans[idx].name
            if name in SOLVER_SPANS or name.startswith("params."):
                return False
            idx = self.spans[idx].parent
        return True


def report_matches(report: dict | None, exit_code: int, expected: int) -> bool:
    """Whether a ``solve`` run succeeded with the reference diameter."""
    return exit_code == 0 and isinstance(report, dict) and report.get("diameter") == expected


def record(inst: dict, elapsed: float, report: dict | None) -> None:
    """Note one op's time, and the algorithm its report names, on the instance."""
    inst.setdefault("solve_s", []).append(elapsed)
    if isinstance(report, dict):
        inst.setdefault("routed", str(report.get("algo")))


def solve_in_process(path: str, algo: str) -> tuple[float, int, dict | None]:
    """One ``solve`` through ``paramdiam.cli.main``; (seconds, exit code, report)."""
    from paramdiam import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["solve", path, "--algo", algo])
    except Exception:  # an op boundary: count the failure and keep running
        traceback.print_exc(file=sys.stderr)
        code = -1
    elapsed = time.perf_counter() - t0
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        report = None
    return elapsed, code, report


def naive_baseline(instances: list[dict], seed: int) -> tuple[float, bool, int]:
    """Mean naive seconds per instance, whether it was estimated, and mismatches.

    Where n*m is large, naive takes minutes to hours, so it is estimated as
    n times the median single-source BFS (``eccentricity``) over sampled
    sources.
    """
    from paramdiam.graph import eccentricity, load_edge_list, naive_diameter

    rng = random.Random(seed)
    total, estimated, mismatches = 0.0, False, 0
    for inst in instances:
        g = load_edge_list(inst["path"])
        if g.n * g.m > NAIVE_ESTIMATE_ABOVE:
            estimated = True
            samples = []
            for v in rng.sample(range(g.n), NAIVE_SAMPLES):
                t0 = time.perf_counter()
                eccentricity(g, v)
                samples.append(time.perf_counter() - t0)
            total += g.n * statistics.median(samples)
        else:
            t0 = time.perf_counter()
            got = naive_diameter(g)
            total += time.perf_counter() - t0
            mismatches += got != inst["diameter"]
    return total / len(instances), estimated, mismatches


def traced_run(prepared: dict, seconds: float, seed: int, import_s: float, spans_path):
    """Solve each instance untraced, then traced, until ``seconds``.

    Stops at the first cycle boundary (see ``workloads.prepare``) after
    ``seconds`` and writes the spans to ``spans_path``.  Returns (per-layer
    metrics, attempted, failed, summary); per-layer times and counts are
    per traced op.  Untraced op times and routing go on each instance.
    """
    instances, algo = prepared["instances"], prepared["algo"]
    naive_s, estimated, failed = naive_baseline(instances, seed)
    attempted = 0 if estimated else len(instances)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    for op, inst in enumerate(itertools.cycle(instances), 1):
        elapsed, code, report = solve_in_process(inst["path"], algo)
        untraced_s += elapsed
        record(inst, elapsed, report)
        failed += not report_matches(report, code, inst["diameter"])
        tracer.op += 1
        with tracer.installed(), tracer.span("cli.op"):
            elapsed, code, report = solve_in_process(inst["path"], algo)
        traced_s += elapsed
        failed += not report_matches(report, code, inst["diameter"])
        attempted += 2
        if op % prepared["cycle"] == 0 and time.perf_counter() - start >= seconds:
            break

    tracer.dump(spans_path)
    ops = tracer.op
    total, calls, self_s, select = tracer.totals()

    def seconds_per_op(name):
        return total[name] / ops

    values = {
        "cli.import_s": import_s,
        "cli.select_s": select / ops,
        "cli.self_s": self_s["cli.op"] / ops,
        **{f"cli.routed.{route}": sum(inst.get("routed") == route for inst in instances) for route in ROUTES},
        "graph.load_s": seconds_per_op("graph.load"),
        "graph.is_connected_s": seconds_per_op("graph.is_connected"),
        "graph.induced_subgraph_s": seconds_per_op("graph.induced_subgraph"),
        "graph.induced_subgraph_calls": calls["graph.induced_subgraph"] / ops,
        "graph.naive_s": seconds_per_op("graph.naive"),
        "params.cograph_modulator_s": seconds_per_op("params.cograph_modulator"),
        "params.cograph_modulator_calls": calls["params.cograph_modulator"] / ops,
        "params.find_induced_p4_s": seconds_per_op("params.find_induced_p4"),
        "params.find_induced_p4_calls": calls["params.find_induced_p4"] / ops,
        "params.h_index_s": seconds_per_op("params.h_index"),
        "params.hub_set_s": seconds_per_op("params.hub_set"),
        "fes.solve_s": seconds_per_op("fes.solve"),
        "fes.self_s": self_s["fes.solve"] / ops,
        "fes.reduce_s": seconds_per_op("fes.reduce"),
        "fes.compact_s": seconds_per_op("fes.compact"),
        "fes.decompose_s": seconds_per_op("fes.decompose"),
        "fes.case1_s": seconds_per_op("fes.case1"),
        "fes.case2_s": seconds_per_op("fes.case2"),
        "fes.case3_s": seconds_per_op("fes.case3"),
        "fes.case3_calls": calls["fes.case3"] / ops,
        "fes.core_n": tracer.counts["fes.core_n"] / ops,
        "fes.high": tracer.counts["fes.high"] / ops,
        "fes.paths": tracer.counts["fes.paths"] / ops,
        "hindex.solve_s": seconds_per_op("hindex.solve"),
        "hindex.self_s": self_s["hindex.solve"] / ops,
        "hindex.probe_s": seconds_per_op("hindex.probe"),
        "hindex.probes": calls["hindex.probe"] / ops,
        "cograph.solve_s": seconds_per_op("cograph.solve"),
        "cograph.self_s": self_s["cograph.solve"] / ops,
        "cograph.component_check_s": seconds_per_op("cograph.component_check"),
        "cograph.build_types_s": seconds_per_op("cograph.build_types"),
        "cograph.types": tracer.counts["cograph.types"] / ops,
        "constructions.generate_s": statistics.median(prepared["generate_s"]),
        "graph.save_s": statistics.median(prepared["save_s"]),
        "baseline.oracle_s": prepared["oracle_s"],
        "baseline.naive_s": naive_s,
        "baseline.naive_estimated": int(estimated),
        "baseline.solver_over_naive": untraced_s / ops / naive_s,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.missing": len(tracer.missing),
        "trace.ops": ops,
    }
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
    summary = {"traced_ops": ops, "missing": sorted(tracer.missing),
               "naive": "estimated" if estimated else "measured"}
    return metrics, attempted, failed, summary


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("baseline.solver_over_naive", "trace.overhead_ratio"):
        return "ratio"
    return "count"
