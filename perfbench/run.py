"""End-to-end benchmark of ``paramdiam solve``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sparse-large --seed 1 --seconds 20 --trace 0

Set-up runs ``workloads.py`` in a child process: it generates the
workload's instances with paramdiam's generators, writes them as edge
lists, several times over, and computes each instance's reference diameter
with the independent oracle in ``oracle.py``.

With ``--trace 0`` the run is a closed loop with one client: each op is one
``python -m paramdiam.cli solve FILE --algo ...`` process against this
checkout's ``src/``, timed from spawn to exit, with its peak RSS read from
``os.wait4``.  The loop goes over the instances in a fixed order and stops
at the first cycle boundary (one instance of every class) after
``--seconds``.  A solve fails on a nonzero
exit, an unparseable report, or a diameter other than the reference.  This
process imports only the standard library until the loop ends, because a
child's peak RSS includes this process's peak at the time of the fork.

With ``--trace 1`` the same instances are solved in-process under timing
wrappers instead (see ``tracing.py``), and the per-layer metrics are printed.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
per-instance manifest and a summary.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
IMPORT_REPEATS = 7


def solver_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stdout_path: Path, stderr=subprocess.DEVNULL) -> tuple[float, int, int]:
    """Run one process to completion; (seconds, exit code, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=stderr, env=solver_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def read_report(path: Path) -> dict | None:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return report if isinstance(report, dict) else None


def import_seconds(work: Path) -> float:
    """Median ``import paramdiam.cli`` process time minus a bare interpreter's."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(spawn([sys.executable, "-c", "pass"], work / "import.out")[0])
        full.append(spawn([sys.executable, "-c", "import paramdiam.cli"], work / "import.out")[0])
    return statistics.median(full) - statistics.median(bare)


def measure(prepared: dict, seconds: float, work: Path):
    """The untraced closed loop: (metrics, attempted, failed, summary).

    Each op's time and routed algorithm are recorded on its instance.
    """
    out_path = work / "report.json"
    spawn([sys.executable, "-c", "import paramdiam.cli"], out_path)  # write bytecode once
    times, peak_kib, ok, failed = [], 0, 0, 0
    start = time.perf_counter()
    for op, inst in enumerate(itertools.cycle(prepared["instances"]), 1):
        argv = [sys.executable, "-m", "paramdiam.cli", "solve", inst["path"], "--algo", prepared["algo"]]
        elapsed, code, rss = spawn(argv, out_path)
        report = read_report(out_path)
        times.append(elapsed)
        tracing.record(inst, elapsed, report)
        peak_kib = max(peak_kib, rss)
        if tracing.report_matches(report, code, inst["diameter"]):
            ok += 1
        else:
            failed += 1
        wall = time.perf_counter() - start
        if op % prepared["cycle"] == 0 and wall >= seconds:
            break
    attempted = ok + failed
    summary = {"solve_s.samples": len(times), "wall_s": wall,
               "setup_s": [g + s for g, s in zip(prepared["generate_s"], prepared["save_s"])]}
    metrics = {
        "graphs_per_s": {"value": ok / wall, "unit": "1/s"},
        "solve_s.p50": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        "ok_ratio": {"value": ok / attempted, "unit": "ratio"},
        "setup_s": {"value": statistics.median(summary["setup_s"]), "unit": "s"},
    }
    return metrics, attempted, failed, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of paramdiam solve.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "paramdiam" / "cli.py").is_file():
        print(f"error: no paramdiam sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK))
    try:
        setup_argv = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--dir", str(work)]
        _, code, _ = spawn(setup_argv, work / "prepared.json", stderr=None)
        prepared = read_report(work / "prepared.json")
        if code != 0 or prepared is None:
            print(f"error: set-up of workload {args.workload!r} failed (exit {code})", file=sys.stderr)
            return 1

        if args.trace:
            sys.path.insert(0, str(SRC))
            metrics, attempted, failed, summary = tracing.traced_run(
                prepared, args.seconds, args.seed, import_seconds(work),
                WORK / f"trace-{args.workload}-{args.seed}.json")
        else:
            metrics, attempted, failed, summary = measure(prepared, args.seconds, work)

        manifest = [{**inst, "path": Path(inst["path"]).name,
                     "solve_s": statistics.median(inst["solve_s"]) if "solve_s" in inst else None}
                    for inst in prepared["instances"]]
        print(json.dumps({"manifest": manifest}))
        print(json.dumps({"summary": {"workload": args.workload, "seed": args.seed, **summary}}))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
