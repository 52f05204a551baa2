#!/usr/bin/env python3
"""vclone benchmark: time the CLI on seeded workloads and check its outputs.

Run from the root of a vclone checkout:

    python3 perfbench/run.py --workload pc_exact --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --suite --runs 10 --out perfbench/results/NAME.json
    python3 perfbench/run.py --compare perfbench/results/OLD.json perfbench/results/NEW.json

A single run prints its metrics by name and unit, then, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json untraced
(``--trace 0``), the ``per_layer`` metrics traced (``--trace 1``).  Every
measurement runs in a fresh single-threaded interpreter (child.py).
perfbench/README.md explains each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from report import compare, summarize  # noqa: E402

#: Why each workload exists is in README.md.  ``restarts`` is the restart
#: count of one ``vclone train`` operation.
WORKLOADS = {
    "pc_exact": {"restarts": 6, "shots": "exact"},
    "pc_shots": {"restarts": 4, "shots": 5000},
}
#: Fresh interpreters timed for setup_s, besides the measured one.
SETUP_PROBES = 6
#: Traced runs per workload in --suite, all on --first-seed: two, so that
#: the exact-count self-check has a pair to compare.
TRACED_RUNS = 2
#: Everything a run starts must end within this many seconds.
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


class Run:
    """One workload run: its work directory, child processes and deadline."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload = root, workload
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = child_env(root)
        self.workdir = root / ".bench_work" / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.plan = {
            "workload": workload,
            "seed": seed,
            **WORKLOADS[workload],
            "seconds": seconds,
            "trace": trace,
            "workdir": str(self.workdir),
            "result": str(self.workdir / "result.json"),
        }
        self.plan_path = self.workdir / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan, indent=2))

    def child(self, mode: str) -> str:
        """Run child.py in ``mode`` to completion; returns its standard output."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{self.workload}: run exceeded {RUN_BUDGET_S:.0f} s")
        log_path = self.workdir / f"{mode}.log"
        with open(log_path, "a") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), mode, str(self.plan_path)],
                    cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=log,
                    text=True, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{self.workload}: {mode} child exceeded the run budget") from None
            log.write(proc.stdout)
        if proc.returncode != 0:
            tail = log_path.read_text().strip().splitlines()[-5:]
            raise BenchError(f"{self.workload}: {mode} child exited {proc.returncode}:\n" + "\n".join(tail))
        return proc.stdout

    def setup_seconds(self) -> float:
        """Interpreter start to the end of set-up, across processes (CLOCK_MONOTONIC)."""
        t0 = time.monotonic()
        ready = float(self.child("setup").strip().splitlines()[-1])
        return ready - t0

    def execute(self) -> tuple[list[float], dict]:
        self.child("setup")  # untimed: compiles bytecode, as an installed package would have
        # setup_s is an end-to-end metric, so traced runs skip the probes.
        setups = [] if self.plan["trace"] else [self.setup_seconds() for _ in range(SETUP_PROBES)]
        t0 = time.monotonic()
        self.child("run")
        result = json.loads(Path(self.plan["result"]).read_text())
        setups.append(result["ready"] - t0)
        return setups, result


def end_to_end(setups: list[float], result: dict) -> dict:
    ops = result["ops"]
    work = [d.get("evaluations", 0) for d in result["diagnostics"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "evals_per_s": statistics.median(n / op["wall_s"] for n, op in zip(work, ops)),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns metric values, check outcome and diagnostics."""
    setups, result = Run(root, workload, seed, seconds, trace).execute()
    values = result["per_layer"] if trace else end_to_end(setups, result)
    checks = result["checks"]
    failed = [c for c in checks if not c[1]]
    env = environment(root)
    env["numpy"] = result["numpy"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "problems": [f"{name}: {detail}" for name, _, detail in failed],
        "values": values,
        "op_walls_s": [op["wall_s"] for op in result["ops"]],
        "setups_s": setups,
        "host_probe_s": result["host_probe_s"],
        "diagnostics": result["diagnostics"],
        "environment": env,
    }


def declared_metrics(root: Path, trace: bool) -> list[dict]:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return declared["per_layer" if trace else "end_to_end"]


def print_run(run: dict, declared: list[dict]) -> None:
    env = run["environment"]
    print(f"workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}")
    print(f"environment commit={env['commit']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"python={env['python']} numpy={env['numpy']} blas_threads=1 "
          f"loadavg={'/'.join(f'{x:.2f}' for x in env['loadavg'])}")
    before, after = run["host_probe_s"]
    print(f"host_probe_s before={before:.4f} after={after:.4f}")
    print("op_walls_s " + " ".join(f"{w:.3f}" for w in run["op_walls_s"]))
    print("setups_s " + " ".join(f"{s:.4f}" for s in run["setups_s"]))
    for diag in run["diagnostics"]:
        if diag:
            print("diagnostics " + " ".join(f"{k}={v:.6g}" for k, v in diag.items()))
    for m in declared:
        print(f"  {m['name']:<48} {run['values'][m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<48} {run['failed'] / run['attempted']:>14.6g} frac "
          f"({run['failed']} of {run['attempted']} operations)")
    for problem in run["problems"]:
        print(f"FAILED {problem}")


def result_line(run: dict, declared: list[dict]) -> str:
    metrics = {m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def suite(root: Path, args) -> None:
    """Runs every workload ``--runs`` times, interleaved, then the traced runs."""
    names = list(WORKLOADS)
    out = Path(args.out)
    data = {"environment": environment(root), "seconds": args.seconds,
            "runs": {w: [] for w in names}, "traced": {w: [] for w in names}}
    for i in range(args.runs):
        # Rotate the order so host drift does not always land on one workload.
        for w in names[i % len(names):] + names[: i % len(names)]:
            run = run_once(root, w, args.first_seed + i, args.seconds, trace=False)
            data["runs"][w].append(run)
            print(f"run {i} {w:<9} " + " ".join(f"{k}={v:.4g}" for k, v in run["values"].items())
                  + f" failed={run['failed']}/{run['attempted']} probe={run['host_probe_s'][0]:.3f}",
                  flush=True)
            out.write_text(json.dumps(data, indent=1))
    for w in names:
        for _ in range(TRACED_RUNS):
            run = run_once(root, w, args.first_seed, args.seconds, trace=True)
            data["traced"][w].append(run)
            print(f"traced {w:<9} failed={run['failed']}/{run['attempted']} "
                  f"trace_overhead={run['values']['trace_overhead']:.3f}", flush=True)
            out.write_text(json.dumps(data, indent=1))
    summarize(data, json.loads((root / "BENCHMARK.json").read_text()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true", help="run every workload --runs times")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", help="result file written by --suite")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --suite files")
    args = parser.parse_args()

    root = Path.cwd()
    if args.compare:
        base, new = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(base, new, json.loads((root / "BENCHMARK.json").read_text()))
        return
    missing = [p for p in ("src/vclone/cli.py", "BENCHMARK.json") if not (root / p).is_file()]
    if missing:
        sys.exit(f"error: run from the root of a vclone checkout (missing {', '.join(missing)})")
    try:
        if args.suite:
            if not args.out:
                parser.error("--suite needs --out")
            suite(root, args)
        elif args.workload:
            run = run_once(root, args.workload, args.seed, args.seconds, bool(args.trace))
            declared = declared_metrics(root, bool(args.trace))
            print_run(run, declared)
            print(result_line(run, declared))
        else:
            parser.error("give --workload, --suite or --compare")
    except BenchError as exc:
        sys.exit(f"error: {exc}")


if __name__ == "__main__":
    main()
