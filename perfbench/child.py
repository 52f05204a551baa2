"""One benchmark workload inside a fresh interpreter; started by run.py.

    python3 perfbench/child.py setup PLAN   set up, print the monotonic clock
    python3 perfbench/child.py run   PLAN   set up, run and check the operations

PLAN is a JSON file written by run.py.  run.py starts this file with
``src`` on ``PYTHONPATH`` and every BLAS thread variable set to 1.  The
``run`` mode writes its result to ``PLAN["result"]``.

Operations are ``vclone train`` commands, each driven in-process through
click and timed with ``time.perf_counter``; output checks run after each
command, outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
import resource
import sys
import time
from pathlib import Path

#: The paper's evaluation budget per restart.
MAX_EVALUATIONS = 2500
#: Fidelity window of acceptance criterion 1.
TARGET_F, TARGET_TOL, BALANCE_TOL = 0.8536, 0.005, 0.01
#: Agreement required between summary.json and the measurement-stage recomputation.
COST_TOL = 1e-9


def write_config(plan: dict, op: int) -> str:
    """Writes the generated config of operation ``op``; the program sees only this file.

    Each operation of a run trains from its own seeds, drawn from the
    benchmark seed, so a run's median is not one seed's luck.
    """
    rng = random.Random(f"{plan['workload']}:{plan['seed']}:{op}")
    noise = {"shots": plan["shots"]}
    config = {
        "task": "pc",
        "seed": rng.randrange(1_000_000),
        "restarts": plan["restarts"],
        "nm": {"max_evaluations": MAX_EVALUATIONS},
        "noise": noise,
    }
    if plan["shots"] != "exact":
        noise["seed"] = rng.randrange(1_000_000)
    path = Path(plan["workdir"]) / f"config{op}.json"
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def set_up(plan: dict) -> None:
    """What a user pays before the first command: import, load config, build spec and task."""
    from vclone import cli, optimizer, sampler

    config, _ = cli.load_config(Path(write_config(plan, 0)))
    spec = cli.mesh_from_config(config)
    noise = cli.noise_from_config(config)
    cli.nm_from_config(config)
    evaluator = None if noise.shots is None else sampler.sampled_evaluator(noise, spec)
    optimizer.pc_task(spec, evaluator=evaluator)


def host_probe() -> float:
    """Seconds for a fixed numpy and pure-Python loop; tracks host speed drift."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.full((48, 48), 0.01)
    for _ in range(2000):
        a = np.tanh(a @ a + 0.01)
    total = 0
    for i in range(2_000_000):
        total += i % 7
    return time.perf_counter() - t0


def call_cli(args: list[str]) -> tuple[float, str | None]:
    """Run one vclone command in-process; returns (wall seconds, error or None)."""
    from vclone import cli

    t0 = time.perf_counter()
    try:
        cli.main(args, standalone_mode=False)
        error = None
    except Exception as exc:  # a failing command is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


def train_op(plan: dict, op: int, tag: str) -> dict:
    config = write_config(plan, op)
    out = Path(plan["workdir"]) / tag
    wall, error = call_cli(["train", "--config", config, "--out", str(out)])
    return {"dir": str(out), "wall_s": wall, "error": error}


def check_trace(path: Path) -> tuple[bool, str]:
    from vclone.optimizer import OptimizationTrace

    if not path.is_file():
        return False, f"missing {path.name}"
    trace = OptimizationTrace.from_jsonl(path)
    if trace.error:
        return False, f"{path.name}: {trace.error}"
    if len(trace.records) != trace.n_evaluations:
        return False, f"{path.name}: {len(trace.records)} records for {trace.n_evaluations} evaluations"
    if not all(math.isfinite(r.cost) for r in trace.records):
        return False, f"{path.name}: non-finite cost"
    for r in trace.records:
        for state in r.extras.values():
            if not all(0.0 <= state[k] <= 1.0 for k in ("f1", "f2", "p")):
                return False, f"{path.name}: F or P outside [0, 1] at evaluation {r.evaluation}"
    return True, ""


def _terms(out) -> float:
    return (1 - out.f1) ** 2 + (1 - out.f2) ** 2 + (out.f1 - out.f2) ** 2


def check_train(plan: dict, op: dict, noisy: bool) -> tuple[list[tuple[str, bool, str]], dict]:
    """Checks for one train command and its restarts, plus diagnostics."""
    import numpy as np
    from vclone import cloner, optimizer
    from vclone.cloner import QubitState

    run = Path(op["dir"])
    restarts = plan["restarts"]
    if op["error"]:
        failed = [(f"restart {r}", False, "train command failed") for r in range(restarts)]
        return failed + [("train", False, op["error"])], {}
    checks = []
    for r in range(restarts):
        ok, detail = check_trace(run / "traces" / f"restart_{r:03d}.jsonl")
        checks.append((f"restart {r}", ok, detail))

    summary = json.loads((run / "summary.json").read_text())
    params = np.array(json.loads((run / "best_params.json").read_text())["phases"])
    states = [QubitState.equatorial(phi) for phi in cloner.TRAINING_PHASES]
    diagnostics = {"evaluations": summary["total_evaluations"]}
    if noisy:
        exact = sum(_terms(cloner.measurement_path_outcome(params, psi)) for psi in states)
        diff = abs(exact - summary["best_cost_noiseless"])
        ok, detail = diff <= COST_TOL, f"best_cost_noiseless off the measurement path by {diff:.1e}"
        rows = optimizer.validate_sweep(params, count=50)
        diagnostics["sweep_min_f"] = min(min(f1, f2) for _, f1, f2, _ in rows)
    else:
        outs = [cloner.run_cloner(params, psi)[1] for psi in states]
        worst = max(abs(f - TARGET_F) for o in outs for f in (o.f1, o.f2))
        balance = max(abs(o.f1 - o.f2) for o in outs)
        ok = worst < TARGET_TOL and balance <= BALANCE_TOL
        detail = f"best circuit F within {worst:.1e} of {TARGET_F}, |F1-F2| <= {balance:.1e}"
        diagnostics["f_worst_dev"] = worst
    checks.append(("train", ok, "" if ok else detail))
    return checks, diagnostics


def same_outputs(a: dict, b: dict) -> tuple[bool, str]:
    """Tracing must not change what a train command computes or writes."""
    keys = ("total_evaluations", "total_iterations", "total_reboots", "best_cost_trace")
    sa, sb = (json.loads(Path(op["dir"], "summary.json").read_text()) for op in (a, b))
    sizes = [sorted(p.stat().st_size for p in Path(op["dir"], "traces").glob("*.jsonl")) for op in (a, b)]
    ok = all(sa[k] == sb[k] for k in keys) and sizes[0] == sizes[1]
    return ok, "" if ok else "traced and untraced runs of one input differ"


def run(plan: dict, ready: float) -> dict:
    import numpy as np

    noisy = plan["shots"] != "exact"

    def op_and_checks(op_index: int, tag: str, tracer=None) -> tuple[dict, list, dict]:
        if tracer:
            tracer.install()
        try:
            op = train_op(plan, op_index, tag)
        finally:
            if tracer:
                tracer.uninstall()
        return (op, *check_train(plan, op, noisy))

    probe_before = host_probe()
    ops, checks, diagnostics = [], [], []
    per_layer = None
    if plan["trace"]:
        from spans import Tracer

        # One untraced operation, then the same input traced: equal work,
        # so the wall-time ratio is the tracing overhead.
        tracer = Tracer()
        for tag, active in (("plain", None), ("traced", tracer)):
            op, op_checks, diag = op_and_checks(0, tag, active)
            ops.append(op)
            checks += op_checks
            diagnostics.append(diag)
        checks.append(("tracing leaves outputs unchanged", *same_outputs(ops[0], ops[1])))
        tracer.save(Path(plan["workdir"]) / "spans.npz")
        per_layer = tracer.metrics()
        per_layer["trace_overhead"] = ops[1]["wall_s"] / ops[0]["wall_s"] - 1.0
    else:
        measured = 0.0
        while True:
            op, op_checks, diag = op_and_checks(len(ops), f"op{len(ops)}")
            ops.append(op)
            checks += op_checks
            diagnostics.append(diag)
            measured += op["wall_s"]
            # Start another operation only if it should end within the budget.
            if measured + op["wall_s"] > plan["seconds"]:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ready": ready,
        "numpy": np.__version__,
        "ops": ops,
        "checks": checks,
        "diagnostics": diagnostics,
        "peak_rss_mb": peak_rss_mb,
        "host_probe_s": [probe_before, host_probe()],
        "per_layer": per_layer,
    }


def main() -> None:
    mode, plan_path = sys.argv[1], sys.argv[2]
    plan = json.loads(Path(plan_path).read_text())
    set_up(plan)
    ready = time.monotonic()
    if mode == "setup":
        print(repr(ready))
        return
    Path(plan["result"]).write_text(json.dumps(run(plan, ready)))


if __name__ == "__main__":
    main()
