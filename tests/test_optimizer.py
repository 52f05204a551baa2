import base64
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from vclone import cloner, fock, optimizer
from vclone.cloner import QubitState
from vclone.mesh import wrap_phases
from vclone.optimizer import (
    NMConfig,
    OptimizationTrace,
    nelder_mead,
    pc_task,
    sd_task,
    train,
    validate_sweep,
)
from vclone.sampler import NoiseConfig, sampled_evaluator

from sd_pairs import DEFAULT_SD_PAIRS


def quadratic_1d(x):
    return float((x[0] - 2.0) ** 2)


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


# ------------------------------------------------------------------ benchmarks

def test_quadratic_1d():
    trace = nelder_mead(quadratic_1d, [0.0], NMConfig(max_evaluations=500))
    assert abs(trace.best_point[0] - 2.0) < 1e-6


def test_rosenbrock_2d():
    cfg = NMConfig(max_evaluations=5000, max_reboots=5)
    trace = nelder_mead(rosenbrock, [-1.2, 1.0], cfg)
    assert np.allclose(trace.best_point, [1.0, 1.0], atol=1e-3)
    assert trace.n_evaluations <= 5000


def test_constant_cost_collapses_to_init():
    cfg = NMConfig(max_evaluations=5000, max_reboots=2)
    trace = nelder_mead(lambda x: 1.0, [0.3, 0.7], cfg)
    assert trace.n_evaluations < 5000  # terminated by simplex collapse
    assert np.allclose(trace.best_point, [0.3, 0.7])
    assert trace.best_cost == 1.0


def test_budget_of_one_returns_initial_point_only():
    trace = nelder_mead(quadratic_1d, [0.5], NMConfig(max_evaluations=1))
    assert trace.n_evaluations == 1
    assert np.allclose(trace.best_point, [0.5])


def test_non_finite_cost_aborts_with_diagnostic():
    calls = {"n": 0}

    def cost(x):
        calls["n"] += 1
        return float("nan") if calls["n"] > 3 else float(np.sum(x**2))

    trace = nelder_mead(cost, [1.0, 1.0], NMConfig(max_evaluations=100))
    assert trace.error is not None
    assert "non-finite" in trace.error
    assert trace.n_evaluations == 4


# ------------------------------------------------------------ scipy reference

def _scipy_points(cost, x0, edge, max_evaluations=None):
    """The points scipy's textbook Nelder-Mead evaluates from vclone's initial simplex, in
    order, with its tolerances at 0 so that only the evaluation budget stops it early."""
    points = []

    def recorded(x):
        points.append(np.array(x, dtype=float))
        return cost(x)

    options = {"adaptive": False, "initial_simplex": optimizer._initial_simplex(np.asarray(x0, float), edge),
               "xatol": 0.0, "fatol": 0.0}
    if max_evaluations is not None:
        options["maxfev"] = max_evaluations
    minimize(recorded, x0, method="Nelder-Mead", options=options)
    return np.array(points[:max_evaluations])


@pytest.mark.parametrize("case", ["quadratic_12d", "rosenbrock_4d", "rosenbrock_4d_reboot", "rugged_6d", "pc_cost"])
def test_search_visits_scipys_points(case):
    """With reboots off, ``search`` is textbook Nelder-Mead (Lagarias et al., SIAM J.
    Optim. 9, 1998), as ``scipy.optimize.minimize(method="Nelder-Mead", adaptive=False)``
    implements it: both evaluate the same points, row by row, to 1e-10.  Three known
    differences must not matter on these cases: scipy orders the simplex with an unstable
    ``argsort`` (vclone's is stable), accepts an outside contraction on ``<=`` (vclone on
    ``<``), and forms the reflection as (1 + rho) * xbar - rho * x_worst (vclone as
    xbar + rho * (xbar - x_worst)), which differs at the ulp level.  Near convergence
    those ulps compound, so the rugged and pc costs are compared over their first 600 and
    1000 evaluations only, and the Rosenbrock run until vclone's simplex converges.

    A reboot composes: the Rosenbrock run with one reboot, once it has rebuilt its simplex
    around the best point so far with edge ``REBOOT_SCALE * initial_edge``, evaluates the
    points of a fresh scipy run from there until it converges.
    """
    if case == "quadratic_12d":
        rng = np.random.default_rng(4)
        a = rng.normal(size=(12, 12))
        hessian, x0, evaluations = a @ a.T + 12 * np.eye(12), rng.normal(size=12), 1500

        def cost(x):
            return float(x @ hessian @ x)
    elif case.startswith("rosenbrock_4d"):
        x0, evaluations = np.array([1.0, 1.0, 0.2, -0.1]), None

        def cost(x):
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    elif case == "rugged_6d":  # the one case that shrinks, at its 55th evaluation
        x0, evaluations = np.linspace(-2.0, 2.5, 6), 600

        def cost(x):
            return float(np.sum(x**2) + 0.5 * np.sum(np.sin(7.0 * x)))
    else:
        task = pc_task()
        x0, evaluations = np.random.default_rng(21).uniform(0.0, 2 * np.pi, 12), 1000

        def cost(x):
            return task.cost(x)[0]

    cfg = NMConfig(max_evaluations=evaluations or 5000, max_reboots=0)
    if case == "rosenbrock_4d_reboot":  # a short stagnation window reboots it at evaluation 204
        cfg = dataclasses.replace(cfg, stagnation_window=10, collapse_diameter=1.0, max_reboots=1)
    trace = nelder_mead(cost, x0, cfg)
    ours, theirs = trace.points, _scipy_points(cost, x0, cfg.initial_edge, evaluations)
    assert trace.n_reboots == (case == "rosenbrock_4d_reboot")
    if trace.n_reboots:  # from the reboot on: a fresh scipy run from the best point so far
        k = int(np.argmax(trace.reboots))
        best = ours[np.argmin(trace.costs[:k])]
        theirs = np.concatenate((theirs[:k], _scipy_points(cost, best, optimizer.REBOOT_SCALE * cfg.initial_edge)))
    rows = min(len(ours), len(theirs))  # the Rosenbrock runs: until vclone converges
    assert rows == (evaluations or rows) and rows > 400
    assert np.abs(ours[:rows] - theirs[:rows]).max() <= 1e-10


# ---------------------------------------------------------------- trace shape

def test_best_so_far_monotone_across_reboots():
    rng = np.random.default_rng(0)

    def noisy(x):
        return float(np.sum(np.asarray(x) ** 2) + rng.normal(0, 0.01))

    cfg = NMConfig(max_evaluations=2000, stagnation_window=30, max_reboots=10)
    trace = nelder_mead(noisy, rng.uniform(-2, 2, 4), cfg)
    assert np.all(np.diff(trace.best_costs) <= 0)
    assert trace.n_reboots >= 1


def test_determinism_bitwise_identical():
    task = pc_task()
    cfg = NMConfig(max_evaluations=120, seed=7)
    rng = np.random.default_rng(7)
    init = rng.uniform(0, 2 * np.pi, 12)
    a = nelder_mead(task.cost, init, cfg, task.states)
    b = nelder_mead(task.cost, init, cfg, task.states)
    assert a.best_cost == b.best_cost
    assert_same_columns(a, b)


def test_wrapping_recorded_points_preserves_cost():
    task = pc_task()
    rng = np.random.default_rng(8)
    trace = nelder_mead(task.cost, rng.uniform(0, 2 * np.pi, 12), NMConfig(max_evaluations=60), task.states)
    for point, cost in zip(trace.points[-5:], trace.costs[-5:]):
        value, _ = task.cost(wrap_phases(point))
        assert value == pytest.approx(cost, abs=1e-12)


def _check_evaluation_accounting(monkeypatch, task):
    # Lockstep restarts sharing one task: each step makes one kernel call, exact or
    # noisy, covering the rows the restarts asked for, times the four training states.
    calls, asked, steps = [], [], []
    real, real_search, real_costs = cloner.measurement_path_probabilities, optimizer.search, optimizer.Task.costs

    def counting(params, states, *args, **kwargs):
        calls.append((len(np.atleast_2d(params)), len(states)))
        return real(params, states, *args, **kwargs)

    def counting_search(*args, **kwargs):
        run = real_search(*args, **kwargs)
        points = next(run)
        while True:
            asked.append(len(points))
            try:
                points = run.send((yield points))
            except StopIteration as stop:
                return stop.value

    def counting_costs(self, points, restarts):
        steps.append(len(points))
        return real_costs(self, points, restarts)

    monkeypatch.setattr(cloner, "measurement_path_probabilities", counting)
    monkeypatch.setattr(optimizer, "search", counting_search)
    monkeypatch.setattr(optimizer.Task, "costs", counting_costs)
    _, traces = train(task, NMConfig(max_evaluations=40, seed=9), restarts=3)
    evaluations = sum(t.n_evaluations for t in traces)
    states = len(cloner.TRAINING_PHASES)
    assert sum(rows * n for rows, n in calls) == states * evaluations
    assert all(n == states for _, n in calls)
    assert sum(rows for rows, _ in calls) == sum(asked) == evaluations
    assert calls[0][0] == 3 * 13  # the first call holds the three simplex builds
    assert max(rows for rows, _ in calls) <= 3 * 13
    assert [rows for rows, _ in calls] == steps  # one kernel call per lockstep step


def test_evaluation_accounting(monkeypatch):
    _check_evaluation_accounting(monkeypatch, pc_task())


def test_evaluation_accounting_noisy(monkeypatch):
    _check_evaluation_accounting(monkeypatch, pc_task(evaluator=sampled_evaluator(NoiseConfig(shots=500, seed=3))))


def assert_same_columns(a: OptimizationTrace, b: OptimizationTrace) -> None:
    """Every column of two traces holds the same values, dtypes and shapes."""
    assert a.states == b.states
    for name in optimizer.COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_same_trace(a: OptimizationTrace, b: OptimizationTrace) -> None:
    assert_same_columns(a, b)
    assert np.array_equal(a.best_point, b.best_point)
    header = ("best_cost", "n_iterations", "n_evaluations", "n_reboots", "seed", "error")
    assert [getattr(a, k) for k in header] == [getattr(b, k) for k in header]


def test_trace_jsonl_roundtrip(tmp_path):
    task = pc_task()
    rng = np.random.default_rng(10)
    trace = nelder_mead(task.cost, rng.uniform(0, 2 * np.pi, 12), NMConfig(max_evaluations=30), task.states)
    assert trace.outcomes.shape == (30, 4, 3) and trace.states == task.states
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    loaded = OptimizationTrace.from_jsonl(path)
    assert_same_trace(loaded, trace)
    assert loaded.records == trace.records
    assert loaded.records[-1].extras[task.states[0]] == dict(zip(("f1", "f2", "p"), trace.outcomes[-1, 0]))


def _aborted_trace():
    """A run stopped by a non-finite first cost: an error, no rows, and an infinite best cost."""
    return nelder_mead(lambda x: float("nan"), [0.5, 1.5], NMConfig(max_evaluations=10))


@pytest.mark.parametrize("make", [
    _aborted_trace,
    lambda: nelder_mead(rosenbrock, [-1.2, 1.0], NMConfig(max_evaluations=300, stagnation_window=10)),
    lambda: train(sd_task(*DEFAULT_SD_PAIRS[1], lam=1.0), NMConfig(max_evaluations=40), 1)[0],
], ids=["aborted", "no states", "states"])
def test_trace_v2_roundtrip_is_lossless(tmp_path, make):
    trace = make()
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    loaded = OptimizationTrace.from_jsonl(path)
    assert_same_trace(loaded, trace)
    loaded.to_jsonl(tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()



def test_trace_header_is_strict_json(tmp_path):
    # An aborted run has no finite cost: its header says null, read back as inf.
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    path = tmp_path / "trace.jsonl"
    _aborted_trace().to_jsonl(path)
    lines = [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]
    assert lines[0]["best_cost"] is None
    assert OptimizationTrace.from_jsonl(path).best_cost == float("inf")

def test_aborted_and_stateless_traces_have_their_columns():
    aborted = _aborted_trace()
    assert "non-finite cost nan" in aborted.error
    assert aborted.n_evaluations == 1 and aborted.best_cost == float("inf")
    assert aborted.points.shape == (0, 2) and aborted.costs.shape == (0,) and aborted.records == []
    assert aborted.outcomes is None and aborted.states == ()
    plain = nelder_mead(rosenbrock, [-1.2, 1.0], NMConfig(max_evaluations=20))
    assert plain.outcomes is None and plain.records[0].extras == {}


def test_trace_jsonl_v2_format(tmp_path):
    # A JSON header line, then one line per column: name, dtype, shape and the
    # base64 of the little-endian bytes.
    trace = OptimizationTrace(
        points=np.array([[0.5, 1.5], [0.1, 2.0]]), costs=np.array([0.25, 0.5]),
        best_costs=np.array([0.25, 0.25]), iterations=np.array([0, 1]),
        reboots=np.array([False, True]), outcomes=np.arange(6.0).reshape(2, 1, 3), states=("A",),
        best_point=np.array([0.5, 1.5]), best_cost=0.25, n_iterations=1, n_evaluations=2,
        n_reboots=1, seed=3)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    header, *lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert header == {"schema_version": 2, "best_point": [0.5, 1.5], "best_cost": 0.25,
                      "n_iterations": 1, "n_evaluations": 2, "n_reboots": 1, "seed": 3,
                      "error": None, "states": ["A"]}
    assert [line["name"] for line in lines] == list(optimizer.COLUMNS)
    for line in lines:
        column = getattr(trace, line["name"])
        assert line["shape"] == list(column.shape)
        assert line["dtype"] == column.dtype.newbyteorder("<").str
        assert base64.b64decode(line["data"]) == column.astype(line["dtype"]).tobytes()
    assert [r.extras for r in trace.records] == [{"A": {"f1": 0.0, "f2": 1.0, "p": 2.0}},
                                                 {"A": {"f1": 3.0, "f2": 4.0, "p": 5.0}}]
    assert (np.flatnonzero(trace.reboots) + 1).tolist() == [2]


@pytest.mark.parametrize("change, message", [
    (lambda lines: lines[:3] + lines[4:], "expected columns"),
    (lambda lines: lines[:2] + [lines[2].replace('"shape": [2]', '"shape": [1]')] + lines[3:], "reshape"),
])
def test_trace_v2_rejects_inconsistent_columns(tmp_path, change, message):
    trace = nelder_mead(rosenbrock, [-1.2, 1.0], NMConfig(max_evaluations=2))
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=message):
        OptimizationTrace.from_jsonl(path)


def test_trace_reboot_markers_recorded():
    rng = np.random.default_rng(11)

    def noisy(x):
        return float(np.sum(np.asarray(x) ** 2) + rng.normal(0, 0.01))

    cfg = NMConfig(max_evaluations=2000, stagnation_window=30, max_reboots=10)
    trace = nelder_mead(noisy, rng.uniform(-2, 2, 4), cfg)
    assert np.count_nonzero(trace.reboots) == trace.n_reboots


# -------------------------------------------------------------- reboot policy

def test_no_reboot_while_improving():
    # Steady improvement: the quadratic keeps shrinking the best cost until
    # convergence, so the stagnation rule never fires before collapse.
    cfg = NMConfig(max_evaluations=400, stagnation_window=50, max_reboots=10)
    trace = nelder_mead(lambda x: float(np.sum(np.asarray(x) ** 2)), [3.0, -2.0], cfg)
    assert abs(trace.best_cost) < 1e-10


def test_flat_tail_with_collapsed_simplex_reboots():
    cfg = NMConfig(
        max_evaluations=600,
        initial_edge=1e-4,  # starts collapsed below the threshold
        stagnation_window=10,
        max_reboots=3,
    )
    trace = nelder_mead(lambda x: 1.0, [0.1, 0.2], cfg)
    assert trace.n_reboots >= 1
    first_reboot = np.flatnonzero(trace.reboots)[0] + 1
    # First eligible point: right after the stagnation window elapses.
    assert first_reboot <= 10 * 4 + 3 + 1


def test_reboots_help_on_noisy_quadratic():
    # Paired seeds, additive sigma = 0.01 noise; success = true cost of the
    # returned point below 0.02.  Reboots must win strictly more often.
    wins_reboot = wins_plain = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        init = rng.uniform(-2, 2, 6)
        results = {}
        for label, reboots in (("reboot", 20), ("plain", 0)):
            noise = np.random.default_rng(10_000 + seed)

            def cost(x, noise=noise):
                return float(np.sum(np.asarray(x) ** 2) + noise.normal(0, 0.01))

            cfg = NMConfig(
                max_evaluations=1500,
                stagnation_window=30,
                max_reboots=reboots,
                seed=seed,
            )
            trace = nelder_mead(cost, init, cfg)
            results[label] = float(np.sum(np.asarray(trace.best_point) ** 2)) < 0.02
        wins_reboot += results["reboot"]
        wins_plain += results["plain"]
    assert wins_reboot > wins_plain


# --------------------------------------------------------------------- train

@dataclasses.dataclass(frozen=True)
class StandInTask:
    """What ``train`` reads of a task, its ``dim``, ``states`` and ``costs``, around any
    batch cost; ``cost`` is its batch of one, for restart 0, as ``Task.cost`` is."""

    dim: int
    costs: object
    states: tuple[str, ...] = ()

    def cost(self, point):
        costs, outcomes = self.costs(np.asarray(point, dtype=float)[None], [0])
        return float(costs[0]), None if outcomes is None else outcomes[0]


def test_train_returns_lowest_cost_trace():
    task = pc_task()
    cfg = NMConfig(max_evaluations=200)
    best, traces = train(task, dataclasses.replace(cfg, seed=0), restarts=3)
    assert len(traces) == 3
    assert best.best_cost == min(t.best_cost for t in traces)


def test_train_restart_seeds_differ():
    task = pc_task()
    cfg = NMConfig(max_evaluations=50)
    _, traces = train(task, dataclasses.replace(cfg, seed=5), restarts=3)
    starts = {tuple(t.points[0]) for t in traces}
    assert len(starts) == 3
    assert [t.seed for t in traces] == [5, 6, 7]


def test_train_tags_each_row_with_its_restart():
    seen = []
    task = pc_task()

    def costs(points, restarts):
        seen.append(list(restarts))
        return task.costs(points, restarts)

    cfg = NMConfig(max_evaluations=30)
    train(StandInTask(task.dim, costs, task.states), dataclasses.replace(cfg, seed=0), restarts=2)
    assert seen[0] == [0] * 13 + [1] * 13
    assert {r for step in seen for r in step} == {0, 1}


def _solo_runs(task, cfg, restarts, seed):
    """Each restart of ``train`` run alone through ``nelder_mead`` on the scalar cost."""
    return [
        nelder_mead(task.cost, np.random.default_rng(seed + r).uniform(0, 2 * np.pi, task.dim),
                    dataclasses.replace(cfg, seed=seed + r), task.states)
        for r in range(restarts)
    ]


@pytest.mark.parametrize("name", ["pc", "sd"])
def test_lockstep_traces_equal_solo_runs(name):
    task = pc_task() if name == "pc" else sd_task(*DEFAULT_SD_PAIRS[1], lam=1.0)
    # A short stagnation window makes the restarts reboot within the budget.
    cfg = NMConfig(max_evaluations=300, stagnation_window=10, collapse_diameter=1.0)
    _, traces = train(task, dataclasses.replace(cfg, seed=2), restarts=3)
    assert sum(t.n_reboots for t in traces) > 0
    for trace, solo in zip(traces, _solo_runs(task, cfg, 3, 2)):
        assert_same_columns(trace, solo)
        assert len(trace.costs) == trace.n_evaluations == 300
        assert (trace.n_iterations, trace.n_reboots, trace.best_cost) == (
            solo.n_iterations, solo.n_reboots, solo.best_cost)
        assert np.array_equal(trace.best_point, solo.best_point)


def _noisy_task(name, seed):
    evaluator = sampled_evaluator(NoiseConfig(shots=2000, seed=seed))
    if name == "pc":
        return pc_task(evaluator=evaluator)
    return sd_task(*DEFAULT_SD_PAIRS[1], lam=1.0, evaluator=evaluator)


def test_lockstep_noisy_restarts_keep_their_own_streams():
    # One shared task: restart r draws from noise seed 40 + r, and the batched
    # draws of a simplex build must equal the draws of its points one after another.
    cfg = NMConfig(max_evaluations=150)
    _, traces = train(_noisy_task("pc", 40), dataclasses.replace(cfg, seed=9), restarts=2)
    for r, trace in enumerate(traces):
        init = np.random.default_rng(9 + r).uniform(0, 2 * np.pi, 12)
        task = _noisy_task("pc", 40 + r)
        solo = nelder_mead(task.cost, init, dataclasses.replace(cfg, seed=9 + r), task.states)
        assert_same_columns(trace, solo)


@pytest.mark.parametrize("name", ["pc", "sd"])
def test_shared_noisy_train_equals_solo_runs_on_each_stream(name):
    # A short stagnation window makes the restarts reboot; the budget is then
    # set to run out inside restart 0's first reboot build, a step it shares
    # with the other restarts.
    seed, noise_seed = 4, 60
    cfg = NMConfig(max_evaluations=400, stagnation_window=10, collapse_diameter=1.0)
    probe = _solo_runs(_noisy_task(name, noise_seed), cfg, 1, seed)[0]
    first_reboot = int(np.flatnonzero(probe.reboots)[0]) + 1
    cfg = dataclasses.replace(cfg, max_evaluations=first_reboot + 5)  # 6 of its 13 rows
    _, traces = train(_noisy_task(name, noise_seed), dataclasses.replace(cfg, seed=seed), restarts=3)
    assert np.flatnonzero(traces[0].reboots)[-1] + 1 == first_reboot
    for r, trace in enumerate(traces):
        (solo,) = _solo_runs(_noisy_task(name, noise_seed + r), cfg, 1, seed + r)
        assert_same_columns(trace, solo)
        assert len(trace.costs) == trace.n_evaluations == cfg.max_evaluations
        assert (trace.n_iterations, trace.n_reboots, trace.best_cost) == (
            solo.n_iterations, solo.n_reboots, solo.best_cost)


def _steps(cost, init, cfg):
    """(evaluations before, rows asked) for each step of one search."""
    run, steps, evaluations = optimizer.search(init, cfg), [], 0
    points = next(run)
    while True:
        steps.append((evaluations, len(points)))
        evaluations += len(points)
        try:
            points = run.send(([cost(p) for p in points], None))
        except StopIteration:
            return steps


def _rosenbrock_4d(x):
    return rosenbrock(x) + float(np.sum(np.abs(x[2:])))


@pytest.mark.parametrize("batch", ["simplex build", "shrink"])
def test_budget_runs_out_inside_a_batch(batch):
    init, d = [1.0, -2.0, 0.5, 3.0], 4
    steps = _steps(_rosenbrock_4d, init, NMConfig(max_evaluations=2000))
    assert steps[0] == (0, d + 1)
    assert {rows for _, rows in steps} == {1, d, d + 1}
    start, rows = steps[0] if batch == "simplex build" else next(s for s in steps if s[1] == d)
    budget = start + rows // 2
    full = nelder_mead(_rosenbrock_4d, init, NMConfig(max_evaluations=2000))
    trace = nelder_mead(_rosenbrock_4d, init, NMConfig(max_evaluations=budget))
    assert len(trace.costs) == trace.n_evaluations == budget
    for name in ("points", "costs", "best_costs", "iterations", "reboots"):
        assert np.array_equal(getattr(trace, name), getattr(full, name)[:budget])


def test_budget_ends_on_every_step_boundary():
    # Every budget up to 120 ends the run inside or at the end of some step: builds,
    # shrinks, single points and four reboot builds among them.
    init, d, last = [1.0, 1.0, 0.2, -0.1], 4, 120
    cfg = NMConfig(max_evaluations=2000, stagnation_window=10, collapse_diameter=1.0)
    steps = _steps(_rosenbrock_4d, init, cfg)
    assert {rows for start, rows in steps if start < last} == {1, d, d + 1}
    full = nelder_mead(_rosenbrock_4d, init, cfg)
    assert full.reboots[:last].sum() == 4
    for budget in range(1, last + 1):
        trace = nelder_mead(_rosenbrock_4d, init, dataclasses.replace(cfg, max_evaluations=budget))
        assert len(trace.costs) == trace.n_evaluations == budget and trace.error is None
        for name in ("points", "costs", "best_costs", "iterations", "reboots"):
            assert np.array_equal(getattr(trace, name), getattr(full, name)[:budget])
        assert trace.n_iterations == full.iterations[budget - 1]
        assert trace.n_reboots == full.reboots[:budget].sum()


def test_budget_cuts_every_lockstep_build():
    _, traces = train(pc_task(), NMConfig(max_evaluations=5, seed=1), restarts=3)
    for trace in traces:
        assert len(trace.costs) == trace.n_evaluations == 5
        assert trace.n_iterations == 0 and trace.error is None


def test_non_finite_row_in_shared_batch_stops_only_its_restart():
    seed, cfg = 3, NMConfig(max_evaluations=100)
    poisoned = np.random.default_rng(seed + 1).uniform(0, 2 * np.pi, 2)  # restart 1's first point
    batches = []

    def costs(points, restarts):
        batches.append(len(points))
        return np.array([float("nan") if np.array_equal(p, poisoned) else rosenbrock(p) for p in points]), None

    task = StandInTask(dim=2, costs=costs)
    _, traces = train(task, dataclasses.replace(cfg, seed=seed), restarts=3)
    assert batches[0] == 3 * 3  # the poisoned row arrives with the other builds
    assert "non-finite cost nan" in traces[1].error
    assert traces[1].n_evaluations == 1 and len(traces[1].costs) == 0
    assert np.array_equal(traces[1].best_point, poisoned)
    for r in (0, 2):
        assert traces[r].error is None
        assert len(traces[r].costs) == traces[r].n_evaluations == cfg.max_evaluations
    solo = _solo_runs(task, cfg, 3, seed)
    assert_same_columns(traces[0], solo[0])
    assert_same_columns(traces[2], solo[2])



def test_columns_grow_past_capacity_without_preallocating_the_budget():
    # A budget no memory could hold up front: the run converges, and its columns, grown
    # past CAPACITY, equal those of the same run given just the budget it used.
    def cost(x):
        return rosenbrock(x), np.array([[x[0], x[1], 0.5]])

    def run(budget):
        return nelder_mead(cost, [-1.2, 1.0], NMConfig(max_evaluations=budget, max_reboots=30), ("A",))

    grown = run(10**12)
    assert grown.error is None and optimizer.CAPACITY < len(grown.costs) == grown.n_evaluations < 10**12
    assert grown.reboots.sum() == grown.n_reboots == 30
    assert_same_trace(grown, run(grown.n_evaluations))


def test_train_transient_memory_is_small():
    # Rows are written in place into each restart's columns: what train allocates beyond
    # the traces it returns stays small.
    task = pc_task()
    tracemalloc.start()
    try:
        _, traces = train(task, NMConfig(max_evaluations=1000), restarts=3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(t.costs) for t in traces) == 3000
    assert peak - held < 0.5e6, (held, peak)


def test_short_trace_holds_only_its_rows():
    # A run stopped at its first evaluation fills no row of the 2500 it made room for:
    # its trace holds copies of the filled rows, not views of the whole block.
    states = [f"s{k}" for k in range(4)]
    tracemalloc.start()
    try:
        trace = nelder_mead(lambda x: (float("nan"), np.zeros((4, 3))), np.zeros(12), NMConfig(), states)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.error is not None and len(trace.costs) == 0
    assert held < 20_000, held


def test_full_trace_gets_views_of_its_columns():
    # A run that fills its room keeps the columns it wrote into, with no copy.
    trace = nelder_mead(rosenbrock, [-1.2, 1.0], NMConfig(max_evaluations=50))
    assert len(trace.costs) == 50
    assert all(getattr(trace, name).base is not None for name in optimizer.COLUMNS[:-1])

def test_train_zero_restarts_rejected():
    with pytest.raises(ValueError):
        train(pc_task(), NMConfig(), restarts=0)


def test_sd_task_extras_recorded():
    psi_a, psi_b = DEFAULT_SD_PAIRS[0]
    task = sd_task(psi_a, psi_b, lam=1.0)
    value, outcomes = task.cost(np.zeros(12))
    assert task.states == ("A", "B") and outcomes.shape == (2, 3)
    # The cost assembled by hand from the run_cloner (Fock oracle) outcomes.
    out_a, out_b = (fock.run_cloner(np.zeros(12), psi)[1] for psi in (psi_a, psi_b))
    expected = sum((1 - o.f1) ** 2 + (1 - o.f2) ** 2 + (o.f1 - o.f2) ** 2 for o in (out_a, out_b))
    expected += (1 - out_a.p_post) ** 2 + (1 - out_b.p_post) ** 2 + (out_a.p_post - out_b.p_post) ** 2
    assert value == pytest.approx(expected, abs=1e-14)


def test_task_costs_round_as_python_floats():
    # Noisy trajectories hang on the last bit of each cost: Python's ** (libm
    # pow) and numpy's square round differently on some inputs.
    outs = np.random.default_rng(3).random((20_000, 2, 3))
    task = sd_task(*DEFAULT_SD_PAIRS[0], lam=0.5, evaluator=lambda probs, restarts: outs)
    costs, outcomes = task.costs(np.zeros((len(outs), 12)), [0] * len(outs))
    assert outcomes is outs
    want = []
    for (f1a, f2a, pa), (f1b, f2b, pb) in outs.tolist():
        total = 0.0
        total += (1.0 - f1a) ** 2 + (1.0 - f2a) ** 2 + (f1a - f2a) ** 2
        total += (1.0 - f1b) ** 2 + (1.0 - f2b) ** 2 + (f1b - f2b) ** 2
        want.append(total + 0.5 * ((1.0 - pa) ** 2 + (1.0 - pb) ** 2 + (pa - pb) ** 2))
    assert costs.tolist() == want


def test_nmconfig_validation():
    for bad in ({"initial_edge": 0}, {"max_evaluations": 0}, {"stagnation_window": 0}, {"collapse_diameter": -1},
                {"max_reboots": -1}):
        with pytest.raises(ValueError):
            NMConfig(**bad)


# ------------------------------------------------------------ validate sweep

def test_validate_sweep_identity_params():
    rows = validate_sweep(np.zeros(12), count=50)
    assert len(rows) == 50
    for phi, f1, f2, p in rows:
        assert 0.0 <= f1 <= 1.0 and 0.0 <= f2 <= 1.0 and 0.0 <= p <= 1.0


def test_validate_sweep_count_four_matches_training_set():
    rng = np.random.default_rng(12)
    params = rng.uniform(0, 2 * np.pi, 12)
    rows = validate_sweep(params, count=4)
    for (phi, f1, f2, p), train_phi in zip(rows, cloner.TRAINING_PHASES):
        assert phi == pytest.approx(train_phi, abs=1e-12)
        _, out = fock.run_cloner(params, QubitState.equatorial(train_phi))
        assert f1 == pytest.approx(out.f1, abs=1e-12)
        assert f2 == pytest.approx(out.f2, abs=1e-12)
        assert p == pytest.approx(out.p_post, abs=1e-12)


def test_validate_sweep_custom_evaluator(monkeypatch):
    # The sweep's rows are the kernel's outcomes, state by state.
    stub = lambda params, states, spec: np.tile([0.9, 0.8, 0.5], (len(states), 1))
    monkeypatch.setattr(optimizer, "clone_outcomes", stub)
    rows = validate_sweep(np.zeros(12), count=5)
    assert all(r[1:] == (0.9, 0.8, 0.5) for r in rows)
