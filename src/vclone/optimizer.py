"""Derivative-free training of the cloning circuit.

Nelder-Mead over the 12-dimensional phase torus, instrumented with a full
per-evaluation trace and a reboot heuristic: when the best cost stagnates
while the simplex has collapsed (a failure mode typical under shot noise),
the simplex is rebuilt around the best point with an enlarged edge.

Parameters are kept unwrapped during the search; the cost is 2*pi-periodic
so wrapping never changes its value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import cloner
from .cloner import QubitState, RailMap, DEFAULT_RAILS, _symmetric_terms, clone_outcomes
from .cloner import run_cloner  # noqa: F401  the oracle, patched here by perfbench/spans.py
from .mesh import MeshSpec

TRACE_SCHEMA_VERSION = 1

#: Simplex diameter below which the search is considered converged.
CONVERGENCE_DIAMETER = 1e-8

CostFn = Callable[[np.ndarray], "float | tuple[float, dict]"]
#: (params, states, restarts=None) -> outcomes of each (phase vector, state) pair, row-major,
#: shaped like ``clone_outcomes``; ``restarts`` names the restart that asked for each phase
#: vector (None: all restart 0).
Evaluator = Callable[..., list[cloner.CloningOutcome]]


@dataclass(frozen=True)
class NMConfig:
    """Nelder-Mead settings, including the reboot heuristic.

    ``max_iterations`` caps simplex updates, ``max_evaluations`` caps cost
    evaluations (both counts are reported separately in the trace).
    """

    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    initial_edge: float = 0.5
    max_iterations: int = 100_000
    max_evaluations: int = 2500
    stagnation_window: int = 50
    stagnation_tol: float = 1e-3
    collapse_diameter: float = 1e-2
    reboot_scale: float = 4.0
    max_reboots: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.reflection > 0 and self.expansion > 1 and 0 < self.contraction < 1 and 0 < self.shrink < 1):
            raise ValueError("Nelder-Mead coefficients outside admissible ranges")
        if self.initial_edge <= 0 or self.reboot_scale <= 1:
            raise ValueError("initial_edge must be positive and reboot_scale > 1")
        if min(self.max_iterations, self.max_evaluations, self.stagnation_window) < 1 or self.max_reboots < 0:
            raise ValueError("iteration counts must be positive")


@dataclass
class TraceRecord:
    """One cost evaluation: where, what it cost, and the running best."""

    evaluation: int
    iteration: int
    point: list[float]
    cost: float
    best_cost: float
    reboot: bool = False
    extras: dict = field(default_factory=dict)


@dataclass
class OptimizationTrace:
    """Complete record of one optimization run."""

    records: list[TraceRecord] = field(default_factory=list)
    best_point: np.ndarray | None = None
    best_cost: float = math.inf
    n_iterations: int = 0
    n_evaluations: int = 0
    n_reboots: int = 0
    seed: int | None = None
    error: str | None = None

    def best_cost_series(self) -> np.ndarray:
        return np.array([r.best_cost for r in self.records])

    def reboot_evaluations(self) -> list[int]:
        return [r.evaluation for r in self.records if r.reboot]

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            header = {
                "schema_version": TRACE_SCHEMA_VERSION,
                "best_point": None if self.best_point is None else list(self.best_point),
                "best_cost": self.best_cost,
                "n_iterations": self.n_iterations,
                "n_evaluations": self.n_evaluations,
                "n_reboots": self.n_reboots,
                "seed": self.seed,
                "error": self.error,
            }
            fh.write(json.dumps(header) + "\n")
            for rec in self.records:
                fh.write(json.dumps(vars(rec)) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "OptimizationTrace":
        with open(path) as fh:
            header = json.loads(fh.readline())
            version = header.get("schema_version") if isinstance(header, dict) else None
            if version != TRACE_SCHEMA_VERSION:
                raise ValueError(f"unsupported trace schema {version!r}")
            records = [TraceRecord(**json.loads(line)) for line in fh if line.strip()]
        best_point = header["best_point"]
        return cls(
            records=records,
            best_point=None if best_point is None else np.array(best_point),
            best_cost=header["best_cost"],
            n_iterations=header["n_iterations"],
            n_evaluations=header["n_evaluations"],
            n_reboots=header["n_reboots"],
            seed=header.get("seed"),
            error=header.get("error"),
        )


def _simplex_diameter(simplex: np.ndarray) -> float:
    return math.sqrt(max(np.add.reduce((simplex - simplex[0]) ** 2, axis=1).tolist()))


def _initial_simplex(center: np.ndarray, edge: float) -> np.ndarray:
    d = len(center)
    simplex = np.tile(center, (d + 1, 1))
    for k in range(d):
        simplex[k + 1, k] += edge
    return simplex


class NelderMead:
    """Nelder-Mead from ``init`` as an ask-tell state machine recording every evaluation.

    ``ask()`` gives the (k, d) points to evaluate next: d+1 for a simplex (re)build, d for
    a shrink, 1 otherwise, cut to the budget left.  ``tell(results)`` takes their costs in
    order, each a float or (float, extras-dict).  Ties in the simplex order break toward
    the lowest vertex (stable sort), so runs are deterministic.  ``done`` is set when the
    run is over; a non-finite cost ends it with a diagnostic on the trace.
    """

    def __init__(self, init: Sequence[float], cfg: NMConfig) -> None:
        self.init, self.cfg = np.asarray(init, dtype=float), cfg
        self.trace = OptimizationTrace(seed=cfg.seed)
        self.done = self._reboot = False
        self._search = self._steps()
        self._ask(next(self._search))

    def ask(self) -> np.ndarray:
        return self._asked

    def tell(self, results: Sequence["float | tuple[float, dict]"]) -> None:
        trace, values = self.trace, []
        for point, result in zip(self._asked, results):
            value, extras = result if isinstance(result, tuple) else (result, {})
            value = float(value)
            trace.n_evaluations += 1
            if not math.isfinite(value):
                trace.error = f"non-finite cost {value} at {point}"
                return self._finish()
            if value < trace.best_cost:
                trace.best_cost, trace.best_point = value, point.copy()
            trace.records.append(TraceRecord(
                trace.n_evaluations, trace.n_iterations, point.tolist(),
                value, trace.best_cost, self._reboot, extras,
            ))
            self._reboot = False
            values.append(value)
        if self._cut:
            return self._finish()
        try:
            self._ask(self._search.send(np.array(values)))
        except StopIteration:
            self._finish()

    def _ask(self, points: np.ndarray) -> None:
        left = self.cfg.max_evaluations - self.trace.n_evaluations
        self._asked, self._cut = points[:left], len(points) > left
        if left <= 0:
            self._finish()

    def _finish(self) -> None:
        self.done = True
        self._search.close()
        if self.trace.best_point is None:
            self.trace.best_point = self.init.copy()

    def _steps(self):
        """The search as a generator: yields the points it needs, receives their costs."""
        cfg, trace = self.cfg, self.trace
        simplex = _initial_simplex(self.init, cfg.initial_edge)
        values = yield simplex
        best_history = [trace.best_cost]  # best cost after each iteration
        iters_since_reboot = 0

        while trace.n_iterations < cfg.max_iterations and trace.n_evaluations < cfg.max_evaluations:
            order = values.argsort(kind="stable")
            simplex, values = simplex[order], values[order]

            # Reboot heuristic: best cost stagnant over the last K
            # iterations while the simplex has collapsed.
            diameter = _simplex_diameter(simplex)
            if iters_since_reboot >= cfg.stagnation_window:
                window_start = best_history[-cfg.stagnation_window - 1]
                stagnant = window_start - trace.best_cost < cfg.stagnation_tol
                if stagnant and diameter < cfg.collapse_diameter and trace.n_reboots < cfg.max_reboots:
                    trace.n_reboots += 1
                    self._reboot = True
                    simplex = _initial_simplex(trace.best_point, cfg.reboot_scale * cfg.initial_edge)
                    values = yield simplex
                    best_history = [trace.best_cost]
                    iters_since_reboot = 0
                    continue

            if diameter < CONVERGENCE_DIAMETER:
                return

            trace.n_iterations += 1
            iters_since_reboot += 1

            centroid = np.add.reduce(simplex[:-1]) / (len(simplex) - 1)
            worst = simplex[-1]
            reflected = centroid + cfg.reflection * (centroid - worst)
            (f_reflected,) = yield reflected[None]

            if f_reflected < values[0]:
                expanded = centroid + cfg.expansion * (reflected - centroid)
                (f_expanded,) = yield expanded[None]
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + cfg.contraction * (reflected - centroid)
                else:
                    contracted = centroid + cfg.contraction * (worst - centroid)
                (f_contracted,) = yield contracted[None]
                if f_contracted < min(f_reflected, values[-1]):
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    # Shrink toward the best vertex.
                    simplex[1:] = simplex[0] + cfg.shrink * (simplex[1:] - simplex[0])
                    values[1:] = yield simplex[1:]

            best_history.append(trace.best_cost)


def nelder_mead(cost: CostFn, init: Sequence[float], cfg: NMConfig) -> OptimizationTrace:
    """Minimize ``cost`` (a float or (float, extras-dict) per point) from ``init``,
    evaluating the points of one ``NelderMead`` run one by one, in order."""
    search = NelderMead(init, cfg)
    while not search.done:
        search.tell([cost(point) for point in search.ask()])
    return search.trace


@dataclass(frozen=True)
class Task:
    """A trainable objective over a phase vector of given size: ``costs(points, restarts)``
    maps (B, dim) points, asked for by the restarts named row by row, to their B
    (float, extras-dict) results, and ``cost`` is its batch of one.  A stateful
    cost, such as a sampled one, keeps one stream per restart; others ignore it."""

    name: str
    dim: int
    costs: Callable[[np.ndarray, Sequence[int]], list[tuple[float, dict]]]

    def cost(self, point: np.ndarray, restart: int = 0) -> tuple[float, dict]:
        return self.costs(np.asarray(point, dtype=float)[None], [restart])[0]


def _cloning_task(name: str, states: dict[str, QubitState], lam: float | None,
                  spec: MeshSpec | None, rails: RailMap, evaluator: Evaluator | None) -> Task:
    """Symmetric cloning cost summed over the labelled states, plus lam times the
    symmetric terms of the first two states' P_post when lam is set.  One
    evaluator call (default: the exact kernel) covers every point and state.
    """
    spec = cloner.four_mode_spec(spec)
    labels, kets = list(states), cloner.StateStack(states.values())
    evaluate = evaluator or (
        lambda params, states, restarts=None: clone_outcomes(params, states, spec=spec, rails=rails))

    def costs(points: np.ndarray, restarts: Sequence[int]) -> list[tuple[float, dict]]:
        outs, n = evaluate(points, kets, restarts), len(kets)
        results = []
        for row in (outs[i : i + n] for i in range(0, n * len(points), n)):
            total = 0.0
            for out in row:
                total += _symmetric_terms(out.f1, out.f2)
            if lam is not None:
                total += lam * _symmetric_terms(row[0].p_post, row[1].p_post)
            extras = {k: {"f1": o.f1, "f2": o.f2, "p": o.p_post} for k, o in zip(labels, row)}
            results.append((total, extras))
        return results

    return Task(name=name, dim=spec.n_phases, costs=costs)


def pc_task(
    spec: MeshSpec | None = None,
    rails: RailMap = DEFAULT_RAILS,
    evaluator: Evaluator | None = None,
) -> Task:
    """Equatorial-cloning training task over the four-phase training set.

    ``evaluator`` defaults to the exact noiseless kernel; pass a sampling
    evaluator (see vclone.sampler) to train under shot noise.
    """
    states = {f"phi={phi:.4f}": QubitState.equatorial(phi) for phi in cloner.TRAINING_PHASES}
    return _cloning_task("pc", states, None, spec, rails, evaluator)


def sd_task(
    psi_a: QubitState,
    psi_b: QubitState,
    lam: float = 1.0,
    spec: MeshSpec | None = None,
    rails: RailMap = DEFAULT_RAILS,
    evaluator: Evaluator | None = None,
) -> Task:
    """Two-state cloning task with success-probability regularization."""
    if lam < 0:
        raise ValueError("regularization weight must be non-negative")
    return _cloning_task("sd", {"A": psi_a, "B": psi_b}, lam, spec, rails, evaluator)


def train(
    task: Task,
    cfg: NMConfig,
    restarts: int,
    seed: int | None = None,
) -> tuple[OptimizationTrace, list[OptimizationTrace]]:
    """Run independent seeded optimizations in lockstep and keep the lowest-cost trace.

    Restart r uses seed ``seed + r`` (falling back to cfg.seed) for its
    uniform initial point on [0, 2*pi)^dim.  The restarts step together:
    each step is one ``task.costs`` call on the points every live restart
    asks for, in restart order, each row tagged with its restart index, so
    a sampled task draws each restart's rows from that restart's stream.
    Returns (best trace, all traces); ties go to the earliest restart.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    base_seed = cfg.seed if seed is None else seed
    searches = [
        NelderMead(np.random.default_rng(base_seed + r).uniform(0.0, 2.0 * math.pi, task.dim),
                   replace(cfg, seed=base_seed + r))
        for r in range(restarts)
    ]
    while live := [r for r, search in enumerate(searches) if not search.done]:
        asked = [searches[r].ask() for r in live]
        owners = [r for r, points in zip(live, asked) for _ in points]
        results = iter(task.costs(np.concatenate(asked), owners))
        for r, points in zip(live, asked):
            searches[r].tell([next(results) for _ in points])
    traces = [search.trace for search in searches]
    return min(traces, key=lambda t: t.best_cost), traces


def validate_sweep(
    params: np.ndarray | list[float],
    count: int = 50,
    spec: MeshSpec | None = None,
    rails: RailMap = DEFAULT_RAILS,
    evaluator: Evaluator | None = None,
) -> list[tuple[float, float, float, float]]:
    """Evaluate the circuit on ``count`` evenly spaced equatorial states.

    Returns rows (phi, F1, F2, P_post) for phi = 2*pi*k/count, from one
    ``evaluator`` call (default: the exact kernel) covering every state.
    """
    phis = [2.0 * math.pi * k / count for k in range(count)]
    states = [QubitState.equatorial(phi) for phi in phis]
    params = np.asarray(params, dtype=float)
    outs = evaluator(params, states) if evaluator else clone_outcomes(params, states, spec, rails)
    return [(phi, out.f1, out.f2, out.p_post) for phi, out in zip(phis, outs)]
