"""Derivative-free training of the cloning circuit.

Nelder-Mead over the 12-dimensional phase torus as one generator, ``search``,
which records a full per-evaluation trace and applies a reboot heuristic: when
the best cost stagnates while the simplex has collapsed (a failure mode typical
under shot noise), the simplex is rebuilt around the best point with an enlarged
edge.  ``nelder_mead`` (one run) and ``train`` (lockstep restarts) drive it.

``Task`` is the cloning cost, evaluated a batch at a time by the exact kernel or a
sampling evaluator; ``pc_task`` and ``sd_task`` build the paper's two.

Parameters are kept unwrapped during the search; the cost is 2*pi-periodic
so wrapping never changes its value.
"""

from __future__ import annotations

import base64
import bisect
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import cloner
from .cloner import QubitState, clone_outcomes
from .mesh import MeshSpec

#: Version 2: a JSON header line, then one JSON line per column.  Version 1,
#: one JSON record per evaluation, is still read.
TRACE_SCHEMA_VERSION = 2

#: Simplex diameter below which the search is considered converged.
CONVERGENCE_DIAMETER = 1e-8

#: Rows a run's trace columns start with (its budget, if smaller), so the paper's
#: 2500-evaluation budget never grows them; a larger budget is not allocated up front,
#: since a run may converge long before spending it.
CAPACITY = 2500

#: A scalar cost: a float, or (float, (S, 3) outcomes) as ``Task.cost`` gives.
CostFn = Callable[[np.ndarray], "float | tuple[float, np.ndarray]"]
#: (params, states, restarts=None) -> (..., S, 3) outcomes of each (phase vector, state) pair,
#: shaped like ``clone_outcomes``; ``restarts`` names the restart that asked for each phase
#: vector (None: all restart 0).  ``Task`` calls one in place of the exact kernel.
Evaluator = Callable[..., np.ndarray]


#: Nelder and Mead's standard coefficients (Comput. J. 7, 308 (1965)); then the reboot
#: heuristic's least gain in best cost over ``stagnation_window`` iterations that counts
#: as progress, and its rebuilt simplex's edge as a multiple of ``initial_edge``.
REFLECTION, EXPANSION, CONTRACTION, SHRINK = 1.0, 2.0, 0.5, 0.5
STAGNATION_TOL, REBOOT_SCALE = 1e-3, 4.0


@dataclass(frozen=True)
class NMConfig:
    """Nelder-Mead settings, including the reboot heuristic.  The search stops after
    ``max_evaluations`` cost evaluations, on convergence or at a non-finite cost."""

    initial_edge: float = 0.5
    max_evaluations: int = 2500
    stagnation_window: int = 50
    collapse_diameter: float = 1e-2
    max_reboots: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.initial_edge <= 0 or min(self.max_evaluations, self.stagnation_window) < 1
                or self.collapse_diameter < 0 or self.max_reboots < 0):
            raise ValueError("initial_edge, max_evaluations and stagnation_window must be > 0, "
                             "collapse_diameter and max_reboots >= 0")


@dataclass
class TraceRecord:
    """One cost evaluation as ``OptimizationTrace.records`` shows it: where, what it
    cost, the running best, and each state's fidelities in ``extras``."""

    evaluation: int
    iteration: int
    point: list[float]
    cost: float
    best_cost: float
    reboot: bool = False
    extras: dict = field(default_factory=dict)


#: The per-evaluation columns, in file order; ``outcomes`` only for a run with states.
COLUMNS = ("points", "costs", "best_costs", "iterations", "reboots", "outcomes")


@dataclass
class OptimizationTrace:
    """Complete record of one optimization run, one row per recorded evaluation.

    Row i is evaluation i + 1: its point in ``points`` (E, d), its cost, the running
    best, the iteration it belongs to and whether it starts a reboot.  A run with
    labelled ``states`` has their (F1, F2, P_post) in ``outcomes`` (E, S, 3), else
    ``outcomes`` is None.  A run stopped by a non-finite cost counts that evaluation
    in ``n_evaluations`` but has no row for it.
    """

    points: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    costs: np.ndarray = field(default_factory=lambda: np.empty(0))
    best_costs: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    reboots: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    outcomes: np.ndarray | None = None
    states: tuple[str, ...] = ()
    best_point: np.ndarray | None = None
    best_cost: float = math.inf
    n_iterations: int = 0
    n_evaluations: int = 0
    n_reboots: int = 0
    seed: int | None = None
    error: str | None = None

    @property
    def records(self) -> list[TraceRecord]:
        """The rows as records, built from the columns on each access, for readers of the
        per-evaluation form; training, writing and ``report`` use the columns."""
        outcomes = self.outcomes.tolist() if self.outcomes is not None else [()] * len(self.costs)
        rows = zip(self.iterations.tolist(), self.points.tolist(), self.costs.tolist(),
                   self.best_costs.tolist(), self.reboots.tolist(), outcomes)
        return [
            TraceRecord(i + 1, iteration, point, cost, best, reboot,
                        {k: {"f1": f1, "f2": f2, "p": p} for k, (f1, f2, p) in zip(self.states, states)})
            for i, (iteration, point, cost, best, reboot, states) in enumerate(rows)
        ]

    def to_jsonl(self, path) -> None:
        """Write schema v2: a strict JSON header line, then one JSON line per column giving
        its ``name``, ``dtype``, ``shape`` and the base64 of its little-endian bytes.  The
        header's ``best_cost`` is null while no cost was finite."""
        header = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "best_point": None if self.best_point is None else self.best_point.tolist(),
            "best_cost": self.best_cost if math.isfinite(self.best_cost) else None,
            "n_iterations": self.n_iterations,
            "n_evaluations": self.n_evaluations,
            "n_reboots": self.n_reboots,
            "seed": self.seed,
            "error": self.error,
            "states": list(self.states),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header, allow_nan=False) + "\n")
            for name in COLUMNS:
                column = getattr(self, name)
                if column is None:
                    continue
                column = np.ascontiguousarray(column, dtype=column.dtype.newbyteorder("<"))
                data = base64.b64encode(column.tobytes()).decode("ascii")
                # json.dumps of the line, without scanning the base64 text for escapes
                fh.write(f'{{"name": {json.dumps(name)}, "dtype": {json.dumps(column.dtype.str)}, '
                         f'"shape": {json.dumps(column.shape)}, "data": "{data}"}}\n')

    @classmethod
    def from_jsonl(cls, path) -> "OptimizationTrace":
        """Read a trace of schema v2, or of v1 (a header line, then one record per evaluation)."""
        with open(path) as fh:
            header = json.loads(fh.readline())
            version = header.get("schema_version") if isinstance(header, dict) else None
            if version not in (1, TRACE_SCHEMA_VERSION):
                raise ValueError(f"unsupported trace schema {version!r}")
            lines = [json.loads(line) for line in fh if line.strip()]
        best_point = header["best_point"]
        trace = cls(
            best_point=None if best_point is None else np.array(best_point, dtype=float),
            best_cost=math.inf if header["best_cost"] is None else header["best_cost"],
            n_iterations=header["n_iterations"],
            n_evaluations=header["n_evaluations"],
            n_reboots=header["n_reboots"],
            seed=header.get("seed"),
            error=header.get("error"),
        )
        if version == 1:
            _set_v1_columns(trace, lines)
            return trace
        trace.states = tuple(header["states"])
        columns = {line["name"]: line for line in lines}
        required = COLUMNS if trace.states else COLUMNS[:-1]
        if sorted(columns) != sorted(required):
            raise ValueError(f"expected columns {list(required)}, got {list(columns)}")
        for name, line in columns.items():
            raw = base64.b64decode(line["data"], validate=True)
            setattr(trace, name, np.frombuffer(raw, dtype=np.dtype(line["dtype"])).reshape(line["shape"]))
        rows = {len(getattr(trace, name)) for name in required}
        if len(rows) > 1:
            raise ValueError(f"columns of unequal lengths {sorted(rows)}")
        return trace


def _set_v1_columns(trace: OptimizationTrace, records: list[dict]) -> None:
    """Fill the columns of ``trace`` from the records of a v1 file."""
    n = len(records)
    if [r["evaluation"] for r in records] != list(range(1, n + 1)):
        raise ValueError("v1 records do not number the evaluations 1, 2, ...")
    dim = 0 if trace.best_point is None else len(trace.best_point)
    trace.points = np.array([r["point"] for r in records], dtype=float).reshape(n, dim)
    trace.costs = np.array([r["cost"] for r in records], dtype=float)
    trace.best_costs = np.array([r["best_cost"] for r in records], dtype=float)
    trace.iterations = np.array([r["iteration"] for r in records], dtype=np.int64)
    trace.reboots = np.array([r["reboot"] for r in records], dtype=bool)
    trace.states = tuple(records[0]["extras"]) if records else ()
    if any(tuple(r["extras"]) != trace.states for r in records):
        raise ValueError("v1 records label their states differently")
    if trace.states:
        trace.outcomes = np.array(
            [[(s["f1"], s["f2"], s["p"]) for s in r["extras"].values()] for r in records], dtype=float)


def _simplex_diameter(simplex: np.ndarray) -> float:
    return math.sqrt(max(np.add.reduce((simplex - simplex[0]) ** 2, axis=1).tolist()))


def _initial_simplex(center: np.ndarray, edge: float) -> np.ndarray:
    d = len(center)
    simplex = np.tile(center, (d + 1, 1))
    for k in range(d):
        simplex[k + 1, k] += edge
    return simplex


class _Stop(Exception):
    """A run's budget is spent or a cost was not finite."""


def search(init: Sequence[float], cfg: NMConfig, states: Sequence[str] = ()):
    """Nelder-Mead from ``init`` as a generator recording every evaluation.

    It yields the (k, d) points to evaluate next: d+1 for a simplex (re)build, d for a
    shrink, 1 otherwise, cut to the budget left.  The driver sends back ``(costs,
    outcomes)``: their k costs in order and, for a run with ``states``, their (k, S, 3)
    outcomes.  When the run ends the generator returns its ``OptimizationTrace`` (the
    ``StopIteration`` value).  Ties in the simplex order break toward the lowest vertex
    (stable sort), so runs are deterministic.  Each recorded row is written in place into
    columns that start with room for ``min(cfg.max_evaluations, CAPACITY)`` rows and
    double when full; the trace gets views of the filled rows, or copies of them when
    they fill at most half the room.  A non-finite cost ends the run with a diagnostic
    on the trace.
    """
    init = np.asarray(init, dtype=float)
    trace = OptimizationTrace(states=tuple(states), seed=cfg.seed)
    rows = min(cfg.max_evaluations, CAPACITY)
    columns = {  # the trace's columns with room to grow; rows [0, filled) are filled
        "points": np.zeros((rows, len(init))), "costs": np.zeros(rows),
        "best_costs": np.zeros(rows), "iterations": np.zeros(rows, dtype=np.int64),
        "reboots": np.zeros(rows, dtype=bool)}
    if states:
        columns["outcomes"] = np.zeros((rows, len(states), 3))
    filled = 0

    def evaluate(points: np.ndarray, reboot: bool = False):
        """Yield ``points`` cut to the budget left, record what is sent back and return
        the costs; raise ``_Stop`` once the budget is spent or a cost is not finite."""
        nonlocal filled
        points = points[:cfg.max_evaluations - trace.n_evaluations]
        costs, outcomes = yield points
        values = np.asarray(costs, dtype=float).tolist()
        best, best_row, running = trace.best_cost, None, []
        for i, value in enumerate(values):
            if not math.isfinite(value):
                trace.error = f"non-finite cost {value} at {points[i]}"
                values = values[:i]
                break
            if value < best:
                best, best_row = value, i
            running.append(best)
        if best_row is not None:
            trace.best_cost, trace.best_point = best, points[best_row].copy()
        if k := len(running):
            start, stop = filled, filled + k
            if stop > len(columns["costs"]):  # double the room, up to the budget and at least to stop
                room = max(min(2 * len(columns["costs"]), cfg.max_evaluations), stop)
                for name, column in columns.items():
                    columns[name] = np.zeros((room, *column.shape[1:]), dtype=column.dtype)
                    columns[name][:filled] = column[:filled]
            for i, row in enumerate(range(start, stop)):  # row by row: most steps record one
                columns["points"][row] = points[i]
                columns["costs"][row] = values[i]
                columns["best_costs"][row] = running[i]
                columns["iterations"][row] = trace.n_iterations
                if "outcomes" in columns:
                    columns["outcomes"][row] = outcomes[i]
            columns["reboots"][start] = reboot
            filled = stop
        trace.n_evaluations += k + (trace.error is not None)
        if trace.error is not None or trace.n_evaluations >= cfg.max_evaluations:
            raise _Stop
        return values

    try:
        simplex = _initial_simplex(init, cfg.initial_edge)
        values = yield from evaluate(simplex)
        best_history = [trace.best_cost]  # best cost after each iteration
        iters_since_reboot = 0
        rebuilt = True  # any vertex may be out of order; else only the last one

        while True:
            if rebuilt:  # a stable sort: ties keep the lower vertex first
                order = np.argsort(values, kind="stable").tolist()
                simplex, values = simplex[order], [values[i] for i in order]
            elif (pos := bisect.bisect_right(values, values[-1], 0, len(values) - 1)) < len(values) - 1:
                # only the last vertex is new: it goes after every vertex that costs no more
                simplex[pos:] = np.concatenate((simplex[-1:], simplex[pos:-1]))
                values.insert(pos, values.pop())
            rebuilt = False

            # Reboot heuristic: best cost stagnant over the last K
            # iterations while the simplex has collapsed.
            if iters_since_reboot >= cfg.stagnation_window:
                window_start = best_history[-cfg.stagnation_window - 1]
                stagnant = window_start - trace.best_cost < STAGNATION_TOL
                if stagnant and _simplex_diameter(simplex) < cfg.collapse_diameter and trace.n_reboots < cfg.max_reboots:
                    trace.n_reboots += 1
                    simplex = _initial_simplex(trace.best_point, REBOOT_SCALE * cfg.initial_edge)
                    values = yield from evaluate(simplex, reboot=True)
                    best_history = [trace.best_cost]
                    iters_since_reboot = 0
                    rebuilt = True
                    continue

            # The diameter is at least the rounded gap in any one coordinate, so a wide gap
            # between the worst and best vertices rules out convergence without the full pass.
            gap = abs(simplex[-1, 0] - simplex[0, 0]) if len(init) else 0.0
            if gap <= 2 * CONVERGENCE_DIAMETER and _simplex_diameter(simplex) < CONVERGENCE_DIAMETER:
                break

            trace.n_iterations += 1
            iters_since_reboot += 1

            centroid = np.add.reduce(simplex[:-1]) / (len(simplex) - 1)
            worst = simplex[-1]
            reflected = centroid + REFLECTION * (centroid - worst)
            (f_reflected,) = yield from evaluate(reflected[None])

            if f_reflected < values[0]:
                expanded = centroid + EXPANSION * (reflected - centroid)
                (f_expanded,) = yield from evaluate(expanded[None])
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + CONTRACTION * (reflected - centroid)
                else:
                    contracted = centroid + CONTRACTION * (worst - centroid)
                (f_contracted,) = yield from evaluate(contracted[None])
                if f_contracted < min(f_reflected, values[-1]):
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    # Shrink toward the best vertex.
                    simplex[1:] = simplex[0] + SHRINK * (simplex[1:] - simplex[0])
                    values[1:] = yield from evaluate(simplex[1:])
                    rebuilt = True

            best_history.append(trace.best_cost)
    except _Stop:
        pass
    if trace.best_point is None:
        trace.best_point = init.copy()
    trim = 2 * filled <= len(columns["costs"])  # a copy frees the unused room
    for name, column in columns.items():
        setattr(trace, name, column[:filled].copy() if trim else column[:filled])
    return trace


def nelder_mead(cost: CostFn, init: Sequence[float], cfg: NMConfig,
                states: Sequence[str] = ()) -> OptimizationTrace:
    """Minimize ``cost`` from ``init``, evaluating the points of one ``search`` one by
    one, in order.  ``cost`` returns a float or, as ``Task.cost`` does, (float,
    outcomes); the (S, 3) outcomes are recorded when ``states`` labels them."""
    run = search(init, cfg, states)
    points = next(run)
    while True:
        results = [cost(point) for point in points]
        values, outcomes = zip(*(r if isinstance(r, tuple) else (r, None) for r in results))
        try:
            points = run.send((values, np.array(outcomes) if states else None))
        except StopIteration as stop:
            return stop.value


def _symmetric_terms(x, y):
    """(1 - x)^2 + (1 - y)^2 + (x - y)^2, elementwise, by libm's pow as Python's ``**`` is:
    numpy's ``x * x`` rounds otherwise on some inputs, and trajectories hang on the last bit."""
    return np.float_power(1.0 - x, 2.0) + np.float_power(1.0 - y, 2.0) + np.float_power(x - y, 2.0)


@dataclass(frozen=True)
class Task:
    """The cloning cost of the labelled ``inputs`` (Coyle et al., arXiv:2012.11424): the
    symmetric terms of each state's (F1, F2), added state by state in order (accumulate;
    add.reduce may pair them up), plus ``lam`` times those of the first two states' P_post
    when ``lam`` is set.  ``costs(points, restarts)`` maps (B, dim) points, asked for by the
    restarts named row by row, to their (B,) costs and (B, S, 3) outcomes from one
    ``evaluator`` call (None: the exact kernel on ``spec``; a sampling one keeps a stream
    per restart); ``cost`` is its batch of one, for restart 0.  ``states`` are the labels."""

    inputs: dict[str, QubitState]
    lam: float | None = None
    spec: MeshSpec | None = None
    evaluator: Evaluator | None = None

    def __post_init__(self) -> None:
        if self.lam is not None and self.lam < 0:
            raise ValueError("regularization weight must be non-negative")
        object.__setattr__(self, "spec", cloner.four_mode_spec(self.spec))
        object.__setattr__(self, "_kets", cloner.StateStack(self.inputs.values()))

    @property
    def dim(self) -> int:
        return self.spec.n_phases

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(self.inputs)

    def costs(self, points: np.ndarray, restarts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        if self.evaluator is None:
            outs = clone_outcomes(points, self._kets, spec=self.spec)
        else:
            outs = self.evaluator(points, self._kets, restarts)
        total = np.add.accumulate(_symmetric_terms(outs[..., 0], outs[..., 1]), axis=1)[:, -1]
        if self.lam is not None:
            total = total + self.lam * _symmetric_terms(outs[:, 0, 2], outs[:, 1, 2])
        return total, outs

    def cost(self, point: np.ndarray) -> tuple[float, np.ndarray]:
        costs, outcomes = self.costs(np.asarray(point, dtype=float)[None], [0])
        return float(costs[0]), outcomes[0]


def pc_task(spec: MeshSpec | None = None, evaluator: Evaluator | None = None) -> Task:
    """Equatorial-cloning task over the four-phase training set; exact unless given a
    sampling ``evaluator`` (see vclone.sampler), to train under shot noise."""
    states = {f"phi={phi:.4f}": QubitState.equatorial(phi) for phi in cloner.TRAINING_PHASES}
    return Task(states, None, spec, evaluator)


def sd_task(
    psi_a: QubitState,
    psi_b: QubitState,
    lam: float = 1.0,
    spec: MeshSpec | None = None,
    evaluator: Evaluator | None = None,
) -> Task:
    """Two-state cloning task with success-probability regularization."""
    return Task({"A": psi_a, "B": psi_b}, lam, spec, evaluator)


def train(task: Task, cfg: NMConfig, restarts: int) -> tuple[OptimizationTrace, list[OptimizationTrace]]:
    """Run independent seeded optimizations in lockstep and keep the lowest-cost trace.

    Restart r uses seed ``cfg.seed + r`` for its uniform initial point on
    [0, 2*pi)^dim.  The restarts step together:
    each step is one ``task.costs`` call on the points every live restart
    asks for, in restart order, each row tagged with its restart index, so
    a sampled task draws each restart's rows from that restart's stream.
    Returns (best trace, all traces); ties go to the earliest restart.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    runs = [
        search(np.random.default_rng(cfg.seed + r).uniform(0.0, 2.0 * math.pi, task.dim),
               replace(cfg, seed=cfg.seed + r), task.states)
        for r in range(restarts)
    ]
    asked = {r: next(run) for r, run in enumerate(runs)}  # each live restart's points, in restart order
    traces = [None] * restarts
    while asked:
        owners = [r for r, points in asked.items() for _ in range(len(points))]
        costs, outcomes = task.costs(np.concatenate(list(asked.values())), owners)
        start = 0
        for r, points in list(asked.items()):
            rows = slice(start, start + len(points))
            try:
                asked[r] = runs[r].send((costs[rows], None if outcomes is None else outcomes[rows]))
            except StopIteration as stop:
                traces[r] = stop.value
                del asked[r]
            start = rows.stop
    return min(traces, key=lambda t: t.best_cost), traces


def validate_sweep(
    params: np.ndarray | list[float],
    count: int = 50,
    spec: MeshSpec | None = None,
) -> list[tuple[float, float, float, float]]:
    """Evaluate the circuit on ``count`` evenly spaced equatorial states.

    Returns rows (phi, F1, F2, P_post) for phi = 2*pi*k/count, from one
    exact kernel call covering every state.
    """
    phis = [2.0 * math.pi * k / count for k in range(count)]
    states = [QubitState.equatorial(phi) for phi in phis]
    outs = clone_outcomes(np.asarray(params, dtype=float), states, spec)
    return [(phi, f1, f2, p) for phi, (f1, f2, p) in zip(phis, outs.tolist())]


def __getattr__(name: str):
    """``run_cloner``, the oracle perfbench/spans.py patches here, from ``vclone.fock`` on first access."""
    if name != "run_cloner":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .fock import run_cloner
    return run_cloner
