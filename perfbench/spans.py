"""Span recorder that wraps vclone's public functions from the outside.

The vclone modules bind their callees with ``from ... import``, so a
function is patched at every module that looks it up, not only where it is
defined.  Spans live in flat arrays (name, start, end, parent, run id) and
are written once, at exit, as an ``.npz`` file.  The run id numbers the
optimizer restarts from 1; spans outside a restart carry 0.  A span's self
time is its duration minus the time its child spans cover; calls are
single-threaded, so child spans nest inside their parent.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

#: (span name, attribute, modules whose attribute is replaced).  The first
#: module's attribute is the function that gets wrapped.
FUNCTIONS = (
    ("mesh.build_mesh", "build_mesh", ("vclone.cloner",)),
    ("fock.evolve", "evolve", ("vclone.cloner",)),
    ("fock.postselect", "postselect", ("vclone.cloner",)),
    ("cloner.fidelity", "fidelity", ("vclone.cloner",)),
    ("cloner.run_cloner", "run_cloner", ("vclone.cloner", "vclone.optimizer")),
    (
        "cloner.measurement_path_probabilities",
        "measurement_path_probabilities",
        ("vclone.cloner", "vclone.sampler"),
    ),
    ("sampler.sample_counts", "sample_counts", ("vclone.sampler",)),
    ("sampler.estimate_outcome", "estimate_outcome", ("vclone.sampler",)),
    ("cli.load_config", "load_config", ("vclone.cli",)),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans while installed; ``run_id`` is the restart in flight, or 0."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.restarts = 0
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(result, args)`` may count."""
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, starts, ends, parents, runs = self.name, self.start, self.end, self.parent, self.run
        stack, clock, tracer = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn):
        """Return ``fn`` wrapped to count its calls only: no span, a fraction of the cost."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from vclone import fock, optimizer

        counts = self.counts

        def count_postselect(result, args):
            counts["fock.postselect.zero_support"] += result[0] is None

        def count_estimate(result, args):
            counts["sampler.invalid"] += not result.valid
            counts["sampler.coincidences"] += result.n_coincidences
            counts["sampler.shots"] += result.shots

        def count_nm(trace, args):
            counts["optimizer.iterations"] += trace.n_iterations
            counts["optimizer.reboots"] += trace.n_reboots
            counts["optimizer.evaluations"] += trace.n_evaluations

        def count_write(result, args):
            counts["cli.trace_write.bytes"] += os.path.getsize(args[1])

        after = {"fock.postselect": count_postselect, "sampler.estimate_outcome": count_estimate}
        for span, attr, modules in FUNCTIONS:
            owners = [importlib.import_module(m) for m in modules]
            traced = self.wrap(span, getattr(owners[0], attr), after.get(span))
            for owner in owners:
                self._patch(owner, attr, traced)

        # Ten 2x2 permanents per evolve today: a count is enough, and a span
        # on each would double the tracing overhead of the exact workloads.
        self._patch(fock, "permanent", self.count("fock.permanent.calls", fock.permanent))
        traced_nm = self.wrap("optimizer.nelder_mead", optimizer.nelder_mead, count_nm)

        def restart(cost, init, cfg):
            self.restarts += 1
            self.run_id = self.restarts
            try:
                return traced_nm(self.wrap("optimizer.cost", cost), init, cfg)
            finally:
                self.run_id = 0

        self._patch(optimizer, "nelder_mead", restart)
        trace_cls = optimizer.OptimizationTrace
        self._patch(trace_cls, "to_jsonl", self.wrap("cli.trace_write", trace_cls.to_jsonl, count_write))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            run=np.frombuffer(self.run, dtype=np.intc),
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``layer.function.metric``; 0 where a layer never ran."""
        name = np.frombuffer(self.name, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))

        def mask(span: str) -> np.ndarray:
            return name == self._ids.get(span, -1)

        def calls(span: str) -> int:
            return int(mask(span).sum())

        def busy(span: str) -> float:
            return float(dur[mask(span)].sum())

        def self_s(span: str) -> float:
            return float(self_time[mask(span)].sum())

        def us(span: str, q: float) -> float:
            d = dur[mask(span)]
            return float(np.percentile(d, q) * 1e6) if d.size else 0.0

        # Mesh builds made inside a cost evaluation: walk every span's
        # ancestors (nesting is a few levels deep) looking for a cost span.
        in_cost = np.zeros(len(dur), dtype=bool)
        is_cost = mask("optimizer.cost")
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            has = ancestor >= 0
            in_cost[has] |= is_cost[ancestor[has]]
            ancestor = np.where(has, parent[np.maximum(ancestor, 0)], -1)
        builds_in_cost = int((mask("mesh.build_mesh") & in_cost).sum())

        c = self.counts
        cost_calls = calls("optimizer.cost")
        return {
            "mesh.build_mesh.calls": calls("mesh.build_mesh"),
            "mesh.build_mesh.busy_s": busy("mesh.build_mesh"),
            "mesh.build_mesh.us_p50": us("mesh.build_mesh", 50),
            "fock.evolve.calls": calls("fock.evolve"),
            "fock.evolve.busy_s": busy("fock.evolve"),
            "fock.evolve.us_p50": us("fock.evolve", 50),
            "fock.permanent.calls": c["fock.permanent.calls"],
            "fock.postselect.calls": calls("fock.postselect"),
            "fock.postselect.busy_s": busy("fock.postselect"),
            "fock.postselect.zero_support_frac": _ratio(
                c["fock.postselect.zero_support"], calls("fock.postselect")
            ),
            "cloner.run_cloner.calls": calls("cloner.run_cloner"),
            "cloner.run_cloner.busy_s": busy("cloner.run_cloner"),
            "cloner.run_cloner.self_s": self_s("cloner.run_cloner"),
            "cloner.fidelity.calls": calls("cloner.fidelity"),
            "cloner.fidelity.busy_s": busy("cloner.fidelity"),
            "cloner.measurement_path_probabilities.calls": calls("cloner.measurement_path_probabilities"),
            "cloner.measurement_path_probabilities.busy_s": busy("cloner.measurement_path_probabilities"),
            "cloner.measurement_path_probabilities.self_s": self_s("cloner.measurement_path_probabilities"),
            "cloner.mesh_builds_per_eval": _ratio(builds_in_cost, cost_calls),
            "sampler.sample_counts.calls": calls("sampler.sample_counts"),
            "sampler.sample_counts.busy_s": busy("sampler.sample_counts"),
            "sampler.estimate_outcome.calls": calls("sampler.estimate_outcome"),
            "sampler.estimate_outcome.busy_s": busy("sampler.estimate_outcome"),
            "sampler.invalid_frac": _ratio(c["sampler.invalid"], calls("sampler.estimate_outcome")),
            "sampler.coincidence_frac": _ratio(c["sampler.coincidences"], c["sampler.shots"]),
            "optimizer.cost.calls": cost_calls,
            "optimizer.cost.us_p50": us("optimizer.cost", 50),
            "optimizer.cost.us_p99": us("optimizer.cost", 99),
            "optimizer.nelder_mead.busy_s": busy("optimizer.nelder_mead"),
            "optimizer.nelder_mead.self_s": self_s("optimizer.nelder_mead"),
            "optimizer.iterations": c["optimizer.iterations"],
            "optimizer.reboots": c["optimizer.reboots"],
            "optimizer.evals_per_iter": _ratio(c["optimizer.evaluations"], c["optimizer.iterations"]),
            "cli.load_config.busy_s": busy("cli.load_config"),
            "cli.trace_write.busy_s": busy("cli.trace_write"),
            "cli.trace_write.bytes": c["cli.trace_write.bytes"],
        }
