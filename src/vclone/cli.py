"""Experiment runner: configure, train, validate, report, and self-check.

Result files are CSV and JSON.  Each restart's trace is JSON Lines too:
a header line, then one line per per-evaluation column holding its dtype,
shape and base64-encoded little-endian bytes (trace schema v2; ``report``
also reads the v1 files with one JSON record per evaluation).  ``check_config``
is the one check of a config: a bad value fails before anything runs, naming its
JSON path.  Angles in configs are always radians; any other unit is rejected.
``train`` writes its files, ``config.json`` too, only once training is done.  Every
write into a run directory runs inside ``_writing``, which turns an OSError into an
error naming the flag or key the path came from; ``manifest.json`` is written by ``_record``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from . import __version__
from . import cloner, optimizer, sampler
from .cloner import QubitState
from .mesh import MeshSpec, wrap_phases


class ConfigError(click.ClickException):
    pass


def _fail(path: tuple, problem: str) -> NoReturn:
    raise ConfigError(f"invalid {'.'.join(map(str, path)) or 'config'}: {problem}")


def _expect(ok, path: tuple, expected: str, value) -> None:
    if not ok:
        _fail(path, f"expected {expected}, got {json.dumps(value)}")


# A check takes (value, JSON path) and raises a ConfigError naming the path.
def _leaf(ok, expected: str):
    return lambda value, path: _expect(ok(value), path, expected, value)


def _integer(minimum: int = 0):
    return _leaf(lambda v: type(v) is int and v >= minimum, f"an integer >= {minimum}")


def _list(item, non_empty: bool = False):
    def check(value, path):
        _expect(type(value) is list and (value or not non_empty), path,
                "a non-empty list" if non_empty else "a list", value)
        for k, x in enumerate(value):
            item(x, (*path, k))
    return check


def _object(fields: dict, required: tuple = ()):
    def check(value, path):
        _expect(type(value) is dict, path, "an object", value)
        for key in required:
            if key not in value:
                _fail((*path, key), "missing")
        for key, item in value.items():
            if key not in fields:
                _fail((*path, key), "unknown key")
            fields[key](item, (*path, key))
    return check


_MODE_PAIR = _leaf(lambda v: True, "")  # MeshSpec checks its mode pairs
_CELL = _object({"modes": _MODE_PAIR, "theta_index": _integer(), "phi_index": _integer()}, ("modes",))
_MESH = _object({"mode_count": _integer(), "cells": _list(_CELL, non_empty=True),
                 "fixed_couplers": _list(_MODE_PAIR)}, ("mode_count", "cells"))


def _mesh(value, path) -> None:
    _expect(value == "four_mode_core" or type(value) is dict, path, '"four_mode_core" or an object', value)
    if value != "four_mode_core":
        _MESH(value, path)


# The float max bound also turns away NaN, +-Infinity and integers too big for a float.
_NUMBER = _leaf(lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number")
_NON_NEGATIVE = _leaf(lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max, "a finite number >= 0")
_POSITIVE = _leaf(lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max, "a finite number > 0")
_STATE = _object({"theta": _NUMBER, "phi": _NUMBER}, ("theta", "phi"))
_SHOTS = _leaf(lambda v: v == "exact" or type(v) is int and 1 <= v <= sampler.MAX_SHOTS,
               f'an integer from 1 to {sampler.MAX_SHOTS} or "exact"')
_CONFIG = _object({
    "task": _leaf(lambda v: v in ("pc", "sd"), '"pc" or "sd"'),
    "seed": _integer(),
    "mesh": _mesh,
    "angle_unit": _leaf(lambda v: v == "rad", '"rad"'),
    "lambda": _NON_NEGATIVE,
    "pair": _object({"a": _STATE, "b": _STATE}, ("a", "b")),
    "nm": _object({  # every NMConfig field but the seed, which is the run's
        f.name: _integer(0 if f.name == "max_reboots" else 1) if f.type == "int"
        else _POSITIVE if f.name == "initial_edge" else _NON_NEGATIVE
        for f in dataclasses.fields(optimizer.NMConfig) if f.name != "seed"
    }),
    "noise": _object({"shots": _SHOTS, "seed": _integer()}),
    "restarts": _integer(1),
    "output_dir": _leaf(lambda v: type(v) is str, "a string"),
}, ("task", "seed"))


def check_config(
    config, seed: int | None = None, shots: str | None = None
) -> tuple[MeshSpec, sampler.NoiseConfig, optimizer.NMConfig]:
    """Check each field's JSON type and range, and unknown keys at every level,
    then build and return the mesh, noise and Nelder-Mead settings; a bad value
    fails as ``ConfigError("invalid <json path>: ...")``.  ``train``'s ``--seed``
    and ``--shots``, when given, are checked as their config fields are and set
    in ``config`` first."""
    _CONFIG(config, ())
    if seed is not None:
        _integer()(seed, ("--seed",))
        config["seed"] = seed
    if shots is not None:
        shots = int(shots) if shots.removeprefix("-").isdecimal() else shots
        _SHOTS(shots, ("--shots",))
        config.setdefault("noise", {})["shots"] = shots
    if config["task"] == "sd":
        for key in ("lambda", "pair"):
            if key not in config:
                _fail((key,), 'missing; task "sd" needs it')
    return tuple(_build(config, key, build)
                 for key, build in (("mesh", mesh_from_config), ("noise", noise_from_config), ("nm", nm_from_config)))


def _build(config: dict, key: str, build):
    """``build(config)``; a ValueError or TypeError fails as ``ConfigError("invalid <key>: ...")``."""
    try:
        return build(config)
    except (ValueError, TypeError) as exc:
        _fail((key,), str(exc))


def load_config(path: Path) -> tuple[dict, bytes]:
    """Read and check an experiment config; returns (config, raw bytes).

    A bad value fails as ``ConfigError("invalid <json path>: ...")``.
    """
    config, raw = _read_config(path)
    check_config(config)
    return config, raw


def _read_config(path: Path) -> tuple[dict, bytes]:
    """Read and parse an experiment config, unchecked; returns (config, raw bytes)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        config = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return config, raw


def mesh_from_config(config: dict) -> MeshSpec:
    mesh = config.get("mesh", "four_mode_core")
    return cloner.four_mode_spec(None if mesh == "four_mode_core" else MeshSpec.from_dict(mesh))


def noise_from_config(config: dict) -> sampler.NoiseConfig:
    noise = config.get("noise", {})
    shots = noise.get("shots", "exact")
    return sampler.NoiseConfig(shots=None if shots == "exact" else shots, seed=noise.get("seed", config["seed"]))


def nm_from_config(config: dict) -> optimizer.NMConfig:
    return optimizer.NMConfig(**config.get("nm", {}), seed=config["seed"])


@contextlib.contextmanager
def _writing(source: str):
    """An OSError in the block fails as ``ConfigError("invalid <source>: ...")``."""
    try:
        yield
    except OSError as exc:
        _fail((source,), str(exc))


def _record(run_dir: Path, paths: list[Path], **fields) -> None:
    """Set ``fields`` in the run's manifest.json, started if there is none, append each of
    ``paths`` it does not list yet, relative to ``run_dir``, and stamp ``updated``."""
    path = run_dir / "manifest.json"
    if path.exists():
        try:
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise click.ClickException(f"{path} is not valid JSON: {exc}") from None
        if type(manifest) is not dict or type(manifest.get("files")) is not list:
            raise click.ClickException(f"{path}: not a run manifest (an object with a 'files' list)")
    else:
        manifest = {"artifact_version": __version__, "created": _now(), "files": []}
    manifest.update(fields)
    for rel in (str(p.relative_to(run_dir)) for p in paths):
        if rel not in manifest["files"]:
            manifest["files"].append(rel)
    manifest["updated"] = _now()
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, data: dict) -> None:
    """Strict JSON: a non-finite float field, as left by restarts that all stopped on a
    non-finite cost, is written as null."""
    data = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in data.items()}
    path.write_text(json.dumps(data, indent=2, allow_nan=False) + "\n")


def _echo_aborted(path: Path, trace: optimizer.OptimizationTrace) -> None:
    """Print 'restart NNN aborted: <error>' for a restart stopped by a non-finite cost."""
    if trace.error:
        click.echo(f"{path.stem.replace('_', ' ')} aborted: {trace.error}")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Train and inspect variational photonic cloning circuits."""


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None,
              help="Override the config output directory.")
@click.option("--shots", default=None,
              help="Override the shot budget per evaluation ('exact' or an integer).")
def cmd_train(config_path: Path, seed: int | None, out_dir: Path | None, shots: str | None) -> None:
    """Run a training task and persist traces, summary, and best parameters."""
    config, _ = _read_config(config_path)
    spec, noise, cfg = check_config(config, seed, shots)
    restarts = config.get("restarts", 1)

    # One task for all restarts: a noisy one draws restart r's rows from noise seed + r.
    evaluator = None if noise.shots is None else sampler.sampled_evaluator(noise)
    if config["task"] == "pc":
        state_ids = [f"equatorial phi={phi:.6f}" for phi in cloner.TRAINING_PHASES]
        task = optimizer.pc_task(spec, evaluator)
    else:
        psi_a, psi_b = (QubitState(**config["pair"][k]) for k in "ab")
        state_ids = ["A", "B"]
        task = optimizer.sd_task(psi_a, psi_b, config["lambda"], spec, evaluator)

    run_dir = Path(out_dir or config.get("output_dir", "runs/latest"))
    source = "--out" if out_dir else "output_dir"
    with _writing(source):  # e.g. the path, a parent or its traces is a file: fail before training
        (run_dir / "traces").mkdir(parents=True, exist_ok=True)
    best, traces = optimizer.train(task, cfg, restarts)

    best_params = {
        "task": config["task"],
        "phases": [float(x) for x in wrap_phases(best.best_point)],
        "cost": best.best_cost,
        "seed": best.seed,
        "n_iterations": best.n_iterations,
        "n_evaluations": best.n_evaluations,
        "n_reboots": best.n_reboots,
    }
    # The same task on the exact kernel gives the summary.
    best_cost_noiseless, outcomes = dataclasses.replace(task, evaluator=None).cost(best.best_point)
    rows = [(state_id, *(f"{x:.12f}" for x in out)) for state_id, out in zip(state_ids, outcomes.tolist())]
    summary = {
        "task": config["task"],
        "best_cost_trace": best.best_cost,
        "best_cost_noiseless": best_cost_noiseless,
        "restarts": restarts,
        "total_evaluations": sum(t.n_evaluations for t in traces),
        "total_iterations": sum(t.n_iterations for t in traces),
        "total_reboots": sum(t.n_reboots for t in traces),
    }

    # Written only now, so an interrupted run leaves no config.json without results.
    config_text = json.dumps(config, indent=2) + "\n"
    trace_paths = [run_dir / "traces" / f"restart_{r:03d}.jsonl" for r in range(len(traces))]
    with _writing(source):
        (run_dir / "config.json").write_text(config_text)
        for path, trace in zip(trace_paths, traces):
            trace.to_jsonl(path)
            _echo_aborted(path, trace)
        _write_json(run_dir / "best_params.json", best_params)
        _write_csv(run_dir / "summary.csv", ["state_id", "f1", "f2", "p_post"], rows)
        _write_json(run_dir / "summary.json", summary)
        _record(run_dir, [run_dir / "config.json", *trace_paths,
                          *(run_dir / name for name in ("best_params.json", "summary.csv", "summary.json"))],
                config_sha256=hashlib.sha256(config_text.encode()).hexdigest(), seed=config["seed"])

    click.echo(f"best cost (trace): {best.best_cost:.6f}")
    click.echo(f"best cost (noiseless recomputation): {summary['best_cost_noiseless']:.6f}")
    for row in rows:
        click.echo(f"  {row[0]}: F1={row[1]} F2={row[2]} P={row[3]}")


def _read_phases(path: Path, n_phases: int) -> np.ndarray:
    """The ``phases`` of a best_params.json, as n_phases floats; any other content is a
    ClickException naming the file and the field."""
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "phases" not in payload:
        raise click.ClickException(f"{path}: missing field 'phases'")
    try:
        params = np.array(payload["phases"], dtype=float)
    except (ValueError, TypeError) as exc:
        raise click.ClickException(f"{path}: invalid field 'phases': {exc}") from None
    if params.shape != (n_phases,):
        raise click.ClickException(
            f"{path}: invalid field 'phases': the run's mesh takes {n_phases}, got shape {params.shape}")
    return params


@main.command("validate")
@click.option("--params", "params_path", required=True, type=click.Path(path_type=Path),
              help="best_params.json file or a run directory containing one.")
@click.option("--count", type=click.IntRange(min=1), default=50, show_default=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Output CSV (default: sweep.csv next to the params file).")
def cmd_validate(params_path: Path, count: int, out_path: Path | None) -> None:
    """Sweep evenly spaced equatorial test states with trained parameters."""
    params_path = Path(params_path)
    if params_path.is_dir():
        params_path = params_path / "best_params.json"
    if not params_path.exists():
        raise click.ClickException(f"no parameters file at {params_path}")
    # Sweep on the run's own mesh, from the config.json that train writes alongside.  Only
    # the mesh is checked and read, so a config with keys an earlier version took still works.
    config_path = params_path.parent / "config.json"
    config = _read_config(config_path)[0] if config_path.exists() else {}
    _expect(type(config) is dict, (), "an object", config)
    _mesh(config.get("mesh", "four_mode_core"), ("mesh",))
    spec = _build(config, "mesh", mesh_from_config)
    params = _read_phases(params_path, spec.n_phases)

    rows = optimizer.validate_sweep(params, count=count, spec=spec)
    source = "--out" if out_path else "--params"
    out_path = Path(out_path) if out_path else params_path.parent / "sweep.csv"
    with _writing(source):
        _write_csv(out_path, ["phi", "f1", "f2", "p_post", "f_optimal", "f_semiclassical"],
                   [(f"{phi:.12f}", f"{f1:.12f}", f"{f2:.12f}", f"{p:.12f}",
                     f"{cloner.OPTIMAL_EQUATORIAL_FIDELITY:.12f}", f"{cloner.SEMICLASSICAL_FIDELITY:.12f}")
                    for phi, f1, f2, p in rows])
        if (out_path.parent / "manifest.json").exists():
            _record(out_path.parent, [out_path])
    worst = min(min(f1, f2) for _, f1, f2, _ in rows)
    click.echo(f"wrote {out_path} ({count} states, min fidelity {worst:.4f})")


@main.command("report")
@click.option("--run", "run_dir", required=True, type=click.Path(path_type=Path))
def cmd_report(run_dir: Path) -> None:
    """Regenerate figure-ready tables from the stored traces (no physics)."""
    run_dir = Path(run_dir)
    traces_dir = run_dir / "traces"
    trace_files = sorted(traces_dir.glob("restart_*.jsonl")) if traces_dir.exists() else []
    if not trace_files:
        raise click.ClickException(f"no traces found under {run_dir}")

    traces = []
    for path in trace_files:
        try:
            traces.append(optimizer.OptimizationTrace.from_jsonl(path))
        except (OSError, ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
            raise click.ClickException(f"cannot read trace {path}: {exc}") from None
    for path, trace in zip(trace_files, traces):
        _echo_aborted(path, trace)
    best = min(traces, key=lambda t: t.best_cost)

    # Row i's at-best row is the last row up to i whose cost is the running best.
    at_best = np.maximum.accumulate(np.where(best.costs == best.best_costs, np.arange(len(best.costs)), 0))
    steps = list(zip(range(1, len(best.costs) + 1), best.iterations.tolist(), best.reboots.tolist()))
    cost_rows = [(e, iteration, f"{cost:.12f}", f"{running:.12f}", int(reboot))
                 for (e, iteration, reboot), cost, running in zip(steps, best.costs.tolist(), best.best_costs.tolist())]
    fid_rows = []
    if best.outcomes is not None:
        f1s, f2s = (best.outcomes[:, :, k].mean(axis=1) for k in (0, 1))
        fid_rows = [(e, iteration, f"{f1:.12f}", f"{f2:.12f}", f"{b1:.12f}", f"{b2:.12f}", int(reboot))
                    for (e, iteration, reboot), f1, f2, b1, b2
                    in zip(steps, f1s.tolist(), f2s.tolist(), f1s[at_best].tolist(), f2s[at_best].tolist())]

    tables = {"cost_series.csv": (["evaluation", "iteration", "cost", "best_cost", "reboot"], cost_rows)}
    if fid_rows:
        tables["fidelity_series.csv"] = (
            ["evaluation", "iteration", "f1_mean", "f2_mean", "f1_at_best", "f2_at_best", "reboot"], fid_rows)
    written = [run_dir / "report" / name for name in tables]
    with _writing("--run"):
        (run_dir / "report").mkdir(exist_ok=True)
        for path, (header, table) in zip(written, tables.values()):
            _write_csv(path, header, table)
        if (run_dir / "manifest.json").exists():
            _record(run_dir, written)
    for path in written:
        click.echo(f"wrote {path}")


@main.command("oracle")
@click.argument("which", type=click.Choice(["permanent", "design-identity", "semiclassical", "all"]),
                default="all")
def cmd_oracle(which: str) -> None:
    """Run the built-in reference checks and report pass/fail."""
    from . import fock  # the oracle, which no other command loads

    failed = False
    for name, check in fock.ORACLE_CHECKS.items():
        if which not in (name, "all"):
            continue
        ok, detail = check()
        status = "PASS" if ok else "FAIL"
        click.echo(f"[{status}] {name}: {detail}")
        failed |= not ok
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
