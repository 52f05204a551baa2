import copy
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from vclone import cli, cloner, fock, optimizer
from vclone.cli import load_config, main
from vclone.optimizer import OptimizationTrace

#: A run directory's traces as written before trace schema v2 (one JSON record
#: per evaluation), by ``vclone train`` on its config.json, with the
#: ``vclone report`` tables they gave then.
V1_RUN = Path(__file__).parent / "data" / "trace_v1"


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **overrides):
    config = {
        "task": "pc",
        "seed": 0,
        "restarts": 2,
        "nm": {"max_evaluations": 120},
        "noise": {"shots": "exact"},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# -------------------------------------------------------------------- config

def test_load_config_valid(tmp_path):
    path = write_config(tmp_path / "cfg.json")
    config, raw = load_config(path)
    assert config["task"] == "pc"
    assert raw == path.read_bytes()


def test_load_config_rejects_bad_task(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json", task="universal")
    result = runner.invoke(main, ["train", "--config", str(path)])
    assert result.exit_code != 0
    assert "invalid task:" in result.output


def test_sd_config_requires_lambda(tmp_path, runner):
    path = write_config(
        tmp_path / "cfg.json",
        task="sd",
        pair={"a": {"theta": 0.5, "phi": 0.0}, "b": {"theta": 0.5, "phi": 1.0}},
    )
    result = runner.invoke(main, ["train", "--config", str(path)])
    assert result.exit_code != 0
    assert "lambda" in result.output


def test_degree_style_config_rejected(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json", angle_unit="deg")
    result = runner.invoke(main, ["train", "--config", str(path)])
    assert result.exit_code != 0


def test_missing_config_file(tmp_path, runner):
    result = runner.invoke(main, ["train", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code != 0


def test_undecodable_config_file(tmp_path, runner):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xff\x00")
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(tmp_path / "run")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "config is not valid JSON" in result.output
    assert not (tmp_path / "run").exists()


SD_CONFIG = {
    "task": "sd",
    "lambda": 1.0,
    "pair": {"a": {"theta": 0.5, "phi": 0.0}, "b": {"theta": 0.9, "phi": 1.5}},
}
FIVE_MODE_MESH = {"mode_count": 5, "cells": [{"modes": [0, 1]}, {"modes": [3, 4]}]}
FOUR_CELL_MESH = {"mode_count": 4, "cells": [{"modes": [1, 2]}, {"modes": [0, 1]},
                                             {"modes": [2, 3]}, {"modes": [1, 2]}]}


@pytest.mark.parametrize(
    "overrides, args, field",
    [
        ({}, ["--shots", "abc"], "--shots"),
        ({}, ["--shots", "0"], "--shots"),
        ({"nm": {"initial_edge": -1}}, [], "nm.initial_edge"),
        ({"mesh": FIVE_MODE_MESH}, [], "mesh"),
        ({"mesh": {"mode_count": 4, "cells": [{"modes": 1}]}}, [], "mesh"),
        ({"seed": -3}, [], "seed"),
        ({"noise": {"shots": 200, "seed": -1}}, [], "noise.seed"),
        ({}, ["--seed", "-2"], "--seed"),
        ({"mesh": {"mode_count": 4, "cells": []}}, [], "mesh.cells"),
        ({"restarts": 0}, [], "restarts"),
        ({"nm": {"max_evaluations": 0}}, [], "nm.max_evaluations"),
        ({"noise": {"shots": 0}}, [], "noise.shots"),
        ({**SD_CONFIG, "pair": {"a": {"theta": math.nan, "phi": 0.0}, "b": SD_CONFIG["pair"]["b"]}},
         [], "pair.a.theta"),
        ({"nm": {"collapse_diameter": math.nan}}, [], "nm.collapse_diameter"),
        ({"nm": {"initial_edge": math.inf}}, [], "nm.initial_edge"),
        ({"restarts": 2.0}, [], "restarts"),
        ({"seed": 1.0}, [], "seed"),
        ({"nm": {"max_evaluations": 20.0}}, [], "nm.max_evaluations"),
        ({"nm": {"stagnation_window": 3.0}}, [], "nm.stagnation_window"),
        ({"nm": {"collapse_diameter": True}}, [], "nm.collapse_diameter"),
        ({"mesh": {"mode_count": 4, "cells": [5]}}, [], "mesh.cells.0"),
        ({"mesh": {"mode_count": 4, "cells": [{"modes": [0, 1.0]}]}}, [], "mesh"),
        ({"mesh": {**FOUR_CELL_MESH, "fixed_coupler": [[1, 2]]}}, [], "mesh.fixed_coupler"),
        ({"mesh": {"mode_count": 4, "cells": [{"modes": [0, 1], "phase_index": 0}]}}, [],
         "mesh.cells.0.phase_index"),
        ({"nm": {"max_iterations": 10}}, [], "nm.max_iterations"),
        ({"nm": {"shrink": 0.5}}, [], "nm.shrink"),
        ({"noise": {"shots": 2**63}}, [], "noise.shots"),
        ({}, ["--shots", str(2**63)], "--shots"),
        ({"nm": {"initial_edge": 0}}, [], "nm.initial_edge"),
        ({"nm": {"collapse_diameter": -1}}, [], "nm.collapse_diameter"),
    ],
)
def test_train_bad_input_fails_before_run_dir(tmp_path, runner, overrides, args, field):
    path = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(out), *args])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"invalid {field}:" in result.output
    assert not out.exists()


#: A valid config that trains in well under a second, with every optional
#: top-level field the default mesh takes.
TINY_CONFIG = {
    "task": "pc", "seed": 0, "restarts": 1, "mesh": "four_mode_core", "angle_unit": "rad",
    "nm": {"max_evaluations": 20}, "noise": {"shots": "exact", "seed": 0}, "output_dir": "unused",
}
TINY_PATHS = [(key,) for key in TINY_CONFIG] + [
    (key, sub) for key, value in TINY_CONFIG.items() if isinstance(value, dict) for sub in value]
JSON_SCALARS = st.integers(-3, 3) | st.integers(-3, 3).map(float) | st.sampled_from(
    [None, True, False, 0.5, math.nan, math.inf, -math.inf, "", "exact", "four_mode_core", "rad", "pc", "sd"])
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2) | st.dictionaries(
    st.text(max_size=3), JSON_SCALARS, max_size=2)


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(TINY_PATHS), value=JSON_VALUES)
def test_train_any_one_field_runs_or_names_it(path, value):
    config = copy.deepcopy(TINY_CONFIG)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "run"
        cfg.write_text(json.dumps(config))
        result = CliRunner().invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
        if result.exit_code != 0:
            assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
            assert ".".join(path) in result.output
            assert not out.exists()


def test_importing_the_cli_leaves_out_jsonschema():
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, vclone.cli; sys.exit('jsonschema' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


#: Trains, validates and reports a tiny exact and a tiny noisy pc run in-process, then
#: checks that none of it loaded the Fock oracle, and that the names perfbench/spans.py
#: patches on ``cloner`` and ``optimizer`` resolve to it on first access.
_PRODUCTION_COMMANDS = """
import json, sys
from pathlib import Path
import vclone.cli as cli
tmp = Path(sys.argv[1])
for shots in ("exact", 200):
    cfg, run = tmp / f"cfg_{shots}.json", str(tmp / f"run_{shots}")
    cfg.write_text(json.dumps({"task": "pc", "seed": 0, "restarts": 2,
                               "nm": {"max_evaluations": 30}, "noise": {"shots": shots, "seed": 1}}))
    for args in (["train", "--config", str(cfg), "--out", run],
                 ["validate", "--params", run, "--count", "4"], ["report", "--run", run]):
        cli.main(args, standalone_mode=False)
assert "vclone.fock" not in sys.modules, "the Fock oracle was imported"
import vclone.cloner, vclone.fock, vclone.optimizer
assert vclone.cloner.run_cloner is vclone.fock.run_cloner
assert vclone.optimizer.run_cloner is vclone.fock.run_cloner
"""


def test_train_validate_and_report_leave_the_fock_oracle_unloaded(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", _PRODUCTION_COMMANDS, str(tmp_path)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "run_200" / "report" / "cost_series.csv").exists()


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("case, source", [
    ("train --out onto a file", "--out"),
    ("train --out under a file", "--out"),
    ("train output_dir onto a file", "output_dir"),
    ("train onto a run whose traces is a file", "--out"),
    ("validate --out onto a directory", "--out"),
    ("report onto a report file", "--run"),
    ("report onto a report/cost_series.csv directory", "--run"),
])
def test_unusable_output_path_fails_naming_its_source(tmp_path, runner, case, source):
    cfg = write_config(tmp_path / "cfg.json", restarts=1, nm={"max_evaluations": 20})
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(cfg), "--out", str(run)]).exit_code == 0
    blocker = {
        "train onto a run whose traces is a file": tmp_path / "bare" / "traces",
        "report onto a report file": run / "report",
        "report onto a report/cost_series.csv directory": run / "report" / "cost_series.csv",
    }.get(case, tmp_path / "file")
    blocker.parent.mkdir(exist_ok=True)
    if case.endswith("csv directory"):
        blocker.mkdir()
    else:
        blocker.write_text("kept")
    args = {
        "train --out onto a file": ["train", "--config", str(cfg), "--out", str(blocker)],
        "train --out under a file": ["train", "--config", str(cfg), "--out", str(blocker / "sub")],
        "train output_dir onto a file": ["train", "--config", str(write_config(
            tmp_path / "to_file.json", restarts=1, nm={"max_evaluations": 20}, output_dir=str(blocker)))],
        "train onto a run whose traces is a file": ["train", "--config", str(cfg), "--out", str(blocker.parent)],
        "validate --out onto a directory": ["validate", "--params", str(run), "--out", str(run / "traces")],
        "report onto a report file": ["report", "--run", str(run)],
        "report onto a report/cost_series.csv directory": ["report", "--run", str(run)],
    }[case]
    before = _tree(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception  # a ClickException, not a traceback
    assert f"invalid {source}:" in result.output
    assert _tree(tmp_path) == before  # for train: it failed before it trained


@pytest.mark.parametrize("case", ["best_params.json a directory", "manifest.json a directory",
                                  "manifest.json not JSON", "manifest.json not an object"])
def test_unwritable_run_file_fails_after_training_naming_it(tmp_path, runner, case):
    cfg = write_config(tmp_path / "cfg.json", restarts=1, nm={"max_evaluations": 20})
    run = tmp_path / "run"
    name = case.split()[0]
    run.mkdir()
    if case.endswith("a directory"):
        (run / name).mkdir()
    else:
        (run / name).write_text("{not json" if case.endswith("not JSON") else "[]")
    result = runner.invoke(main, ["train", "--config", str(cfg), "--out", str(run)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception  # a ClickException, not a traceback
    assert result.output.startswith("Error: ") and len(result.output.splitlines()) == 1, result.output
    assert str(run / name) in result.output
    assert ("invalid --out:" in result.output) == case.endswith("a directory")


def test_interrupted_train_leaves_no_config(tmp_path, runner, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(optimizer, "train", interrupt)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(write_config(tmp_path / "cfg.json")), "--out", str(out)])
    assert result.exit_code == 1
    assert not (out / "config.json").exists()
    assert list(out.rglob("*")) == [out / "traces"]


# --------------------------------------------------------------------- train

def test_train_pc_smoke(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "best_params.json").exists()
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()
    assert len(list((out / "traces").glob("restart_*.jsonl"))) == 2

    # Fidelities at the best point should not fall below the baseline of an
    # untrained identity-variational circuit (F = 1/2 on the equator).
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 4
    for row in rows:
        assert float(row["f1"]) >= 0.5 - 1e-9 or float(row["f2"]) >= 0.5 - 1e-9


def test_train_sd_summary_cost_consistency(tmp_path, runner):
    pair = {"a": {"theta": 0.5, "phi": 0.0}, "b": {"theta": 0.9, "phi": 1.5}}
    path = write_config(
        tmp_path / "cfg.json",
        task="sd",
        pair=pair,
        **{"lambda": 1.0},
    )
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output

    params = np.array(json.loads((out / "best_params.json").read_text())["phases"])
    summary = json.loads((out / "summary.json").read_text())
    # The cost assembled by hand from the run_cloner (Fock oracle) outcomes.
    out_a, out_b = (fock.run_cloner(params, cloner.QubitState(*ab))[1] for ab in ((0.5, 0.0), (0.9, 1.5)))
    recomputed = sum((1 - o.f1) ** 2 + (1 - o.f2) ** 2 + (o.f1 - o.f2) ** 2 for o in (out_a, out_b))
    recomputed += (1 - out_a.p_post) ** 2 + (1 - out_b.p_post) ** 2 + (out_a.p_post - out_b.p_post) ** 2
    assert abs(summary["best_cost_noiseless"] - recomputed) < 1e-12
    # Noiseless run: the trace cost at the best point is the same quantity.
    assert abs(summary["best_cost_trace"] - recomputed) < 1e-9


@pytest.mark.parametrize("overrides", [{}, SD_CONFIG], ids=["pc", "sd"])
def test_exact_train_noiseless_cost_is_the_trace_cost(tmp_path, runner, overrides):
    # Seed 3: here the Fock-oracle recomputation differed from the trace in the last bits.
    path = write_config(tmp_path / "cfg.json", seed=3, **overrides)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_cost_noiseless"] == summary["best_cost_trace"]


@pytest.mark.parametrize("shots", ["exact", 500])
@pytest.mark.parametrize("overrides", [{}, SD_CONFIG], ids=["pc", "sd"])
def test_train_never_calls_the_fock_oracle(tmp_path, runner, monkeypatch, overrides, shots):
    def oracle(*args, **kwargs):
        raise AssertionError("the Fock oracle was called")

    for owner, name in [(cloner, "run_cloner"), (optimizer, "run_cloner"), (fock, "evolve"), (cloner, "evolve")]:
        monkeypatch.setattr(owner, name, oracle)
    path = write_config(tmp_path / "cfg.json", **overrides, noise={"shots": shots, "seed": 1})
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(read_csv(out / "summary.csv")) == (2 if overrides else 4)


def test_train_reproducible(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0
        outs.append(json.loads((out / "best_params.json").read_text()))
    assert outs[0] == outs[1]


def test_train_manifest_lists_all_outputs(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    emitted = {
        str(p.relative_to(out))
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert emitted == set(manifest["files"])
    assert manifest["seed"] == 0
    assert len(manifest["config_sha256"]) == 64


# ------------------------------------------------------------------ validate

def test_validate_sweep_csv(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    result = runner.invoke(main, ["validate", "--params", str(out), "--count", "10"])
    assert result.exit_code == 0, result.output
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 10
    for row in rows:
        assert float(row["f_semiclassical"]) == pytest.approx(0.750)
        assert float(row["f_optimal"]) == pytest.approx(0.853553, abs=1e-6)
        assert 0.0 <= float(row["f1"]) <= 1.0


def test_validate_count_four_matches_summary(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    runner.invoke(main, ["validate", "--params", str(out), "--count", "4"])
    sweep = read_csv(out / "sweep.csv")
    summary = read_csv(out / "summary.csv")
    for s_row, t_row in zip(sweep, summary):
        assert float(s_row["f1"]) == pytest.approx(float(t_row["f1"]), abs=1e-12)
        assert float(s_row["f2"]) == pytest.approx(float(t_row["f2"]), abs=1e-12)


def test_validate_uses_the_run_mesh(tmp_path, runner):
    # A 4-cell mesh has 8 phases; validating with the default 12-phase core
    # would reject them.
    mesh = {**FOUR_CELL_MESH, "fixed_couplers": [[0, 1]]}
    path = write_config(tmp_path / "cfg.json", mesh=mesh, restarts=1)
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(json.loads((out / "best_params.json").read_text())["phases"]) == 8
    result = runner.invoke(main, ["validate", "--params", str(out), "--count", "4"])
    assert result.exit_code == 0, result.output
    sweep = read_csv(out / "sweep.csv")
    summary = read_csv(out / "summary.csv")
    for s_row, t_row in zip(sweep, summary):
        assert float(s_row["f1"]) == pytest.approx(float(t_row["f1"]), abs=1e-12)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_validate_rejects_count_below_one(tmp_path, runner, count):
    (tmp_path / "best_params.json").write_text(json.dumps({"phases": [0.0] * 12}))
    result = runner.invoke(main, ["validate", "--params", str(tmp_path), "--count", count])
    assert result.exit_code == 2
    assert "Invalid value for '--count'" in result.output
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("content, message", [
    (json.dumps({"phases": [0.0] * 8}), "invalid field 'phases'"),
    (json.dumps({"cost": 0.1}), "missing field 'phases'"),
    ("{not json", "is not valid JSON"),
    (None, "cannot read"),  # best_params.json is a directory
])
def test_validate_rejects_bad_params_file(tmp_path, runner, content, message):
    path = write_config(tmp_path / "cfg.json", restarts=1, nm={"max_evaluations": 20})
    out = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(path), "--out", str(out)]).exit_code == 0
    params = out / "best_params.json"
    if content is None:
        params.unlink()
        params.mkdir()
    else:
        params.write_text(content)
    manifest = (out / "manifest.json").read_text()
    result = runner.invoke(main, ["validate", "--params", str(out)])
    assert result.exit_code == 1
    assert str(params) in result.output and message in result.output
    assert isinstance(result.exception, SystemExit)  # a ClickException, not a traceback
    assert not (out / "sweep.csv").exists()
    assert (out / "manifest.json").read_text() == manifest


def test_validate_reads_only_the_run_mesh(tmp_path, runner):
    # A run trained while nm.max_iterations was a setting keeps it in its config.json;
    # validate needs only the mesh, so that run stays valid, and a bad mesh still fails.
    path = write_config(tmp_path / "cfg.json", restarts=1, nm={"max_evaluations": 20})
    out = tmp_path / "run"
    assert runner.invoke(main, ["train", "--config", str(path), "--out", str(out)]).exit_code == 0
    config = json.loads((out / "config.json").read_text())
    config["nm"] = {"max_iterations": 10}
    (out / "config.json").write_text(json.dumps(config))
    result = runner.invoke(main, ["validate", "--params", str(out), "--count", "4"])
    assert result.exit_code == 0, result.output
    assert len(read_csv(out / "sweep.csv")) == 4
    for mesh, field in ((FIVE_MODE_MESH, "mesh"), ({"mode_count": 4, "cells": [5]}, "mesh.cells.0")):
        (out / "config.json").write_text(json.dumps({**config, "mesh": mesh}))
        result = runner.invoke(main, ["validate", "--params", str(out), "--count", "4"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert f"invalid {field}:" in result.output


def test_validate_missing_params(tmp_path, runner):
    result = runner.invoke(main, ["validate", "--params", str(tmp_path / "nope.json")])
    assert result.exit_code != 0


# -------------------------------------------------------------------- report

def test_report_generates_series(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    result = runner.invoke(main, ["report", "--run", str(out)])
    assert result.exit_code == 0, result.output

    cost_rows = read_csv(out / "report" / "cost_series.csv")
    best = [float(r["best_cost"]) for r in cost_rows]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))

    fid_rows = read_csv(out / "report" / "fidelity_series.csv")
    assert len(fid_rows) == len(cost_rows)
    assert {"f1_mean", "f2_mean", "f1_at_best", "f2_at_best"} <= set(fid_rows[0])


def test_report_marks_reboots(tmp_path, runner):
    # Noisy short run to provoke reboots.
    path = write_config(
        tmp_path / "cfg.json",
        restarts=1,
        noise={"shots": 200, "seed": 0},
        nm={"max_evaluations": 1200, "stagnation_window": 20},
    )
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    runner.invoke(main, ["report", "--run", str(out)])
    rows = read_csv(out / "report" / "cost_series.csv")
    assert any(int(r["reboot"]) for r in rows)

    # The running best and the at-best row (the last row that reached it), as a loop finds them.
    trace = OptimizationTrace.from_jsonl(out / "traces" / "restart_000.jsonl")
    f1s, f2s = (trace.outcomes[:, :, k].mean(axis=1).tolist() for k in (0, 1))
    fid_rows = read_csv(out / "report" / "fidelity_series.csv")
    best_cost, best_row = math.inf, None
    for i, (row, fid, cost) in enumerate(zip(rows, fid_rows, trace.costs.tolist(), strict=True)):
        if cost <= best_cost:
            best_cost, best_row = cost, i
        assert row["best_cost"] == f"{best_cost:.12f}"
        assert (fid["f1_at_best"], fid["f2_at_best"]) == (f"{f1s[best_row]:.12f}", f"{f2s[best_row]:.12f}")


def test_report_idempotent_and_in_manifest(tmp_path, runner):
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    runner.invoke(main, ["report", "--run", str(out)])
    first = (out / "report" / "cost_series.csv").read_text()
    runner.invoke(main, ["report", "--run", str(out)])
    assert (out / "report" / "cost_series.csv").read_text() == first
    manifest = json.loads((out / "manifest.json").read_text())
    assert "report/cost_series.csv" in manifest["files"]


def test_report_empty_dir_errors(tmp_path, runner):
    result = runner.invoke(main, ["report", "--run", str(tmp_path)])
    assert result.exit_code != 0


@pytest.mark.parametrize("header", [json.dumps({"schema_version": 99}), "not json", None])
def test_report_rejects_unreadable_trace(tmp_path, runner, header):
    traces = tmp_path / "run" / "traces"
    traces.mkdir(parents=True)
    if header is None:  # the trace file is a directory
        (traces / "restart_000.jsonl").mkdir()
    else:
        (traces / "restart_000.jsonl").write_text(header + "\n")
    result = runner.invoke(main, ["report", "--run", str(tmp_path / "run")])
    assert result.exit_code == 1
    assert str(traces / "restart_000.jsonl") in result.output
    assert isinstance(result.exception, SystemExit)  # a ClickException, not a traceback
    assert not (tmp_path / "run" / "report").exists()


def test_report_prints_aborted_restart(tmp_path, runner):
    traces = tmp_path / "run" / "traces"
    traces.mkdir(parents=True)
    error = "non-finite cost nan at [0. 0.]"
    for r, err in enumerate((None, error)):
        trace = OptimizationTrace(points=np.zeros((1, 12)), costs=np.array([1.5]),
                                  best_costs=np.array([1.5]), iterations=np.zeros(1, dtype=np.int64),
                                  reboots=np.zeros(1, dtype=bool), best_point=np.zeros(12),
                                  best_cost=1.5, n_evaluations=1 + (err is not None), error=err)
        trace.to_jsonl(traces / f"restart_{r:03d}.jsonl")
    result = runner.invoke(main, ["report", "--run", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert f"restart 001 aborted: {error}" in result.output
    assert "restart 000" not in result.output


def test_train_prints_aborted_restart(tmp_path, runner, monkeypatch):
    monkeypatch.setattr(cloner, "outcomes", lambda probs, shots=1: np.full((*probs.shape[:-1], 3), np.nan))
    path = write_config(tmp_path / "cfg.json", restarts=1)
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert "restart 000 aborted: non-finite cost nan" in result.output


def test_train_writes_strict_json_when_every_restart_aborts(tmp_path, runner, monkeypatch):
    monkeypatch.setattr(cloner, "outcomes", lambda probs, shots=1: np.full((*probs.shape[:-1], 3), np.nan))
    path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    params = json.loads((out / "best_params.json").read_text(), parse_constant=reject)
    assert summary["best_cost_trace"] is None and summary["best_cost_noiseless"] is None
    assert params["cost"] is None
    result = runner.invoke(main, ["report", "--run", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "report" / "cost_series.csv").read_text().splitlines() == [
        "evaluation,iteration,cost,best_cost,reboot"]


def _report_tables(runner, run_dir):
    result = runner.invoke(main, ["report", "--run", str(run_dir)])
    assert result.exit_code == 0, result.output
    return [(run_dir / "report" / name).read_bytes() for name in ("cost_series.csv", "fidelity_series.csv")]


def test_report_reads_v1_and_v2_traces_alike(tmp_path, runner):
    v1, v2 = tmp_path / "v1", tmp_path / "v2"
    shutil.copytree(V1_RUN / "traces", v1 / "traces")
    (v2 / "traces").mkdir(parents=True)
    for path in sorted((v1 / "traces").glob("restart_*.jsonl")):
        assert json.loads(path.open().readline())["schema_version"] == 1
        OptimizationTrace.from_jsonl(path).to_jsonl(v2 / "traces" / path.name)
        assert json.loads((v2 / "traces" / path.name).open().readline())["schema_version"] == 2
    expected = [(V1_RUN / "expected_report" / name).read_bytes()
                for name in ("cost_series.csv", "fidelity_series.csv")]
    assert _report_tables(runner, v1) == _report_tables(runner, v2) == expected


def test_train_reproduces_the_v1_traces(tmp_path, runner):
    # The same config trained now gives the committed v1 traces' rows: the
    # columnar trace keeps the evaluation order, iterations and reboot rows.
    out = tmp_path / "run"
    result = runner.invoke(main, ["train", "--config", str(V1_RUN / "config.json"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    for old_path in sorted((V1_RUN / "traces").glob("restart_*.jsonl")):
        old, new = (OptimizationTrace.from_jsonl(p) for p in (old_path, out / "traces" / old_path.name))
        assert new.states == old.states and new.n_evaluations == old.n_evaluations
        assert np.array_equal(new.iterations, old.iterations) and np.array_equal(new.reboots, old.reboots)
        for name in ("points", "costs", "best_costs", "outcomes"):
            assert np.allclose(getattr(new, name), getattr(old, name), rtol=0, atol=1e-12), name


def test_v1_trace_reads_into_columns():
    trace = OptimizationTrace.from_jsonl(V1_RUN / "traces" / "restart_000.jsonl")
    records = [json.loads(line) for line in (V1_RUN / "traces" / "restart_000.jsonl").open()][1:]
    assert trace.n_evaluations == len(trace.costs) == len(records) == 40
    assert trace.points.shape == (40, 12) and trace.outcomes.shape == (40, 4, 3)
    assert [vars(r) for r in trace.records] == records


# -------------------------------------------------------------------- oracle

def test_oracle_all_passes(runner):
    result = runner.invoke(main, ["oracle", "all"])
    assert result.exit_code == 0, result.output
    assert result.output.count("[PASS]") == 3


@pytest.mark.parametrize("which", ["permanent", "design-identity", "semiclassical"])
def test_oracle_subcommands(runner, which):
    result = runner.invoke(main, ["oracle", which])
    assert result.exit_code == 0, result.output
    assert "[PASS]" in result.output
