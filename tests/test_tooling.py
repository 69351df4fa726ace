"""The benchmark's traced run (``perfbench/run.py --trace 1``) patches
porovisco's functions by name at every module that looks them up.  A
rename or removal under ``src/`` that breaks it fails here."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
from porovisco import cli  # noqa: E402
from porovisco.discretization import block_rows  # noqa: E402


def test_benchmark_instrumentation_enters_and_exits(tmp_path, capsys):
    original = cli.parse_config
    rec = spans.Recorder()
    with layers.Instrumentation(rec):
        assert cli.parse_config is not original
        code = cli.main(["verify", "--config", str(cli.default_config_path()), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert cli.parse_config is original
    names = {span[spans.NAME] for span in rec.spans}
    assert {"cli.parse_config", "cli._write_summary", "constitutive.linearize"} <= names


def test_output_layer_is_traced(tmp_path, capsys):
    # the benchmark's cli.io_s is the time in these spans: a writer that
    # bypassed them would read as 0
    rec = spans.Recorder()
    with layers.Instrumentation(rec):
        code = cli.main(["static", "--config", str(cli.default_config_path()), "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert {"cli._write_csv", "cli._write_summary"} <= {span[spans.NAME] for span in rec.spans}
    io_s, _ = layers.layer_metrics(layers.SpanIndex(rec.spans))["cli.io_s"]
    assert io_s > 0.0


def test_traced_sweep_records_its_layers(tmp_path, capsys):
    # the sweep and its finite-strain run show up as spans, and so does
    # the sweep's rescaling: one rescale call per member per row block,
    # which the benchmark books as experiments.rescale_s
    cfg = json.loads(cli.default_config_path().read_text())
    cfg["grid"] = {"n_cells": 16}
    cfg["time"] = {"tau": 2e-3, "T": 0.1, "checkpoint_times": None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    original = cli.eps_sweep
    rec = spans.Recorder()
    with layers.Instrumentation(rec):
        assert cli.eps_sweep is not original
        code = cli.main(["sweep-eps", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    assert cli.eps_sweep is original
    names = [span[spans.NAME] for span in rec.spans]
    assert {"experiments.eps_sweep", "nonlinear_solver.run_nonlinear"} <= set(names)
    n_blocks = -(-51 // block_rows(17))  # the run's 51 rows of 17 nodes
    assert names.count("nonlinear_solver.rescale") == len(cfg["eps_list"]) * n_blocks
    rescale_s, _ = layers.layer_metrics(layers.SpanIndex(rec.spans))["experiments.rescale_s"]
    assert rescale_s > 0.0


@pytest.mark.parametrize("command, span, steps", [
    ("decay", "experiments.long_time_decay", 200),
    ("sweep-eps", "experiments.eps_sweep", 50),
    ("simulate-linear", layers.RUN_LINEAR, 50),
    ("simulate-nonlinear", layers.RUN_NONLINEAR, 0),
])
def test_traced_streamed_runs_record_their_layers(tmp_path, capsys, command, span, steps):
    # every command takes its runs' blocks as their time loops make them;
    # each linear step must still be one traced LinearStepper.step, so the
    # benchmark's linear layers measure them, and each written block one
    # traced _write_csv, so its cli.io_s does
    cfg = json.loads(cli.default_config_path().read_text())
    cfg["grid"] = {"n_cells": 16}
    cfg["time"] = {"tau": 2e-3, "T": 0.1, "decay_tau": 0.1, "decay_T": 20.0, "checkpoint_times": None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    rec = spans.Recorder()
    with layers.Instrumentation(rec):
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    names = [s[spans.NAME] for s in rec.spans]
    assert {span, "cli._write_csv"} <= set(names)
    assert (layers.RUN_LINEAR in names) == (command != "simulate-nonlinear")
    assert (layers.RUN_NONLINEAR in names) == (command in ("sweep-eps", "simulate-nonlinear"))
    assert names.count(layers.STEPPER_STEP) == steps
    metrics = layers.layer_metrics(layers.SpanIndex(rec.spans))
    assert metrics["linear.steps"] == (steps, "count")
    assert metrics["cli.io_s"][0] > 0.0


def test_scale_probe_steps_the_one_member_batch():
    # the probe hands the step functions 1-D states, the one-member batch
    metrics = layers.scale_probe(cli.default_config_path())
    names = [f"scale.{step}_step_ms.n{n}" for n in layers.SCALE_SIZES for step in ("mech", "diff")]
    assert sorted(metrics) == sorted(names) and len(names) == 6
    for name in names:
        value, unit = metrics[name]
        assert unit == "ms" and math.isfinite(value) and value > 0.0, name
