import importlib
import itertools
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import porovisco
import porovisco._csv17
import porovisco.discretization

from conftest import peak_traced_bytes, stored
from porovisco.cli import (
    _COMMANDS,
    ParseError,
    ValidationError,
    _build_parser,
    default_config_path,
    main,
    parse_config,
)
from porovisco.linear_solver import run_linear


def _merged(base, patch):
    """``base`` with ``patch`` merged in, object by object."""
    out = dict(base)
    for key, value in patch.items():
        both = isinstance(value, dict) and isinstance(base.get(key), dict)
        out[key] = _merged(base[key], value) if both else value
    return out


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = json.loads(default_config_path().read_text())
    cfg["grid"] = {"n_cells": 24}
    cfg["time"] = {"tau": 0.002, "T": 0.1, "decay_tau": 0.02, "decay_T": 30.0}
    cfg["loading"]["f_amplitude"]["t_ramp"] = 0.05
    cfg["loading"]["g_amplitude"]["t_ramp"] = 0.05
    cfg["eps_list"] = [0.2, 0.1, 0.05]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParse:
    def test_shipped_default_is_valid(self):
        config = parse_config(default_config_path())
        assert config.material.m == 1.0
        assert config.material.r == 0.0
        assert config.material.case.startswith("II")
        assert config.eps_list == (0.2, 0.1, 0.05, 0.025)
        assert len(config.config_hash) == 64

    def test_invalid_exponent_names_case_window(self, tmp_path):
        cfg = json.loads(default_config_path().read_text())
        cfg["material"]["m"] = 3.0
        cfg["material"]["gamma1"] = 0.0
        cfg["material"]["gamma2"] = 0.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert any("Case I" in e for e in err.value.errors)

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(tmp_path / "nope.json")

    def test_wrong_schema_version(self, tmp_path):
        cfg = json.loads(default_config_path().read_text())
        cfg["schema_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError):
            parse_config(path)

    def test_unknown_check_name(self, tmp_path):
        # uniqueness_tol was a field that no subcommand read
        cfg = json.loads(default_config_path().read_text())
        for name in ("bogus", "uniqueness_tol"):
            cfg["checks"] = {name: 1.0}
            path = tmp_path / "chk.json"
            path.write_text(json.dumps(cfg))
            with pytest.raises(ValidationError, match=f"checks.{name}: unknown field"):
                parse_config(path)

    def test_zero_flux_is_an_unknown_field(self, tmp_path):
        # zero flux is kappa = 0 at both ends, which the bc section holds
        cfg = _merged(json.loads(default_config_path().read_text()), {"bc": {"zero_flux": True}})
        path = tmp_path / "zf.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert err.value.errors == ["bc.zero_flux: unknown field"]

    def test_missing_solver_section_takes_the_shipped_tol(self, tmp_path):
        cfg = json.loads(default_config_path().read_text())
        shipped = cfg.pop("solver")
        path = tmp_path / "nosolver.json"
        path.write_text(json.dumps(cfg))
        config = parse_config(path)
        assert config.tol == shipped["tol"]
        assert (config.max_newton, config.max_backtrack) == (shipped["max_newton"], shipped["max_backtrack"])

    @pytest.mark.parametrize("field, patch", [
        ("checks.mass_tol", {"checks": {"mass_tol": "abc"}}),
        ("checks.mass_tol", {"checks": {"mass_tol": None}}),
        ("time.tau", {"time": {"tau": None, "T": 1.0}}),
        ("grid", {"grid": [64]}),
        ("time.checkpoint_times", {"time": {"tau": 0.001, "T": 1.0, "checkpoint_times": ["x"]}}),
        ("eps", {"eps": None}),
        ("loading.f_amplitude.scale", {"loading": {"f_amplitude": {"scale": None}}}),
        ("loading.f_amplitude.scale", {"loading": {"f_amplitude": {"scale": [1]}}}),
        ("loading.f_profile.values", {"loading": {"f_profile": {"values": 5}}}),
        ("initial.u0.values", {"initial": {"u0": {"values": 5}}}),
        ("bc.kappa_left", {"bc": {"kappa_left": None}}),
        ("bc.kappa_left", {"bc": {"kappa_left": [1]}}),
        ("bc.mu_ext.scale", {"bc": {"mu_ext": {"scale": None}}}),
        ("time.tau", {"time": {"tau": float("nan")}}),
        ("bc.zero_flux", {"bc": {"zero_flux": "no"}}),  # zero flux is kappa = 0: an unknown field
        ("time.bogus", {"time": {"bogus": 1.0}}),
        ("output_dir", {"output_dir": "out"}),
        ("solver.tol", {"solver": {"tol": float("nan")}}),
        ("checks.mass_tol", {"checks": {"mass_tol": float("nan")}}),
        ("checks.balance_tol", {"checks": {"balance_tol": -0.1}}),
        ("bc.kappa_left", {"bc": {"kappa_left": float("nan")}}),
        ("bc.kappa_right", {"bc": {"kappa_right": float("inf")}}),
        ("solver.max_backtrack", {"solver": {"max_backtrack": -3}}),
        ("solver.max_newton", {"solver": {"max_newton": -1}}),
        ("solver.max_newton", {"solver": {"max_newton": 2.5}}),
        ("solver.max_backtrack", {"solver": {"max_backtrack": "7"}}),
        ("grid.n_cells", {"grid": {"n_cells": "32"}}),
        ("grid.n_cells", {"grid": {"n_cells": 64.9}}),
        ("seed", {"seed": True}),
        ("seed", {"seed": 2.5}),
        ("seed", {"seed": -1}),
        ("material.dim", {"material": {"dim": 2, "q_det": 6.0}}),
        ("eps_list", {"eps_list": [0.2, 0.1, -0.1]}),
        # Python's JSON parser takes NaN and Infinity: unchecked, each parses
        # and fails later, or, as a checkpoint, snaps to the first or last row
        ("time.checkpoint_times", {"time": {"checkpoint_times": [float("nan")]}}),
        ("time.checkpoint_times", {"time": {"checkpoint_times": [float("inf")]}}),
        ("time.checkpoint_times", {"time": {"checkpoint_times": [-1.0, 0.5]}}),
        ("time.checkpoint_times", {"time": {"T": 0.01, "checkpoint_times": [2.0]}}),
        ("bc.mu_ext.scale", {"bc": {"mu_ext": {"scale": float("nan")}}}),
        ("loading.f_profile.scale", {"loading": {"f_profile": {"scale": float("nan")}}}),
        ("loading.f_amplitude.rate", {"loading": {"f_amplitude": {"kind": "linear", "rate": float("inf")}}}),
        ("loading.g_amplitude.t_ramp", {"loading": {"g_amplitude": {"t_ramp": float("nan")}}}),
        ("initial.rho0.values", {"initial": {"rho0": {"kind": "array", "values": [0.0, float("-inf")]}}}),
        # a field declared positive takes no Infinity either: unchecked,
        # each fails later with a message that does not name it, or runs
        ("time.T", {"time": {"T": float("inf")}}),
        ("time.decay_T", {"time": {"decay_T": float("inf")}}),
        ("time.tau", {"time": {"tau": float("inf")}}),
        ("time.decay_tau", {"time": {"decay_tau": float("inf")}}),
        ("eps", {"eps": float("inf")}),
        ("solver.tol", {"solver": {"tol": float("inf")}}),
        ("eps_list", {"eps_list": [float("inf"), 0.1, 0.05]}),
        # a number field takes JSON numbers only: float() would take a
        # string or a boolean as a number
        ("time.tau", {"time": {"tau": "0.001"}}),
        ("eps", {"eps": True}),
        ("time.checkpoint_times", {"time": {"checkpoint_times": [True, "0.5"]}}),
        ("material.dim", {"material": {"dim": True}}),
        ("material.M0", {"material": {"M0": True}}),
        ("material.M0", {"material": {"M0": "2"}}),
        # and a material scalar is finite: NaN would pass every
        # admissibility test, and Infinity those that bound it below
        ("material.M_B", {"material": {"M_B": float("nan")}}),
        ("material.beta", {"material": {"beta": float("inf")}}),
        ("material.kappa_e", {"material": {"kappa_e": float("inf")}}),
        ("material.delta", {"material": {"delta": float("nan")}}),
        ("material.nu_h", {"material": {"nu_h": float("inf")}}),
        ("material.D_tilde", {"material": {"D_tilde": float("nan")}}),
        # checks the solvers make again for their API callers: unchecked,
        # each fails in the run with a message that does not name the field
        ("eps_list", {"eps_list": [0.2, 0.1]}),
        ("loading.f_profile.values", {"loading": {"f_profile": {"kind": "array", "values": [0.0] * 64}}}),
        ("initial.u0.values", {"initial": {"u0": {"kind": "array", "values": [0.0] * 66}}}),
        ("initial.rho0.values", {"initial": {"rho0": {"kind": "array", "values": [0.0, 0.1]}}}),
        ("initial.u0", {"initial": {"u0": {"kind": "constant", "scale": 0.1}}}),
        # values on a profile whose kind has its own formula: unchecked, the
        # run samples the formula and ignores them
        ("initial.rho0.values", {"initial": {"rho0": {"kind": "zero", "values": [5.0, 6.0]}}}),
        ("loading.f_profile.values", {"loading": {"f_profile": {"kind": "sin_pi", "scale": 0.6, "values": [1.0]}}}),
        ("initial.u0.values", {"initial": {"u0": {"values": [0.0] * 65}}}),
        # Grid1D's own check would name only the section
        ("grid.n_cells", {"grid": {"n_cells": 2}}),
    ])
    def test_hostile_value_names_field(self, tmp_path, capsys, field, patch):
        cfg = _merged(json.loads(default_config_path().read_text()), patch)
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert any(e.startswith(field) for e in err.value.errors)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"validation error: {field}" in capsys.readouterr().err

    def test_binary_file_is_parse_error(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError):
            parse_config(path)


class TestMain:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 1

    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_parser_is_built_once(self, tiny_config, tmp_path, capsys):
        # one parser serves every call in a process: a bad argv after a
        # good one still exits 1, and two good runs write the same summary
        outs = [tmp_path / "first", tmp_path / "second"]
        assert main(["static", "--config", str(tiny_config), "--out", str(outs[0]), "--quiet"]) == 0
        assert main(["static", "--config", str(tiny_config), "--cells", "many"]) == 1
        assert main(["static", "--out", str(outs[1])]) == 1
        assert main(["static", "--config", str(tiny_config), "--out", str(outs[1]), "--quiet"]) == 0
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
        assert _build_parser() is _build_parser()

    def test_verify_passes(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "verify"
        assert main(["verify", "--config", str(tiny_config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(inv["passed"] for inv in summary["invariants"])
        assert summary["system"] == "verify"

    def test_verify_fails_on_a_nan_derivative(self, tiny_config, tmp_path, capsys, monkeypatch):
        # max(0.0, nan) is 0.0: a plain fold of the errors would drop it
        hyperstress = porovisco.constitutive.hyperstress
        monkeypatch.setattr(porovisco.constitutive, "hyperstress", lambda pr, G: (hyperstress(pr, G)[0], float("nan")))
        out = tmp_path / "verify"
        assert main(["verify", "--config", str(tiny_config), "--out", str(out), "--quiet"]) == 2
        assert "invariant failure: derivative_cross_check" in capsys.readouterr().err

    def test_simulate_nonlinear_outputs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "nl"
        code = main(["simulate-nonlinear", "--config", str(tiny_config),
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "ledger.csv").exists()
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,u_000")

    def test_simulate_linear_tagged(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "lin"
        assert main(["simulate-linear", "--config", str(tiny_config),
                     "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["system"] == "linear"

    def test_sweep_outputs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "sw"
        assert main(["sweep-eps", "--config", str(tiny_config),
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("eps,err_u_h1")
        assert len(lines) == 4  # header + three eps rows

    def test_static_and_decay(self, tiny_config, tmp_path, capsys):
        assert main(["static", "--config", str(tiny_config),
                     "--out", str(tmp_path / "st"), "--quiet"]) == 0
        assert main(["decay", "--config", str(tiny_config),
                     "--out", str(tmp_path / "dec"), "--quiet"]) == 0

    def test_static_on_a_fine_grid(self, tmp_path, capsys):
        # a dense (2n + 2)-square static matrix would take 537 MB here
        assert main(["static", "--config", str(default_config_path()), "--cells", "4096",
                     "--out", str(tmp_path / "st"), "--quiet"]) == 0

    def test_decay_on_a_fine_grid(self, tmp_path, capsys):
        # 2500 steps at n = 512 on the shipped config; run_linear rejects
        # any step whose residual is over its tol of 1e-9
        assert main(["decay", "--config", str(default_config_path()), "--cells", "512",
                     "--out", str(tmp_path / "dec"), "--quiet"]) == 0

    def test_simulate_linear_on_a_fine_grid(self, tmp_path, capsys):
        # 1000 steps at n = 2048 on the shipped config: the flux-form rho
        # update that the mass constant replaced failed here at step 414
        cfg = _merged(json.loads(default_config_path().read_text()),
                      {"time": {"checkpoint_times": [0.0, 0.5, 1.0]}})
        path = tmp_path / "fine.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "lin"
        assert main(["simulate-linear", "--config", str(path), "--cells", "2048",
                     "--out", str(out), "--quiet"]) == 0
        assert len((out / "trajectory.csv").read_bytes().splitlines()) == 4

    @pytest.mark.parametrize("cells, T", [("4096", 0.005), ("64", 0.2)])
    def test_csv_is_the_formatting_loop_across_blocks(self, tmp_path, capsys, monkeypatch, cells, T):
        # the trajectory is written in blocks of whole rows: at n = 4096
        # each 8195-value row is wider than one block; at n = 64, 201 rows
        # take four blocks, the last one partial.  The CLI streams the
        # run's blocks; a stored run of the same call is the reference
        runs = []

        def keep(*args, **kwargs):
            runs.append(stored(run_linear, *args, **kwargs))
            return run_linear(*args, **kwargs)

        monkeypatch.setattr("porovisco.linear_solver.run_linear", keep)
        cfg = _merged(json.loads(default_config_path().read_text()), {"time": {"T": T}})
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "lin"
        assert main(["simulate-linear", "--config", str(path), "--cells", cells,
                     "--out", str(out), "--quiet"]) == 0
        run, = runs
        trajectory = [[t, *u, *rho] for t, u, rho in zip(run.times.tolist(), run.u.tolist(), run.rho.tolist())]
        ledger = np.column_stack([run.ledger.column(n) for n in run.ledger.column_names]).tolist()
        for name, rows in (("trajectory.csv", trajectory), ("ledger.csv", ledger)):
            header, body = (out / name).read_bytes().split(b"\n", 1)
            assert len(header.split(b",")) == len(rows[0])
            assert body == "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode(), name

    def test_moser_diag(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "mo"
        assert main(["moser-diag", "--config", str(tiny_config),
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "moser.csv").read_text().splitlines()
        assert lines[0] == "q,sup_lq_norm"
        assert len(lines) == 10

    def test_case_two_ledger_follows_the_moser_ladder(self, tiny_config, tmp_path, capsys):
        # at m = 2.5 (Case IIa) the ledger holds one L^q column per q of
        # the material's ladder, and moser-diag reports each column's
        # largest value and the same q
        cfg = _merged(json.loads(tiny_config.read_text()), {"material": {"m": 2.5}, "time": {"T": 0.02}})
        path = tmp_path / "m25.json"
        path.write_text(json.dumps(cfg))
        for command in ("simulate-nonlinear", "moser-diag"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command), "--quiet"]) == 0
        qs = porovisco.norm_ladder(parse_config(path).material)
        assert qs == tuple(2.0 ** n * 0.5 + 1.5 for n in range(9))
        with (tmp_path / "simulate-nonlinear" / "ledger.csv").open() as f:
            header = f.readline().strip().split(",")
            ledger = np.loadtxt(f, delimiter=",", ndmin=2)
        assert [name for name in header if name.startswith("lq_c_")] == [f"lq_c_{q:g}" for q in qs]
        moser = np.loadtxt(tmp_path / "moser-diag" / "moser.csv", delimiter=",", skiprows=1)
        assert moser[:, 0].tolist() == list(qs)
        assert moser[:, 1].tolist() == [float(np.max(ledger[:, header.index(f"lq_c_{q:g}")])) for q in qs]

    @pytest.mark.parametrize("command, cap", [
        pytest.param("simulate-nonlinear", 1, id="simulate-nonlinear"),
        pytest.param("moser-diag", 1, id="moser-diag"),
        pytest.param("simulate-nonlinear", 0, id="simulate-nonlinear-0"),
        pytest.param("moser-diag", 0, id="moser-diag-0"),
        pytest.param("sweep-eps", 1, id="sweep-eps"),
        pytest.param("sweep-eps", 0, id="sweep-eps-0"),
    ])
    def test_newton_cap_is_honoured(self, tiny_config, tmp_path, capsys, command, cap):
        cfg = json.loads(tiny_config.read_text())
        cfg["solver"]["max_newton"] = cap
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "capped"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 1
        member = "sweep member eps = 0.2 failed: " if command == "sweep-eps" else ""
        assert f"error: {member}mechanical Newton exceeded {cap} iterations" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_sweep_passes_the_newton_caps(self, tiny_config, tmp_path, capsys, monkeypatch):
        cfg = json.loads(tiny_config.read_text())
        cfg["solver"].update(max_newton=7, max_backtrack=3)
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(cfg))
        seen = {}

        def recorded(*args, **kwargs):
            seen.update(kwargs)
            raise RuntimeError("recorded")

        monkeypatch.setattr(porovisco.experiments, "run_nonlinear", recorded)
        assert main(["sweep-eps", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert (seen["tol"], seen["max_newton"], seen["max_backtrack"]) == (cfg["solver"]["tol"], 7, 3)

    @pytest.mark.parametrize("command", ["simulate-linear", "simulate-nonlinear", "moser-diag"])
    def test_run_failing_after_its_first_blocks_leaves_nothing(self, tiny_config, tmp_path, capsys, monkeypatch,
                                                               command):
        # blocks of 10 rows: two have gone to the trajectory file when
        # step 26 fails, so the file under its temporary name must go too
        monkeypatch.setattr(porovisco.discretization, "_BLOCK_VALUES", 10 * 25)
        calls = itertools.count()
        if command == "simulate-linear":
            step = porovisco.linear_solver.LinearStepper.step

            def nan_after_25(self, *args):  # the step writes u and rho into its last two arguments
                step(self, *args)
                if next(calls) >= 25:
                    args[-2][:] = args[-1][:] = np.nan

            monkeypatch.setattr(porovisco.linear_solver.LinearStepper, "step", nan_after_25)
            message = r"error: step 26 \(t = 0\.052\): residual nan exceeds tol 1\.000e-09"
        else:
            step = porovisco.nonlinear_solver.mechanical_step
            monkeypatch.setattr(porovisco.nonlinear_solver, "mechanical_step", lambda *args, **kwargs: step(
                *args, **dict(kwargs, max_newton=0 if next(calls) >= 25 else kwargs["max_newton"])))
            message = r"error: mechanical Newton exceeded 0 iterations \(residual .*\) \(t = 0\.052\)"
        out = tmp_path / "failed"
        assert main([command, "--config", str(tiny_config), "--out", str(out), "--quiet"]) == 1
        assert re.search(message, capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate-linear", "moser-diag"])
    def test_peak_does_not_grow_with_the_trajectory(self, tmp_path, capsys, monkeypatch, command):
        # the command takes its run a row block at a time: doubling the
        # horizon adds 300 rows of ledger columns, less than one trajectory
        # of 301 x 65 values of each of two fields (a stored run added it)
        monkeypatch.setattr(porovisco.discretization, "_BLOCK_VALUES", 32 * 65)
        porovisco._csv17._tables()  # built once per process, not in the first traced run
        peaks = []
        for T in (0.3, 0.6):
            path = tmp_path / f"T{T}.json"
            path.write_text(json.dumps(_merged(json.loads(default_config_path().read_text()), {"time": {"T": T}})))
            argv = [command, "--config", str(path), "--out", str(tmp_path / f"out{T}"), "--quiet"]
            codes = []
            peaks.append(peak_traced_bytes(lambda: codes.append(main(argv))))
            assert codes == [0]
        assert peaks[1] - peaks[0] < 301 * 65 * 2 * 8

    def test_outputs_byte_identical(self, tiny_config, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate-nonlinear", "--config", str(tiny_config),
                         "--out", str(out), "--quiet"]) == 0
        for name in ("trajectory.csv", "ledger.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_records_versions(self, tiny_config, tmp_path, capsys):
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main(["static", "--config", str(tiny_config), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((outs[0] / "summary.json").read_text())
        versions = summary["versions"]
        assert list(versions) == ["python", "numpy", "blas"]
        assert versions["python"] == platform.python_version() and versions["numpy"] == np.__version__
        # the library numpy was built with, as it reports itself at run time
        built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions["blas"].startswith(f"OpenBLAS {built['version']} ")
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

    @pytest.mark.parametrize("command", ["simulate-nonlinear", "simulate-linear", "decay"])
    def test_reruns_in_one_process_are_byte_identical(self, tiny_config, tmp_path, capsys, command):
        cfg = json.loads(tiny_config.read_text())
        cfg["grid"] = {"n_cells": 16}
        cfg["time"]["T"] = 0.05
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg))
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 0
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        assert "summary.json" in names and len(names) >= 2
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_invariant_failure_exits_two(self, tiny_config, tmp_path, capsys):
        cfg = json.loads(tiny_config.read_text())
        cfg["checks"] = {"balance_tol": 1e-30}
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(cfg))
        code = main(["simulate-linear", "--config", str(path),
                     "--out", str(tmp_path / "strict_out"), "--quiet"])
        assert code == 2
        captured = capsys.readouterr()
        assert "energy_balance" in captured.err

    def test_validation_error_exits_one(self, tmp_path, capsys):
        cfg = json.loads(default_config_path().read_text())
        cfg["material"]["m"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == 1

    @pytest.mark.parametrize("command", ["simulate-linear", "static", "decay", "sweep-eps"])
    def test_zero_flux_commands_reject_robin_data(self, tiny_config, tmp_path, capsys, command):
        # these commands solve only the kappa = 0 system: the small-strain
        # solver has no Robin rows, and the sweep's members run with zero flux
        cfg = _merged(json.loads(tiny_config.read_text()),
                      {"bc": {"kappa_left": 0.5, "kappa_right": 1.0, "mu_ext": {"kind": "constant", "scale": -1.0}}})
        path = tmp_path / "robin.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "validation error: bc.kappa_left: must be 0 for this command, which solves the zero-flux system (L1), got 0.5\n"
            "validation error: bc.kappa_right: must be 0 for this command, which solves the zero-flux system (L1), got 1.0\n")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("flags, field", [
        (["--cells", "2"], "grid.n_cells"),
        (["--tau", "nan"], "time.tau"),
        (["--tau", "-1"], "time.tau"),
        (["--eps", "0"], "eps"),
        (["--tau", "inf"], "time.tau"),
    ])
    def test_overrides_are_validated(self, tmp_path, capsys, flags, field):
        code = main(["verify", "--config", str(default_config_path()), "--out", str(tmp_path), *flags])
        assert code == 1
        assert f"validation error: {field}" in capsys.readouterr().err

    def test_array_profiles_are_checked_on_the_overridden_grid(self, tmp_path, capsys):
        # an array profile that fits the file's grid does not fit --cells 32
        cfg = json.loads(default_config_path().read_text())
        cfg["initial"]["rho0"] = {"kind": "array", "values": [0.0] * 65}
        path = tmp_path / "array.json"
        path.write_text(json.dumps(cfg))
        assert parse_config(path).grid.n_nodes == 65
        assert main(["static", "--config", str(path), "--out", str(tmp_path / "out"), "--cells", "32"]) == 1
        err = capsys.readouterr().err
        assert err == "validation error: initial.rho0.values: must hold grid.n_cells + 1 = 33 values, got 65\n"

    def test_cells_and_eps_overrides(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "ov"
        assert main(["simulate-nonlinear", "--config", str(tiny_config),
                     "--out", str(out), "--cells", "16", "--eps", "0.05",
                     "--tau", "0.004", "--quiet"]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert "u_016" in header and "u_017" not in header


def test_cli_import_leaves_scipy_sparse_unloaded():
    # no module of the package needs scipy.sparse; importing it would add
    # to the start-up time of every command
    src = str(Path(porovisco.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, porovisco.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _fresh_python(code):
    # run ``code`` in a new interpreter that imports porovisco from this tree
    env = dict(os.environ, PYTHONPATH=str(Path(porovisco.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_scipy_and_no_hashlib():
    # the solvers call LAPACK in the OpenBLAS numpy has loaded: any scipy
    # module would map a second copy (about 4 MiB of every command's peak),
    # and hashlib's OpenSSL module _hashlib another 3.5 MiB
    code = "import sys, porovisco.cli; print(sorted(m for m in sys.modules if m.startswith(('scipy', '_hashlib'))))"
    assert _fresh_python(code).strip() == "[]"


def test_commands_load_only_their_solvers(tiny_config, tmp_path):
    # a fresh process without cached bytecode compiles every module it
    # imports: parsing a config loads no solver, and the small-strain
    # commands never load the finite-strain one
    code = (
        "import json, sys, porovisco\n"
        "from porovisco.cli import default_config_path, main, parse_config\n"
        "parse_config(default_config_path())\n"
        "loaded = [sorted(m for m in sys.modules if m.startswith('porovisco.'))]\n"
        "for command in ('static', 'simulate-linear'):\n"
        f"    assert main([command, '--config', {str(tiny_config)!r}, '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
        "    loaded.append(sorted(m for m in sys.modules if m.startswith('porovisco.')))\n"
        "print(json.dumps(loaded))"
    )
    parsed, static, linear = (set(names) for names in json.loads(_fresh_python(code)))
    solvers = {f"porovisco.{name}" for name in ("nonlinear_solver", "linear_solver", "experiments", "_csv17", "_lapack")}
    assert not parsed & solvers
    assert "porovisco.linear_solver" in static and "porovisco.linear_solver" in linear
    assert "porovisco.nonlinear_solver" not in static | linear


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_runs_in_a_fresh_interpreter(tiny_config, tmp_path, capsys, command):
    # this process has loaded every module before a command runs, so a
    # command missing one of the imports it makes when it runs fails only
    # in a fresh interpreter
    argv = [command, "--config", str(tiny_config), "--quiet", "--out"]
    code = main([*argv, str(tmp_path / "here")])
    fresh = f"from porovisco.cli import main\nprint(main({[*argv, str(tmp_path / 'fresh')]!r}))"
    assert int(_fresh_python(fresh)) == code
    names = sorted(f.name for f in (tmp_path / "here").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "fresh").iterdir())
    for name in names:
        assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


# the names porovisco/__init__.py bound when it imported every module, by
# the module it took each from
PACKAGE_NAMES = {
    "constitutive": (
        "DomainError", "InadmissibleMaterial", "LinearizedTensors", "MaterialParams", "chemical_potential",
        "dissipation", "free_energy", "free_energy_hessian", "hyperstress", "linearize",
        "max_antisymmetric_action", "min_symmetric_eigenvalue", "mobility", "mobility_log_bound_constant",
        "power_difference_bound_constant", "stress_elastic",
    ),
    "discretization": ("BCSpec", "Grid1D"),
    "experiments": ("eps_sweep", "long_time_decay", "moser_exponents"),
    "linear_solver": ("SingularSystem", "check_energy_balance", "run_linear", "static_solve"),
    "loading": ("BoundLoading", "LoadingSpec", "SpatialProfile", "TimeAmplitude"),
    "nonlinear_solver": (
        "NoConvergence", "OrientationLoss", "PositivityLoss", "check_dissipation_inequality", "diffusion_step",
        "mechanical_step", "norm_ladder", "rescale", "run_nonlinear",
    ),
}
SUBMODULES = ("cli", "constitutive", "discretization", "experiments", "linear_solver", "loading",
              "nonlinear_solver", "_csv17", "_lapack")


@pytest.mark.parametrize("module, name", [(module, name) for module, names in PACKAGE_NAMES.items() for name in names])
def test_package_name_is_its_home_modules_object(module, name):
    home = getattr(importlib.import_module(f"porovisco.{module}"), name)
    namespace = {}
    exec(f"from porovisco import {name}", namespace)
    assert getattr(porovisco, name) is home and namespace[name] is home
    assert name in porovisco.__all__ and name in dir(porovisco)


def test_package_surface():
    assert sorted(porovisco.__all__) == sorted(name for names in PACKAGE_NAMES.values() for name in names)
    namespace = {}
    exec("from porovisco import *", namespace)
    assert set(porovisco.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        porovisco.no_such_name
    with pytest.raises(AttributeError, match="'porovisco.cli' has no attribute 'lq_norm'"):
        porovisco.cli.lq_norm
    # a fresh interpreter has loaded no submodule: each is loaded as an attribute
    code = ("import sys, porovisco\n"
            f"print(all(getattr(porovisco, name) is sys.modules['porovisco.' + name] for name in {SUBMODULES!r}))")
    assert _fresh_python(code).strip() == "True"


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_a_run_maps_one_blas(tiny_config, tmp_path):
    # one OpenBLAS and one libgfortran in a process that has run a command
    code = (
        "from porovisco.cli import main\n"
        f"assert main(['simulate-linear', '--config', {str(tiny_config)!r}, '--out', {str(tmp_path)!r}, '--quiet']) == 0\n"
        "files = {line.split()[-1].rsplit('/', 1)[-1].lower() for line in open('/proc/self/maps') if '/' in line}\n"
        "print([sum(part in f for f in files) for part in ('openblas', 'gfortran')])"
    )
    assert _fresh_python(code).strip() == "[1, 1]"


# hostile configs: whatever the JSON, parsing gives a config, a ParseError or
# a ValidationError naming fields, and the CLI exits 0, 1 or 2

SHIPPED = json.loads(default_config_path().read_text())
SECTIONS = set(SHIPPED) | {"checks"}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    # every key path of the JSON tree, and one new key in each object
    yield prefix + ("new",)
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


SHIPPED_PATHS = sorted(_paths(SHIPPED))


@st.composite
def mutated_configs(draw):
    """The shipped config with one field replaced by any JSON value, or
    removed."""
    path = draw(st.sampled_from(SHIPPED_PATHS))
    cfg = json.loads(json.dumps(SHIPPED))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if draw(st.booleans()):
        node[path[-1]] = draw(json_values)
    else:
        node.pop(path[-1], None)
    return cfg


def _check_hostile(tmp_path, cfg):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(cfg))
    try:
        parse_config(path)
    except ParseError:
        pass
    except ValidationError as err:
        named = SECTIONS | set(cfg) if isinstance(cfg, dict) else SECTIONS
        assert err.errors
        for entry in err.errors:
            assert any(entry.startswith(f"{key}:") or entry.startswith(f"{key}.") for key in named), entry
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code in (0, 1, 2)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=json_values | st.dictionaries(st.sampled_from(sorted(SECTIONS)) | st.text(max_size=4), json_values))
def test_arbitrary_json_never_escapes(tmp_path, capsys, cfg):
    _check_hostile(tmp_path, cfg)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=mutated_configs())
def test_mutated_shipped_config_never_escapes(tmp_path, capsys, cfg):
    _check_hostile(tmp_path, cfg)
