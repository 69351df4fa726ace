"""Workloads, seeded configs and the correctness gate of the porovisco
benchmark.

A workload is a list of CLI subcommands run on one generated config.  The
seed draws the load and initial-data scales; everything else comes from
the shipped default config plus the workload's fixed overrides.  The
program only ever sees the written config file.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "src" / "porovisco" / "data" / "biot_default.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep64", ("sweep-eps",)),
        Workload(
            "grid1024",
            ("simulate-nonlinear",),
            {
                "grid": {"n_cells": 1024},
                "time": {"tau": 0.01, "T": 0.3},
                # the shipped solver.tol = 5e-11 sits below the mechanical
                # residual's round-off floor from n = 384 on
                "solver": {"tol": 1e-9},
                "checks": {"residual_tol": 1e-9},
            },
        ),
        Workload(
            "linear64",
            ("decay", "simulate-linear", "static"),
            # the CLI's defaults, stated so that the warm-up can cut them
            {"time": {"decay_T": 50.0, "decay_tau": 0.02}},
        ),
    )
}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def draw(seed: int) -> dict:
    """The three seeded input values.  ``random.Random.random`` keeps its
    sequence for a given integer seed across Python versions."""
    rng = random.Random(seed)
    return {
        "loading.f_profile.scale": 0.5 + 0.2 * rng.random(),
        "loading.g_amplitude.scale": 0.2 + 0.1 * rng.random(),
        "initial.rho0.scale": -0.5 + 1.0 * rng.random(),
    }


def make_config(workload: Workload, seed: int) -> dict:
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    for section, values in workload.overrides.items():
        cfg.setdefault(section, {}).update(copy.deepcopy(values))
    drawn = draw(seed)
    cfg["loading"]["f_profile"]["scale"] = drawn["loading.f_profile.scale"]
    cfg["loading"]["g_amplitude"]["scale"] = drawn["loading.g_amplitude.scale"]
    cfg["initial"]["rho0"] = {"kind": "cos_pi", "scale": drawn["initial.rho0.scale"]}
    return cfg


def warmup_config(cfg: dict) -> dict:
    """The config with the run horizons ``time.T`` and ``time.decay_T`` cut
    to a tenth: it takes every code path of the workload at a fraction of
    the cost."""
    short = copy.deepcopy(cfg)
    for key in ("T", "decay_T"):
        if key in short["time"]:
            short["time"][key] = cfg["time"][key] / 10.0
    return short


def config_bytes(cfg: dict) -> bytes:
    return (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()


def _steps(T: float, tau: float) -> int:
    return math.ceil(T / tau - 1e-12)  # the solvers' step count


def cell_steps(workload: Workload, cfg: dict) -> int:
    """Sum over the workload's solver runs of cells x time steps."""
    n = cfg["grid"]["n_cells"]
    t = cfg["time"]
    run = _steps(t["T"], t["tau"])
    total = 0
    for cmd in workload.commands:
        if cmd == "sweep-eps":
            total += (len(cfg["eps_list"]) + 1) * n * run  # nonlinear members + one linear run
        elif cmd in ("simulate-nonlinear", "simulate-linear"):
            total += n * run
        elif cmd == "decay":
            total += n * _steps(t["decay_T"], t["decay_tau"])
    return total


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_workload(workload: Workload, cfg_path: Path, out: Path, main) -> list:
    """Run every subcommand of the workload through ``main`` (the CLI entry
    point), each into its own output directory.  Returns the exit codes."""
    codes = []
    for cmd in workload.commands:
        try:
            code = main([cmd, "--config", str(cfg_path), "--out", str(out / cmd), "--quiet"])
        except Exception as err:  # a crash is a failed run, never a lost one
            print(f"{cmd}: {type(err).__name__}: {err}", flush=True)
            code = -1
        codes.append(code)
    return codes


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

LEDGER_CORE = ("t", "energy", "diss_mech", "diss_diff", "flux_boundary", "load_power")
LEDGER_NONLINEAR = LEDGER_CORE + (
    "mass", "residual_mech", "residual_diff", "linf_c", "min_c", "min_F", "llogl",
    "h1_u", "l2_rho", "lp_d2u", "mu_left", "mu_right",
)
LEDGER_LINEAR = LEDGER_CORE + ("mass", "residual", "h1_u", "l2_rho", "linf_rho")
SWEEP_HEADER = (
    "eps", "err_u_h1", "err_u_l2", "err_rho_l2", "err_flux_l2",
    "u_linf_h1", "udot_grad_l2", "d2u_scaled_lp", "llogl_over_eps2",
    "rho_linf_l2", "c_linf_linf", "flux_l2", "dissipation_violation",
)


def _trajectory_header(n_nodes: int, second: str) -> tuple:
    return ("t",) + tuple(f"u_{i:03d}" for i in range(n_nodes)) + tuple(
        f"{second}_{i:03d}" for i in range(n_nodes)
    )


def expected_outputs(cmd: str, cfg: dict) -> dict:
    """README output contract per subcommand: file name -> (exact header
    or None, columns the header must contain)."""
    nn = cfg["grid"]["n_cells"] + 1
    if cmd == "sweep-eps":
        return {"sweep.csv": (SWEEP_HEADER, ())}
    if cmd == "simulate-nonlinear":
        return {"trajectory.csv": (_trajectory_header(nn, "c"), ()), "ledger.csv": (None, LEDGER_NONLINEAR)}
    if cmd == "simulate-linear":
        return {"trajectory.csv": (_trajectory_header(nn, "rho"), ()), "ledger.csv": (None, LEDGER_LINEAR)}
    if cmd == "decay":
        return {"decay.csv": (("t", "energy_distance"), ())}
    if cmd == "static":
        return {"static.csv": (("x", "v", "xi"), ())}
    raise ValueError(f"no output contract for {cmd}")


def _check_csv(path: Path, exact, required) -> list:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [f"{path.name}: empty"]
    header = tuple(rows[0])
    if exact is not None and header != exact:
        return [f"{path.name}: header differs from the contract"]
    if len(set(header)) != len(header) or "" in header:
        return [f"{path.name}: header names are empty or repeated"]
    missing = [c for c in required if c not in header]
    if missing:
        return [f"{path.name}: header lacks {missing}"]
    if len(rows) < 2:
        return [f"{path.name}: no data rows"]
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            return [f"{path.name}:{i}: {len(row)} fields, header has {len(header)}"]
        try:
            [float(v) for v in row]
        except ValueError:
            return [f"{path.name}:{i}: non-numeric field"]
    return []


def check_outputs(workload: Workload, cfg: dict, out: Path, codes: list) -> list:
    """Failure reasons of one workload run (empty when it passes):
    nonzero exit codes, failed summary.json invariants and CSV files that
    break the README contract."""
    problems = []
    for cmd, code in zip(workload.commands, codes):
        if code != 0:
            problems.append(f"{cmd}: exit code {code}")
            continue
        d = out / cmd
        try:
            summary = json.loads((d / "summary.json").read_text())
            failing = [inv["name"] for inv in summary["invariants"] if not inv["passed"]]
            listed = sorted(summary["outputs"])
        except (OSError, ValueError, KeyError, TypeError) as err:
            problems.append(f"{cmd}: unreadable summary.json ({type(err).__name__}: {err})")
            continue
        problems += [f"{cmd}: invariant {name} failed" for name in failing]
        contract = expected_outputs(cmd, cfg)
        if listed != sorted(contract):
            problems.append(f"{cmd}: summary lists {listed}, contract {sorted(contract)}")
        for name, (exact, required) in contract.items():
            if not (d / name).is_file():
                problems.append(f"{cmd}: {name} missing")
                continue
            problems += [f"{cmd}: {p}" for p in _check_csv(d / name, exact, required)]
    return problems


def digest(out: Path) -> dict:
    """sha256 of every output file, keyed by its path under ``out``."""
    return {
        str(p.relative_to(out)): sha256_file(p)
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _last_row(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows[-1]


def key_scalars(workload: Workload, out: Path) -> dict:
    """The scalars compared with the recorded reference: the sweep error
    columns, the final ledger energy and the decay final ratio."""
    vals = {}
    for cmd in workload.commands:
        d = out / cmd
        if cmd == "sweep-eps":
            with (d / "sweep.csv").open(newline="") as fh:
                for row in csv.DictReader(fh):
                    for col in SWEEP_HEADER[1:5]:
                        vals[f"sweep.{col}@eps={float(row['eps']):g}"] = float(row[col])
        elif cmd in ("simulate-nonlinear", "simulate-linear"):
            vals[f"{cmd}.final_energy"] = float(_last_row(d / "ledger.csv")["energy"])
        elif cmd == "decay":
            summary = json.loads((d / "summary.json").read_text())
            vals["decay.final_ratio"] = next(
                inv["value"] for inv in summary["invariants"] if inv["name"] == "decay_final_ratio"
            )
    return vals


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_reference(workload: Workload, seed: int, out: Path, reference: dict) -> list:
    """Compare the key scalars with the reference recorded for this seed,
    if there is one: |value - ref| <= rtol |ref| + atol.  A missing value
    or a NaN fails."""
    ref = reference["seeds"].get(str(seed), {}).get(workload.name)
    if ref is None:
        return []
    got = key_scalars(workload, out)
    problems = []
    for name, want in ref.items():
        have = got.get(name)
        atol = reference["atol"].get(name, 0.0)
        if have is None or not abs(have - want) <= reference["rtol"] * abs(want) + atol:
            problems.append(f"reference: {name} = {have!r}, recorded {want!r}")
    return problems


class Gate:
    """Counts attempted and failed workload runs.  A run fails on any
    problem from :func:`check_outputs`, on a reference mismatch, or on
    outputs that differ from the first passing run of the same seed.
    Failed runs stay counted; nothing is dropped."""

    def __init__(self, workload: Workload, cfg: dict, seed: int, reference: dict):
        self.workload = workload
        self.cfg = cfg
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._baseline = None  # digest of the first passing run
        self._checked = {}  # digest key -> problems (identical bytes, identical verdict)

    def check(self, label: str, out: Path, codes: list) -> bool:
        self.attempted += 1
        dig = digest(out)
        key = (tuple(codes), tuple(sorted(dig.items())))
        if key not in self._checked:
            problems = check_outputs(self.workload, self.cfg, out, codes)
            if not problems:
                problems = check_reference(self.workload, self.seed, out, self.reference)
            self._checked[key] = problems
        problems = list(self._checked[key])
        if self._baseline is None:
            if not problems:
                self._baseline = dig
        elif dig != self._baseline:
            changed = sorted(k for k in set(dig) | set(self._baseline) if dig.get(k) != self._baseline.get(k))
            problems.append(f"outputs differ from the first passing run of this seed: {changed}")
        if problems:
            self.failed += 1
            self.failures.append({"run": label, "problems": problems})
        return not problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
