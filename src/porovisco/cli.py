"""Command-line entry point, config schema and output-file contracts.

Configs are JSON key trees with an explicit schema version; outputs are
CSV files (exact ``"%.17g"``, written in row blocks) plus a summary JSON
carrying the config hash and per-invariant pass/fail results.  Exit codes:
0 success, 2 for "ran fine but a structure invariant failed" (the failing
check is named), 1 for usage, config or runtime errors.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import _resolve, constitutive as mat
from .constitutive import (
    InadmissibleMaterial,
    MaterialParams,
    linearize,
    max_antisymmetric_action,
    min_symmetric_eigenvalue,
    mobility_log_bound_constant,
    power_difference_bound_constant,
    verification_grid,
)
from .discretization import BCSpec, Grid1D, drain, mass, time_grid
from .loading import LoadingSpec, SpatialProfile, TimeAmplitude

SCHEMA_VERSION = 1
# the built-in digest: hashlib would load OpenSSL's _hashlib, another 3.5 MiB
_sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256

__all__ = [
    "ParseError",
    "ValidationError",
    "ProblemConfig",
    "parse_config",
    "default_config_path",
    "main",
    "console_main",
]


def __getattr__(name):  # the package's names resolve here too
    return _resolve(__name__, name)


class ParseError(ValueError):
    """Config file is missing or not valid JSON."""


class ValidationError(ValueError):
    """Config parsed but one or more fields are invalid."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ProblemConfig:
    """Validated run configuration binding all modules together."""

    material: MaterialParams
    grid: Grid1D
    tau: float
    T: float
    decay_tau: float
    decay_T: float
    checkpoint_times: Optional[tuple]
    loading: LoadingSpec
    bc: BCSpec
    u0_profile: SpatialProfile
    rho0_profile: SpatialProfile
    eps: float
    eps_list: tuple
    tol: float
    max_newton: int
    max_backtrack: int
    checks: dict
    seed: int
    config_hash: str

    def initial_fields(self):
        x = self.grid.nodes
        return self.u0_profile.sample(x), self.rho0_profile.sample(x)


def default_config_path() -> Path:
    """Path of the shipped default Biot configuration."""
    return Path(__file__).parent / "data" / "biot_default.json"


DEFAULT_CHECKS = {
    "dissipation_tol": 1e-9,
    "mass_tol": 1e-12,
    "residual_tol": 1e-10,
    "balance_tol": 0.1,
    "derivative_tol": 1e-6,
    "antisym_tol": 1e-6,
    "audit_ratio_max": 3.0,
    "moser_gap_rel": 0.01,
    "decay_final_ratio": 1e-6,
    "static_residual_tol": 1e-12,
}


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------
# Each JSON object of a config is described by a table mapping every key it
# may hold to (default, cast, condition).  An absent key takes the default;
# the value then goes through the cast (None: taken as it is) and must meet
# the condition, a (test, description) pair or None.  A null is allowed only
# where the default is None, and a key the table does not list is an error.

def _number(value) -> float:
    # JSON numbers only: float() would take "0.5" and true as numbers
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _floats(value) -> tuple:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return tuple(_number(v) for v in value)


def _count(value) -> int:
    # JSON integers only: int() would take 2.9 as 2 and "7" or true as numbers
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


_POSITIVE = (lambda v: 0.0 < v < np.inf, "finite and positive")  # false for NaN
_NONNEGATIVE = (lambda v: v >= 0.0, "nonnegative")  # false for NaN
_FINITE_NONNEGATIVE = (lambda v: 0.0 <= v < np.inf, "finite and nonnegative")
_FINITE = (lambda v: bool(np.all(np.isfinite(() if v is None else v))), "finite")
_SWEEP_SCALES = (lambda v: len(v) >= 3 and all(map(_POSITIVE[0], v)) and bool(np.all(np.diff(v) < 0.0)),
                 "at least 3 finite, positive and strictly decreasing values")


def _walk(node, table: dict) -> dict:
    """The fields of the JSON object ``node``, cast and checked by ``table``.

    Raises :class:`ValidationError` with one entry per bad field, each
    starting with the field's path.  A nested object's cast raises its own
    entries, which get the key as a prefix here.
    """
    if not isinstance(node, dict):
        raise TypeError(f"expected a JSON object, got {node!r}")
    fields, errors = {}, []
    for key, (default, cast, condition) in table.items():
        value = node.get(key, default)
        try:
            if value is None and default is not None:
                raise TypeError("expected a value, got null")
            if value is not None and cast is not None:
                value = cast(value)
            if condition is not None and not condition[0](value):
                raise ValueError(f"must be {condition[1]}, got {value!r}")
            fields[key] = value
        except ValidationError as err:
            errors.extend(f"{key}.{e}" for e in err.errors)
        except (TypeError, ValueError, OverflowError) as err:
            errors.append(f"{key}: {err}")
    errors.extend(f"{key}: unknown field" for key in node if key not in table)
    if errors:
        raise ValidationError(errors)
    return fields


def _object(table: dict, make=dict):
    """Cast of a nested JSON object: ``make`` called on its fields."""
    return lambda node: make(**_walk(node, table))


_AMPLITUDE = _object({
    "kind": ("constant", None, None),
    "scale": (0.0, _number, _FINITE),
    "t_ramp": (1.0, _number, _FINITE),
    "rate": (1.0, _number, _FINITE),
}, TimeAmplitude)

_PROFILE = _object({
    "kind": ("zero", None, None),
    "scale": (1.0, _number, _FINITE),
    "values": (None, _floats, _FINITE),
}, SpatialProfile)

_CONFIG = {
    "schema_version": (None, None, (lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION))),
    "material": ({}, _object({
        **{name: (f.default, _number, _FINITE) for name, f in MaterialParams.__dataclass_fields__.items()},
        "dim": (1, _count, (lambda v: v == 1, "1")),  # the 1-D reduction is the only one solved
    }, lambda dim, **fields: MaterialParams(**fields)), None),
    "grid": ({}, _object({"n_cells": (64, _count, (lambda v: v >= 4, "at least 4"))}, Grid1D), None),
    "time": ({}, _object({
        "tau": (1e-3, _number, _POSITIVE),
        "T": (1.0, _number, _POSITIVE),
        "checkpoint_times": (None, _floats, _FINITE),
        "decay_tau": (0.02, _number, _POSITIVE),
        "decay_T": (50.0, _number, _POSITIVE),
    }), None),
    "loading": ({}, _object({
        "f_profile": ({}, _PROFILE, None),
        "f_amplitude": ({}, _AMPLITUDE, None),
        "g_amplitude": ({}, _AMPLITUDE, None),
    }, LoadingSpec), None),
    "bc": ({}, _object({
        "kappa_left": (0.0, _number, _FINITE_NONNEGATIVE),
        "kappa_right": (0.0, _number, _FINITE_NONNEGATIVE),
        "mu_ext": ({}, _AMPLITUDE, None),
    }, BCSpec), None),
    "initial": ({}, _object({"u0": ({}, _PROFILE, None), "rho0": ({}, _PROFILE, None)}), None),
    "eps": (0.1, _number, _POSITIVE),
    "eps_list": ([0.2, 0.1, 0.05, 0.025], _floats, _SWEEP_SCALES),
    "solver": ({}, _object({
        "tol": (5e-11, _number, _POSITIVE),
        "max_newton": (50, _count, _NONNEGATIVE),
        "max_backtrack": (40, _count, _NONNEGATIVE),
    }), None),
    "checks": ({}, _object({key: (value, _number, _NONNEGATIVE) for key, value in DEFAULT_CHECKS.items()}), None),
    "seed": (0, _count, _NONNEGATIVE),
}


def parse_config(path, overrides=None) -> ProblemConfig:
    """Load and validate a configuration file.

    ``overrides`` maps field paths such as ``"time.tau"`` to values that
    replace the file's; they are validated like the file's own fields but
    leave the config hash, the sha256 of the file's JSON, unchanged.

    Raises :class:`ParseError` on an unreadable file or malformed JSON and
    :class:`ValidationError` (with every bad field named, and the violated
    model assumption for the material) on invalid contents.
    """
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
        digest = _sha256(json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    except OSError as err:
        raise ParseError(f"cannot read config {p}: {err}") from err
    except (ValueError, RecursionError) as err:
        raise ParseError(f"config {p} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ParseError(f"config {p} must be a JSON object")
    for where, value in (overrides or {}).items():
        section, _, key = where.rpartition(".")
        node = raw.setdefault(section, {}) if section else raw
        if isinstance(node, dict):
            node[key] = value

    fields = _walk(raw, _CONFIG)
    del fields["schema_version"]
    time, solver, initial = (fields.pop(key) for key in ("time", "solver", "initial"))
    # the checks across fields, on the grid the overrides leave
    errors = []
    if time["checkpoint_times"] == ():  # it would read as null, which writes every row
        errors.append("time.checkpoint_times: must hold at least one time, got []")
    late = [t for t in time["checkpoint_times"] or () if not 0.0 <= t <= time["T"]]  # no row to snap to
    if late:
        errors.append(f"time.checkpoint_times: must lie in [0, time.T], got {late[0]!r}")
    x = fields["grid"].nodes
    for where, profile in (("loading.f_profile", fields["loading"].f_profile),
                           ("initial.u0", initial["u0"]), ("initial.rho0", initial["rho0"])):
        if profile.kind != "array" and profile.values is not None:  # the kind's formula would ignore them
            errors.append(f"{where}.values: only an array profile takes values, got kind {profile.kind!r}")
        elif profile.kind == "array" and len(profile.values) != len(x):
            errors.append(f"{where}.values: must hold grid.n_cells + 1 = {len(x)} values, got {len(profile.values)}")
        elif where == "initial.u0" and abs(profile.sample(x)[0]) > 1e-14:
            errors.append(f"initial.u0: must vanish at the pinned end x = 0, got {float(profile.sample(x)[0])!r}")
    if errors:
        raise ValidationError(errors)
    return ProblemConfig(
        **fields, **time, **solver,
        u0_profile=initial["u0"], rho0_profile=initial["rho0"], config_hash=digest,
    )


# ---------------------------------------------------------------------------
# deterministic serialization (17 significant digits everywhere)
# ---------------------------------------------------------------------------

def _f17(x: float) -> str:
    return "%.17g" % float(x)


def _json17(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json17(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = ", ".join(_json17(v, indent + 1) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _f17(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


# values per formatted block: the file is written block by block, so
# memory stays O(block) whatever the table's size
_BLOCK_VALUES = 8192


def _write_csv(path: Path, header: list, columns, rows=None, append: bool = False) -> None:
    """Write a CSV file: the header, then one line per row of ``columns``;
    with ``append``, add the lines to its end (one call per row block of a
    run writes its trajectory).

    ``columns`` are float arrays sharing their first axis, each 1-D (one
    column) or 2-D (several), or functions giving the rows of one at an
    index array; ``rows`` selects and orders the rows (all of them by
    default).  Every value is written as ``"%.17g"`` writes it.
    """
    from ._csv17 import format_rows
    rows = np.arange(len(columns[0])) if rows is None else rows
    columns = [c if callable(c) else np.asarray(c, dtype=float).__getitem__ for c in columns]
    step = max(1, _BLOCK_VALUES // len(header))
    with path.open("ab" if append else "wb") as f:
        if not append:
            f.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            f.write(format_rows(np.column_stack([c(block) for c in columns])))


def _write_summary(path: Path, config: ProblemConfig, system: str, invariants: list, outputs: list) -> None:
    import platform

    from ._lapack import blas_config
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config.config_hash,
        "system": system,
        "invariants": [
            {"name": n, "passed": bool(p), "value": float(v), "tolerance": float(t)}
            for (n, p, v, t) in invariants
        ],
        "outputs": list(outputs),
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_config()},
    }
    path.write_text(_json17(doc) + "\n")


@contextlib.contextmanager
def _trajectory(config: ProblemConfig, out: Path, second: str):
    """The consumer of a run's row blocks ``(rows, u, second field)``,
    which appends their checkpoint rows (each checkpoint time's nearest
    row; every row without checkpoints) to ``out/trajectory.csv``.  The
    file is written under a temporary name, renamed once the block of the
    ``with`` statement ends without an error and removed if it fails."""
    times = time_grid(config.T, config.tau)
    checkpoints = config.checkpoint_times
    idx = np.unique([np.argmin(np.abs(times - t)) for t in checkpoints]) if checkpoints else np.arange(len(times))
    header = ["t"] + [f"{field}_{i:03d}" for field in ("u", second) for i in range(config.grid.n_nodes)]
    part = out / "trajectory.csv.part"

    def write(rows, u, v):
        lo, hi = np.searchsorted(idx, (rows.start, rows.stop))
        _write_csv(part, header, [times[rows], u, v], idx[lo:hi] - rows.start, append=rows.start > 0)

    try:
        yield write
        part.replace(out / "trajectory.csv")
    finally:
        part.unlink(missing_ok=True)


def _write_ledger(path: Path, ledger) -> None:
    names = list(ledger.column_names)
    _write_csv(path, names, [ledger.column(n) for n in names])


def _fail_code(invariants: list, quiet: bool) -> int:
    if not quiet:
        for name, passed, value, tol in invariants:
            print(f"{'PASS' if passed else 'FAIL'}  {name}: value {value:.6g} (tolerance {tol:.6g})")
    failing = [n for n, p, _, _ in invariants if not p]
    if not failing:
        return 0
    print(f"invariant failure: {', '.join(failing)}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# subcommands: each writes its own output files and returns the summary's
# (system, invariants, outputs); main writes summary.json and the exit code.
# Each imports its solvers when it runs, so that parsing a config compiles
# none of them (a process without cached bytecode compiles what it imports)
# ---------------------------------------------------------------------------

def _nonlinear_run(config: ProblemConfig, consume):
    # consume(rows, W, C) takes the run's blocks; the ledger is returned
    from .nonlinear_solver import run_nonlinear
    u0, rho0 = config.initial_fields()
    return run_nonlinear(
        config.material, config.grid, config.loading.bind(config.grid), config.bc,
        tau=config.tau, T=config.T, eps=config.eps, u0=u0, rho0=rho0,
        tol=config.tol, max_newton=config.max_newton, max_backtrack=config.max_backtrack, consume=consume,
    )


def _cmd_simulate_nonlinear(config: ProblemConfig, out: Path) -> tuple:
    """The finite-strain run: its checkpoint rows are written block by
    block as the run makes them (u = (chi - id)/eps, the "u" of
    ``rescale``), then its ledger and invariants."""
    from .nonlinear_solver import check_dissipation_inequality
    with _trajectory(config, out, "c") as write:
        led = _nonlinear_run(config, lambda rows, W, C: write(rows, lambda r: W[0, r] / config.eps, C[0]))
    violation = check_dissipation_inequality(led)
    masses = led.column("mass")
    drift = float(np.max(np.abs(masses - masses[0])))
    resid = max(float(np.max(led.column("residual_mech"))), float(np.max(led.column("residual_diff"))))
    chk = config.checks
    kappa_free = config.bc.kappa_left == 0.0 and config.bc.kappa_right == 0.0
    invariants = [
        ("orientation_preserved", float(np.min(led.column("min_F"))) > 0.0, float(np.min(led.column("min_F"))), 0.0),
        ("positivity_preserved", float(np.min(led.column("min_c"))) > 0.0, float(np.min(led.column("min_c"))), 0.0),
        ("dissipation_inequality", violation <= chk["dissipation_tol"], violation, chk["dissipation_tol"]),
        ("weak_residuals", resid <= chk["residual_tol"], resid, chk["residual_tol"]),
    ]
    if kappa_free:
        invariants.insert(2, ("mass_conservation", drift <= chk["mass_tol"], drift, chk["mass_tol"]))
    _write_ledger(out / "ledger.csv", led)
    return "nonlinear", invariants, ["trajectory.csv", "ledger.csv"]


def _reject_robin(config: ProblemConfig) -> None:
    """Reject Robin data in a command that solves only the zero-flux
    system (kappa = 0): the small-strain solver has no Robin rows, and the
    sweep's members run with zero flux."""
    errors = [f"bc.{name}: must be 0 for this command, which solves the zero-flux system (L1), got {kappa!r}"
              for name, kappa in (("kappa_left", config.bc.kappa_left), ("kappa_right", config.bc.kappa_right))
              if kappa != 0.0]
    if errors:
        raise ValidationError(errors)


def _cmd_simulate_linear(config: ProblemConfig, out: Path) -> tuple:
    """The small-strain run: its checkpoint rows are written, and its ledger
    folded, block by block as the run makes them; then its ledger and invariants."""
    from .linear_solver import check_energy_balance, linear_ledger, run_linear
    _reject_robin(config)
    tensors = linearize(config.material)
    u0, rho0 = config.initial_fields()
    bound = config.loading.bind(config.grid)
    with _trajectory(config, out, "rho") as write:
        run = run_linear(config.grid, tensors, bound, u0=u0, rho0=rho0, tau=config.tau, T=config.T)
        led = drain(linear_ledger(run), write)
    balance = check_energy_balance(led)
    masses = led.column("mass")
    drift = float(np.max(np.abs(masses - masses[0])))
    chk = config.checks
    invariants = [
        ("mass_conservation", drift <= chk["mass_tol"], drift, chk["mass_tol"]),
        ("energy_balance", balance <= chk["balance_tol"], balance, chk["balance_tol"]),
    ]
    _write_ledger(out / "ledger.csv", led)
    return "linear", invariants, ["trajectory.csv", "ledger.csv"]


def _cmd_static(config: ProblemConfig, out: Path) -> tuple:
    from .linear_solver import static_solve
    _reject_robin(config)
    tensors = linearize(config.material)
    f_nodes, g_value = _terminal_loads(config)
    _, rho0 = config.initial_fields()
    v, xi, nu, residual = static_solve(config.grid, tensors, f_nodes, g_value, mass(config.grid, rho0))
    chk = config.checks
    invariants = [("static_residual", residual <= chk["static_residual_tol"], residual, chk["static_residual_tol"])]
    _write_csv(out / "static.csv", ["x", "v", "xi"], [config.grid.nodes, v, xi])
    return "static", invariants, ["static.csv"]


def _terminal_loads(config: ProblemConfig) -> tuple:
    """Nodal body force and traction once the loading transients are
    over; both amplitudes need a time-independent tail."""
    scales = []
    for name in ("f_amplitude", "g_amplitude"):
        amplitude = getattr(config.loading, name)
        if not (amplitude.kind in ("constant", "ramp") or (amplitude.kind == "linear" and amplitude.rate == 0.0)):
            raise ValidationError([f"loading.{name}: must be time-independent for this experiment"])
        scales.append(amplitude.scale)
    return config.loading.f_profile.sample(config.grid.nodes) * scales[0], scales[1]


def _cmd_sweep(config: ProblemConfig, out: Path) -> tuple:
    from .experiments import eps_sweep
    _reject_robin(config)
    u0, rho0 = config.initial_fields()
    bound = config.loading.bind(config.grid)
    report = eps_sweep(
        config.material, config.grid, bound, config.eps_list,
        tau=config.tau, T=config.T, u0=u0, rho0=rho0,
        tol=config.tol, max_newton=config.max_newton, max_backtrack=config.max_backtrack,
    )
    chk = config.checks
    decreasing = all(
        all(np.diff(report.errors[name]) < 0.0) for name in report.errors
    )
    ratio_ok = all(r <= chk["audit_ratio_max"] for r in report.audit_ratios.values())
    worst_violation = max(report.dissipation_violations)
    invariants = [
        ("sweep_errors_decreasing", decreasing, float(decreasing), 1.0),
        ("audit_ratios", ratio_ok, max(report.audit_ratios.values()), chk["audit_ratio_max"]),
        ("dissipation_inequality", worst_violation <= chk["dissipation_tol"], worst_violation, chk["dissipation_tol"]),
        ("energy_balance", report.energy_balance_residual <= chk["balance_tol"],
         report.energy_balance_residual, chk["balance_tol"]),
    ]
    rows = list(report.rows())
    _write_csv(out / "sweep.csv", list(rows[0]), [[list(row.values()) for row in rows]])
    return "sweep", invariants, ["sweep.csv"]


def _cmd_verify(config: ProblemConfig, out: Path) -> tuple:
    pr = config.material
    chk = config.checks
    rng = np.random.default_rng(config.seed)
    errors = []
    s = mat._FD_STEP
    # an overflow at extreme material values gives a non-finite error,
    # which fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(50):
            F = rng.uniform(0.6, 1.6)
            c = rng.uniform(0.3, 3.0)
            fd_sigma = (mat.free_energy(pr, F + s, c) - mat.free_energy(pr, F - s, c)) / (2 * s)
            fd_mu = (mat.free_energy(pr, F, c + s) - mat.free_energy(pr, F, c - s)) / (2 * s)
            errors.append(mat._rel_err(mat.stress_elastic(pr, F, c), fd_sigma))
            errors.append(mat._rel_err(mat.chemical_potential(pr, F, c), fd_mu))
            ff, fc, cc = mat.free_energy_hessian(pr, F, c)
            errors.append(mat._rel_err(ff, (mat.stress_elastic(pr, F + s, c) - mat.stress_elastic(pr, F - s, c)) / (2 * s)))
            errors.append(mat._rel_err(fc, (mat.stress_elastic(pr, F, c + s) - mat.stress_elastic(pr, F, c - s)) / (2 * s)))
            errors.append(mat._rel_err(cc, (mat.chemical_potential(pr, F, c + s) - mat.chemical_potential(pr, F, c - s)) / (2 * s)))
            Fd = rng.uniform(-1.0, 1.0)
            zfd = (mat.dissipation(pr, F, Fd + s, c)[0] - mat.dissipation(pr, F, Fd - s, c)[0]) / (2 * s)
            errors.append(mat._rel_err(mat.dissipation(pr, F, Fd, c)[1], zfd))
            G = rng.uniform(-2.0, 2.0)
            hfd = (mat.hyperstress(pr, G + s)[0] - mat.hyperstress(pr, G - s)[0]) / (2 * s)
            errors.append(mat._rel_err(mat.hyperstress(pr, G)[1], hfd))
    worst = float(np.max(errors))  # NaN if any error is NaN
    invariants = [("derivative_cross_check", worst <= chk["derivative_tol"], worst, chk["derivative_tol"])]

    tensors = linearize(pr)  # raises if the self-check fails
    invariants.append(("linearize_self_check", True, 0.0, chk["derivative_tol"]))

    grid_a = verification_grid(pr.c_eq, 2000)
    grid_b = verification_grid(pr.c_eq, 4000)
    if 0.0 < pr.m < 2.0:
        sup_a = mobility_log_bound_constant(pr.m, pr.c_eq, grid_a)
        sup_b = mobility_log_bound_constant(pr.m, pr.c_eq, grid_b)
        stable = abs(sup_a - sup_b) <= 0.05 * max(sup_a, sup_b)
        invariants.append(("log_bound_finite_stable", np.isfinite(sup_a) and stable, sup_a, 0.05))
    sup2_a = power_difference_bound_constant(pr.r, pr.c_eq, grid_a)
    sup2_b = power_difference_bound_constant(pr.r, pr.c_eq, grid_b)
    stable2 = abs(sup2_a - sup2_b) <= 0.05 * max(sup2_a, sup2_b)
    invariants.append(("power_bound_finite_stable", np.isfinite(sup2_a) and stable2, sup2_a, 0.05))
    if pr.r == 0.0 and pr.c_eq == 1.0:
        invariants.append(("power_bound_unit_fixture", sup2_a <= 1.0 + 1e-9, sup2_a, 1.0 + 1e-9))

    max_c, max_d = max_antisymmetric_action(pr)
    lam_min = min_symmetric_eigenvalue(pr)
    invariants.append(("antisymmetric_action", max(max_c, max_d) <= chk["antisym_tol"], max(max_c, max_d), chk["antisym_tol"]))
    invariants.append(("elasticity_positive_definite", lam_min > 0.0, lam_min, 0.0))

    return "verify", invariants, []


def _cmd_moser(config: ProblemConfig, out: Path) -> tuple:
    """The norm ladder of the finite-strain run's concentration, read
    from its ledger: the largest value in time of each ``lq_c_<q>``
    column, q over ``norm_ladder``, and the gap of the last to that of
    ``linf_c``."""
    from .nonlinear_solver import norm_ladder
    qs = norm_ladder(config.material)
    led = _nonlinear_run(config, lambda rows, W, C: None)
    norms = tuple(float(np.max(led.column(f"lq_c_{q:g}"))) for q in qs)
    gap = float(np.max(led.column("linf_c"))) - norms[-1]
    sup = norms[-1] + gap
    chk = config.checks
    nondecreasing = bool(np.all(np.diff(norms) >= -1e-12))
    gap_ok = gap <= chk["moser_gap_rel"] * sup
    invariants = [
        ("ladder_nondecreasing", nondecreasing, float(nondecreasing), 1.0),
        ("ladder_bounded_by_sup", norms[-1] <= sup * (1.0 + 1e-8), norms[-1], sup * (1.0 + 1e-8)),
        ("ladder_gap", gap_ok, gap / sup if sup else 0.0, chk["moser_gap_rel"]),
    ]
    _write_csv(out / "moser.csv", ["q", "sup_lq_norm"], [qs, norms])
    return "moser", invariants, ["moser.csv"]


def _cmd_decay(config: ProblemConfig, out: Path) -> tuple:
    from .experiments import long_time_decay
    _reject_robin(config)
    tensors = linearize(config.material)
    f_nodes, g_value = _terminal_loads(config)
    u0, rho0 = config.initial_fields()
    result = long_time_decay(config.grid, tensors, f_nodes, g_value, u0=u0, rho0=rho0,
                             tau=config.decay_tau, T=config.decay_T)
    chk = config.checks
    invariants = [
        ("decay_nonincreasing", result.max_increase <= 1e-12, result.max_increase, 1e-12),
        ("decay_final_ratio", result.final_ratio <= chk["decay_final_ratio"],
         result.final_ratio, chk["decay_final_ratio"]),
    ]
    _write_csv(out / "decay.csv", ["t", "energy_distance"], [result.times, result.curve])
    return "decay", invariants, ["decay.csv"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate-nonlinear": _cmd_simulate_nonlinear,
    "simulate-linear": _cmd_simulate_linear,
    "static": _cmd_static,
    "sweep-eps": _cmd_sweep,
    "verify": _cmd_verify,
    "moser-diag": _cmd_moser,
    "decay": _cmd_decay,
}


@functools.lru_cache(maxsize=1)  # 2 ms to build; parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="porovisco",
        description="Quasistatic poro-visco-elasticity laboratory",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--eps", type=float, default=None, help="override the load scale")
        p.add_argument("--tau", type=float, default=None, help="override the time step")
        p.add_argument("--cells", type=int, default=None, help="override the cell count")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage()
        return 1
    overrides = {"eps": args.eps, "time.tau": args.tau, "grid.n_cells": args.cells}
    out = Path(args.out or "out")
    try:
        config = parse_config(args.config, {k: v for k, v in overrides.items() if v is not None})
        out.mkdir(parents=True, exist_ok=True)
        system, invariants, outputs = _COMMANDS[args.command](config, out)
        _write_summary(out / "summary.json", config, system, invariants, outputs)
        return _fail_code(invariants, args.quiet)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except (ValidationError, InadmissibleMaterial) as err:
        for e in getattr(err, "errors", [err]):
            print(f"validation error: {e}", file=sys.stderr)
        return 1
    except Exception as err:  # solver failures and I/O problems
        print(f"error: {err}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
