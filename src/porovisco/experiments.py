"""Desk-scale experiments: the small-load limit sweep, scaling audits,
the norm-ladder diagnostic and long-time decay.

The sweep runs the finite-strain solver at a decreasing list of load
scales eps with loading eps * (f_star, g_star) and initial data
(id + eps u0, c_eq + eps rho0), and compares against a single linear run
on the same grid and time step, so the error columns measure the eps-gap
alone.  The sweep and decay store no trajectory: they take each run's
rows a block at a time, as its time loop makes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constitutive import MaterialParams, linearize
from .discretization import (
    BCSpec,
    Grid1D,
    cell_derivative,
    cell_l2_norm,
    gradient,
    drain,
    h1_norm,
    lq_norm,
    mass,
    put_rows,
    time_grid,
)
from .linear_solver import (
    SingularSystem,
    check_energy_balance,
    run_linear,
    state_energy,
    static_solve,
)
from .loading import BoundLoading
# the sweep looks rescale up here, at call time, so that the benchmark's
# traced run, which patches it at this module, books the sweep's calls
from .nonlinear_solver import (
    check_dissipation_inequality,
    moser_exponents,
    rescale,
    run_nonlinear,
)

__all__ = [
    "SweepReport",
    "eps_sweep",
    "moser_exponents",
    "moser_rows",
    "long_time_decay",
    "DecayResult",
]

ERROR_COLUMNS = ("err_u_h1", "err_u_l2", "err_rho_l2", "err_flux_l2")

AUDIT_COLUMNS = (
    "u_linf_h1",
    "udot_grad_l2",
    "d2u_scaled_lp",
    "llogl_over_eps2",
    "rho_linf_l2",
    "c_linf_linf",
    "flux_l2",
)


@dataclass
class SweepReport:
    """Error and audit table of a small-load sweep, plus Richardson orders
    between consecutive eps values and per-run structure-check values."""

    eps: tuple
    errors: dict
    orders: dict
    audit: dict
    audit_ratios: dict
    dissipation_violations: tuple
    energy_balance_residual: float

    def rows(self):
        """One dict per eps, keyed by the ``sweep.csv`` column names."""
        for i, e in enumerate(self.eps):
            row = {"eps": e}
            for name in ERROR_COLUMNS:
                row[name] = self.errors[name][i]
            for name in AUDIT_COLUMNS:
                row[name] = self.audit[name][i]
            row["dissipation_violation"] = self.dissipation_violations[i]
            yield row


def eps_sweep(
    params: MaterialParams,
    grid: Grid1D,
    loading: BoundLoading,
    eps_list: Sequence[float],
    tau: float,
    T: float,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tol: float = 5e-11,
) -> SweepReport:
    """Run the finite-strain system at every eps and the linear system
    once, and tabulate the gap in max-in-time H1/L2 norms for u, the
    max-in-time L2 norm for rho, and the space-time L2 norm for the flux,
    together with Richardson orders and the uniform-boundedness audit.

    The sweep uses the zero-flux boundary regime.  The finite-strain
    members advance in lockstep through one ``run_nonlinear`` call, and
    the linear run in the same row blocks; each block is rescaled and
    compared as it is made.  A solver failure aborts with the failing eps
    attached, the first failed member in the given order; a failure of
    the linear run is raised as it is.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 3 or np.any(np.diff(eps_list) >= 0.0):
        raise ValueError("eps list must be strictly decreasing with at least 3 entries")
    bc = BCSpec(zero_flux=True)
    tensors = linearize(params)
    linear = run_linear(grid, tensors, loading, u0=u0, rho0=rho0, tau=tau, T=T)
    n_rows = len(time_grid(T, tau))
    terms = {}

    def consume(rows, W, C):
        _, lin_u, lin_rho = next(linear)
        states, steps = _per_row_terms(params, grid, tau, tensors, eps_list, rows, W, C, lin_u, lin_rho)
        put_rows(terms, states, rows.start, n_rows)
        put_rows(terms, steps, rows.start, n_rows - 1)

    try:
        ledgers = run_nonlinear(
            params, grid, loading, bc, tau=tau, T=T, eps=eps_list, u0=u0, rho0=rho0, tol=tol, consume=consume
        )
    except SingularSystem:  # the linear reference's, from consume
        raise
    except Exception as err:
        drain(linear)  # a failure of the linear reference still comes first
        # an error raised before any member ran is the first member's
        eps = getattr(err, "eps", eps_list[0])
        raise RuntimeError(f"sweep member eps = {eps} failed: {err}") from err
    linear_ledger = drain(linear)
    violations = []
    errors = {name: [] for name in ERROR_COLUMNS}
    audit = {name: [] for name in AUDIT_COLUMNS}
    for i, (eps, ledger) in enumerate(zip(eps_list, ledgers)):
        violations.append(check_dissipation_inequality(ledger))
        member = {name: col for (j, name), col in terms.items() if j == i}
        for name, value in _member_columns(params.p, eps, ledger, member).items():
            (errors if name in errors else audit)[name].append(value)
    orders = {}
    for name in ERROR_COLUMNS:
        e = np.asarray(errors[name])
        with np.errstate(divide="ignore", invalid="ignore"):
            orders[name] = tuple(
                float(np.log(e[i] / e[i + 1]) / np.log(eps_list[i] / eps_list[i + 1]))
                if e[i] > 0 and e[i + 1] > 0 else float("nan")
                for i in range(len(eps_list) - 1)
            )
    ratios = {name: _max_min_ratio(audit[name]) for name in AUDIT_COLUMNS}
    return SweepReport(
        eps=eps_list,
        errors={k: tuple(v) for k, v in errors.items()},
        orders=orders,
        audit={k: tuple(v) for k, v in audit.items()},
        audit_ratios=ratios,
        dissipation_violations=tuple(violations),
        energy_balance_residual=check_energy_balance(linear_ledger),
    )


def _max_min_ratio(column) -> float:
    v = np.asarray(column, dtype=float)
    if np.all(v == 0.0):
        return 1.0
    lo = float(np.min(v))
    if lo <= 0.0:
        return float("inf")
    return float(np.max(v)) / lo


def _per_row_terms(params, grid, tau, tensors, eps_list, rows, W, C, lin_u, lin_rho):
    """The per-row and the per-step terms of the members' error and audit
    columns, keyed by (member, term), on a block: the states ``W``, ``C``,
    ``lin_u`` and ``lin_rho`` at the rows of the slice ``rows`` and at the
    next row if there is one."""
    n = rows.stop - rows.start
    lin_u, lin_rho = lin_u[:n], lin_rho[:n]
    t = tensors
    # grad mu_star = K u'' + L rho', discretized with the same stencils
    # the finite-strain rescaling uses (centered cell differences for
    # u'', nodal differences for rho'), so the sweep errors measure
    # the eps-gap and not a stencil mismatch
    lin_flux = t.M_eq * (t.K * cell_derivative(grid, gradient(grid, lin_u)) + t.L * gradient(grid, lin_rho))
    states, steps = {}, {}
    for i, eps in enumerate(eps_list):
        rs = rescale(params, grid, W[i], C[i], eps)
        u, flux = rs["u"], rs["flux"]
        du = u[:n] - lin_u
        rate = (u[1:] - u[:-1]) / tau  # row j is the step from j to j + 1
        states.update({
            (i, "err_u_h1"): h1_norm(grid, du),
            (i, "err_u_l2"): lq_norm(grid, du, 2),
            (i, "err_rho_l2"): lq_norm(grid, rs["rho"][:n] - lin_rho, 2),
            (i, "err_flux_sq"): tau * cell_l2_norm(grid, flux[:n] - lin_flux) ** 2,
            (i, "u_h1"): h1_norm(grid, u[:n]),
        })
        steps.update({
            (i, "udot_sq"): tau * cell_l2_norm(grid, gradient(grid, rate)) ** 2,
            (i, "flux_sq"): tau * cell_l2_norm(grid, flux[1:]) ** 2,
        })
    return states, steps


def _member_columns(p: float, eps: float, ledger, terms: dict) -> dict:
    """A member's error columns (max-in-time H1/L2 norms of the u and rho
    gaps, and the space-time L2 norm of the flux gap over the steps after
    the initial state) and audit columns; ``p`` is the hyperstress
    exponent."""
    return {
        "err_u_h1": float(np.max(terms["err_u_h1"])),
        "err_u_l2": float(np.max(terms["err_u_l2"])),
        "err_rho_l2": float(np.max(terms["err_rho_l2"])),
        "err_flux_l2": float(np.sqrt(np.sum(terms["err_flux_sq"][1:]))),
        "u_linf_h1": float(np.max(terms["u_h1"])),
        "udot_grad_l2": float(np.sqrt(np.sum(terms["udot_sq"]))),
        "d2u_scaled_lp": eps ** (1.0 - 2.0 / p) * float(np.max(ledger.column("lp_d2u"))),
        "llogl_over_eps2": float(np.max(ledger.column("llogl"))) / eps ** 2,
        "rho_linf_l2": float(np.max(ledger.column("l2_rho"))),
        "c_linf_linf": float(np.max(ledger.column("linf_c"))),
        "flux_l2": float(np.sqrt(np.sum(terms["flux_sq"]))),
    }


# ---------------------------------------------------------------------------
# norm-ladder diagnostic
# ---------------------------------------------------------------------------

def moser_rows(grid: Grid1D, qs: tuple, c: np.ndarray, sups: np.ndarray) -> None:
    """Raise ``sups`` (zeros before the first rows) to the largest L^q norm
    among the rows ``c`` of a trajectory, for each q of ``qs`` (the
    ``moser_exponents`` ladder) and then q = inf: the ladder of sup-in-time
    norms of the rows so far, and their sup-norm.

    On the unit domain the ladder is nondecreasing in q and bounded by the
    sup-norm.  Fed a run's concentration block by block, it gives the
    run's ladder, and the gap of its last entry to the sup-norm."""
    np.maximum(sups, [np.max(lq_norm(grid, c, q)) for q in qs + (np.inf,)], out=sups)


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

@dataclass
class DecayResult:
    times: np.ndarray
    curve: np.ndarray
    final_ratio: float
    max_increase: float


def long_time_decay(
    grid: Grid1D,
    tensors,
    f_nodes: np.ndarray,
    g_value: float,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tau: float = 0.02,
    T: float = 50.0,
) -> DecayResult:
    """Distance (in the homogeneous quadratic energy) between the evolving
    linear state under constant loading and the static equilibrium with
    the same loading and total mass; the curve is nonincreasing and decays
    to the round-off floor.  It is made a row block at a time as the
    linear run makes its rows."""
    loading = BoundLoading.separable(lambda t: 1.0, f_nodes, lambda t: g_value)
    rho_init = np.zeros(grid.n_nodes) if rho0 is None else np.asarray(rho0, dtype=float)
    blocks = run_linear(grid, tensors, loading, u0=u0, rho0=rho_init, tau=tau, T=T)
    v, xi, _, _ = static_solve(grid, tensors, f_nodes, g_value, mass(grid, rho_init))
    times = time_grid(T, tau)
    curve = np.empty(len(times))

    def consume(rows, u, rho):
        curve[rows] = state_energy(grid, tensors, u[:rows.stop - rows.start] - v, rho[:rows.stop - rows.start] - xi)

    drain(blocks, consume)
    increases = np.diff(curve)
    max_increase = float(np.max(increases)) if len(increases) else 0.0
    final_ratio = float(curve[-1] / curve[0]) if curve[0] > 0.0 else 0.0
    return DecayResult(times, curve, final_ratio, max_increase)
