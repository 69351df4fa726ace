"""Desk-scale experiments: the small-load limit sweep, scaling audits,
the norm-ladder diagnostic, long-time decay and uniqueness.

The sweep runs the finite-strain solver at a decreasing list of load
scales eps with loading eps * (f_star, g_star) and initial data
(id + eps u0, c_eq + eps rho0), rescales each trajectory a row block at a
time, and compares against a single linear run on the same grid and time
step, so the error columns measure the eps-gap alone.
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
    h1_norm,
    lq_norm,
    mass,
    map_row_blocks,
)
from .linear_solver import (
    LinearRun,
    check_energy_balance,
    run_linear,
    state_energy,
    static_solve,
)
from .loading import BoundLoading
# rescale is unused here but kept importable as experiments.rescale: the
# benchmark's traced run patches it at every module that looks it up
from .nonlinear_solver import (  # noqa: F401
    NonlinearRun,
    _rescaled_rows,
    check_dissipation_inequality,
    moser_exponents,
    rescale,
    run_nonlinear,
)

__all__ = [
    "SweepReport",
    "eps_sweep",
    "moser_exponents",
    "moser_diagnostic",
    "long_time_decay",
    "uniqueness_test",
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
    members advance in lockstep through one ``run_nonlinear`` call; a
    solver failure aborts with the failing eps attached, the first failed
    member in the given order.
    """
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < 3 or np.any(np.diff(eps_list) >= 0.0):
        raise ValueError("eps list must be strictly decreasing with at least 3 entries")
    bc = BCSpec(zero_flux=True)
    tensors = linearize(params)
    linear = run_linear(grid, tensors, loading, u0=u0, rho0=rho0, tau=tau, T=T)
    try:
        runs = run_nonlinear(
            params, grid, loading, bc, tau=tau, T=T, eps=eps_list, u0=u0, rho0=rho0, tol=tol
        )
    except Exception as err:
        # an error raised before any member ran is the first member's
        eps = getattr(err, "eps", eps_list[0])
        raise RuntimeError(f"sweep member eps = {eps} failed: {err}") from err
    violations = []
    errors = {name: [] for name in ERROR_COLUMNS}
    audit = {name: [] for name in AUDIT_COLUMNS}
    for run, terms in zip(runs, _per_row_terms(grid, tau, linear, runs)):
        violations.append(check_dissipation_inequality(run.ledger))
        for name, value in _member_columns(run, terms).items():
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
        energy_balance_residual=check_energy_balance(linear.ledger),
    )


def _max_min_ratio(column) -> float:
    v = np.asarray(column, dtype=float)
    if np.all(v == 0.0):
        return 1.0
    lo = float(np.min(v))
    if lo <= 0.0:
        return float("inf")
    return float(np.max(v)) / lo


def _per_row_terms(grid, tau, linear: LinearRun, runs) -> list:
    """For each member, the per-row and per-step terms of its error and
    audit columns, from one pass over row blocks: the rescaled fields and
    the linear flux exist a block at a time.  A block holds its rows and
    the next one, for the rates of its steps."""
    n_rows, t = linear.n_steps + 1, linear.tensors

    def block(rows):
        n = rows.stop - rows.start
        lin_u, lin_rho = linear.u[rows], linear.rho[rows]
        # grad mu_star = K u'' + L rho', discretized with the same stencils
        # the finite-strain rescaling uses (centered cell differences for
        # u'', nodal differences for rho'), so the sweep errors measure
        # the eps-gap and not a stencil mismatch
        lin_flux = t.M_eq * (t.K * cell_derivative(grid, gradient(grid, lin_u)) + t.L * gradient(grid, lin_rho))
        out = {}
        for i, run in enumerate(runs):
            rs = _rescaled_rows(run, slice(rows.start, min(rows.stop + 1, n_rows)), run.eps)
            u, flux = rs["u"], rs["flux"]
            du = u[:n] - lin_u
            rate = (u[1:] - u[:-1]) / tau  # row j is the step from j to j + 1
            out.update({
                (i, "err_u_h1"): h1_norm(grid, du),
                (i, "err_u_l2"): lq_norm(grid, du, 2),
                (i, "err_rho_l2"): lq_norm(grid, rs["rho"][:n] - lin_rho, 2),
                (i, "err_flux_sq"): tau * cell_l2_norm(grid, flux[:n] - lin_flux) ** 2,
                (i, "u_h1"): h1_norm(grid, u[:n]),
                (i, "udot_sq"): tau * cell_l2_norm(grid, gradient(grid, rate)) ** 2,
                (i, "flux_sq"): tau * cell_l2_norm(grid, flux[1:]) ** 2,
            })
        return out

    terms = map_row_blocks(n_rows, grid.n_nodes, block)
    return [{name: col for (j, name), col in terms.items() if j == i} for i in range(len(runs))]


def _member_columns(run: NonlinearRun, terms: dict) -> dict:
    """A member's error columns (max-in-time H1/L2 norms of the u and rho
    gaps, and the space-time L2 norm of the flux gap over the steps after
    the initial state) and audit columns."""
    params, eps, ledger = run.params, run.eps, run.ledger
    return {
        "err_u_h1": float(np.max(terms["err_u_h1"])),
        "err_u_l2": float(np.max(terms["err_u_l2"])),
        "err_rho_l2": float(np.max(terms["err_rho_l2"])),
        "err_flux_l2": float(np.sqrt(np.sum(terms["err_flux_sq"][1:]))),
        "u_linf_h1": float(np.max(terms["u_h1"])),
        "udot_grad_l2": float(np.sqrt(np.sum(terms["udot_sq"]))),
        "d2u_scaled_lp": eps ** (1.0 - 2.0 / params.p) * float(np.max(ledger.column("lp_d2u"))),
        "llogl_over_eps2": float(np.max(ledger.column("llogl"))) / eps ** 2,
        "rho_linf_l2": float(np.max(ledger.column("l2_rho"))),
        "c_linf_linf": float(np.max(ledger.column("linf_c"))),
        "flux_l2": float(np.sqrt(np.sum(terms["flux_sq"]))),
    }


# ---------------------------------------------------------------------------
# norm-ladder diagnostic
# ---------------------------------------------------------------------------

def moser_diagnostic(
    run: NonlinearRun,
    m: Optional[float] = None,
    N: int = 8,
    case: str = "I",
    r: float = 0.0,
):
    """Ladder of sup-in-time L^{q_n} norms of the concentration.

    On the unit domain the sequence is nondecreasing in n and bounded by
    the recorded sup-norm; the returned gap is that bound minus the last
    entry.  Returns (q_list, norm_list, gap).
    """
    m = run.params.m if m is None else m
    grid = run.grid
    qs = moser_exponents(m, N, case=case, r=r)

    def block(rows):
        c = run.concentration[rows]
        return {q: lq_norm(grid, c, q) for q in qs + (np.inf,)}

    sups = {q: float(np.max(v)) for q, v in map_row_blocks(run.n_steps + 1, grid.n_nodes, block).items()}
    norms = [sups[q] for q in qs]
    sup_norm = sups[np.inf]
    gap = sup_norm - norms[-1]
    return qs, tuple(norms), gap


# ---------------------------------------------------------------------------
# decay and uniqueness
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
    to the round-off floor."""
    loading = BoundLoading.separable(lambda t: 1.0, f_nodes, lambda t: g_value)
    rho_init = np.zeros(grid.n_nodes) if rho0 is None else np.asarray(rho0, dtype=float)
    run = run_linear(grid, tensors, loading, u0=u0, rho0=rho_init, tau=tau, T=T)
    v, xi, _, _ = static_solve(grid, tensors, f_nodes, g_value, mass(grid, rho_init))
    curve = map_row_blocks(
        run.n_steps + 1,
        grid.n_nodes,
        lambda rows: {"curve": state_energy(grid, tensors, run.u[rows] - v, run.rho[rows] - xi)},
    )["curve"]
    increases = np.diff(curve)
    max_increase = float(np.max(increases)) if len(increases) else 0.0
    final_ratio = float(curve[-1] / curve[0]) if curve[0] > 0.0 else 0.0
    return DecayResult(run.times, curve, final_ratio, max_increase)


def uniqueness_test(
    grid: Grid1D,
    tensors,
    loading: BoundLoading,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tau: float = 1e-3,
    T: float = 0.5,
    seed: int = 7,
) -> float:
    """Maximum state discrepancy between two independent solves of the
    same data: banded LU in the interleaved dof order, and dense LU under
    a seeded random permutation; bounded by direct-solver precision."""
    a = run_linear(grid, tensors, loading, u0=u0, rho0=rho0, tau=tau, T=T)
    b = run_linear(grid, tensors, loading, u0=u0, rho0=rho0, tau=tau, T=T, seed=seed)
    du = float(np.max(np.abs(a.u - b.u)))
    drho = float(np.max(np.abs(a.rho - b.rho)))
    return max(du, drho)
