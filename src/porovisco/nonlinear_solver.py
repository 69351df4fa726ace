"""Staggered time-discrete solver for the finite-strain system.

Each step first minimizes the incremental mechanical functional

    E_inc(chi) = int Phi(chi', c_prev) + H(chi'') dx
                 + tau * int zeta_hat(C_prev, (C(chi) - C_prev)/tau, c_prev) dx
                 - <ell(t + tau), chi>

over deformations with chi(0) = 0 (Newton with energy backtracking that
rejects orientation-losing iterates), then advances the concentration by
one implicit Euler step of the degenerate diffusion equation (damped
Newton with positivity rejection).  Because the mechanical update is a
genuine minimization and the free energy is convex in c, the produced
energy ledger satisfies the discrete energy-dissipation inequality

    E(t) + sum tau * (mobility dissipation + viscous dissipation
                      + boundary flux work) + sum <d ell, u>  <=  E(0)

up to solver tolerances; ``check_dissipation_inequality`` measures the
worst violation.  All ledger entries are stored in the rescaled units in
which the loading is eps * (f_star, g_star) and u = (chi - id)/eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from . import constitutive as mat
from .constitutive import MaterialParams
from .discretization import (
    BCSpec,
    Grid1D,
    cell_average,
    cell_derivative,
    gradient,
    h1_norm,
    linf_norm,
    llogl_deviation,
    lq_norm,
    mass,
    node_average,
    node_weights,
    map_row_blocks,
    second_derivative,
)
from .loading import BoundLoading

__all__ = [
    "SolverError",
    "NoConvergence",
    "OrientationLoss",
    "PositivityLoss",
    "EnergyLedger",
    "NonlinearState",
    "NonlinearRun",
    "RescaledTrajectory",
    "mechanical_step",
    "diffusion_step",
    "nodal_chemical_potential",
    "run_nonlinear",
    "check_dissipation_inequality",
    "rescale",
]

TIKHONOV_SHIFT = 1e-10  # regularizes the degenerate hyperstress Hessian at G = 0


class SolverError(RuntimeError):
    """Base class for step failures; carries the failing time if known."""

    def __init__(self, message: str, time: Optional[float] = None):
        super().__init__(message if time is None else f"{message} (t = {time:.9g})")
        self.time = time


class NoConvergence(SolverError):
    pass


class OrientationLoss(SolverError):
    pass


class PositivityLoss(SolverError):
    pass


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------

class EnergyLedger:
    """Per-step time series feeding the structure checks, built from whole
    columns.

    Core columns: t, energy, diss_mech, diss_diff, flux_boundary,
    load_power (dissipation columns are rates, load_power is the discrete
    loading-rate pairing).  Arbitrary extra columns (norms, residuals,
    cascade values) ride along after them.  A core column left out is
    empty, so it only passes in an empty ledger.
    """

    CORE = ("t", "energy", "diss_mech", "diss_diff", "flux_boundary", "load_power")

    def __init__(self, tau: float, columns: Optional[dict] = None):
        self.tau = float(tau)
        cols = {name: np.empty(0) for name in self.CORE}
        for name, values in (columns or {}).items():
            cols[name] = np.array(values, dtype=float)
        n_rows = len(cols["t"])
        for name, col in cols.items():
            if col.shape != (n_rows,):
                raise ValueError(f"ledger column {name} has shape {col.shape}, expected ({n_rows},)")
        for name in ("diss_mech", "diss_diff"):
            if np.any(cols[name] < -1e-12):
                raise ValueError(f"dissipation entry {name} is negative: {np.min(cols[name])}")
        for name, col in cols.items():
            if not np.all(np.isfinite(col)):
                raise ValueError(f"non-finite ledger entry {name}")
        self._cols = cols

    @property
    def column_names(self) -> tuple:
        return tuple(self._cols.keys())

    def __len__(self) -> int:
        return len(self._cols["t"])

    def column(self, name: str) -> np.ndarray:
        """A copy of the column: changing it leaves the ledger as it is."""
        return np.array(self._cols[name], dtype=float)


# ---------------------------------------------------------------------------
# states and runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearState:
    """Deformation (stored as displacement w = chi - id) and concentration
    at one time instant; chi(0) = 0 in the shifted convention."""

    grid: Grid1D
    displacement: np.ndarray
    c: np.ndarray
    t: float

    @property
    def chi(self) -> np.ndarray:
        return self.grid.nodes + self.displacement

    @property
    def chi_prime(self) -> np.ndarray:
        return 1.0 + gradient(self.grid, self.displacement)


@dataclass
class NonlinearRun:
    """Full trajectory of a staggered run plus its energy ledger."""

    params: MaterialParams
    grid: Grid1D
    eps: float
    times: np.ndarray
    displacement: np.ndarray  # (steps+1, nodes), chi - id
    concentration: np.ndarray  # (steps+1, nodes)
    ledger: EnergyLedger

    def state(self, k: int) -> NonlinearState:
        return NonlinearState(self.grid, self.displacement[k], self.concentration[k], float(self.times[k]))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class RescaledTrajectory:
    """Small-strain variables derived from a finite-strain trajectory:
    u = (chi - id)/eps, rho = (c - c_eq)/eps, mu_star = mu/eps nodal, and
    the cellwise flux M(grad chi, c) grad mu_star."""

    times: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    mu_star: np.ndarray
    flux: np.ndarray


# ---------------------------------------------------------------------------
# mechanical step
# ---------------------------------------------------------------------------

def _dual_norm(r: np.ndarray, weights: np.ndarray) -> float:
    # L2 norm of the residual density (residual entries carry quadrature
    # weights, so divide them out once).
    return float(np.sqrt(np.sum(r ** 2 / weights)))


def _mech_energy(params, grid, w, c_hat, C_prev, tau, f_nodes, g_value, weights):
    """Incremental mechanical energy and the sum of the magnitudes of its
    contributions (the round-off resolution of the value)."""
    F = 1.0 + gradient(grid, w)
    if np.min(F) <= 0.0:
        return np.inf, np.inf
    h = grid.h
    G = second_derivative(grid, w)
    phi = h * float(np.sum(mat.free_energy(params, F, c_hat)))
    hyp = h * float(np.sum(mat.hyperstress(params, G[1:-1])[0]))
    cdot = (F ** 2 - C_prev) / tau
    visc = tau * h * float(np.sum(0.5 * params.D_tilde * cdot ** 2))
    load = float(np.sum(weights * f_nodes * w)) + g_value * w[-1]
    value = phi + hyp + visc - load
    scale = abs(phi) + abs(hyp) + abs(visc) + abs(load)
    return value, scale


def _mech_residual(params, grid, w, c_hat, C_prev, tau, f_nodes, g_value, weights):
    h = grid.h
    F = 1.0 + gradient(grid, w)
    G = second_derivative(grid, w)
    cdot = (F ** 2 - C_prev) / tau
    sigma = mat.stress_elastic(params, F, c_hat) + 2.0 * F * params.D_tilde * cdot
    hy = mat.hyperstress(params, G)[1]
    hy[0] = 0.0
    hy[-1] = 0.0
    n = grid.n_cells
    r = sigma - np.append(sigma[1:], 0.0)
    hpad = np.append(hy, 0.0)
    r += (hpad[0:n] - 2.0 * hpad[1 : n + 1] + hpad[2 : n + 2]) / h
    r -= weights[1:] * f_nodes[1:]
    r[-1] -= g_value
    return r


def _mech_hessian(params, grid, w, c_hat, C_prev, tau):
    """Band ab[2 + i - j, j] = H[i, j] of the symmetric pentadiagonal
    Hessian, in the (5, n) storage of ``solve_banded((2, 2), ...)``."""
    h = grid.h
    n = grid.n_cells
    F = 1.0 + gradient(grid, w)
    G = second_derivative(grid, w)
    cdot = (F ** 2 - C_prev) / tau
    ff, _, _ = mat.free_energy_hessian(params, F, c_hat)
    a = ff + 2.0 * params.D_tilde * cdot + 4.0 * params.D_tilde * F ** 2 / tau
    # hyperstress block (pentadiagonal second-difference stencil)
    b = mat.hyperstress_dG(params, G) / h ** 3
    b[0] = 0.0
    b[-1] = 0.0
    bp = np.append(b, 0.0)  # bp[i] = b_i for i <= n, bp[n+1] = 0
    ab = np.zeros((5, n))
    ab[2] = np.append(a[:-1] + a[1:], a[-1]) / h
    ab[2] += bp[0:n] + 4.0 * bp[1 : n + 1] + bp[2 : n + 2]
    ab[2] += TIKHONOV_SHIFT
    ab[1, 1:] = -a[1:] / h - 2.0 * (bp[1:n] + bp[2 : n + 1])
    ab[0, 2:] = bp[2:n]
    ab[3, :-1] = ab[1, 1:]
    ab[4, :-2] = ab[0, 2:]
    return ab


def mechanical_step(
    params: MaterialParams,
    grid: Grid1D,
    w_prev: np.ndarray,
    c_prev: np.ndarray,
    tau: float,
    f_nodes: np.ndarray,
    g_value: float,
    C_prev: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_newton: int = 50,
    max_backtrack: int = 40,
):
    """Minimize the incremental mechanical functional at frozen
    concentration.

    Returns the new displacement together with an info dict carrying the
    achieved residual dual norm, iteration count, and the incremental
    energies before/after (the descent certificate).  Raises
    :class:`OrientationLoss` when no backtracking step keeps chi' > 0 and
    :class:`NoConvergence` when the iteration caps are exhausted.
    """
    weights = node_weights(grid)
    c_hat = cell_average(c_prev)
    if C_prev is None:
        C_prev = (1.0 + gradient(grid, w_prev)) ** 2

    def energy(wv):
        return _mech_energy(params, grid, wv, c_hat, C_prev, tau, f_nodes, g_value, weights)

    def residual(wv):
        return _mech_residual(params, grid, wv, c_hat, C_prev, tau, f_nodes, g_value, weights)

    w = np.array(w_prev, dtype=float)
    e_start, scale = energy(w)
    if not np.isfinite(e_start):
        raise OrientationLoss("previous state is not orientation-admissible")
    e_cur = e_start
    r = residual(w)
    rn = _dual_norm(r, weights[1:])
    iters = 0
    while rn > tol:
        if iters >= max_newton:
            raise NoConvergence(f"mechanical Newton exceeded {max_newton} iterations (residual {rn:.3e})")
        H = _mech_hessian(params, grid, w, c_hat, C_prev, tau)
        scaled_gradient = -r / max(float(np.max(np.abs(H[2]))), 1.0)
        try:
            delta = solve_banded((2, 2), H, -r, check_finite=False)
        except LinAlgError:
            delta = scaled_gradient
        accepted = False
        only_orientation = True
        for direction in (delta, scaled_gradient):
            s = 1.0
            for _ in range(max_backtrack + 1):
                cand = w.copy()
                cand[1:] += s * direction
                if np.min(1.0 + gradient(grid, cand)) <= 0.0:
                    s *= 0.5
                    continue
                e_new, scale_new = energy(cand)
                if not np.isfinite(e_new):
                    only_orientation = False
                    s *= 0.5
                    continue
                # clear descent accepts outright.  Near the minimum the
                # evaluated energy and the evaluated residual disagree at
                # round-off level, so the final Newton polish may raise
                # the energy by ~1e-18; admit such increases only under a
                # strong residual contraction and a tiny absolute budget
                # (the descent certificate degrades by at most that much
                # per step).
                noise = 1024.0 * np.finfo(float).eps * max(scale, scale_new)
                if e_new <= e_cur - noise:
                    accepted = True
                    break
                if e_new <= e_cur + noise + 1e-15:
                    rn_cand = _dual_norm(residual(cand), weights[1:])
                    if rn_cand <= 0.5 * rn:
                        accepted = True
                        break
                only_orientation = False
                s *= 0.5
            if accepted:
                break
        if not accepted:
            if only_orientation:
                raise OrientationLoss("no backtracking step preserves chi' > 0")
            raise NoConvergence("mechanical line search failed to descend")
        w = cand
        e_cur = min(e_new, e_cur)
        scale = scale_new
        r = residual(w)
        rn = _dual_norm(r, weights[1:])
        iters += 1
    return w, {"residual": rn, "iterations": iters, "energy": e_cur, "energy_start": e_start}


# ---------------------------------------------------------------------------
# diffusion step
# ---------------------------------------------------------------------------

def nodal_chemical_potential(params: MaterialParams, grid: Grid1D, F_cells: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Discrete chemical potential: the gradient of the quadrature energy
    with respect to the nodal concentrations, divided by the node weights.
    Interior nodes average the two adjacent cell values.  Broadcasts over
    leading (row) axes."""
    return node_average(mat.chemical_potential(params, F_cells, cell_average(c)))


def _diff_residual(params, grid, F_cells, c, c_prev, tau, bc, t, weights):
    mu = nodal_chemical_potential(params, grid, F_cells, c)
    mob = mat.mobility(params, F_cells, cell_average(c))
    q = mob * (mu[1:] - mu[:-1]) / grid.h
    qpad_lo = np.concatenate([[0.0], q])
    qpad_hi = np.concatenate([q, [0.0]])
    r = weights * (c - c_prev) + tau * (qpad_lo - qpad_hi)
    mu_ext = bc.mu_ext_value(t)
    r[0] += tau * bc.kappa_left * (mu[0] - mu_ext)
    r[-1] += tau * bc.kappa_right * (mu[-1] - mu_ext)
    return r, mu


def _diff_jacobian(params, grid, F_cells, c, tau, bc, weights):
    """Band ab[2 + i - j, j] = J[i, j] of the pentadiagonal Jacobian, in
    the (5, n + 1) storage of ``solve_banded((2, 2), ...)``."""
    n = grid.n_cells
    h = grid.h
    c_hat = cell_average(c)
    mu = nodal_chemical_potential(params, grid, F_cells, c)
    m = mat.mobility(params, F_cells, c_hat) / h
    s = 0.5 * mat.mobility_dc(params, F_cells, c_hat) * ((mu[1:] - mu[:-1]) / h)
    # tridiagonal d mu / d c: diagonal dd, and per cell k the entries
    # lower[k] = d mu_{k+1} / d c_k and upper[k] = d mu_k / d c_{k+1}
    _, _, cc = mat.free_energy_hessian(params, F_cells, c_hat)
    dd = np.concatenate([[0.5 * cc[0]], 0.25 * (cc[:-1] + cc[1:]), [0.5 * cc[-1]]])
    lower = np.append(0.25 * cc[:-1], 0.5 * cc[-1])
    upper = np.append(0.5 * cc[0], 0.25 * cc[1:])
    # cell flux q_k depends on c_{k-1} .. c_{k+2}; tau * d q_k / d c_{k+d}
    qm1 = tau * (m[1:] * -lower[:-1])
    q0 = tau * (m * (lower - dd[:-1]) + s)
    q1 = tau * (m * (dd[1:] - upper) + s)
    q2 = tau * (m[:-1] * upper[1:])
    ab = np.zeros((5, n + 1))
    ab[0, 2:] = -q2
    ab[1, 1:] = np.append(0.0, q2) - q1
    ab[2] = weights + np.append(0.0, q1) - np.append(q0, 0.0)
    ab[3, :-1] = q0 - np.append(qm1, 0.0)
    ab[4, :-2] = qm1
    # Robin rows
    ab[2, 0] += tau * bc.kappa_left * dd[0]
    ab[1, 1] += tau * bc.kappa_left * upper[0]
    ab[2, -1] += tau * bc.kappa_right * dd[-1]
    ab[3, -2] += tau * bc.kappa_right * lower[-1]
    return ab


def diffusion_step(
    params: MaterialParams,
    grid: Grid1D,
    F_cells: np.ndarray,
    c_prev: np.ndarray,
    tau: float,
    bc: BCSpec,
    t: float,
    tol: float = 1e-10,
    max_newton: int = 50,
    max_backtrack: int = 40,
):
    """One implicit Euler step of the degenerate diffusion equation at
    frozen deformation, solved by damped Newton.

    Damping rejects any iterate with min c <= 0.  With kappa = 0 the flux
    form telescopes, so the discrete mass is conserved to the residual
    tolerance.  Raises :class:`PositivityLoss` when no damping preserves
    positivity and :class:`NoConvergence` on iteration-cap exhaustion.
    """
    if np.min(c_prev) <= 0.0:
        raise PositivityLoss("implicit diffusion step requires strictly positive concentration")
    weights = node_weights(grid)
    c = np.array(c_prev, dtype=float)
    r, mu = _diff_residual(params, grid, F_cells, c, c_prev, tau, bc, t, weights)
    rn = _dual_norm(r, weights)
    iters = 0
    while rn > tol:
        if iters >= max_newton:
            raise NoConvergence(f"diffusion Newton exceeded {max_newton} iterations (residual {rn:.3e})")
        J = _diff_jacobian(params, grid, F_cells, c, tau, bc, weights)
        try:
            delta = solve_banded((2, 2), J, -r, check_finite=False)
        except LinAlgError:
            delta = -r / max(float(np.max(np.abs(J[2]))), 1e-30)
        s = 1.0
        accepted = False
        only_positivity = True
        for _ in range(max_backtrack + 1):
            cand = c + s * delta
            if np.min(cand) <= 0.0:
                s *= 0.5
                continue
            r_new, mu_new = _diff_residual(params, grid, F_cells, cand, c_prev, tau, bc, t, weights)
            rn_new = _dual_norm(r_new, weights)
            if rn_new < rn:
                accepted = True
                break
            only_positivity = False
            s *= 0.5
        if not accepted:
            if only_positivity:
                raise PositivityLoss("no damping preserves c > 0")
            raise NoConvergence("diffusion line search failed to reduce the residual")
        c, r, mu, rn = cand, r_new, mu_new, rn_new
        iters += 1
    return c, {"residual": rn, "iterations": iters, "mu": mu}


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------

def default_cascade(m: float, n_levels: int = 8) -> tuple:
    """Norm-exponent ladder recorded in the ledger: q_n = 2^n (2 - m) + m - 1
    (valid for 1 <= m < 2, the plain doubling ladder otherwise)."""
    if 1.0 <= m < 2.0:
        return tuple(2.0 ** nn * (2.0 - m) + m - 1.0 for nn in range(n_levels + 1))
    return tuple(float(2 ** nn) for nn in range(n_levels + 1))


def _ledger_columns(cascade_q: tuple) -> tuple:
    extras = (
        "mass",
        "residual_mech",
        "residual_diff",
        "linf_c",
        "min_c",
        "min_F",
        "llogl",
        "h1_u",
        "l2_rho",
        "lp_d2u",
        "mu_left",
        "mu_right",
    )
    return extras + tuple(f"lq_c_{q:g}" for q in cascade_q)


def run_nonlinear(
    params: MaterialParams,
    grid: Grid1D,
    loading: BoundLoading,
    bc: BCSpec,
    tau: float,
    T: float,
    eps: float,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_newton: int = 50,
    max_backtrack: int = 40,
    cascade_q: Optional[tuple] = None,
) -> NonlinearRun:
    """Alternate mechanical and diffusion steps over ceil(T / tau) steps.

    The loading is applied as eps * (f_star, g_star) and the initial data
    are chi0 = id + eps*u0, c0 = c_eq + eps*rho0.  The returned run stores
    every step (desk scale) and a filled energy ledger in rescaled units.
    Step failures propagate with the failing time attached.
    """
    if tau <= 0.0 or T <= 0.0 or eps <= 0.0:
        raise ValueError("tau, T and eps must be positive")
    nn = grid.n_nodes
    u0 = np.zeros(nn) if u0 is None else np.asarray(u0, dtype=float)
    rho0 = np.zeros(nn) if rho0 is None else np.asarray(rho0, dtype=float)
    if abs(u0[0]) > 1e-14:
        raise ValueError("initial displacement must vanish at the pinned end")
    w = eps * u0
    w[0] = 0.0
    c = params.c_eq + eps * rho0
    if np.min(1.0 + gradient(grid, w)) <= 0.0:
        raise OrientationLoss("(A8) initial deformation gradient must stay positive", time=0.0)
    if np.min(c) <= 0.0:
        raise PositivityLoss("initial concentration must be strictly positive", time=0.0)

    cascade = tuple(cascade_q) if cascade_q is not None else default_cascade(params.m)
    n_steps = int(np.ceil(T / tau - 1e-12))
    times = tau * np.arange(n_steps + 1)
    W = np.empty((n_steps + 1, nn))
    C = np.empty((n_steps + 1, nn))
    W[0] = w
    C[0] = c
    weights = node_weights(grid)
    ts = times.tolist()
    f_star = np.array([loading.f_star(t) for t in ts])
    g_star = np.array([loading.g_star(t) for t in ts])
    mu_ext = np.array([bc.mu_ext_value(t) for t in ts])
    # the ledger columns that need the step's solver data; the others are
    # functions of the stored trajectory and are filled after the loop
    diss_mech, load_power, residual_mech, residual_diff = np.zeros((4, n_steps + 1))

    C_prev_cells = (1.0 + gradient(grid, w)) ** 2
    for k in range(1, n_steps + 1):
        t = ts[k]
        try:
            w_new, minfo = mechanical_step(
                params, grid, w, c, tau, eps * f_star[k], eps * g_star[k],
                C_prev=C_prev_cells, tol=tol, max_newton=max_newton, max_backtrack=max_backtrack,
            )
            F_new = 1.0 + gradient(grid, w_new)
            c_new, dinfo = diffusion_step(
                params, grid, F_new, c, tau, bc, t,
                tol=tol, max_newton=max_newton, max_backtrack=max_backtrack,
            )
        except SolverError as err:
            raise type(err)(str(err), time=t) from err

        cdot_cells = (F_new ** 2 - C_prev_cells) / tau
        diss_mech[k] = grid.h * float(np.sum(0.5 * params.D_tilde * cdot_cells ** 2)) / eps ** 2
        load_power[k] = (
            float(np.sum(weights * (f_star[k] - f_star[k - 1]) * (w / eps)))
            + (g_star[k] - g_star[k - 1]) * (w[-1] / eps)
        ) / tau
        residual_mech[k] = minfo["residual"]
        residual_diff[k] = dinfo["residual"]
        w, c = w_new, c_new
        W[k] = w
        C[k] = c
        C_prev_cells = F_new ** 2

    def block(rows):
        return _nonlinear_columns(
            params, grid, bc, eps, W[rows], C[rows], f_star[rows], g_star[rows], mu_ext[rows], cascade
        )

    cols = map_row_blocks(n_steps + 1, block)
    # the mobility and boundary-flux rates belong to steps, not to the
    # initial state
    cols["diss_diff"][0] = 0.0
    cols["flux_boundary"][0] = 0.0
    cols.update(t=times, diss_mech=diss_mech, load_power=load_power,
                residual_mech=residual_mech, residual_diff=residual_diff)
    ledger = EnergyLedger(tau, {name: cols[name] for name in EnergyLedger.CORE + _ledger_columns(cascade)})
    return NonlinearRun(params, grid, eps, times, W, C, ledger)


def _nonlinear_columns(params, grid, bc, eps, w, c, f_star, g_star, mu_ext, cascade) -> dict:
    """The ledger columns that depend only on the state, for a (rows,
    nodes) block of a trajectory and the loading at the same steps."""
    h = grid.h
    weights = node_weights(grid)
    F = 1.0 + gradient(grid, w)
    c_hat = cell_average(c)
    G = second_derivative(grid, w)
    stored = h * np.sum(mat.free_energy(params, F, c_hat), axis=-1)
    stored += h * np.sum(mat.hyperstress(params, G[:, 1:-1])[0], axis=-1)
    u = w / eps
    load_pair = np.sum(weights * f_star * u, axis=-1) + g_star * u[:, -1]
    mu = nodal_chemical_potential(params, grid, F, c)
    mu_left, mu_right = mu[:, 0], mu[:, -1]
    cols = {
        "energy": stored / eps ** 2 - load_pair,
        "diss_diff": h * np.sum(mat.mobility(params, F, c_hat) * gradient(grid, mu) ** 2, axis=-1) / eps ** 2,
        "flux_boundary": (
            bc.kappa_left * (mu_left - mu_ext) * mu_left
            + bc.kappa_right * (mu_right - mu_ext) * mu_right
        ) / eps ** 2,
        "mass": mass(grid, c),
        "linf_c": linf_norm(grid, c),
        "min_c": np.min(c, axis=-1),
        "min_F": np.min(F, axis=-1),
        "llogl": llogl_deviation(grid, np.maximum(c, 0.0), params.c_eq),
        "h1_u": h1_norm(grid, u),
        "l2_rho": lq_norm(grid, (c - params.c_eq) / eps, 2),
        "lp_d2u": lq_norm(grid, G / eps, params.p),
        "mu_left": mu_left,
        "mu_right": mu_right,
    }
    for q in cascade:
        cols[f"lq_c_{q:g}"] = lq_norm(grid, c, q)
    return cols


# ---------------------------------------------------------------------------
# structure checks and rescaling
# ---------------------------------------------------------------------------

def check_dissipation_inequality(ledger: EnergyLedger) -> float:
    """Worst violation of the discrete energy-dissipation inequality:

        max over t of [ E(t) + sum_{s<=t} (tau * (diffusive + viscous
        + boundary-flux rates) + tau * loading power) - E(0) ].

    Nonpositive (up to solver tolerance) for a valid staggered run.
    """
    E = ledger.column("energy")
    terms = ledger.tau * (
        ledger.column("diss_mech")
        + ledger.column("diss_diff")
        + ledger.column("flux_boundary")
        + ledger.column("load_power")
    )
    terms[0] = 0.0
    expr = E - E[0] + np.cumsum(terms)
    return float(np.max(expr))


def rescale(run: NonlinearRun, eps: Optional[float] = None) -> RescaledTrajectory:
    """Rescaled displacement, concentration variation, chemical potential
    and mobility flux along a trajectory.

    The flux gradient uses the chain rule
        grad mu = d2_Fc Phi * D^2 chi + d2_cc Phi * grad c
    with centered cell differences for D^2 chi.
    """
    eps = run.eps if eps is None else eps
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    params, grid = run.params, run.grid

    def block(rows):
        w = run.displacement[rows]
        c = run.concentration[rows]
        F = 1.0 + gradient(grid, w)
        c_hat = cell_average(c)
        _, fc, cc = mat.free_energy_hessian(params, F, c_hat)
        grad_mu = fc * cell_derivative(grid, F) + cc * gradient(grid, c)
        return {
            "mu_star": nodal_chemical_potential(params, grid, F, c) / eps,
            "flux": mat.mobility(params, F, c_hat) * grad_mu / eps,
        }

    cols = map_row_blocks(run.n_steps + 1, block)
    u = run.displacement / eps
    rho = (run.concentration - params.c_eq) / eps
    return RescaledTrajectory(run.times.copy(), u, rho, cols["mu_star"], cols["flux"])


def direct_difference_flux(run: NonlinearRun, k: int) -> np.ndarray:
    """Cellwise flux from direct differences of the nodal discrete
    potential (oracle for the chain-rule flux)."""
    params, grid = run.params, run.grid
    w = run.displacement[k]
    c = run.concentration[k]
    F = 1.0 + gradient(grid, w)
    mu = nodal_chemical_potential(params, grid, F, c)
    return mat.mobility(params, F, cell_average(c)) * (mu[1:] - mu[:-1]) / grid.h / run.eps
