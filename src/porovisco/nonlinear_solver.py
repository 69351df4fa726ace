"""Staggered time-discrete solver for the finite-strain system.

Each step first minimizes the incremental mechanical functional

    E_inc(chi) = int Phi(chi', c_prev) + H(chi'') dx
                 + tau * int zeta_hat(C_prev, (C(chi) - C_prev)/tau, c_prev) dx
                 - <ell(t + tau), chi>

over deformations with chi(0) = 0 (Newton with energy backtracking that
rejects orientation-losing iterates, started from the extrapolation of the
last states where that lowers the energy), then advances the concentration by
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

import ctypes
from collections import namedtuple
from typing import Optional

import numpy as np

from . import constitutive as mat
from ._lapack import dgbsv, fortran_args
from .constitutive import MaterialParams
from .discretization import (
    BCSpec,
    Grid1D,
    _pad,
    cell_average,
    cell_derivative,
    divergence,
    gradient,
    h1_norm,
    llogl_deviation,
    load_pairing,
    lq_norm,
    mass,
    node_average,
    node_weights,
    block_rows,
    put_rows,
    second_derivative,
    time_grid,
)
from .loading import BoundLoading

__all__ = [
    "SolverError",
    "NoConvergence",
    "OrientationLoss",
    "PositivityLoss",
    "EnergyLedger",
    "mechanical_step",
    "diffusion_step",
    "nodal_chemical_potential",
    "run_nonlinear",
    "check_dissipation_inequality",
    "rescale",
    "moser_exponents",
    "norm_ladder",
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

    def balance(self, rate: np.ndarray) -> np.ndarray:
        """E(t) - E(0) plus the sum of tau * ``rate`` over the steps up to
        t, per row; row 0 is the initial state and takes no step."""
        terms = self.tau * rate
        terms[0] = 0.0
        return self._cols["energy"] - self._cols["energy"][0] + np.cumsum(terms)


# ---------------------------------------------------------------------------
# lockstep Newton machinery
# ---------------------------------------------------------------------------
#
# The step functions advance a batch of members: states are (members,
# nodes) arrays, and a 1-D state is the one-member batch.  Every pass of
# the Newton driver works on the whole batch under masks: each point
# evaluation and each derivative band covers every member, and a member
# that is not moving is evaluated at its own current point.  Every
# expression keeps the order of evaluation of a one-member step, and the
# row reductions sum each row as they would sum it alone, so a member's
# result does not depend on its company, and a point evaluated again
# gives its record bit for bit.  A point is evaluated once, into a record
# (a namedtuple of per-row arrays with the residual ``r`` and its dual
# norm ``rn``) that carries what the derivative band there needs.  What
# does not change within a step is formed once, when the step starts.

def _dual_norm(r: np.ndarray, weights: np.ndarray):
    # L2 norm of the residual density (residual entries carry quadrature
    # weights, so divide them out once), one value per row
    return np.sqrt((r ** 2 / weights).sum(axis=-1))


_GBSV_BUFFERS = {}  # rhs shape: the buffers of _gbsv and their argument list


def _work_band(shape: tuple) -> np.ndarray:
    """The (5, [rows,] n) view of the work band ``_gbsv`` keeps for right-hand
    sides of ``shape``.  A band built into it is solved without a copy; the
    solve overwrites all of it, so a build writes every entry."""
    if shape not in _GBSV_BUFFERS:
        # LAPACK's column-major work band is a ([rows,] n, 7) array; it zeroes
        # the fill-in rows before use.  piv is kept for its address in args.
        size = int(np.prod(shape))
        work, x, piv, info = np.zeros(shape + (7,)), np.empty(shape), np.empty(size, np.int64), ctypes.c_int64()
        args = fortran_args(size, 2, 2, 1, work, 7, piv, x, size, info)
        _GBSV_BUFFERS[shape] = np.moveaxis(work, -1, 0)[2:], x, piv, info, args
    return _GBSV_BUFFERS[shape][0]


def _gbsv(ab: np.ndarray, rhs: np.ndarray):
    """Banded LU solve with partial pivoting (LAPACK ``gbsv``) of the
    pentadiagonal systems in the (5, [rows,] n) storage of
    ``solve_banded((2, 2), ...)``, laid side by side as one band, on a
    work band of 7 rows whose first two take the fill-in of the pivoting.
    Returns None if the band is singular.  The buffers are kept per shape,
    with their argument list; a band built in ``_work_band`` is not copied."""
    band = _work_band(rhs.shape)
    if ab is not band:
        band[...] = ab
    _, x, _, info, args = _GBSV_BUFFERS[rhs.shape]
    x[...] = rhs
    dgbsv(*args)
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of gbsv")
    return x.copy() if info.value == 0 else None


def _solve_bands(band, record, rhs: np.ndarray):
    """Solve the pentadiagonal systems of ``band(record)`` against ``rhs``.

    The (5, n) bands are laid side by side as one (5, rows * n)
    block-diagonal band, whose couplings across the junctions are the zero
    corners of the band storage, and solved by one ``_gbsv`` call.  A
    pivot search never crosses a zero junction, so each block's solution
    is bit for bit that of its solve alone.  If the joint band is
    singular, it is built again and each block is solved alone.  Returns
    the solutions and the mask of the singular blocks, whose rows are 0.
    """
    x = _gbsv(band(record), rhs)
    if x is not None:
        return x, np.zeros(len(rhs), dtype=bool)
    ab = band(record)
    solved = [_gbsv(ab[:, i], rhs[i]) for i in range(len(rhs))]
    singular = np.array([x is None for x in solved])
    return np.array([np.zeros_like(r) if x is None else x for x, r in zip(solved, rhs)]), singular


def _lockstep_newton(x, cur, live, errors, trial, band, accept, *,
                     tol, max_newton, max_backtrack, kind, screen_error, descent_error):
    """Damped Newton on the live rows of ``x`` whose residual norm exceeds
    ``tol``, in lockstep: each pass moves the whole batch under masks.

    ``cur`` holds the records of the rows' points, and one band solve of
    ``band(records)`` covers them.  The line search steps by s = 1, 1/2,
    ... (at most ``max_backtrack + 1`` lengths) along the Newton
    direction.  Each length's ``trial(x, s, direction, searching, at)``
    makes the points x + s direction, screens those of the searching
    rows, moves every other row to its latest point in ``at`` and returns
    the points, the screen and the points' records, on which
    ``accept(old, new)`` decides.  A row that fails gets, in ``errors``,
    :class:`NoConvergence` if its band is singular (before its line
    search), ``screen_error`` (class, message) if no trial point passed
    the screen, ``descent_error`` otherwise, or :class:`NoConvergence`
    after ``max_newton`` iterations; it leaves ``live`` and goes back to
    its point of the pass, and its company steps as it would alone.
    Returns the new states, their records and the iteration counts.
    """
    iters = np.zeros(len(x), dtype=int)
    lengths = max_backtrack + 1
    # every member still iterating has taken part in each pass so far, so
    # the pass count is its iteration count
    for passes in range(max_newton + 1):
        active = live & (cur.rn > tol)
        if not np.count_nonzero(active):
            break
        if passes == max_newton:
            for i in np.flatnonzero(active):
                errors[int(i)] = NoConvergence(
                    f"{kind} Newton exceeded {max_newton} iterations (residual {cur.rn[i]:.3e})")
            break
        direction, singular = _solve_bands(band, cur, -cur.r)
        if np.count_nonzero(singular):
            singular &= active
            for i in np.flatnonzero(singular):
                errors[int(i)] = NoConvergence(f"{kind} Newton band is singular")
            live, active = live & ~singular, active & ~singular
        searching, passed, moved = active, False, x
        for k in range(lengths):
            moved, ok, new = trial(x, 0.5 ** k, direction, searching, moved)
            acc = ok & accept(cur, new)
            passed = passed | ok
            searching = searching & ~acc
            if not np.count_nonzero(searching):
                break
        else:  # the rows still searching found no step
            for i in np.flatnonzero(searching):
                errors[int(i)] = NoConvergence(descent_error) if passed[i] else screen_error[0](screen_error[1])
            for a, b in zip((moved, *new), (x, *cur)):
                np.copyto(a, b, where=searching.reshape(searching.shape + (1,) * (a.ndim - 1)))
            live = live & ~searching
            active = active & ~searching
        iters += active
        x, cur = moved, new
    return x, cur, iters


# ---------------------------------------------------------------------------
# mechanical step
# ---------------------------------------------------------------------------

# The incremental mechanical functional at a point, per row: its value, the
# sum of the magnitudes of its terms (the round-off resolution of the
# value), the smallest value along the Newton path to the point (set by
# _mech_accept), the residual at the free nodes and its dual norm, and for
# the Hessian F and the strain rate per cell and h'(G) per node
_MechPoint = namedtuple("_MechPoint", "value scale path_min r rn F cdot d2G")


def _strain_rate(grid, w, w_prev, F, F_prev, tau):
    """The rate (C - C_prev) / tau of C = F^2 per cell, formed from the
    increment w - w_prev: F^2 - F_prev^2 would cancel to the round-off of
    F^2, which the viscous stress scales by D_tilde / tau."""
    return gradient(grid, w - w_prev) * (F + F_prev) / tau


def _mech_point(params, grid, w, F, c_hat, ent, w_prev, F_prev, tau, load, g_value, free_weights) -> _MechPoint:
    """Evaluate the deformations ``w`` at their cell gradients F = 1 + w' > 0,
    from the last step's ``w_prev`` and its F_prev = 1 + w_prev'; ``ent``
    is the entropy of the frozen cell concentrations ``c_hat``, ``load``
    the weighted body force, ``free_weights`` those of nodes 1..n."""
    h = grid.h
    n = grid.n_cells
    G = second_derivative(grid, w)
    cdot = _strain_rate(grid, w, w_prev, F, F_prev, tau)
    Jm1, dev = mat._strain(params, F, c_hat)
    hyper, hy, d2G = mat._hyper_1d(params, G)
    phi = h * mat._energy(params, Jm1 ** 2, F, dev, ent).sum(axis=-1)
    hyp = h * hyper[..., 1:-1].sum(axis=-1)
    visc = tau * h * (0.5 * params.D_tilde * cdot ** 2).sum(axis=-1)
    work = (load * w).sum(axis=-1) + g_value * w[..., -1]
    value = phi + hyp + visc - work
    scale = abs(phi) + hyp + visc + abs(work)  # hyp and visc sum nonnegative terms
    sigma = mat._stress_1d(params, F, Jm1, dev) + 2.0 * F * params.D_tilde * cdot
    # r_i = sigma_i - sigma_{i+1} (sigma_{n+1} = 0) + hyperstress stencil
    r = -divergence(sigma)[..., 1:]
    hpad = _pad(hy, 0, 1)
    r += (hpad[..., 0:n] - 2.0 * hpad[..., 1 : n + 1] + hpad[..., 2 : n + 2]) / h
    r -= load[..., 1:]
    r[..., -1] -= g_value
    return _MechPoint(value, scale, value.copy(), r, _dual_norm(r, free_weights), F, cdot, d2G)


def _mech_band(params, grid, tau, pt: _MechPoint):
    """Band ab[2 + i - j, j] = H[i, j] of the pentadiagonal Hessian at the
    point of ``pt``, in the (5, [rows,] n) storage of ``solve_banded``, in
    ``_work_band``."""
    h = grid.h
    n = grid.n_cells
    a = mat._stiffness_1d(params, pt.F) + 2.0 * params.D_tilde * pt.cdot + 4.0 * params.D_tilde * pt.F ** 2 / tau
    # hyperstress block (second-difference stencil); h'(G) = 0 at the end nodes
    b = pt.d2G / h ** 3
    bp = _pad(b, 0, 1)  # bp[i] = b_i for i <= n, bp[n+1] = 0
    diag = np.concatenate([a[..., :-1] + a[..., 1:], a[..., -1:]], axis=-1) / h
    diag += bp[..., 0:n] + 4.0 * bp[..., 1 : n + 1] + bp[..., 2 : n + 2]
    diag += TIKHONOV_SHIFT
    ab = _work_band(a.shape)
    ab[2] = diag
    ab[1, ..., 1:] = ab[3, ..., :-1] = -a[..., 1:] / h - 2.0 * (bp[..., 1:n] + bp[..., 2 : n + 1])
    ab[0, ..., 2:] = ab[4, ..., :-2] = bp[..., 2:n]
    ab[0, ..., :2] = ab[1, ..., 0] = ab[3, ..., -1] = ab[4, ..., -2:] = 0.0
    return ab


_ROUNDOFF = 1024.0 * np.finfo(float).eps  # the line search's round-off factor


def _mech_accept(old: _MechPoint, new: _MechPoint):
    # clear descent accepts outright.  Near the minimum the evaluated
    # energy and residual disagree at round-off level, so the final Newton
    # polish may raise the energy by ~1e-18; admit such increases only
    # under a strong residual contraction and a tiny absolute budget.  A
    # trial descends from the smallest energy along the path.
    e_old = old.path_min
    noise = _ROUNDOFF * np.maximum(old.scale, new.scale)
    finite = np.isfinite(new.value)
    accept = finite & (new.value <= e_old - noise)
    if np.count_nonzero(accept) < len(accept):
        accept |= finite & (new.value <= e_old + noise + 1e-15) & (new.rn <= 0.5 * old.rn)
    np.copyto(new.path_min, e_old, where=e_old < new.value)
    return accept


def mechanical_step(
    params: MaterialParams,
    grid: Grid1D,
    w_prev: np.ndarray,
    c_prev: np.ndarray,
    tau: float,
    f_nodes: np.ndarray,
    g_value,
    tol: float = 1e-10,
    max_newton: int = 50,
    max_backtrack: int = 40,
    start: Optional[np.ndarray] = None,
):
    """Minimize the incremental mechanical functional at frozen
    concentration, for a (members, nodes) batch of displacements ``w_prev``
    (a 1-D displacement is the one-member batch), with ``c_prev`` to match
    and the loads ``f_nodes`` and ``g_value`` given per member.  The
    viscous term takes the strain rate from the increment w - w_prev and
    F + F_prev, F_prev = 1 + w_prev' (:func:`_strain_rate`).  The members are
    minimized in lockstep: each Newton pass evaluates the whole batch and
    solves its bands at once.

    Returns the (members, nodes) displacements and an info dict with the
    total ``iterations`` (an int), the per-member ``member_iterations``,
    ``member_residual`` (the achieved residual dual norm),
    ``member_energy`` and ``member_energy_start`` (the descent
    certificate), the cell gradients ``F`` = 1 + w' of the returned
    displacements, and ``errors``, which maps the index of each failed
    member to its error (its row of the batch is not a result):
    :class:`OrientationLoss` when no backtracking step keeps chi' > 0,
    :class:`NoConvergence` when the iteration caps are exhausted.

    ``start``, shaped like ``w_prev``, proposes a start iterate per
    member.  Newton starts from it only where it preserves orientation
    and its incremental energy is finite and no larger than that of
    ``w_prev``, and from ``w_prev`` elsewhere (and everywhere when
    ``start`` is None).  The start energy reported is that of ``w_prev``;
    the energy reported is E(w_new), evaluated at the returned state.
    Newton only descends, except that a final polish step may raise the
    energy by the line search's round-off budget (1024 eps_mach times the
    larger round-off scale of the two points, plus 1e-15), so energy <=
    energy_start holds up to that budget.
    """
    w_prev = np.array(w_prev, dtype=float, ndmin=2)
    m = len(w_prev)
    weights = node_weights(grid)
    # the per-step invariants: the frozen concentration, its entropy, the
    # loads (ndarray.reshape: np.reshape dispatches through Python)
    c_hat = cell_average(np.asarray(c_prev).reshape(w_prev.shape))
    ent = mat._entropy(params, c_hat)
    load = weights * np.asarray(f_nodes).reshape(w_prev.shape)
    g_value = np.asarray(g_value).reshape(m)
    free_weights = weights[1:]
    # w_prev and the start (the last layer; w_prev if there is none) are
    # evaluated as one (layers, members, nodes) batch.  The identity stands
    # in for a point that folds the bar, which counts as not evaluated.
    pair = np.array([w_prev] if start is None else [w_prev, np.asarray(start).reshape(w_prev.shape)], dtype=float)
    F = 1.0 + gradient(grid, pair)
    F_prev = F[0].copy()
    folded = F.min(axis=-1) <= 0.0
    if np.count_nonzero(folded):
        pair[folded] = 0.0
        F[folded] = 1.0
    mat._positive(c_hat, "concentration")  # once per step: the points are screened for F > 0

    def trial(x, s, direction, searching, at):
        points = x.copy()
        points[:, 1:] += s * direction
        F = 1.0 + gradient(grid, points)  # the orientation screen reads the F the evaluation needs
        ok = searching & ~(F.min(axis=-1) <= 0.0)
        if np.count_nonzero(ok) < m:
            np.copyto(points, at, where=~ok[:, None])
            F = 1.0 + gradient(grid, points)
        return points, ok, _mech_point(params, grid, points, F, c_hat, ent, w_prev, F_prev, tau, load, g_value,
                                       free_weights)

    errors = {}
    both = _mech_point(params, grid, pair, F, c_hat, ent, w_prev, F_prev, tau, load, g_value, free_weights)
    energy = np.where(folded, np.inf, both.value)
    e_start = energy[0]
    live = np.isfinite(e_start)
    if np.count_nonzero(live) < m:
        for i in np.flatnonzero(~live):
            errors[int(i)] = OrientationLoss("previous state is not orientation-admissible")
    take = live & np.isfinite(energy[-1]) & (energy[-1] <= e_start)
    if np.count_nonzero(take) < m:  # these members start from w_prev, the first layer
        for v in (pair, *both):
            np.copyto(v[-1], v[0], where=~take.reshape((m,) + (1,) * (v.ndim - 2)))
    w, cur, iters = _lockstep_newton(
        pair[-1], _MechPoint._make([v[-1] for v in both]), live, errors, trial,
        lambda pt: _mech_band(params, grid, tau, pt), _mech_accept,
        tol=tol, max_newton=max_newton, max_backtrack=max_backtrack, kind="mechanical",
        screen_error=(OrientationLoss, "no backtracking step preserves chi' > 0"),
        descent_error="mechanical line search failed to descend",
    )
    return w, {"iterations": int(iters.sum()), "member_iterations": iters, "member_residual": cur.rn,
               "member_energy": cur.value, "member_energy_start": e_start, "F": cur.F, "errors": errors}


# ---------------------------------------------------------------------------
# diffusion step
# ---------------------------------------------------------------------------

def nodal_chemical_potential(params: MaterialParams, grid: Grid1D, F_cells: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Discrete chemical potential: the gradient of the quadrature energy
    with respect to the nodal concentrations, divided by the node weights.
    Interior nodes average the two adjacent cell values.  Broadcasts over
    leading (row) axes."""
    return node_average(mat.chemical_potential(params, F_cells, cell_average(c)))


# The implicit Euler diffusion residual at a point, per row, its dual norm,
# and for the Jacobian the nodal potential and cell concentrations and mobilities
_DiffPoint = namedtuple("_DiffPoint", "r rn mu c_hat mob")


def _diff_point(params, grid, F_cells, c, c_prev, tau, bc, mu_ext, weights) -> _DiffPoint:
    """Evaluate positive concentrations ``c`` at ``F_cells`` > 0, with
    ``mu_ext`` the external potential of the Robin data at the step's time."""
    c_hat = cell_average(c)
    _, dev = mat._strain(params, F_cells, c_hat)
    mu = node_average(mat._potential(params, c_hat, dev))
    mob = mat._mobility_1d(params, F_cells, c_hat)
    q = mob * (mu[..., 1:] - mu[..., :-1]) / grid.h
    r = weights * (c - c_prev) - tau * divergence(q)
    # Robin rows; kappa = 0 would add exact zeros
    if bc.kappa_left:
        r[..., 0] += tau * bc.kappa_left * (mu[..., 0] - mu_ext)
    if bc.kappa_right:
        r[..., -1] += tau * bc.kappa_right * (mu[..., -1] - mu_ext)
    return _DiffPoint(r, _dual_norm(r, weights), mu, c_hat, mob)


def _diff_band(params, grid, F_cells, tau, bc, weights, pt: _DiffPoint):
    """Band ab[2 + i - j, j] = J[i, j] of the pentadiagonal Jacobian at the
    point of ``pt``, in the (5, [rows,] n + 1) storage of ``solve_banded``,
    built into ``_work_band``."""
    h = grid.h
    mu = pt.mu
    m = pt.mob / h
    s = 0.5 * mat._mobility_dc_1d(params, F_cells, pt.c_hat) * ((mu[..., 1:] - mu[..., :-1]) / h)
    # tridiagonal d mu / d c: diagonal dd, and per cell k the entries
    # lower[k] = d mu_{k+1} / d c_k and upper[k] = d mu_k / d c_{k+1}
    cc = mat._d2cc(params, pt.c_hat)
    quarter, half = 0.25 * cc, 0.5 * cc
    dd = np.concatenate([half[..., :1], 0.25 * (cc[..., :-1] + cc[..., 1:]), half[..., -1:]], axis=-1)
    lower = np.concatenate([quarter[..., :-1], half[..., -1:]], axis=-1)
    upper = np.concatenate([half[..., :1], quarter[..., 1:]], axis=-1)
    # cell flux q_k depends on c_{k-1} .. c_{k+2}; tau * d q_k / d c_{k+d}
    qm1 = tau * (m[..., 1:] * -quarter[..., :-1])
    q0 = tau * (m * (lower - dd[..., :-1]) + s)
    q1 = tau * (m * (dd[..., 1:] - upper) + s)
    q2 = tau * (m[..., :-1] * quarter[..., 1:])
    # row i of the residual holds tau (q_{i-1} - q_i); a missing q is 0.0.
    # The diagonals are summed apart: computing into strided rows is slow
    diag = weights + _pad(q1, 1, 0)
    diag[..., :-1] -= q0
    above = _pad(q2, 1, 0) - q1  # above[k] = ab[1, k + 1]
    q0[..., :-1] -= qm1  # now q0[k] = ab[3, k]
    # Robin rows, as in _diff_point
    if bc.kappa_left:
        diag[..., 0] += tau * bc.kappa_left * dd[..., 0]
        above[..., 0] += tau * bc.kappa_left * upper[..., 0]
    if bc.kappa_right:
        diag[..., -1] += tau * bc.kappa_right * dd[..., -1]
        q0[..., -1] += tau * bc.kappa_right * lower[..., -1]
    ab = _work_band(mu.shape)
    ab[0, ..., 2:] = -q2
    ab[1, ..., 1:] = above
    ab[2] = diag
    ab[3, ..., :-1] = q0
    ab[4, ..., :-2] = qm1
    ab[0, ..., :2] = ab[1, ..., 0] = ab[3, ..., -1] = ab[4, ..., -2:] = 0.0
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
    frozen deformation, solved by damped Newton, for a (members, nodes)
    batch of concentrations ``c_prev`` (a 1-D concentration is the
    one-member batch) with ``F_cells`` per member, advanced member by
    member in lockstep as in :func:`mechanical_step`.

    Damping rejects any iterate with min c <= 0.  With kappa = 0 the flux
    form telescopes, so the discrete mass is conserved to the residual
    tolerance.  Returns the (members, nodes) concentrations and an info
    dict with the total ``iterations``, ``member_iterations``,
    ``member_residual``, the nodal potentials ``mu`` and the ``errors`` of
    the failed members: :class:`PositivityLoss` when no damping preserves
    positivity, :class:`NoConvergence` on iteration-cap exhaustion.
    """
    c_prev = np.array(c_prev, dtype=float, ndmin=2)
    m = len(c_prev)
    F_cells = np.asarray(F_cells).reshape(m, grid.n_cells)
    weights = node_weights(grid)
    mu_ext = bc.mu_ext_value(t)

    def trial(x, s, direction, searching, at):
        points = x + s * direction
        ok = searching & ~(points.min(axis=-1) <= 0.0)
        if np.count_nonzero(ok) < m:
            np.copyto(points, at, where=~ok[:, None])
        return points, ok, _diff_point(params, grid, F_cells, points, c_prev, tau, bc, mu_ext, weights)

    errors = {}
    live = ~(c_prev.min(axis=-1) <= 0.0)
    c = c_prev
    if np.count_nonzero(live) < m:  # c_eq stands in for a member that is not positive
        for i in np.flatnonzero(~live):
            errors[int(i)] = PositivityLoss("implicit diffusion step requires strictly positive concentration")
        c = np.where(live[:, None], c_prev, params.c_eq)
    mat._positive(F_cells, "det F")  # once per step: the points are screened for c > 0
    c, cur, iters = _lockstep_newton(
        c, _diff_point(params, grid, F_cells, c, c_prev, tau, bc, mu_ext, weights), live, errors, trial,
        lambda pt: _diff_band(params, grid, F_cells, tau, bc, weights, pt),
        lambda old, new: new.rn < old.rn,
        tol=tol, max_newton=max_newton, max_backtrack=max_backtrack, kind="diffusion",
        screen_error=(PositivityLoss, "no damping preserves c > 0"),
        descent_error="diffusion line search failed to reduce the residual",
    )
    return c, {"iterations": int(iters.sum()), "member_iterations": iters, "member_residual": cur.rn,
               "mu": cur.mu, "errors": errors}


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------

def moser_exponents(m: float, N: int, case: str = "I", r: float = 0.0) -> tuple:
    """Exponent ladder q_n of the L^q bootstrap:

        Case I:   q_n = 2^n (2 - m) + m - 1      (1 <= m < 2)
        Case IIa: q_n = 2^n (3 + r - m) + m - 1  (0 < m < 3 + r)
        Case IIb: q_n = 2^n (2 - m) + m + r      (0 < m < 2)
    """
    if case == "I":
        if not (1.0 <= m < 2.0):
            raise ValueError("Case I ladder requires 1 <= m <= 2 - eta")
        return tuple(2.0 ** n * (2.0 - m) + m - 1.0 for n in range(N + 1))
    if case == "IIa":
        if not (0.0 < m < 3.0 + r):
            raise ValueError("Case IIa ladder requires 0 < m <= 3 + r - eta")
        return tuple(2.0 ** n * (3.0 + r - m) + m - 1.0 for n in range(N + 1))
    if case == "IIb":
        if not (0.0 < m < 2.0):
            raise ValueError("Case IIb ladder requires 0 < m <= 2 - eta")
        return tuple(2.0 ** n * (2.0 - m) + m + r for n in range(N + 1))
    raise ValueError("case must be 'I', 'IIa' or 'IIb'")


def norm_ladder(params: MaterialParams) -> tuple:
    """The exponents of a run's ``lq_c_<q>`` ledger columns: the Case I
    ladder where 1 <= m < 2, and the material's Case II ladder otherwise."""
    return moser_exponents(params.m, 8, case="I" if 1.0 <= params.m < 2.0 else params.case, r=params.r)


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
    return extras + tuple(f"lq_c_{q:g}" for q in cascade_q) + ("newton_mech", "newton_diff")


def _member_error(err: Exception, eps: float) -> Exception:
    err.eps = eps
    return err


def run_nonlinear(
    params: MaterialParams,
    grid: Grid1D,
    loading: BoundLoading,
    bc: BCSpec,
    tau: float,
    T: float,
    eps,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_newton: int = 50,
    max_backtrack: int = 40,
    *,
    consume,
):
    """Alternate mechanical and diffusion steps over ceil(T / tau) steps.

    The loading is applied as eps * (f_star, g_star) and the initial data
    are chi0 = id + eps*u0, c0 = c_eq + eps*rho0.  Returns the run's
    energy ledger, in rescaled units; its ``lq_c_<q>`` columns are the
    L^q norms of c for q over :func:`norm_ladder`.  Step failures
    propagate with the failing time attached.

    The time loop makes the rows a block at a time, for the ledger and for
    ``consume(rows, W, C)``: ``W`` and ``C`` hold the (members, rows,
    nodes) states at the rows of the slice ``rows`` and at the next row if
    there is one, reused by the next block.  No trajectory is stored, and
    a failed run hands on no block after its failure.

    ``eps`` may also be a sequence of load scales.  The members then
    advance in lockstep through one time loop, and a tuple of ledgers, one
    per member, is returned; each is bit for bit the ledger of its eps
    alone, and so are the member's blocks.  A failed member stops (with
    every member after it, whose outcome can no longer matter), and after
    the loop the first failed member in the given order raises the error
    its own run raises.  An error that belongs to a member carries that
    member's load scale as ``err.eps``.
    """
    single = np.ndim(eps) == 0
    eps_list = [float(eps)] if single else [float(e) for e in eps]
    if not eps_list:
        raise ValueError("eps needs at least one load scale")
    if loading.source is not None:
        raise ValueError("loading.source is not supported: the finite-strain species equation has no source term")
    nn = grid.n_nodes
    u0 = np.zeros(nn) if u0 is None else np.asarray(u0, dtype=float)
    rho0 = np.zeros(nn) if rho0 is None else np.asarray(rho0, dtype=float)
    for e in eps_list:
        if tau <= 0.0 or T <= 0.0 or e <= 0.0:
            raise _member_error(ValueError("tau, T and eps must be positive"), e)
        if abs(u0[0]) > 1e-14:
            raise _member_error(ValueError("initial displacement must vanish at the pinned end"), e)
    m = len(eps_list)
    eps_row = np.array(eps_list)
    eps_col = eps_row[:, None]
    w = eps_col * u0
    w[:, 0] = 0.0
    c = params.c_eq + eps_col * rho0
    # the failure to raise after the loop: (member, error, time of the
    # step or None for an error that has its time already)
    failure = None
    disoriented = np.min(1.0 + gradient(grid, w), axis=-1) <= 0.0
    nonpositive = np.min(c, axis=-1) <= 0.0
    bad = np.flatnonzero(disoriented | nonpositive)
    live = int(bad[0]) if len(bad) else m  # members [0, live) advance
    if live < m:
        if disoriented[live]:
            err = OrientationLoss("(A8) initial deformation gradient must stay positive", time=0.0)
        else:
            err = PositivityLoss("initial concentration must be strictly positive", time=0.0)
        failure = (live, _member_error(err, eps_list[live]), None)

    cascade = norm_ladder(params)
    times = time_grid(T, tau)
    n_rows = len(times)
    size = min(block_rows(nn), n_rows)
    # the block's rows from buffer row 2 on, the next row, and the two
    # rows before the block, which the start extrapolation needs
    Wb, Cb = np.empty((2, m, size + 3, nn))
    Wb[:, 2], Cb[:, 2] = w, c
    ts = times.tolist()
    f = loading.f_steps(ts)
    g_star = np.array([loading.g_star(t) for t in ts])
    mu_ext = np.array([bc.mu_ext_value(t) for t in ts])
    # the ledger columns that need the step's solver data; the others are
    # made a block at a time from the states
    residual_mech, residual_diff = np.zeros((2, m, n_rows))
    newton_mech, newton_diff = np.zeros((2, m, n_rows), dtype=int)
    cols = [{} for _ in eps_list]

    def block(rows):
        count = rows.stop - rows.start + (rows.stop < n_rows)
        W, C = Wb[:, 2:2 + count], Cb[:, 2:2 + count]
        for i, e in enumerate(eps_list):
            states, rates = _nonlinear_columns(params, grid, bc, tau, e, rows, W[i], C[i], f, g_star, mu_ext, cascade)
            put_rows(cols[i], states, rows.start, n_rows)
            put_rows(cols[i], rates, rows.start + 1, n_rows)  # a step's row is the one it reaches
        consume(rows, W, C)

    w, c = w[:live], c[:live]
    first = 0  # the block's first row, at buffer row 2
    for k in range(1, n_rows):
        if not live:
            break
        t = ts[k]
        j = k - first + 2
        # Newton starts from the polynomial extrapolation of the last
        # states: at w itself the viscous stress of the last step is
        # missing from the residual, which puts w O(eps) from the minimizer.
        # Quadratic, not linear: a linear extrapolation from step 2 on
        # still needs a second iteration on about one member step in five
        if k == 1:
            start = None
        elif k == 2:
            start = 2.0 * Wb[:live, j - 1] - Wb[:live, j - 2]
        else:
            start = 3.0 * (Wb[:live, j - 1] - Wb[:live, j - 2]) + Wb[:live, j - 3]
        w_new, minfo = mechanical_step(
            params, grid, w, c, tau, eps_col[:live] * f(k), eps_row[:live] * g_star[k],
            tol=tol, max_newton=max_newton, max_backtrack=max_backtrack, start=start,
        )
        if minfo["errors"]:
            live = min(minfo["errors"])
            failure = (live, minfo["errors"][live], t)
            if not live:
                break
        c_new, dinfo = diffusion_step(
            params, grid, minfo["F"][:live], c[:live], tau, bc, t,
            tol=tol, max_newton=max_newton, max_backtrack=max_backtrack,
        )
        if dinfo["errors"]:
            live = min(dinfo["errors"])
            failure = (live, dinfo["errors"][live], t)
        rows = slice(0, live)
        residual_mech[rows, k] = minfo["member_residual"][rows]
        residual_diff[rows, k] = dinfo["member_residual"][rows]
        newton_mech[rows, k] = minfo["member_iterations"][rows]
        newton_diff[rows, k] = dinfo["member_iterations"][rows]
        w, c = w_new[rows], c_new[rows]
        Wb[rows, j], Cb[rows, j] = w, c
        if j == size + 2:
            # a failed run hands on nothing: only its error is left to find
            if failure is None:
                block(slice(first, k))
            Wb[:, :3], Cb[:, :3] = Wb[:, -3:], Cb[:, -3:]
            first = k

    if failure is not None:
        i, err, t = failure
        if t is None:
            raise err
        raise _member_error(type(err)(str(err), time=t), eps_list[i]) from err
    block(slice(first, n_rows))

    ledgers = []
    for i in range(m):
        member = cols.pop(0)  # let go as soon as the ledger has copied it
        # the rates belong to steps, not to the initial state
        member["diss_diff"][0] = member["flux_boundary"][0] = 0.0
        member.update(t=times, residual_mech=residual_mech[i], residual_diff=residual_diff[i],
                      newton_mech=newton_mech[i], newton_diff=newton_diff[i])
        ledgers.append(EnergyLedger(tau, {name: member[name] for name in EnergyLedger.CORE + _ledger_columns(cascade)}))
    return ledgers[0] if single else tuple(ledgers)


def _nonlinear_columns(params, grid, bc, tau, eps, rows, w, c, f, g_star, mu_ext, cascade):
    """The ledger rows of a block of a run: the columns of the states at
    the rows ``rows``, and the rates of the steps from each of them to the
    next, of which ``w`` and ``c`` hold one more row if there is one."""
    n = rows.stop - rows.start
    both = slice(rows.start, rows.start + len(w))
    f_both, g_both = f(both), g_star[both]
    u = w / eps
    F = 1.0 + gradient(grid, w)
    cdot = _strain_rate(grid, w[1:], w[:-1], F[1:], F[:-1], tau)
    rates = {
        "diss_mech": grid.h * (0.5 * params.D_tilde * cdot ** 2).sum(axis=-1) / eps ** 2,
        "load_power": load_pairing(grid, f_both[1:] - f_both[:-1], g_both[1:] - g_both[:-1], u[:-1]) / tau,
    }
    # the state columns are those of the block's own rows
    w, u, c, F, mu_ext = w[:n], u[:n], c[:n], F[:n], mu_ext[rows]
    h = grid.h
    c_hat = cell_average(c)
    G = second_derivative(grid, w)
    stored = h * np.sum(mat.free_energy(params, F, c_hat), axis=-1)
    stored += h * np.sum(mat.hyperstress(params, G[:, 1:-1])[0], axis=-1)
    mu = nodal_chemical_potential(params, grid, F, c)
    # copies, not views: a view would keep the whole block of mu alive
    mu_left, mu_right = mu[:, 0].copy(), mu[:, -1].copy()
    cols = {
        "energy": stored / eps ** 2 - load_pairing(grid, f_both[:n], g_both[:n], u),
        "diss_diff": h * np.sum(mat.mobility(params, F, c_hat) * gradient(grid, mu) ** 2, axis=-1) / eps ** 2,
        "flux_boundary": (
            bc.kappa_left * (mu_left - mu_ext) * mu_left
            + bc.kappa_right * (mu_right - mu_ext) * mu_right
        ) / eps ** 2,
        "mass": mass(grid, c),
        "linf_c": lq_norm(grid, c, np.inf),
        "min_c": np.min(c, axis=-1),
        "min_F": np.min(F, axis=-1),
        "llogl": llogl_deviation(grid, c, params.c_eq),
        "h1_u": h1_norm(grid, u),
        "l2_rho": lq_norm(grid, (c - params.c_eq) / eps, 2),
        "lp_d2u": lq_norm(grid, G / eps, params.p),
        "mu_left": mu_left,
        "mu_right": mu_right,
    }
    for q in cascade:
        cols[f"lq_c_{q:g}"] = lq_norm(grid, c, q)
    return cols, rates


# ---------------------------------------------------------------------------
# structure checks and rescaling
# ---------------------------------------------------------------------------

def check_dissipation_inequality(ledger: EnergyLedger) -> float:
    """Worst violation of the discrete energy-dissipation inequality:

        max over t of [ E(t) + sum_{s<=t} (tau * (diffusive + viscous
        + boundary-flux rates) + tau * loading power) - E(0) ].

    Nonpositive (up to solver tolerance) for a valid staggered run.
    """
    return float(np.max(ledger.balance(
        ledger.column("diss_mech")
        + ledger.column("diss_diff")
        + ledger.column("flux_boundary")
        + ledger.column("load_power")
    )))


def rescale(params: MaterialParams, grid: Grid1D, w: np.ndarray, c: np.ndarray, eps: float) -> dict:
    """The small-strain variables of rows ``w`` (chi - id) and ``c`` of a
    finite-strain trajectory at load scale ``eps``: the arrays "u" =
    (chi - id)/eps, "rho" = (c - c_eq)/eps and "flux", the cellwise
    mobility flux M(grad chi, c) grad mu/eps.

    The flux gradient uses the chain rule
        grad mu = d2_Fc Phi * D^2 chi + d2_cc Phi * grad c
    with centered cell differences for D^2 chi.
    """
    F = 1.0 + gradient(grid, w)
    c_hat = cell_average(c)
    _, fc, cc = mat.free_energy_hessian(params, F, c_hat)
    grad_mu = fc * cell_derivative(grid, F) + cc * gradient(grid, c)
    return {"u": w / eps, "rho": (c - params.c_eq) / eps, "flux": mat.mobility(params, F, c_hat) * grad_mu / eps}
