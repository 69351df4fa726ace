"""Monolithic implicit solver for the coupled small-strain system.

One banded LU solve per step advances displacement and concentration
variation together:

    -(C u' + K rho + D (u - u_prev)'/tau)' = f_star,   u(0) = 0,
    (rho - rho_prev)/tau = (M_eq mu_star')',           mu_star = K u' + L rho,

with traction g_star at x = 1 and zero flux at both ends.  The spatial
discretization is the cell-based quadrature form shared with the
finite-strain solver (its exact small-load limit), so the implicit Euler
update satisfies a one-sided discrete energy balance whose defect is
O(tau); ``check_energy_balance`` measures it.  A static solver produces
the equilibrium the evolution decays to under constant loading.

The coupled matrix is constant in time.  In the interleaved dof order
(rho_0, u_1, rho_1, ..., u_n, rho_n) it is banded with 5 sub- and 4
superdiagonals, so it is read into LAPACK band storage, scaled
symmetrically by d = |diag|^(-1/2) (at n = 64 this takes its condition
number from about 2e7 to 7e3) and factorized once (``dgbtrf``).  The map
P, which takes the previous state to the homogeneous right-hand side, is
linear and constant too, and is read into BLAS band storage with its rows
scaled by d.  Both bands are read off the stencil formulas by one comb
probe.  A step is then one ``dgbmv`` of P, one ``dgbtrs`` solve without
refinement, and one constant added to the solved rho: the one that makes
its discrete mass equal mass(rho_prev) + tau mass(s), the mass the
zero-flux species equation conserves.  The node weights sum to 1, so the
constant is the difference of the two masses.  It moves the nodal
potential by L times itself, so the potential differences, and with them
the flux, do not change.  The mass then drifts by the rounding of one
weighted sum per step, not by the round-off of the solve.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ._lapack import dgbmv, dgbtrf, dgbtrs
from .constitutive import LinearizedTensors
from .discretization import (
    Grid1D,
    _pad,
    _per_row,
    cell_average,
    gradient,
    h1_norm,
    lq_norm,
    mass,
    node_average,
    node_weights,
    block_rows,
    put_rows,
    time_grid,
)
from .loading import BoundLoading
from .nonlinear_solver import EnergyLedger

__all__ = [
    "SingularSystem",
    "LinearStepper",
    "run_linear",
    "check_energy_balance",
    "static_solve",
    "state_energy",
    "nodal_potential",
]

# sub- and superdiagonals of the coupled matrix A and the right-hand side
# map P, in the interleaved orders
KL, KU = 5, 4
P_KL, P_KU = 0, 4


class SingularSystem(RuntimeError):
    """The coupled system's factorization failed, or a step missed its
    residual tolerance; valid tensors cannot produce this, so it signals
    config corruption."""


def _interleave(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The vectors (rho_0, u_*, rho_1, u_*, ...) of the node values ``rho``
    at the even places and ``u`` at the odd ones (one per row)."""
    out = np.empty(rho.shape[:-1] + (rho.shape[-1] + u.shape[-1],))
    out[..., 0::2], out[..., 1::2] = rho, u
    return out


def _band(apply, n_cols: int, kl: int, ku: int, left=None, right=None) -> np.ndarray:
    """The band of diag(left) M diag(right), with M the matrix of the
    linear map ``apply`` (acting on each row of a batch of ``n_cols``
    vectors), in the BLAS band storage a[ku + i - j, j] = M[i, j] of
    ``dgbmv``, in Fortran order.  Columns kl + ku + 1 apart share no row,
    so applying M to the kl + ku + 1 combs of such columns reads off the
    whole band."""
    width = kl + ku + 1
    rows = apply((np.arange(n_cols) % width == np.arange(width)[:, None]).astype(float))
    n_rows = rows.shape[-1]
    left = np.ones(n_rows) if left is None else left
    right = np.ones(n_cols) if right is None else right
    band = np.zeros((width, n_cols), order="F")
    for k in range(width):  # row i = j + k - ku of column j
        cols = np.arange(max(0, ku - k), min(n_cols, n_rows + ku - k))
        band[k, cols] = left[cols + k - ku] * rows[cols % width, cols + k - ku] * right[cols]
    return band


def _divergence(q: np.ndarray) -> np.ndarray:
    """Nodal difference q_i - q_{i-1} of a cell flux, with zero flux
    outside the grid: minus the transpose of the gradient, times h."""
    out = np.zeros(q.shape[:-1] + (q.shape[-1] + 1,))
    out[..., :-1] += q
    out[..., 1:] -= q
    return out


def nodal_potential(grid: Grid1D, tensors: LinearizedTensors, u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Discrete linearized potential mu_star = K u' + L rho, reconstructed
    at nodes from the cell quadrature (variational gradient form).
    Broadcasts over leading (row) axes."""
    return node_average(tensors.K * gradient(grid, u) + tensors.L * cell_average(rho))


def state_energy(grid: Grid1D, tensors: LinearizedTensors, u: np.ndarray, rho: np.ndarray) -> float:
    """Homogeneous quadratic energy 1/2 C u'^2 + K rho u' + 1/2 L rho^2
    (cell quadrature); nonnegative for admissible tensors.  A (rows, nodes)
    batch gives one energy per row."""
    up = gradient(grid, u)
    rh = cell_average(rho)
    return _per_row(np.sum(grid.h * (0.5 * tensors.C * up ** 2 + tensors.K * rh * up + 0.5 * tensors.L * rh ** 2), axis=-1))


class LinearStepper:
    """Factorized implicit-Euler operator for the coupled system.

    The matrix is constant in time, so it is assembled, scaled
    symmetrically and factorized once, by banded LU in the interleaved
    order.  The solve gives rho up to the one constant that ``step`` adds
    to pin its mass.  The right-hand side map P is read into band storage
    once as well; ``_rhs``, ``_rows`` and ``residual`` are the stencil
    formulas the bands are read from.
    """

    def __init__(self, grid: Grid1D, tensors: LinearizedTensors, tau: float):
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        self.grid = grid
        self.tensors = tensors
        self.tau = tau
        self.weights = node_weights(grid)
        self._visc = tensors.D / (tau * grid.h)
        self._flux_step = tau * tensors.M_eq / grid.h / self.weights
        n_dofs = self._n_dofs = 2 * grid.n_cells + 1
        d = self._d = 1.0 / np.sqrt(np.abs(_band(self._apply, n_dofs, KL, KU)[KU]))
        # P acts on (rho_0, u_0, rho_1, u_1, ..., rho_n, u_n): u_prev[0]
        # enters the first viscous row
        self._P = _band(self._homogeneous_rhs, n_dofs + 1, P_KL, P_KU, left=d)
        self._load = d[1::2] * self.weights[1:]  # scaled w f on the u rows
        self._source = d[0::2] * tau * self.weights  # scaled tau w s on the rho rows
        self._d_u = d[1::2].copy()
        self._d_rho = d[0::2].copy()
        ab = np.zeros((2 * KL + KU + 1, n_dofs), order="F")  # KL spare rows: LAPACK factors in place
        ab[KL:] = _band(self._apply, n_dofs, KL, KU, d, d)
        lu, piv, info = dgbtrf(ab, KL, KU, overwrite_ab=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gbtrf")
        if info > 0:
            raise SingularSystem(f"coupled-system factorization failed: zero pivot {info} in gbtrf")
        self._solve = lambda b: dgbtrs(lu, KL, KU, b, piv, overwrite_b=True)[0]

    def _rows(self, u: np.ndarray, rho: np.ndarray):
        """The coupled matrix applied to a state: its n displacement rows
        (nodes 1..n) and n + 1 species rows.  Broadcasts over rows."""
        t = self.tensors
        stress = (t.C + t.D / self.tau) * gradient(self.grid, u) + t.K * cell_average(rho)
        mu = nodal_potential(self.grid, t, u, rho)
        species = rho - self._flux_step * _divergence(mu[..., 1:] - mu[..., :-1])
        return -_divergence(stress)[..., 1:], self.weights * species

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """The coupled matrix applied to vectors in the interleaved order
        (one per row)."""
        r_u, r_r = self._rows(_pad(x[..., 1::2], 1, 0), x[..., 0::2])
        return _interleave(r_r, r_u)

    def _homogeneous_rhs(self, z: np.ndarray) -> np.ndarray:
        """P: the right-hand side without loads, in the interleaved order,
        of the previous states z = (rho_0, u_0, ..., rho_n, u_n)."""
        u_prev = z[..., 1::2]
        b_u, b_r = self._rhs(u_prev, z[..., 0::2], np.zeros_like(u_prev), 0.0, None)
        return _interleave(b_r, b_u)

    def _rhs(self, u_prev, rho_prev, f_nodes, g_value, source_nodes):
        """Right-hand sides of the displacement and species rows."""
        visc = self._visc * (u_prev[..., 1:] - u_prev[..., :-1])
        b_u = self.weights[1:] * f_nodes[..., 1:]
        # -_divergence(visc)[1:], written out
        b_u += visc
        b_u[..., :-1] -= visc[..., 1:]
        b_u[..., -1] += g_value
        b_r = self.weights * rho_prev
        if source_nodes is not None:
            b_r = b_r + self.tau * self.weights * source_nodes
        return b_u, b_r

    def step(self, u_prev: np.ndarray, rho_prev: np.ndarray, f_nodes: np.ndarray, g_value: float,
             source_nodes: Optional[np.ndarray] = None):
        """One implicit Euler step: the new (u, rho), with the mass of rho
        set to mass(rho_prev) + tau mass(source_nodes)."""
        n_dofs = self._n_dofs
        b = dgbmv(n_dofs, n_dofs + 1, P_KL, P_KU, 1.0, self._P, _interleave(rho_prev, u_prev))
        b[1::2] += self._load * f_nodes[1:]
        b[-2] += self._d_u[-1] * g_value
        target = self.weights @ rho_prev
        if source_nodes is not None:
            b[0::2] += self._source * source_nodes
            target += self.tau * (self.weights @ source_nodes)
        y = self._solve(b)
        rho = self._d_rho * y[0::2]
        rho += target - self.weights @ rho  # the weights sum to 1
        u = np.zeros(len(u_prev))
        np.multiply(self._d_u, y[1::2], out=u[1:])
        return u, rho

    def residual(self, u_prev, rho_prev, u, rho, f_nodes, g_value, source_nodes=None):
        """Largest absolute defect of the unscaled step equations taken
        from (u_prev, rho_prev) to (u, rho); one value per row."""
        r_u, r_r = self._rows(u, rho)
        b_u, b_r = self._rhs(u_prev, rho_prev, f_nodes, g_value, source_nodes)
        return np.maximum(np.max(np.abs(r_u - b_u), axis=-1), np.max(np.abs(r_r - b_r), axis=-1))


_LINEAR_EXTRAS = ("mass", "residual", "h1_u", "l2_rho", "linf_rho")


def run_linear(
    grid: Grid1D,
    tensors: LinearizedTensors,
    loading: BoundLoading,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tau: float = 1e-3,
    T: float = 1.0,
    tol: float = 1e-9,
):
    """The run of the coupled linear system: the generator of its row
    blocks ``(rows, u, rho)``, the states at the rows of the slice ``rows``
    and at the next row if there is one (reused by the next block), which
    returns the run's ledger of stored energy, viscous and mobility
    dissipation rates, and loading power (see ``drain``).  The boundary
    has zero flux, so the discrete mass of rho is conserved.

    Every step's residual in the unscaled equations must meet ``tol``;
    otherwise ``SingularSystem`` names the first step that does not, as
    soon as its block is made."""
    nn = grid.n_nodes
    u0 = np.zeros(nn) if u0 is None else np.asarray(u0, dtype=float)
    rho0 = np.zeros(nn) if rho0 is None else np.asarray(rho0, dtype=float)
    if abs(u0[0]) > 1e-14:
        raise ValueError("initial displacement must vanish at the pinned end")
    stepper = LinearStepper(grid, tensors, tau)
    return _linear_blocks(grid, tensors, stepper, loading, time_grid(T, tau), u0, rho0, tol)


def _linear_blocks(grid, tensors, stepper, loading, times, u0, rho0, tol):
    """The time loop of ``run_linear``: a generator of its row blocks that
    returns the run's ledger.  A block's ledger rows are made, and its
    residuals checked, before it is handed on; only they outlive it."""
    ts = times.tolist()
    f = loading.f_steps(ts)
    g_star = np.array([loading.g_star(t) for t in ts])
    source = loading.source_steps(ts)
    n_rows = len(times)
    size = min(block_rows(grid.n_nodes), n_rows)
    # the block's rows and the next one, which the rates of its steps need
    U, R = np.empty((2, size + 1, grid.n_nodes))
    U[0], R[0] = u0, rho0
    cols, first = {}, 0  # the block's first row is at buffer row 0
    for k in range(1, n_rows + 1):
        i = k - first
        if k < n_rows:
            U[i], R[i] = stepper.step(U[i - 1], R[i - 1], f(k), g_star[k], None if source is None else source(k))
        if i == size or k == n_rows:
            u, rho = U[:i + (k < n_rows)], R[:i + (k < n_rows)]  # and the next row, if there is one
            states, rates = _linear_columns(grid, tensors, stepper, slice(first, k), u, rho, f, g_star, source)
            res = rates["residual"]
            over = np.flatnonzero(~(res <= tol))
            if over.size:
                j = first + 1 + over[0]
                raise SingularSystem(f"step {j} (t = {times[j]:.9g}): residual {res[over[0]]:.3e} exceeds tol {tol:.3e}")
            put_rows(cols, states, first, n_rows)
            put_rows(cols, rates, first + 1, n_rows)  # a step's row is the one it reaches
            yield slice(first, k), u, rho
            U[0], R[0] = U[i], R[i]
            first = k
    cols.update(t=times, flux_boundary=np.zeros(n_rows))
    return EnergyLedger(stepper.tau, {name: cols[name] for name in EnergyLedger.CORE + _LINEAR_EXTRAS})


def _linear_columns(grid, tensors, stepper, rows, u, rho, f, g_star, source):
    """The ledger rows of a block of a run: the columns of the states at
    the rows ``rows``, and the rates and residuals of the steps from each
    of them to the next, of which ``u`` and ``rho`` hold one more row if
    there is one."""
    n, tau = rows.stop - rows.start, stepper.tau
    both = slice(rows.start, rows.start + len(u))
    f_both, g_both = f(both), g_star[both]
    us, rhos = u[:n], rho[:n]
    grad_mu = gradient(grid, nodal_potential(grid, tensors, us, rhos))
    load_pair = np.sum(node_weights(grid) * f_both[:n] * us, axis=-1) + g_both[:n] * us[:, -1]
    up_rate = (gradient(grid, u[1:]) - gradient(grid, u[:-1])) / tau
    return {
        "energy": state_energy(grid, tensors, us, rhos) - load_pair,
        "diss_diff": tensors.M_eq * np.sum(grid.h * grad_mu ** 2, axis=-1),
        "mass": mass(grid, rhos),
        "h1_u": h1_norm(grid, us),
        "l2_rho": lq_norm(grid, rhos, 2),
        "linf_rho": lq_norm(grid, rhos, np.inf),
    }, {
        "diss_mech": 0.5 * tensors.D * np.sum(grid.h * up_rate ** 2, axis=-1),
        "load_power": (
            np.sum(node_weights(grid) * (f_both[1:] - f_both[:-1]) * u[:-1], axis=-1)
            + (g_both[1:] - g_both[:-1]) * u[:-1, -1]
        ) / tau,
        "residual": stepper.residual(u[:-1], rho[:-1], u[1:], rho[1:], f_both[1:], g_both[1:],
                                     None if source is None else source(slice(rows.start + 1, both.stop))),
    }


def check_energy_balance(ledger: EnergyLedger) -> float:
    """Worst absolute defect of the discrete energy balance

        E(t) + sum tau * (2 * viscous rate + mobility rate)
             + sum tau * loading power - E(0) = 0,

    which is O(tau) for smooth data (implicit Euler damps one-sidedly)."""
    E = ledger.column("energy")
    terms = ledger.tau * (
        2.0 * ledger.column("diss_mech")
        + ledger.column("diss_diff")
        + ledger.column("load_power")
    )
    terms[0] = 0.0
    expr = E - E[0] + np.cumsum(terms)
    return float(np.max(np.abs(expr)))


def static_solve(
    grid: Grid1D,
    tensors: LinearizedTensors,
    f_nodes: np.ndarray,
    g_value: float,
    total_mass: float,
):
    """Equilibrium of the coupled system under constant loading:

        -(C v' + K xi)' = f_star,  (M_eq nu')' = 0  with  nu = K v' + L xi,

    zero flux (nu constant) and the mass constraint sum(w_i xi_i) =
    total_mass pinning the reachable equilibrium.  The grid-oscillatory
    null mode of the cell-averaged potential is pinned to zero.  Returns
    (v, xi, nu, residual).

    The discrete equations are solved by exact elimination, in O(n).  The
    mechanical rows give each cell's stress s_k = g + sum_{i > k} w_i f_i.
    The potential rows make every cell potential equal nu, so each cell
    is the 2 x 2 system C v'_k + K m_k = s_k, K v'_k + L m_k = nu for its
    slope v'_k and its mean m_k of xi, with det = C L - K^2 > 0.  Nodal xi
    follows from its cell means up to the oscillatory mode (-1)^i, which
    is removed, and nu from the mass row.  The residual is evaluated from
    the original equations, every row included.
    """
    n = grid.n_cells
    C, K, L = tensors.C, tensors.K, tensors.L
    det = C * L - K ** 2
    weights = node_weights(grid)
    sign = (-1.0) ** np.arange(n + 1)
    alt = weights * sign
    b = weights[1:] * np.asarray(f_nodes, dtype=float)[1:]
    b[-1] += g_value
    stress = np.cumsum(b[::-1])[::-1]
    # xi_{k+1} = 2 m_k - xi_k with the cell means m_k taken at nu = 0
    xi = np.zeros(n + 1)
    xi[1:] = sign[1:] * np.cumsum(sign[1:] * (-2.0 * K / det) * stress)
    xi -= (alt @ xi) * sign
    # nu adds the constant C nu / det to xi, which has no oscillatory part
    shift = total_mass - weights @ xi  # the weights sum to 1
    xi += shift
    nu = float(det * shift / C)
    v = np.zeros(n + 1)
    np.cumsum(grid.h * (L * stress - K * nu) / det, out=v[1:])
    # self-certify against the equations: mechanical rows, weighted
    # potential rows (all nodes), and the oscillatory-mode and mass rows
    mech = -_divergence(C * gradient(grid, v) + K * cell_average(xi))[1:]
    pot = weights * (nodal_potential(grid, tensors, v, xi) - nu)
    residual = max(float(np.max(np.abs(mech - b))), float(np.max(np.abs(pot))),
                   abs(float(alt @ xi)), abs(float(weights @ xi) - total_mass))
    return v, xi, nu, residual
