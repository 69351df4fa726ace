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

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

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
    map_row_blocks,
)
from .loading import BoundLoading
from .nonlinear_solver import EnergyLedger

__all__ = [
    "SingularSystem",
    "LinearRun",
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


@dataclass
class LinearRun:
    grid: Grid1D
    tensors: LinearizedTensors
    times: np.ndarray
    u: np.ndarray  # (steps+1, nodes)
    rho: np.ndarray  # (steps+1, nodes)
    ledger: EnergyLedger

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


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

    The matrix is constant in time, so it is assembled and factorized
    once: by banded LU in the interleaved order, or, given a ``seed``, by
    dense LU of the system under that seeded random symmetric
    permutation.  The two are independent solves whose results agree to
    solver precision, which is what the uniqueness experiment measures.
    Both act on the symmetrically scaled matrix, and both give rho up to
    the one constant that ``step`` adds to pin its mass.  The right-hand
    side map P is read into band storage once as well; ``_rhs``, ``_rows``
    and ``residual`` are the stencil formulas the bands are read from.
    """

    def __init__(self, grid: Grid1D, tensors: LinearizedTensors, tau: float, seed: Optional[int] = None):
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
        if seed is None:
            ab = np.zeros((2 * KL + KU + 1, n_dofs), order="F")  # KL spare rows: LAPACK factors in place
            ab[KL:] = _band(self._apply, n_dofs, KL, KU, d, d)
            lu, piv, info = dgbtrf(ab, KL, KU, overwrite_ab=True)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of gbtrf")
            if info > 0:
                raise SingularSystem(f"coupled-system factorization failed: zero pivot {info} in gbtrf")
            self._solve = lambda b: dgbtrs(lu, KL, KU, b, piv, overwrite_b=True)[0]
        else:
            perm = np.random.default_rng(seed).permutation(n_dofs)
            inverse = np.argsort(perm)
            dense = _matrix(self._apply, n_dofs)
            dense *= d[:, None]
            dense *= d
            lu_piv = lu_factor(dense[np.ix_(perm, perm)], overwrite_a=True, check_finite=False)
            if np.any(np.diag(lu_piv[0]) == 0.0):
                raise SingularSystem("coupled-system factorization failed: zero pivot")
            self._solve = lambda b: lu_solve(lu_piv, b[perm], check_finite=False)[inverse]

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


def _matrix(apply, size: int) -> np.ndarray:
    """The square matrix of the linear map ``apply``, which acts on each
    row of a batch, read off from the unit vectors in row blocks.  It is
    in Fortran order, so LAPACK factors it in place."""

    def block(rows):
        return {"A": apply(np.eye(rows.stop - rows.start, size, k=rows.start))}

    return map_row_blocks(size, size, block)["A"].T


_LINEAR_EXTRAS = ("mass", "residual", "h1_u", "l2_rho", "linf_rho")


def run_linear(
    grid: Grid1D,
    tensors: LinearizedTensors,
    loading: BoundLoading,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tau: float = 1e-3,
    T: float = 1.0,
    seed: Optional[int] = None,
    tol: float = 1e-9,
) -> LinearRun:
    """Full trajectory of the coupled linear system with its ledger of
    stored energy, viscous and mobility dissipation rates, and loading
    power (zero-flux boundary: the discrete mass of rho is conserved).

    Every step's residual in the unscaled equations must meet ``tol``;
    otherwise ``SingularSystem`` names the first step that does not.
    ``seed`` selects the permuted dense solve of ``LinearStepper``."""
    nn = grid.n_nodes
    u0 = np.zeros(nn) if u0 is None else np.asarray(u0, dtype=float)
    rho0 = np.zeros(nn) if rho0 is None else np.asarray(rho0, dtype=float)
    if abs(u0[0]) > 1e-14:
        raise ValueError("initial displacement must vanish at the pinned end")
    stepper = LinearStepper(grid, tensors, tau, seed=seed)
    n_steps = int(np.ceil(T / tau - 1e-12))
    times = tau * np.arange(n_steps + 1)
    U = np.empty((n_steps + 1, nn))
    R = np.empty((n_steps + 1, nn))
    U[0] = u0
    R[0] = rho0
    ts = times.tolist()
    f = loading.f_steps(ts)
    g_star = np.array([loading.g_star(t) for t in ts])
    source = loading.source_steps(ts)
    for k in range(1, n_steps + 1):
        U[k], R[k] = stepper.step(U[k - 1], R[k - 1], f(k), g_star[k], None if source is None else source(k))
    ledger = _linear_ledger(grid, tensors, stepper, times, U, R, f, g_star, source, tol)
    return LinearRun(grid, tensors, times, U, R, ledger)


def _linear_ledger(grid, tensors, stepper, times, U, R, f, g_star, source, tol) -> EnergyLedger:
    """The ledger of one run, from its stored trajectory and its loads by
    step, filled in row blocks.  Raises ``SingularSystem`` at the first
    step whose residual is over ``tol`` (or not finite)."""
    weights = node_weights(grid)
    tau = stepper.tau

    def block(rows):
        return _linear_columns(grid, tensors, U[rows], R[rows], f(rows), g_star[rows])

    def steps(rows):
        # row j of the block is the step from j to j + 1
        after = slice(rows.start + 1, rows.stop + 1)
        u = U[rows]
        up_rate = (gradient(grid, U[after]) - gradient(grid, u)) / tau
        f_both = f(slice(rows.start, rows.stop + 1))
        return {
            "diss_mech": 0.5 * tensors.D * np.sum(grid.h * up_rate ** 2, axis=-1),
            "load_power": (
                np.sum(weights * (f_both[1:] - f_both[:-1]) * u, axis=-1)
                + (g_star[after] - g_star[rows]) * u[:, -1]
            ) / tau,
            "residual": stepper.residual(u, R[rows], U[after], R[after], f_both[1:], g_star[after],
                                         None if source is None else source(after)),
        }

    n_rows = len(times)
    cols = map_row_blocks(n_rows, grid.n_nodes, block)
    cols["diss_mech"], cols["load_power"], cols["residual"] = np.zeros((3, n_rows))
    if n_rows > 1:
        for name, col in map_row_blocks(n_rows - 1, grid.n_nodes, steps).items():
            cols[name][1:] = col
    over = np.flatnonzero(~(cols["residual"] <= tol))
    if over.size:
        k = over[0]
        raise SingularSystem(f"step {k} (t = {times[k]:.9g}): residual {cols['residual'][k]:.3e} exceeds tol {tol:.3e}")
    cols.update(t=times, flux_boundary=np.zeros(n_rows))
    return EnergyLedger(tau, {name: cols[name] for name in EnergyLedger.CORE + _LINEAR_EXTRAS})


def _linear_columns(grid, tensors, u, rho, f_star, g_star) -> dict:
    """The ledger columns that depend only on the state, for a (rows,
    nodes) block of a trajectory and the loading at the same steps."""
    grad_mu = gradient(grid, nodal_potential(grid, tensors, u, rho))
    load_pair = np.sum(node_weights(grid) * f_star * u, axis=-1) + g_star * u[:, -1]
    return {
        "energy": state_energy(grid, tensors, u, rho) - load_pair,
        "diss_diff": tensors.M_eq * np.sum(grid.h * grad_mu ** 2, axis=-1),
        "mass": mass(grid, rho),
        "h1_u": h1_norm(grid, u),
        "l2_rho": lq_norm(grid, rho, 2),
        "linf_rho": lq_norm(grid, rho, np.inf),
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
