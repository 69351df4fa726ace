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
refinement (both on vectors the stepper keeps, with argument lists built
once), and one constant added to the solved rho: the one that makes
its discrete mass equal mass(rho_prev) + tau mass(s), the mass the
zero-flux species equation conserves.  The node weights sum to 1, so the
constant is the difference of the two masses.  It moves the nodal
potential by L times itself, so the potential differences, and with them
the flux, do not change.  The mass then drifts by the rounding of one
weighted sum per step, not by the round-off of the solve.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from ._lapack import dgbmv, dgbtrf, dgbtrs, fortran_args
from .constitutive import LinearizedTensors
from .discretization import (
    EnergyLedger,
    Grid1D,
    _pad,
    _per_row,
    cell_average,
    divergence,
    gradient,
    h1_norm,
    load_pairing,
    lq_norm,
    mass,
    node_average,
    node_weights,
    block_rows,
    put_rows,
    time_grid,
)
from .loading import BoundLoading

__all__ = [
    "SingularSystem",
    "LinearStepper",
    "run_linear",
    "linear_ledger",
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
    formulas the bands are read from.  ``steps`` advances a block of state
    rows in place: it scales the block's loads once, and each step writes
    its u and rho into the next row, with no array of its own.
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
        lu, piv, info = dgbtrf(ab, KL, KU)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gbtrf")
        if info > 0:
            raise SingularSystem(f"coupled-system factorization failed: zero pivot {info} in gbtrf")
        # a step's vectors: P's argument z = (rho_0, u_0, ..., rho_n, u_n)
        # and the right-hand side b, which the solve overwrites
        z, b = self._z, self._b = np.empty(n_dofs + 1), np.empty(n_dofs)
        self._factors = lu, piv  # kept: the argument lists hold only addresses
        self._gbmv_args = fortran_args(b"N", n_dofs, n_dofs + 1, P_KL, P_KU, 1.0, self._P, P_KL + P_KU + 1, z, 1, 0.0, b, 1)
        self._gbtrs_args = fortran_args(b"N", n_dofs, KL, KU, 1, lu, ab.shape[0], piv, b, n_dofs, ctypes.c_int64())

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """The step's right-hand side ``b`` (``self._b``), solved in place."""
        dgbtrs(*self._gbtrs_args)
        return b

    def _rows(self, u: np.ndarray, rho: np.ndarray):
        """The coupled matrix applied to a state: its n displacement rows
        (nodes 1..n) and n + 1 species rows.  Broadcasts over rows."""
        t = self.tensors
        stress = (t.C + t.D / self.tau) * gradient(self.grid, u) + t.K * cell_average(rho)
        mu = nodal_potential(self.grid, t, u, rho)
        species = rho - self._flux_step * divergence(mu[..., 1:] - mu[..., :-1])
        return -divergence(stress)[..., 1:], self.weights * species

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
        # -divergence(visc)[1:], written out: the two sums round differently
        b_u += visc
        b_u[..., :-1] -= visc[..., 1:]
        b_u[..., -1] += g_value
        b_r = self.weights * rho_prev
        if source_nodes is not None:
            b_r = b_r + self.tau * self.weights * source_nodes
        return b_u, b_r

    def steps(self, U, R, f, g, source) -> None:
        """The steps from each row of the states ``U``, ``R`` to the next,
        written into it, under the loads ``f``, ``g`` and ``source`` (or
        None) of rows 1, 2, ...; their scaled loads are formed at once."""
        loads, tractions = self._load * f[:, 1:], self._d_u[-1] * g
        for i in range(1, len(U)):
            self.step(U[i - 1], R[i - 1], loads[i - 1], tractions[i - 1], None if source is None else source[i - 1],
                      U[i], R[i])

    def step(self, u_prev, rho_prev, load, traction, source_nodes, u, rho) -> None:
        """One implicit Euler step, written into ``u`` and ``rho``, under the
        scaled loads of ``steps``; the mass of rho is set to mass(rho_prev)
        + tau mass(source_nodes)."""
        z, b = self._z, self._b
        z[0::2], z[1::2] = rho_prev, u_prev
        b.fill(0.0)  # y = P z from zeros, whatever the BLAS does with y when beta = 0
        dgbmv(*self._gbmv_args)
        b[1::2] += load
        b[-2] += traction
        target = self.weights @ rho_prev
        if source_nodes is not None:
            b[0::2] += self._source * source_nodes
            target += self.tau * (self.weights @ source_nodes)
        y = self._solve(b)
        np.multiply(self._d_rho, y[0::2], out=rho)
        rho += target - self.weights @ rho  # the weights sum to 1
        u[0] = 0.0
        np.multiply(self._d_u, y[1::2], out=u[1:])

    def residual(self, u_prev, rho_prev, u, rho, f_nodes, g_value, source_nodes=None):
        """Largest absolute defect of the unscaled step equations taken
        from (u_prev, rho_prev) to (u, rho); one value per row."""
        r_u, r_r = self._rows(u, rho)
        b_u, b_r = self._rhs(u_prev, rho_prev, f_nodes, g_value, source_nodes)
        return np.maximum(np.max(np.abs(r_u - b_u), axis=-1), np.max(np.abs(r_r - b_r), axis=-1))


def run_linear(
    grid: Grid1D,
    tensors: LinearizedTensors,
    loading: BoundLoading,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tau: float = 1e-3,
    T: float = 1.0,
    tol: float = 1e-9,
) -> LinearRun:
    """The run of the coupled linear system: the iterator of its row
    blocks ``(rows, u, rho)``, the states at the rows of the slice
    ``rows`` and at the next row if there is one (reused by the next
    block).  The boundary has zero flux, so the discrete mass of rho is
    conserved.  The run makes no ledger; a reader of one folds it over the
    blocks with ``linear_ledger``.

    Every step's residual in the unscaled equations must meet ``tol``;
    otherwise ``SingularSystem`` names the first step that does not, as
    soon as its block is made."""
    nn = grid.n_nodes
    u0 = np.zeros(nn) if u0 is None else np.asarray(u0, dtype=float)
    rho0 = np.zeros(nn) if rho0 is None else np.asarray(rho0, dtype=float)
    if abs(u0[0]) > 1e-14:
        raise ValueError("initial displacement must vanish at the pinned end")
    return LinearRun(grid, tensors, LinearStepper(grid, tensors, tau), loading, time_grid(T, tau), u0, rho0, tol)


class LinearRun:
    """A run made by ``run_linear``: the iterator of its row blocks, with
    the times, loads and step residuals its ledger is folded from."""

    def __init__(self, grid, tensors, stepper, loading, times, u0, rho0, tol):
        ts = times.tolist()
        self.grid, self.tensors, self.stepper, self.times = grid, tensors, stepper, times
        self.f, self.source = loading.f_steps(ts), loading.source_steps(ts)
        self.g_star = np.array([loading.g_star(t) for t in ts])
        self.residual = np.zeros(len(times))  # a step's row is the one it reaches
        self._blocks = self._loop(u0, rho0, tol)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._blocks)

    def _loop(self, u0, rho0, tol):
        """The time loop: each block's steps are written into its rows,
        and their residuals checked, before it is handed on."""
        times, f, source, n_rows = self.times, self.f, self.source, len(self.times)
        size = min(block_rows(self.grid.n_nodes), n_rows)
        # the block's rows and the next one, which the rates of its steps need
        U, R = np.empty((2, size + 1, self.grid.n_nodes))
        U[0], R[0] = u0, rho0
        for first in range(0, n_rows, size):
            stop = min(first + size, n_rows)
            steps = slice(first + 1, min(stop + 1, n_rows))  # to the next row, if there is one
            u, rho = U[:steps.stop - first], R[:steps.stop - first]
            if len(u) > 1:  # a run's last block may be one row, the block before's next one
                f_steps, g_steps = f(steps), self.g_star[steps]
                s_steps = None if source is None else source(steps)
                self.stepper.steps(u, rho, f_steps, g_steps, s_steps)
                res = self.residual[steps] = self.stepper.residual(u[:-1], rho[:-1], u[1:], rho[1:], f_steps, g_steps,
                                                                   s_steps)
                over = np.flatnonzero(~(res <= tol))
                if over.size:
                    j = first + 1 + over[0]
                    raise SingularSystem(f"step {j} (t = {times[j]:.9g}): residual {res[over[0]]:.3e} "
                                         f"exceeds tol {tol:.3e}")
                del f_steps, s_steps, res  # not held while the block is read
            yield slice(first, stop), u, rho
            U[0], R[0] = u[-1], rho[-1]


def linear_ledger(run: LinearRun):
    """The row blocks of ``run`` as it makes them, with its ledger folded
    over them: a generator of the blocks which returns the ledger of
    stored energy, viscous and mobility dissipation rates, loading power,
    mass, step residuals and norms (see ``drain``).  A block's ledger rows
    are made before it is handed on; only they outlive it."""
    grid, tensors, tau = run.grid, run.tensors, run.stepper.tau
    n_rows, cols = len(run.times), {}
    for rows, u, rho in run:
        n = rows.stop - rows.start
        both = slice(rows.start, rows.start + len(u))
        f, g, us, rhos = run.f(both), run.g_star[both], u[:n], rho[:n]
        put_rows(cols, {
            "energy": state_energy(grid, tensors, us, rhos) - load_pairing(grid, f[:n], g[:n], us),
            "diss_diff": tensors.M_eq * np.sum(
                grid.h * gradient(grid, nodal_potential(grid, tensors, us, rhos)) ** 2, axis=-1),
            "mass": mass(grid, rhos),
            "h1_u": h1_norm(grid, us),
            "l2_rho": lq_norm(grid, rhos, 2),
            "linf_rho": lq_norm(grid, rhos, np.inf),
        }, rows.start, n_rows)
        put_rows(cols, {  # a step's row is the one it reaches; the rates difference one gradient
            "diss_mech": 0.5 * tensors.D * np.sum(
                grid.h * (np.diff(gradient(grid, u), axis=0) / tau) ** 2, axis=-1),
            "load_power": load_pairing(grid, f[1:] - f[:-1], g[1:] - g[:-1], u[:-1]) / tau,
        }, rows.start + 1, n_rows)
        del f  # not held while the block is read
        yield rows, u, rho
    cols.update(t=run.times, flux_boundary=np.zeros(n_rows), residual=run.residual)
    names = EnergyLedger.CORE + ("mass", "residual", "h1_u", "l2_rho", "linf_rho")
    return EnergyLedger(tau, {name: cols[name] for name in names})


def check_energy_balance(ledger: EnergyLedger) -> float:
    """Worst absolute defect of the discrete energy balance

        E(t) + sum tau * (2 * viscous rate + mobility rate)
             + sum tau * loading power - E(0) = 0,

    which is O(tau) for smooth data (implicit Euler damps one-sidedly)."""
    return float(np.max(np.abs(ledger.balance(
        2.0 * ledger.column("diss_mech") + ledger.column("diss_diff") + ledger.column("load_power")
    ))))


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
    mech = -divergence(C * gradient(grid, v) + K * cell_average(xi))[1:]
    pot = weights * (nodal_potential(grid, tensors, v, xi) - nu)
    residual = max(float(np.max(np.abs(mech - b))), float(np.max(np.abs(pot))),
                   abs(float(alt @ xi)), abs(float(weights @ xi) - total_mass))
    return v, xi, nu, residual
