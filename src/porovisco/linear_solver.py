"""Monolithic implicit solver for the coupled small-strain system.

One sparse direct solve advances displacement and concentration variation
together:

    -(C u' + K rho + D (u - u_prev)'/tau)' = f_star,   u(0) = 0,
    (rho - rho_prev)/tau = (M_eq mu_star')',           mu_star = K u' + L rho,

with traction g_star at x = 1 and zero flux at both ends.  The spatial
discretization is the cell-based quadrature form shared with the
finite-strain solver (its exact small-load limit), so the implicit Euler
update satisfies a one-sided discrete energy balance whose defect is
O(tau); ``check_energy_balance`` measures it.  A static solver produces
the equilibrium the evolution decays to under constant loading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import LinearizedTensors
from .discretization import (
    Grid1D,
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
    "LinearState",
    "LinearRun",
    "LinearStepper",
    "linear_step",
    "run_linear",
    "check_energy_balance",
    "static_solve",
    "state_energy",
    "nodal_potential",
]


class SingularSystem(RuntimeError):
    """The coupled system factorization failed; valid tensors cannot
    produce this, so it signals config corruption."""


@dataclass(frozen=True)
class LinearState:
    grid: Grid1D
    u: np.ndarray
    rho: np.ndarray
    t: float


@dataclass
class LinearRun:
    grid: Grid1D
    tensors: LinearizedTensors
    times: np.ndarray
    u: np.ndarray  # (steps+1, nodes)
    rho: np.ndarray  # (steps+1, nodes)
    ledger: EnergyLedger

    def state(self, k: int) -> LinearState:
        return LinearState(self.grid, self.u[k], self.rho[k], float(self.times[k]))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def _operators(grid: Grid1D):
    """Gradient-on-free-dofs, gradient-on-nodes and cell-average operators."""
    n = grid.n_cells
    h = grid.h
    Gu = sp.lil_matrix((n, n))
    for c in range(n):
        Gu[c, c] = 1.0 / h  # node c+1 <-> dof c
        if c >= 1:
            Gu[c, c - 1] = -1.0 / h
    Gr = sp.lil_matrix((n, n + 1))
    Ar = sp.lil_matrix((n, n + 1))
    for c in range(n):
        Gr[c, c] = -1.0 / h
        Gr[c, c + 1] = 1.0 / h
        Ar[c, c] = 0.5
        Ar[c, c + 1] = 0.5
    return Gu.tocsr(), Gr.tocsr(), Ar.tocsr()


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
    once.  ``ordering`` selects the dof layout ("blocked" or
    "interleaved"); a ``seed`` additionally applies a random symmetric
    permutation.  Solutions are ordering-independent to solver precision,
    which is what the uniqueness experiment measures.
    """

    def __init__(
        self,
        grid: Grid1D,
        tensors: LinearizedTensors,
        tau: float,
        ordering: str = "blocked",
        seed: Optional[int] = None,
    ):
        if tau <= 0.0:
            raise ValueError("tau must be positive")
        self.grid = grid
        self.tensors = tensors
        self.tau = tau
        n = grid.n_cells
        h = grid.h
        self.weights = node_weights(grid)
        Gu, Gr, Ar = _operators(grid)
        self._Gu, self._Gr, self._Ar = Gu, Gr, Ar
        w_inv = sp.diags(h / self.weights)
        # variational potential operators (nodes x dofs)
        self.MU_u = (w_inv @ Ar.T @ sp.diags(np.full(n, tensors.K)) @ Gu).tocsr()
        self.MU_r = (w_inv @ Ar.T @ sp.diags(np.full(n, tensors.L)) @ Ar).tocsr()
        S = (Gr.T @ sp.diags(np.full(n, h * tensors.M_eq)) @ Gr).tocsr()
        UU = (Gu.T @ sp.diags(np.full(n, h * (tensors.C + tensors.D / tau))) @ Gu).tocsr()
        Ur = (Gu.T @ sp.diags(np.full(n, h * tensors.K)) @ Ar).tocsr()
        rU = (tau * S @ self.MU_u).tocsr()
        rr = (sp.diags(self.weights) + tau * S @ self.MU_r).tocsr()
        A = sp.bmat([[UU, Ur], [rU, rr]], format="csc")
        self._visc = (Gu.T @ sp.diags(np.full(n, h * tensors.D / tau)) @ Gu).tocsr()
        N = A.shape[0]
        if ordering == "blocked":
            perm = np.arange(N)
        elif ordering == "interleaved":
            order = [n]  # rho_0 lives at blocked index n
            for j in range(1, n + 1):
                order.append(j - 1)  # u_j
                order.append(n + j)  # rho_j
            perm = np.asarray(order)
        else:
            raise ValueError("ordering must be 'blocked' or 'interleaved'")
        if seed is not None:
            rng = np.random.default_rng(seed)
            perm = perm[rng.permutation(N)]
        self._perm = perm
        self._A = A
        A_p = A[perm, :][:, perm].tocsc()
        try:
            self._lu = spla.splu(A_p)
        except RuntimeError as err:
            raise SingularSystem(f"coupled-system factorization failed: {err}") from err

    def step(self, u_prev: np.ndarray, rho_prev: np.ndarray, f_nodes: np.ndarray, g_value: float,
             source_nodes: Optional[np.ndarray] = None):
        n = self.grid.n_cells
        b_u = self.weights[1:] * f_nodes[1:]
        b_u[-1] += g_value
        b_u += self._visc @ u_prev[1:]
        b_r = self.weights * rho_prev
        if source_nodes is not None:
            b_r = b_r + self.tau * self.weights * source_nodes
        b = np.concatenate([b_u, b_r])
        x = np.empty_like(b)
        x[self._perm] = self._lu.solve(b[self._perm])
        # two passes of iterative refinement: the viscous block scales like
        # D/tau and the species block like h, so the raw solve leaves a
        # conditioning-limited defect that refinement removes
        for _ in range(2):
            defect = b - self._A @ x
            corr = np.empty_like(x)
            corr[self._perm] = self._lu.solve(defect[self._perm])
            x += corr
        residual = float(np.max(np.abs(self._A @ x - b)))
        u = np.concatenate([[0.0], x[:n]])
        rho = x[n:]
        return u, rho, residual


def linear_step(
    prev: LinearState,
    tau: float,
    tensors: LinearizedTensors,
    loading: BoundLoading,
    tol: float = 1e-10,
) -> LinearState:
    """Advance one implicit Euler step of the coupled system (one sparse
    direct solve); the achieved algebraic residual must meet ``tol``."""
    stepper = LinearStepper(prev.grid, tensors, tau)
    t_new = prev.t + tau
    src = loading.source_values(t_new, prev.grid.n_nodes) if loading.source is not None else None
    u, rho, residual = stepper.step(prev.u, prev.rho, loading.f_star(t_new), loading.g_star(t_new), src)
    if residual > tol:
        raise SingularSystem(f"step residual {residual:.3e} exceeds tol {tol:.3e}")
    return LinearState(prev.grid, u, rho, t_new)


_LINEAR_EXTRAS = ("mass", "residual", "h1_u", "l2_rho", "linf_rho")


def run_linear(
    grid: Grid1D,
    tensors: LinearizedTensors,
    loading: BoundLoading,
    u0: Optional[np.ndarray] = None,
    rho0: Optional[np.ndarray] = None,
    tau: float = 1e-3,
    T: float = 1.0,
    ordering: str = "blocked",
    seed: Optional[int] = None,
    tol: float = 1e-9,
) -> LinearRun:
    """Full trajectory of the coupled linear system with its ledger of
    stored energy, viscous and mobility dissipation rates, and loading
    power (zero-flux boundary: the discrete mass of rho is conserved)."""
    nn = grid.n_nodes
    u0 = np.zeros(nn) if u0 is None else np.asarray(u0, dtype=float)
    rho0 = np.zeros(nn) if rho0 is None else np.asarray(rho0, dtype=float)
    if abs(u0[0]) > 1e-14:
        raise ValueError("initial displacement must vanish at the pinned end")
    stepper = LinearStepper(grid, tensors, tau, ordering=ordering, seed=seed)
    n_steps = int(np.ceil(T / tau - 1e-12))
    times = tau * np.arange(n_steps + 1)
    U = np.empty((n_steps + 1, nn))
    R = np.empty((n_steps + 1, nn))
    U[0] = u0
    R[0] = rho0
    weights = node_weights(grid)
    ts = times.tolist()
    f_star = np.array([loading.f_star(t) for t in ts])
    g_star = np.array([loading.g_star(t) for t in ts])
    # the ledger columns that need the step's solver data; the others are
    # functions of the stored trajectory and are filled after the loop
    diss_mech, load_power, residuals = np.zeros((3, n_steps + 1))
    u, rho = u0.copy(), rho0.copy()
    for k in range(1, n_steps + 1):
        t = ts[k]
        src = loading.source_values(t, nn) if loading.source is not None else None
        u_new, rho_new, residual = stepper.step(u, rho, f_star[k], g_star[k], src)
        if residual > tol:
            raise SingularSystem(f"step residual {residual:.3e} exceeds tol {tol:.3e}")
        up_rate = (gradient(grid, u_new) - gradient(grid, u)) / tau
        diss_mech[k] = 0.5 * tensors.D * float(np.sum(grid.h * up_rate ** 2))
        load_power[k] = (
            float(np.sum(weights * (f_star[k] - f_star[k - 1]) * u))
            + (g_star[k] - g_star[k - 1]) * u[-1]
        ) / tau
        residuals[k] = residual
        u, rho = u_new, rho_new
        U[k] = u
        R[k] = rho

    def block(rows):
        return _linear_columns(grid, tensors, U[rows], R[rows], f_star[rows], g_star[rows])

    cols = map_row_blocks(n_steps + 1, block)
    cols.update(t=times, diss_mech=diss_mech, flux_boundary=np.zeros(n_steps + 1),
                load_power=load_power, residual=residuals)
    ledger = EnergyLedger(tau, {name: cols[name] for name in EnergyLedger.CORE + _LINEAR_EXTRAS})
    return LinearRun(grid, tensors, times, U, R, ledger)


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
    """
    n = grid.n_cells
    h = grid.h
    weights = node_weights(grid)
    Gu, Gr, Ar = _operators(grid)
    f_nodes = np.asarray(f_nodes, dtype=float)
    mech_u = (Gu.T @ sp.diags(np.full(n, h * tensors.C)) @ Gu).tocsr()
    mech_x = (Gu.T @ sp.diags(np.full(n, h * tensors.K)) @ Ar).tocsr()
    # potential rows scaled by node weights: h Ar^T (K v' + L xi_hat) = nu w
    pot_u = (Ar.T @ sp.diags(np.full(n, h * tensors.K)) @ Gu).tocsr()
    pot_x = (Ar.T @ sp.diags(np.full(n, h * tensors.L)) @ Ar).tocsr()
    N = 2 * n + 2
    A = sp.lil_matrix((N, N))
    b = np.zeros(N)
    A[:n, :n] = mech_u
    A[:n, n : 2 * n + 1] = mech_x
    b[:n] = weights[1:] * f_nodes[1:]
    b[n - 1] += g_value
    # potential rows for nodes 1..n (node 0's row is the redundant one and
    # is replaced by the oscillatory-mode constraint)
    A[n : 2 * n, :n] = pot_u[1:, :]
    A[n : 2 * n, n : 2 * n + 1] = pot_x[1:, :]
    A[n : 2 * n, 2 * n + 1] = -weights[1:, None]
    alt = weights * (-1.0) ** np.arange(n + 1)
    A[2 * n, n : 2 * n + 1] = alt[None, :]
    A[2 * n + 1, n : 2 * n + 1] = weights[None, :]
    b[2 * n + 1] = total_mass
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as err:
        raise SingularSystem(f"static-system factorization failed: {err}") from err
    x = lu.solve(b)
    v = np.concatenate([[0.0], x[:n]])
    xi = x[n : 2 * n + 1]
    nu = float(x[2 * n + 1])
    # self-certify against the full original equations, including the
    # replaced potential row
    res_mech = mech_u @ x[:n] + mech_x @ xi - b[:n]
    res_pot = pot_u @ x[:n] + pot_x @ xi - nu * weights
    res_mass = abs(float(weights @ xi) - total_mass)
    residual = max(float(np.max(np.abs(res_mech))), float(np.max(np.abs(res_pot))), res_mass)
    return v, xi, nu, residual
