"""Constitutive laws for a poro-visco-elastic solid with degenerate mobility.

The material is described by four ingredients:

1. A free energy density coupling a compressible elastic response to a
   diffusing species through a pressure-like Biot term and a Boltzmann
   entropy,
       Phi(F, c) = Phi_el(F) + M_B/2 (c - c_eq - beta (det F - 1))^2
                   + k (c log(c/c_eq) - c + c_eq),
   with Phi_el(F) = kappa_e dist^2(F, SO(d))
                   + delta (det F^{-q_det} + q_det det F - (q_det + 1)).
2. A convex p-power hyperstress potential on the second deformation
   gradient, H(G) = (nu_h / p) |G|^p.
3. A dissipation potential quadratic in the rate of the right
   Cauchy-Green tensor, zeta = 1/2 Cdot : Dt Cdot with Dt = D_tilde * Id.
4. A degenerate Eulerian mobility M(F, c_act) = c_act^m M0 pulled back to
   the reference configuration,
       Mref(F, c) = Cof(F)^T M(F, c / det F) Cof(F) / det F.

The model is posed in d dimensions; :class:`MaterialParams` is its 1-D
reduction, which the PDE solvers use.  All evaluations are closed-form and
broadcast over arrays.  Only the two tensor-structure diagnostics pose the
material in d = 2, at (I, c_eq), in the last section of this module.

Material admissibility is policed against the coded assumption set
(A1)-(A8) / (L1)-(L4) documented in the README; violations raise
:class:`InadmissibleMaterial` with the violated code in the message.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

__all__ = [
    "InadmissibleMaterial",
    "DomainError",
    "MaterialParams",
    "LinearizedTensors",
    "free_energy",
    "stress_elastic",
    "chemical_potential",
    "free_energy_hessian",
    "hyperstress",
    "dissipation",
    "mobility",
    "mobility_dc",
    "linearize",
    "mobility_log_bound_constant",
    "power_difference_bound_constant",
    "max_antisymmetric_action",
    "min_symmetric_eigenvalue",
]

_FD_STEP = 1e-5  # central-difference step of the self-check, the diagnostics and `verify`


class InadmissibleMaterial(ValueError):
    """Material parameters violate one of the coded assumptions."""


class DomainError(ValueError):
    """Constitutive evaluation outside det F > 0 or c > 0."""


@dataclass(frozen=True)
class MaterialParams:
    """Parameter set for the Biot-type free energy, hyperstress, viscosity
    and mobility.

    Growth exponents ``m, r, alpha`` and weights ``gamma1, gamma2`` select
    the admissible mobility window: Case I (gamma1 = gamma2 = 0) requires
    1 <= m <= 2 - eta; Case II (gamma2 >= gamma1 > 0) requires either the
    IIa window (m <= 3 + r - eta with 0 <= m + 2 alpha < m + 1 + r) or the
    IIb window (m <= 2 - eta with 0 <= m + 2 alpha < m + 2 + 2 r).
    Construction fails on any violation.
    """

    M_B: float = 1.0
    beta: float = 1.0
    k: float = 1.0
    c_eq: float = 1.0
    kappa_e: float = 0.5
    delta: float = 0.1
    q_det: float = 2.0
    nu_h: float = 0.01
    p: float = 3.0
    D_tilde: float = 0.25
    M0: float = 1.0
    m: float = 1.0
    r: float = 0.0
    alpha: float = 0.0
    gamma1: float = 1.0
    gamma2: float = 1.0

    def __post_init__(self) -> None:
        _validate_params(self)

    @property
    def case(self) -> str:
        """Mobility-window case label: "I", "IIa" or "IIb"."""
        if self.gamma1 == 0.0 and self.gamma2 == 0.0:
            return "I"
        if self.m < 3.0 + self.r and 0.0 <= self.m + 2.0 * self.alpha < self.m + 1.0 + self.r:
            return "IIa"
        return "IIb"


def _validate_params(pr: MaterialParams) -> None:
    errs: list[str] = []
    if pr.c_eq <= 0.0:
        errs.append("(L2) requires c_eq > 0")
    if pr.M_B <= 0.0:
        errs.append("Biot modulus M_B must be > 0")
    if pr.k <= 0.0:
        errs.append("(A3)(ii) requires entropy weight k > 0")
    if pr.kappa_e <= 0.0:
        errs.append("(L2) requires kappa_e > 0")
    if pr.delta < 0.0:
        errs.append("volumetric penalty weight delta must be >= 0")
    if pr.nu_h <= 0.0:
        errs.append("(A1) requires nu_h > 0")
    if pr.D_tilde <= 0.0:
        errs.append("(A5) requires D_tilde > 0")
    if not pr.p >= 3.0:
        errs.append("(A1) requires p >= 3")
    elif pr.q_det < pr.p / (pr.p - 1.0):
        errs.append("(A3)(i) requires q_det >= p/(p - 1)")
    if pr.M0 <= 0.0:
        errs.append("(A2) requires M0 > 0")
    if pr.m <= 0.0:
        errs.append("(A2) requires mobility exponent m > 0")
    if pr.r <= -1.0:
        errs.append("(A3)(ii) requires r > -1")
    if pr.m + pr.r < 0.0:
        errs.append("(A3)(ii) requires m + r >= 0")
    if pr.alpha < -1.0:
        errs.append("(A3)(iii) requires alpha >= -1")
    if pr.gamma1 < 0.0 or pr.gamma2 < pr.gamma1:
        errs.append("(A3)(ii) requires 0 <= gamma1 <= gamma2")
    elif pr.gamma1 == 0.0 and pr.gamma2 > 0.0:
        errs.append("(A3)(ii) Case I requires gamma1 = gamma2 = 0; Case II requires gamma1 > 0")
    elif pr.gamma1 == 0.0:
        # Case I window.
        if not (1.0 <= pr.m < 2.0):
            errs.append("(A3)(ii) Case I requires 1 <= m <= 2 - eta")
        if pr.m + 2.0 * pr.alpha < 0.0:
            errs.append("(A3)(iii) Case I requires m + 2*alpha >= 0")
    else:
        # Case II windows.
        ok_iia = pr.m < 3.0 + pr.r and 0.0 <= pr.m + 2.0 * pr.alpha < pr.m + 1.0 + pr.r
        ok_iib = pr.m < 2.0 and 0.0 <= pr.m + 2.0 * pr.alpha < pr.m + 2.0 + 2.0 * pr.r
        if not (ok_iia or ok_iib):
            errs.append(
                "(A3)(ii)/(iii) Case II requires IIa (0 < m <= 3 + r - eta with "
                "0 <= m + 2*alpha < m + 1 + r) or IIb (0 < m <= 2 - eta with "
                "0 <= m + 2*alpha < m + 2 + 2*r)"
            )
    if errs:
        raise InadmissibleMaterial("; ".join(errs))


# ---------------------------------------------------------------------------
# the determinant penalty phi(J) = delta (J^-q + q J - (q + 1))
# ---------------------------------------------------------------------------

def _det_penalty(pr: MaterialParams, J):
    q = pr.q_det
    return pr.delta * (J ** (-q) + q * J - (q + 1.0))


def _det_penalty_d1(pr: MaterialParams, J):
    q = pr.q_det
    return pr.delta * q * (1.0 - J ** (-q - 1.0))


def _det_penalty_d2(pr: MaterialParams, J):
    q = pr.q_det
    return pr.delta * q * (q + 1.0) * J ** (-q - 2.0)


# ---------------------------------------------------------------------------
# the free-energy kernel: each formula once, on shared intermediates.  The
# public functions and the finite-strain solver's point evaluations call
# it, so the two agree bit for bit.  ``_state`` adds a point's domain check.
# ---------------------------------------------------------------------------

def _state(pr: MaterialParams, F, c):
    """F = det F and c as arrays, F - 1 and the Biot coupling deviation
    c - c_eq - beta (F - 1), after the one domain check of the point."""
    F, c = np.asarray(F, dtype=float), np.asarray(c, dtype=float)
    _positive(F, "det F")
    _positive(c, "concentration")
    return (F, c) + _strain(pr, F, c)


def _positive(x: np.ndarray, name: str):
    # an ndarray method, not np.any; the minimum of an array with a NaN is NaN, which passes
    if x.min(initial=np.inf) <= 0.0:
        raise DomainError(f"{name} must be positive for evaluation")


def _strain(pr: MaterialParams, F: np.ndarray, c: np.ndarray):
    # F - 1 and the coupling deviation, unchecked
    Jm1 = F - 1.0
    return Jm1, c - pr.c_eq - pr.beta * Jm1


def _entropy(pr: MaterialParams, c):
    return pr.k * (c * np.log(c / pr.c_eq) - c + pr.c_eq)


def _energy(pr: MaterialParams, dist2, J, dev, ent):
    # Phi from dist^2(F, SO(1)) = (F - 1)^2, J, the coupling deviation and
    # the entropy
    return pr.kappa_e * dist2 + _det_penalty(pr, J) + 0.5 * pr.M_B * dev ** 2 + ent


def _pressure(pr: MaterialParams, dev):
    return -pr.M_B * pr.beta * dev


def _stress_1d(pr: MaterialParams, J, Jm1, dev):
    return 2.0 * pr.kappa_e * Jm1 + _det_penalty_d1(pr, J) + _pressure(pr, dev)


def _potential(pr: MaterialParams, c, dev):
    return pr.M_B * dev + pr.k * np.log(c / pr.c_eq)


def _stiffness_1d(pr: MaterialParams, J):
    # d2_FF Phi
    return 2.0 * pr.kappa_e + _det_penalty_d2(pr, J) + pr.M_B * pr.beta ** 2


def _lame(pr: MaterialParams):
    # the volumetric modulus lambda of the linearization at (I, c_eq)
    return pr.delta * pr.q_det * (pr.q_det + 1.0) + pr.M_B * pr.beta ** 2


def _d2cc(pr: MaterialParams, c):
    return pr.M_B + pr.k / c


def _hyper_1d(pr: MaterialParams, G):
    # (H(G), h(G), h'(G)), which share |G|^(p-2)
    p, nu, mag = pr.p, pr.nu_h, np.abs(G)
    mag_p2 = mag ** (p - 2.0)
    return (nu / p) * mag ** p, nu * mag_p2 * G, nu * (p - 1.0) * mag_p2


def _mobility_1d(pr: MaterialParams, J, c):
    return pr.M0 * (c / J) ** pr.m / J


def _mobility_dc_1d(pr: MaterialParams, J, c):
    return pr.M0 * pr.m * c ** (pr.m - 1.0) / J ** (pr.m + 1.0)


# ---------------------------------------------------------------------------
# free energy and its derivatives
# ---------------------------------------------------------------------------

def free_energy(params: MaterialParams, F, c):
    """Free energy density Phi(F, c); zero exactly at (1, c_eq)."""
    F, c, Jm1, dev = _state(params, F, c)
    return _energy(params, Jm1 ** 2, F, dev, _entropy(params, c))


def stress_elastic(params: MaterialParams, F, c):
    """First Piola-Kirchhoff stress, the F-derivative of the free energy."""
    F, _, Jm1, dev = _state(params, F, c)
    return _stress_1d(params, F, Jm1, dev)


def chemical_potential(params: MaterialParams, F, c):
    """Chemical potential, the c-derivative of the free energy."""
    _, c, _, dev = _state(params, F, c)
    return _potential(params, c, dev)


def free_energy_hessian(params: MaterialParams, F, c):
    """Second derivatives (d2_FF, d2_Fc, d2_cc) of the free energy; the
    blocks broadcast over array input."""
    F, c, _, _ = _state(params, F, c)
    d2FF = _stiffness_1d(params, F) * np.ones_like(F)
    d2Fc = -params.M_B * params.beta * np.ones_like(F)
    return d2FF, d2Fc, _d2cc(params, c)


# ---------------------------------------------------------------------------
# hyperstress, dissipation, mobility
# ---------------------------------------------------------------------------

def hyperstress(params: MaterialParams, G):
    """Hyperstress potential and its derivative, (H(G), h(G)).

    H(G) = (nu_h / p) |G|^p, h(G) = nu_h |G|^(p-2) G, elementwise over
    arrays.
    """
    return _hyper_1d(params, np.asarray(G, dtype=float))[:2]


def hyperstress_dG(params: MaterialParams, G):
    """Derivative of the hyperstress h'(G) (elementwise)."""
    return _hyper_1d(params, np.asarray(G, dtype=float))[2]


def dissipation(params: MaterialParams, F, Fdot, c):
    """Dissipation density and viscous stress, (zeta, sigma_vi).

    zeta = 1/2 D_tilde Cdot^2 with Cdot = 2 F Fdot; sigma_vi = 2 F D_tilde Cdot.
    """
    D = params.D_tilde
    Fa = np.asarray(F, dtype=float)
    Fd = np.asarray(Fdot, dtype=float)
    Cdot = 2.0 * Fa * Fd
    return 0.5 * D * Cdot ** 2, 2.0 * Fa * D * Cdot


def mobility(params: MaterialParams, F, c):
    """Reference-configuration mobility, the cofactor pull-back of the
    Eulerian mobility c_act^m M0 evaluated at c_act = c / det F.

    Degenerate: vanishes exactly at c = 0.  Negative concentrations are
    rejected.
    """
    c = np.asarray(c, dtype=float)
    if (c < 0.0).any():
        raise DomainError("mobility requires c >= 0")
    J = np.asarray(F, dtype=float)
    if (J <= 0.0).any():
        raise DomainError("det F must be positive for mobility")
    return _mobility_1d(params, J, c)


def mobility_dc(params: MaterialParams, F, c):
    """c-derivative of the mobility."""
    return _mobility_dc_1d(params, np.asarray(F, dtype=float), np.asarray(c, dtype=float))


# ---------------------------------------------------------------------------
# linearization around (1, c_eq)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizedTensors:
    """Second-order expansion coefficients at the stress-free state
    (1, c_eq), all scalars."""

    C: float
    K: float
    L: float
    D: float
    M_eq: float

    def __post_init__(self) -> None:
        if self.L <= 0.0:
            raise InadmissibleMaterial("(A3)(ii) linearization requires L > 0")
        if self.C <= 0.0:
            raise InadmissibleMaterial("(L2) linearization requires C > 0")
        if self.C * self.L - self.K ** 2 <= 0.0:
            raise InadmissibleMaterial("linearization requires L - K^2/C > 0")
        if self.M_eq <= 0.0:
            raise InadmissibleMaterial("(A2) linearization requires M_eq > 0")
        if self.D <= 0.0:
            raise InadmissibleMaterial("(A5) linearization requires D > 0")


def linearize(params: MaterialParams) -> LinearizedTensors:
    """Linearization coefficients (C, K, L, D, M_eq) at (1, c_eq).

    Closed forms:
        C   = 2 kappa_e + lambda, lambda = delta q (q+1) + M_B beta^2,
        K   = -M_B beta,
        L   = M_B + k / c_eq,
        D   = 4 D_tilde,
        M_eq = c_eq^m M0.
    Each analytic value is cross-checked against a central finite
    difference of the corresponding first derivative (step ``_FD_STEP``);
    disagreement beyond relative 1e-6 raises RuntimeError.
    """
    pr = params
    tensors = LinearizedTensors(
        C=2.0 * pr.kappa_e + _lame(pr),
        K=-pr.M_B * pr.beta,
        L=pr.M_B + pr.k / pr.c_eq,
        D=4.0 * pr.D_tilde,
        M_eq=pr.M0 * pr.c_eq ** pr.m,
    )
    _linearize_fd_check(pr, tensors)
    return tensors


def _rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


def _linearize_fd_check(pr: MaterialParams, t: LinearizedTensors) -> None:
    ceq, s = pr.c_eq, _FD_STEP
    C_fd = (stress_elastic(pr, 1.0 + s, ceq) - stress_elastic(pr, 1.0 - s, ceq)) / (2 * s)
    D_fd = (dissipation(pr, 1.0, s, ceq)[1] - dissipation(pr, 1.0, -s, ceq)[1]) / (2 * s)
    K_fd = (stress_elastic(pr, 1.0, ceq + s) - stress_elastic(pr, 1.0, ceq - s)) / (2 * s)
    L_fd = (chemical_potential(pr, 1.0, ceq + s) - chemical_potential(pr, 1.0, ceq - s)) / (2 * s)
    pairs = [(t.C, C_fd), (t.K, K_fd), (t.L, L_fd), (t.D, D_fd), (t.M_eq, mobility(pr, 1.0, ceq))]
    for analytic, fd in pairs:
        if _rel_err(analytic, fd) > 1e-6:
            raise RuntimeError("linearization self-check failed against finite differences")


# ---------------------------------------------------------------------------
# grid-verified inequalities
# ---------------------------------------------------------------------------

def _bound_grid(c_eq: float, grid: Iterable[float]) -> np.ndarray:
    """The points of the positive ``grid`` at which a bound constant's
    ratio is evaluated: all but those at c_eq."""
    if c_eq <= 0.0:
        raise ValueError("c_eq must be positive")
    x = np.asarray(list(grid), dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("grid must be strictly positive")
    return x[np.abs(x - c_eq) > 1e-14 * c_eq]


def mobility_log_bound_constant(m: float, c_eq: float, grid: Iterable[float]) -> float:
    """Grid supremum of x^m log^2(x/c_eq) / (x - c_eq)^2.

    Finite for 0 < m < 2; the supremum is the best constant bounding the
    m-weighted squared logarithm by the squared distance to c_eq.
    """
    if not (0.0 < m < 2.0):
        raise ValueError("exponent m must lie in (0, 2)")
    x = _bound_grid(c_eq, grid)
    ratio = x ** m * np.log(x / c_eq) ** 2 / (x - c_eq) ** 2
    return float(np.max(ratio))


def power_difference_bound_constant(r: float, c_eq: float, grid: Iterable[float]) -> float:
    """Grid supremum of
    |x^{r+1} - c_eq^{r+1}| / (|(x^{r+2} - c_eq^{r+2})/(r+2)
                              - c_eq^{r+1} (x - c_eq)| + |x - c_eq|).

    Finite for r > -1; bounds the power difference by the convexity
    remainder plus the plain distance.
    """
    if r <= -1.0:
        raise ValueError("exponent r must be > -1")
    x = _bound_grid(c_eq, grid)
    num = np.abs(x ** (r + 1.0) - c_eq ** (r + 1.0))
    rem = np.abs((x ** (r + 2.0) - c_eq ** (r + 2.0)) / (r + 2.0) - c_eq ** (r + 1.0) * (x - c_eq))
    ratio = num / (rem + np.abs(x - c_eq))
    return float(np.max(ratio))


def verification_grid(c_eq: float, n: int = 2000) -> np.ndarray:
    """Default evaluation grid for the inequality verifiers: geometric
    coverage of (1e-4 c_eq, 10 c_eq) plus linear refinement near c_eq."""
    coarse = np.geomspace(1e-4 * c_eq, 10.0 * c_eq, n)
    near = np.linspace(0.5 * c_eq, 1.5 * c_eq, n)
    g = np.unique(np.concatenate([coarse, near]))
    return g[np.abs(g - c_eq) > 1e-12 * c_eq]


# ---------------------------------------------------------------------------
# the tensor-structure diagnostics: the material posed in d = 2 at
# (I, c_eq), the one place where a second dimension enters
# ---------------------------------------------------------------------------

# the 2x2 identity and rotation generator
_I2 = np.eye(2)
_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _planar(params: MaterialParams) -> MaterialParams:
    """The material with the determinant-penalty exponent of d = 2: q_det
    is raised to 2p/(p - 2) where the planar growth condition (A3)(i)
    demands it."""
    return replace(params, q_det=max(params.q_det, params.p * 2.0 / (params.p - 2.0)))


def _polar_rotation(F: np.ndarray) -> np.ndarray:
    # Closest rotation to F in 2-D: (a I + b J)/|(a,b)| with a = tr F,
    # b = F10 - F01.  Well defined on det F > 0.
    a = F[0, 0] + F[1, 1]
    b = F[1, 0] - F[0, 1]
    s = np.hypot(a, b)
    return (a * _I2 + b * _J2) / s


def _cof2(F: np.ndarray) -> np.ndarray:
    return np.array([[F[1, 1], -F[1, 0]], [-F[0, 1], F[0, 0]]])


def _planar_stress(pr: MaterialParams, F: np.ndarray) -> np.ndarray:
    """First Piola-Kirchhoff stress of a 2x2 F at c = c_eq:
    2 kappa_e (F - R) + (phi'(J) + pressure) Cof F, R the polar rotation."""
    J = np.linalg.det(F)
    dev = pr.c_eq - pr.c_eq - pr.beta * (J - 1.0)  # c - c_eq - beta (J - 1)
    return 2.0 * pr.kappa_e * (F - _polar_rotation(F)) + (_det_penalty_d1(pr, J) + _pressure(pr, dev)) * _cof2(F)


def _planar_fd_tensors(params: MaterialParams):
    """The planar elasticity and viscosity tensors (C, D) at (I, c_eq) from
    central differences (step ``_FD_STEP``) of the elastic stress and of
    the viscous stress 2 D_tilde F Cdot, Cdot = Fdot^T F + F^T Fdot."""
    pr, s = _planar(params), _FD_STEP

    def viscous(Fd):
        return 2.0 * pr.D_tilde * (_I2 @ (Fd.T @ _I2 + _I2.T @ Fd))

    C = np.zeros((2, 2, 2, 2))
    D = np.zeros((2, 2, 2, 2))
    for k in range(2):
        for l in range(2):
            E = np.zeros((2, 2))
            E[k, l] = s
            C[:, :, k, l] = (_planar_stress(pr, _I2 + E) - _planar_stress(pr, _I2 - E)) / (2 * s)
            D[:, :, k, l] = (viscous(E) - viscous(-E)) / (2 * s)
    return C, D


def _planar_elasticity(params: MaterialParams) -> np.ndarray:
    """The closed-form planar elasticity tensor at (I, c_eq),
    C U = 2 kappa_e U^sym + lambda tr(U) I."""
    sym4 = 0.5 * (np.einsum("ik,jl->ijkl", _I2, _I2) + np.einsum("il,jk->ijkl", _I2, _I2))
    return 2.0 * params.kappa_e * sym4 + _lame(_planar(params)) * np.einsum("ij,kl->ijkl", _I2, _I2)


def max_antisymmetric_action(params: MaterialParams):
    """The Frobenius norms |C : J| and |D : J| for the material posed in
    d = 2, J = [[0, -1], [1, 0]].  Every antisymmetric 2x2 matrix is a
    multiple w J, whose action is |w| times these, so one evaluation at J
    measures the action on all of them.

    The tensors are measured by central finite differences of the analytic
    first derivatives at (I, c_eq); for a frame-indifferent model both
    norms vanish to finite-difference accuracy.
    """
    return tuple(float(np.sqrt(np.sum(np.einsum("ijkl,kl->ij", tensor, _J2) ** 2)))
                 for tensor in _planar_fd_tensors(params))


def min_symmetric_eigenvalue(params: MaterialParams, use_fd: bool = False) -> float:
    """Smallest eigenvalue of the planar elasticity tensor restricted to
    symmetric matrices; strictly positive for admissible parameters.

    With ``use_fd`` the tensor comes from finite differences of the stress
    instead of the closed form (oracle mode).
    """
    C = _planar_fd_tensors(params)[0] if use_fd else _planar_elasticity(params)
    basis = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0))
    mat = np.array([[np.einsum("ijkl,kl,ij->", C, b, a) for b in basis] for a in basis])
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
