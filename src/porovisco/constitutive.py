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

All evaluations are closed-form.  Scalar/array inputs are supported for
dim = 1 (the PDE solvers are one-dimensional); dim = 2 operates on single
2x2 matrices for the tensor-structure diagnostics, and has no Hessian,
hyperstress or mobility derivative.

Material admissibility is policed against the coded assumption set
(A1)-(A8) / (L1)-(L4) documented in the README; violations raise
:class:`InadmissibleMaterial` with the violated code in the message.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# 2x2 rotation generator used by the polar decomposition helpers.
_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
_I2 = np.eye(2)
_FD_STEP = 1e-5  # central-difference step of the self-check and the diagnostics


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
    M0: float | tuple = 1.0
    m: float = 1.0
    r: float = 0.0
    alpha: float = 0.0
    gamma1: float = 1.0
    gamma2: float = 1.0
    dim: int = 1

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

    def mobility_matrix(self) -> np.ndarray:
        """M0 as a (dim x dim) array (scalar input means M0 * identity)."""
        if self.dim == 1:
            return np.array([[float(self.M0)]])
        M0 = np.asarray(self.M0, dtype=float)
        if M0.shape == ():
            return float(M0) * np.eye(2)
        return M0.reshape(2, 2)


def _validate_params(pr: MaterialParams) -> None:
    errs: list[str] = []
    if pr.dim not in (1, 2):
        errs.append("dim must be 1 or 2")
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
    if not (pr.p >= 3.0 and pr.p > pr.dim):
        errs.append("(A1) requires p in (dim, inf) intersected with [3, inf)")
    elif pr.q_det < pr.p * pr.dim / (pr.p - pr.dim):
        errs.append("(A3)(i) requires q_det >= p*dim/(p - dim)")
    if pr.dim == 1:
        if not np.isscalar(pr.M0) or float(pr.M0) <= 0.0:
            errs.append("(A2) requires scalar M0 > 0 in dim = 1")
    else:
        M0 = np.asarray(pr.M0, dtype=float)
        if M0.shape == ():
            M0 = float(M0) * _I2
        if M0.shape != (2, 2) or not np.allclose(M0, M0.T) or np.linalg.eigvalsh(M0).min() <= 0.0:
            errs.append("(A2) requires M0 symmetric positive definite")
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
# dim = 2 helpers: polar factor and cofactor algebra
# ---------------------------------------------------------------------------

def _polar_rotation(F: np.ndarray) -> np.ndarray:
    # Closest rotation to F in 2-D: (a I + b J)/|(a,b)| with a = tr F,
    # b = F10 - F01.  Well defined on det F > 0.
    a = F[0, 0] + F[1, 1]
    b = F[1, 0] - F[0, 1]
    s = np.hypot(a, b)
    return (a * _I2 + b * _J2) / s


def _cof2(F: np.ndarray) -> np.ndarray:
    return np.array([[F[1, 1], -F[1, 0]], [-F[0, 1], F[0, 0]]])


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
# it, so the two agree bit for bit.  ``_state`` is a point's domain check.
# ---------------------------------------------------------------------------

def _state(pr: MaterialParams, F, c):
    """F and c as arrays, J = det F, J - 1 and the Biot coupling deviation
    c - c_eq - beta (J - 1), after the one domain check of the point."""
    F = np.asarray(F, dtype=float)
    c = np.asarray(c, dtype=float)
    J = F if pr.dim == 1 else np.linalg.det(F)
    # ndarray methods, not np.any: this runs on every evaluated point.
    # The minimum of an array with a NaN is NaN, which passes both tests.
    if J.min(initial=np.inf) <= 0.0:
        raise DomainError("det F must be positive for evaluation")
    if c.min(initial=np.inf) <= 0.0:
        raise DomainError("concentration must be positive for evaluation")
    Jm1 = J - 1.0
    return F, J, c, Jm1, c - pr.c_eq - pr.beta * Jm1


def _entropy(pr: MaterialParams, c):
    return pr.k * (c * np.log(c / pr.c_eq) - c + pr.c_eq)


def _energy(pr: MaterialParams, dist2, J, dev, ent):
    # Phi from dist^2(F, SO(d)), J, the coupling deviation and the entropy
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


def _d2cc(pr: MaterialParams, c):
    return pr.M_B + pr.k / c


def _hyper_1d(pr: MaterialParams, G):
    # (H(G), h(G), h'(G)), which share |G|^(p-2)
    p, nu, mag = pr.p, pr.nu_h, np.abs(G)
    mag_p2 = mag ** (p - 2.0)
    return (nu / p) * mag ** p, nu * mag_p2 * G, nu * (p - 1.0) * mag_p2


def _mobility_1d(pr: MaterialParams, J, c):
    return float(pr.M0) * (c / J) ** pr.m / J


def _mobility_dc_1d(pr: MaterialParams, J, c):
    return float(pr.M0) * pr.m * c ** (pr.m - 1.0) / J ** (pr.m + 1.0)


# ---------------------------------------------------------------------------
# free energy and its derivatives
# ---------------------------------------------------------------------------

def free_energy(params: MaterialParams, F, c):
    """Free energy density Phi(F, c); zero exactly on SO(d) x {c_eq}."""
    F, J, c, Jm1, dev = _state(params, F, c)
    dist2 = Jm1 ** 2 if params.dim == 1 else float(np.sum((F - _polar_rotation(F)) ** 2))
    return _energy(params, dist2, J, dev, _entropy(params, c))


def stress_elastic(params: MaterialParams, F, c):
    """First Piola-Kirchhoff stress, the F-derivative of the free energy."""
    F, J, _, Jm1, dev = _state(params, F, c)
    if params.dim == 1:
        return _stress_1d(params, J, Jm1, dev)
    R = _polar_rotation(F)
    return 2.0 * params.kappa_e * (F - R) + (_det_penalty_d1(params, J) + _pressure(params, dev)) * _cof2(F)


def chemical_potential(params: MaterialParams, F, c):
    """Chemical potential, the c-derivative of the free energy."""
    _, _, c, _, dev = _state(params, F, c)
    return _potential(params, c, dev)


def free_energy_hessian(params: MaterialParams, F, c):
    """Second derivatives (d2_FF, d2_Fc, d2_cc) of the free energy, for
    dim = 1; the blocks broadcast over array input.  No command needs the
    planar Hessian, so dim = 2 raises NotImplementedError.
    """
    if params.dim != 1:
        raise NotImplementedError("free_energy_hessian is implemented for dim = 1")
    F, J, c, _, _ = _state(params, F, c)
    d2FF = _stiffness_1d(params, J) * np.ones_like(F)
    d2Fc = -params.M_B * params.beta * np.ones_like(F)
    return d2FF, d2Fc, _d2cc(params, c)


# ---------------------------------------------------------------------------
# hyperstress, dissipation, mobility
# ---------------------------------------------------------------------------

def hyperstress(params: MaterialParams, G):
    """Hyperstress potential and its derivative, (H(G), h(G)).

    H(G) = (nu_h / p) |G|^p, h(G) = nu_h |G|^(p-2) G, elementwise over
    arrays, for dim = 1.  No command needs the planar hyperstress, so
    dim = 2 raises NotImplementedError.
    """
    if params.dim != 1:
        raise NotImplementedError("hyperstress is implemented for dim = 1")
    return _hyper_1d(params, np.asarray(G, dtype=float))[:2]


def hyperstress_dG(params: MaterialParams, G):
    """Derivative of the hyperstress h'(G) (dim = 1, elementwise)."""
    return _hyper_1d(params, np.asarray(G, dtype=float))[2]


def dissipation(params: MaterialParams, F, Fdot, c):
    """Dissipation density and viscous stress, (zeta, sigma_vi).

    zeta = 1/2 Cdot : Dt Cdot with Cdot = Fdot^T F + F^T Fdot and
    Dt = D_tilde * identity; sigma_vi = 2 F Dt Cdot.
    """
    D = params.D_tilde
    if params.dim == 1:
        Fa = np.asarray(F, dtype=float)
        Fd = np.asarray(Fdot, dtype=float)
        Cdot = 2.0 * Fa * Fd
        return 0.5 * D * Cdot ** 2, 2.0 * Fa * D * Cdot
    Fm = np.asarray(F, dtype=float)
    Fd = np.asarray(Fdot, dtype=float)
    Cdot = Fd.T @ Fm + Fm.T @ Fd
    return 0.5 * D * float(np.sum(Cdot ** 2)), 2.0 * D * (Fm @ Cdot)


def mobility(params: MaterialParams, F, c):
    """Reference-configuration mobility, the cofactor pull-back of the
    Eulerian mobility c_act^m M0 evaluated at c_act = c / det F.

    Degenerate: vanishes exactly at c = 0.  Negative concentrations are
    rejected.
    """
    c = np.asarray(c, dtype=float)
    if (c < 0.0).any():
        raise DomainError("mobility requires c >= 0")
    if params.dim == 1:
        J = np.asarray(F, dtype=float)
        if (J <= 0.0).any():
            raise DomainError("det F must be positive for mobility")
        return _mobility_1d(params, J, c)
    Fm = np.asarray(F, dtype=float)
    J = np.linalg.det(Fm)
    if J <= 0.0:
        raise DomainError("det F must be positive for mobility")
    cof = _cof2(Fm)
    M0 = params.mobility_matrix()
    return (float(c) / J) ** params.m * (cof.T @ M0 @ cof) / J


def mobility_dc(params: MaterialParams, F, c):
    """c-derivative of the dim = 1 mobility."""
    if params.dim != 1:
        raise NotImplementedError("mobility_dc is implemented for dim = 1")
    return _mobility_dc_1d(params, np.asarray(F, dtype=float), np.asarray(c, dtype=float))


# ---------------------------------------------------------------------------
# linearization around (I, c_eq)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizedTensors:
    """Second-order expansion tensors at the stress-free state (I, c_eq).

    For dim = 1 all entries are scalars; for dim = 2, C and D are
    (2,2,2,2) arrays, K and M_eq are (2,2) arrays and L stays scalar.
    """

    C: object
    K: object
    L: float
    D: object
    M_eq: object
    dim: int = 1

    def __post_init__(self) -> None:
        if self.L <= 0.0:
            raise InadmissibleMaterial("(A3)(ii) linearization requires L > 0")
        if self.dim == 1:
            if self.C <= 0.0:
                raise InadmissibleMaterial("(L2) linearization requires C > 0")
            if self.C * self.L - self.K ** 2 <= 0.0:
                raise InadmissibleMaterial("linearization requires L - K^2/C > 0")
            if self.M_eq <= 0.0:
                raise InadmissibleMaterial("(A2) linearization requires M_eq > 0")
            if self.D <= 0.0:
                raise InadmissibleMaterial("(A5) linearization requires D > 0")


def linearize(params: MaterialParams, fd_check: bool = True) -> LinearizedTensors:
    """Linearization tensors (C, K, L, D, M_eq) at (I, c_eq).

    Closed forms:
        C U = 2 kappa_e U^sym + (delta q (q+1) + M_B beta^2) tr(U) I,
        K   = -M_B beta I,
        L   = M_B + k / c_eq,
        D U = 4 D_tilde U^sym,
        M_eq = c_eq^m M0.
    Each analytic value is cross-checked against a central finite
    difference of the corresponding first derivative (step ``_FD_STEP``);
    disagreement beyond relative 1e-6 raises RuntimeError.
    """
    pr = params
    lam = pr.delta * pr.q_det * (pr.q_det + 1.0) + pr.M_B * pr.beta ** 2
    L = pr.M_B + pr.k / pr.c_eq
    if pr.dim == 1:
        tensors = LinearizedTensors(
            C=2.0 * pr.kappa_e + lam,
            K=-pr.M_B * pr.beta,
            L=L,
            D=4.0 * pr.D_tilde,
            M_eq=float(pr.M0) * pr.c_eq ** pr.m,
            dim=1,
        )
    else:
        sym4 = 0.5 * (
            np.einsum("ik,jl->ijkl", _I2, _I2) + np.einsum("il,jk->ijkl", _I2, _I2)
        )
        C = 2.0 * pr.kappa_e * sym4 + lam * np.einsum("ij,kl->ijkl", _I2, _I2)
        tensors = LinearizedTensors(
            C=C,
            K=-pr.M_B * pr.beta * _I2,
            L=L,
            D=4.0 * pr.D_tilde * sym4,
            M_eq=pr.c_eq ** pr.m * pr.mobility_matrix(),
            dim=2,
        )
    if fd_check:
        _linearize_fd_check(pr, tensors)
    return tensors


def _rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


def _fd_tensors(pr: MaterialParams):
    """The elasticity and viscosity tensors (C, D) at (I, c_eq) from central
    differences (step ``_FD_STEP``) of the elastic and viscous stresses."""
    ceq, s = pr.c_eq, _FD_STEP
    if pr.dim == 1:
        C = (stress_elastic(pr, 1.0 + s, ceq) - stress_elastic(pr, 1.0 - s, ceq)) / (2 * s)
        return C, (dissipation(pr, 1.0, s, ceq)[1] - dissipation(pr, 1.0, -s, ceq)[1]) / (2 * s)
    C = np.zeros((2, 2, 2, 2))
    D = np.zeros((2, 2, 2, 2))
    for k in range(2):
        for l in range(2):
            E = np.zeros((2, 2))
            E[k, l] = s
            C[:, :, k, l] = (stress_elastic(pr, _I2 + E, ceq) - stress_elastic(pr, _I2 - E, ceq)) / (2 * s)
            D[:, :, k, l] = (dissipation(pr, _I2, E, ceq)[1] - dissipation(pr, _I2, -E, ceq)[1]) / (2 * s)
    return C, D


def _linearize_fd_check(pr: MaterialParams, t: LinearizedTensors) -> None:
    ceq, s = pr.c_eq, _FD_STEP
    identity = 1.0 if pr.dim == 1 else _I2
    C_fd, D_fd = _fd_tensors(pr)
    K_fd = (stress_elastic(pr, identity, ceq + s) - stress_elastic(pr, identity, ceq - s)) / (2 * s)
    L_fd = (chemical_potential(pr, identity, ceq + s) - chemical_potential(pr, identity, ceq - s)) / (2 * s)
    pairs = [(t.C, C_fd), (t.K, K_fd), (t.L, L_fd), (t.D, D_fd), (t.M_eq, mobility(pr, identity, ceq))]
    for analytic, fd in pairs:
        if _rel_err(analytic, fd) > 1e-6:
            raise RuntimeError("linearization self-check failed against finite differences")


# ---------------------------------------------------------------------------
# grid-verified inequalities and tensor diagnostics
# ---------------------------------------------------------------------------

def mobility_log_bound_constant(m: float, c_eq: float, grid: Iterable[float]) -> float:
    """Grid supremum of x^m log^2(x/c_eq) / (x - c_eq)^2.

    Finite for 0 < m < 2; the supremum is the best constant bounding the
    m-weighted squared logarithm by the squared distance to c_eq.
    """
    if not (0.0 < m < 2.0):
        raise ValueError("exponent m must lie in (0, 2)")
    if c_eq <= 0.0:
        raise ValueError("c_eq must be positive")
    x = np.asarray(list(grid), dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("grid must be strictly positive")
    x = x[np.abs(x - c_eq) > 1e-14 * c_eq]
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
    if c_eq <= 0.0:
        raise ValueError("c_eq must be positive")
    x = np.asarray(list(grid), dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("grid must be strictly positive")
    x = x[np.abs(x - c_eq) > 1e-14 * c_eq]
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


def max_antisymmetric_action(params: MaterialParams, seed: int = 0):
    """Maximum of |C : W| and |D : W| over 10 random antisymmetric W (dim = 2).

    The tensors are measured by central finite differences of the analytic
    first derivatives at (I, c_eq); for a frame-indifferent model both
    maxima vanish to finite-difference accuracy.
    """
    if params.dim != 2:
        raise ValueError("antisymmetric action check requires dim = 2")
    C_fd, D_fd = _fd_tensors(params)
    rng = np.random.default_rng(seed)
    max_c = 0.0
    max_d = 0.0
    for _ in range(10):
        w = rng.uniform(-1.0, 1.0)
        W = w * _J2
        max_c = max(max_c, float(np.sqrt(np.sum(np.einsum("ijkl,kl->ij", C_fd, W) ** 2))))
        max_d = max(max_d, float(np.sqrt(np.sum(np.einsum("ijkl,kl->ij", D_fd, W) ** 2))))
    return max_c, max_d


def planar_twin(params: MaterialParams) -> MaterialParams:
    """The same material posed in dim = 2 (used by the tensor-structure
    diagnostics); the determinant-penalty exponent is raised if the
    two-dimensional growth condition demands it."""
    q_min = params.p * 2.0 / (params.p - 2.0)
    return MaterialParams(
        M_B=params.M_B, beta=params.beta, k=params.k, c_eq=params.c_eq,
        kappa_e=params.kappa_e, delta=params.delta,
        q_det=max(params.q_det, q_min),
        nu_h=params.nu_h, p=params.p, D_tilde=params.D_tilde,
        M0=float(params.M0) if params.dim == 1 else params.M0,
        m=params.m, r=params.r, alpha=params.alpha,
        gamma1=params.gamma1, gamma2=params.gamma2, dim=2,
    )


def _sym_basis_2d():
    e1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    e3 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    return (e1, e2, e3)


def min_symmetric_eigenvalue(params: MaterialParams, use_fd: bool = False) -> float:
    """Smallest eigenvalue of the elasticity tensor restricted to symmetric
    matrices; strictly positive for admissible parameters.

    With ``use_fd`` the tensor comes from finite differences of the stress
    instead of the closed form (oracle mode).
    """
    C = _fd_tensors(params)[0] if use_fd else linearize(params, fd_check=False).C
    if params.dim == 1:
        return float(C)
    basis = _sym_basis_2d()
    mat = np.array([[np.einsum("ijkl,kl,ij->", C, b, a) for b in basis] for a in basis])
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())
