"""Acceptance suite: every shipped structure guarantee, one test per
criterion, each printing a PASS line with the measured value once its
assertions hold.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest
import sympy as sp

import porovisco.constitutive as mat
from porovisco.constitutive import (
    linearize,
    max_antisymmetric_action,
    min_symmetric_eigenvalue,
    mobility_log_bound_constant,
    power_difference_bound_constant,
    verification_grid,
)
from porovisco.discretization import Grid1D, drain, lq_norm
from porovisco.experiments import eps_sweep, long_time_decay
from porovisco.linear_solver import check_energy_balance, linear_ledger, run_linear
from porovisco.loading import BoundLoading
from porovisco.nonlinear_solver import check_dissipation_inequality, norm_ladder

from conftest import default_loading, stored, uniqueness_discrepancy


def report(name, **measured):
    vals = ", ".join(f"{k} = {v:.6g}" for k, v in measured.items())
    print(f"\nACCEPTANCE {name}: PASS ({vals})")


@pytest.fixture(scope="session")
def biot_sweep(unit_params):
    grid = Grid1D(64)
    return eps_sweep(
        unit_params, grid, default_loading(grid), (0.2, 0.1, 0.05, 0.025),
        tau=1e-3, T=1.0, tol=5e-11,
    )


def test_criterion_1_constitutive_correctness(unit_params):
    """First/second derivatives match central differences to relative 1e-6
    at 50 randomized admissible points; linearize reproduces the unit
    Biot tensors."""
    pr = unit_params
    rng = np.random.default_rng(20240815)
    s = 1e-6
    worst = 0.0

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1.0)

    for _ in range(50):
        F = rng.uniform(0.6, 1.6)
        c = rng.uniform(0.3, 3.0)
        Fd = rng.uniform(-1.0, 1.0)
        G = rng.uniform(-2.0, 2.0)
        worst = max(worst, rel(
            float(mat.stress_elastic(pr, F, c)),
            (mat.free_energy(pr, F + s, c) - mat.free_energy(pr, F - s, c)) / (2 * s)))
        worst = max(worst, rel(
            float(mat.chemical_potential(pr, F, c)),
            (mat.free_energy(pr, F, c + s) - mat.free_energy(pr, F, c - s)) / (2 * s)))
        ff, fc, cc = mat.free_energy_hessian(pr, F, c)
        worst = max(worst, rel(float(ff),
            (mat.stress_elastic(pr, F + s, c) - mat.stress_elastic(pr, F - s, c)) / (2 * s)))
        worst = max(worst, rel(float(fc),
            (mat.stress_elastic(pr, F, c + s) - mat.stress_elastic(pr, F, c - s)) / (2 * s)))
        worst = max(worst, rel(float(cc),
            (mat.chemical_potential(pr, F, c + s) - mat.chemical_potential(pr, F, c - s)) / (2 * s)))
        worst = max(worst, rel(float(mat.dissipation(pr, F, Fd, c)[1]),
            (mat.dissipation(pr, F, Fd + s, c)[0] - mat.dissipation(pr, F, Fd - s, c)[0]) / (2 * s)))
        worst = max(worst, rel(float(mat.hyperstress(pr, G)[1]),
            (mat.hyperstress(pr, G + s)[0] - mat.hyperstress(pr, G - s)[0]) / (2 * s)))
    assert worst <= 1e-6

    t = linearize(pr)  # internal finite-difference cross-check active
    assert t.C == pytest.approx(2.6, abs=1e-12)
    assert t.K == pytest.approx(-1.0, abs=1e-14)
    assert t.L == pytest.approx(2.0, abs=1e-14)
    assert t.D == pytest.approx(1.0, abs=1e-14)
    assert t.M_eq == pytest.approx(1.0, abs=1e-14)
    report("1 constitutive correctness", worst_derivative_mismatch=worst)


def test_criterion_2_tensor_structure(unit_params):
    """|C:W| and |D:W| <= 1e-6 per unit |w| for every antisymmetric W = w J
    in d = 2; the elasticity tensor is positive definite on symmetric
    matrices."""
    max_c, max_d = max_antisymmetric_action(unit_params)
    assert max_c <= 1e-6
    assert max_d <= 1e-6
    lam = min_symmetric_eigenvalue(unit_params)
    assert lam > 0.0
    report("2 tensor structure", antisym_action=max(max_c, max_d), min_eigenvalue=lam)


def test_criterion_3_grid_inequalities():
    """Grid suprema of both verified inequalities are finite and
    refinement-stable within 5%; the unit power-difference fixture stays
    below 1 + 1e-9."""
    a1 = mobility_log_bound_constant(1.0, 1.0, verification_grid(1.0, 2000))
    a2 = mobility_log_bound_constant(1.0, 1.0, verification_grid(1.0, 4000))
    assert np.isfinite(a1)
    assert abs(a1 - a2) <= 0.05 * max(a1, a2)
    b1 = power_difference_bound_constant(0.0, 1.0, verification_grid(1.0, 2000))
    b2 = power_difference_bound_constant(0.0, 1.0, verification_grid(1.0, 4000))
    assert np.isfinite(b1)
    assert abs(b1 - b2) <= 0.05 * max(b1, b2)
    assert b1 <= 1.0 + 1e-9
    report("3 grid inequalities", log_bound=a1, power_bound=b1)


def test_criterion_4_nonlinear_structure(biot_run):
    """n = 64, tau = 1e-3, T = 1, eps = 0.1: orientation and positivity
    hold, mass drifts at most 1e-12, the dissipation inequality is
    violated by at most 1e-9, and per-step weak residuals stay below
    1e-10."""
    led = biot_run.ledger
    assert float(np.min(led.column("min_F"))) > 0.0
    assert float(np.min(led.column("min_c"))) > 0.0
    masses = led.column("mass")
    drift = float(np.max(np.abs(masses - masses[0])))
    assert drift <= 1e-12
    violation = check_dissipation_inequality(led)
    assert violation <= 1e-9
    resid = max(float(led.column("residual_mech").max()),
                float(led.column("residual_diff").max()))
    assert resid <= 1e-10
    report("4 nonlinear structure", mass_drift=drift, dissipation_violation=violation,
           worst_residual=resid)


def test_criterion_5_limit_passage(biot_sweep):
    """eps in {0.2, 0.1, 0.05, 0.025}: every error column strictly
    decreases in eps and every audit column has max/min ratio <= 3."""
    rep = biot_sweep
    for name, vals in rep.errors.items():
        assert all(np.diff(vals) < 0.0), f"{name} not strictly decreasing: {vals}"
    audited = ("u_linf_h1", "udot_grad_l2", "d2u_scaled_lp",
               "llogl_over_eps2", "rho_linf_l2", "c_linf_linf")
    for name in audited:
        assert rep.audit_ratios[name] <= 3.0, f"{name} ratio {rep.audit_ratios[name]}"
    assert max(rep.dissipation_violations) <= 1e-9
    report("5 limit passage",
           worst_order=min(o for os in rep.orders.values() for o in os),
           max_audit_ratio=max(rep.audit_ratios[n] for n in audited))


def test_criterion_6_energy_balance_order(unit_params):
    """Linear energy-balance residual decays with measured order >= 0.9
    over tau in {4e-3, 2e-3, 1e-3}."""
    tensors = linearize(unit_params)
    grid = Grid1D(64)
    x = grid.nodes
    loading = BoundLoading(
        f=lambda t: 0.5 * np.sin(t) * np.sin(np.pi * x),
        g=lambda t: 0.3 * np.sin(t),
    )
    rho0 = 0.3 * np.cos(np.pi * x)
    taus = (4e-3, 2e-3, 1e-3)
    residuals = []
    for tau in taus:
        ledger = drain(linear_ledger(run_linear(grid, tensors, loading, rho0=rho0, tau=tau, T=0.48)))
        residuals.append(check_energy_balance(ledger))
    slope = np.polyfit(np.log(taus), np.log(residuals), 1)[0]
    assert slope >= 0.9
    report("6 energy balance order", measured_order=slope,
           residual_at_finest=residuals[-1])


def test_criterion_7_manufactured_convergence(unit_params):
    """Manufactured-solution spatial order >= 1.9 in L2 over
    n in {32, 64, 128} at fixed small tau."""
    tensors = linearize(unit_params)
    C, K, L, D, M = tensors.C, tensors.K, tensors.L, tensors.D, tensors.M_eq
    xs, ts = sp.symbols("x t")
    # linear-in-time amplitudes make implicit Euler time-exact, and the
    # potential gradient vanishes at both endpoints
    u_exact = sp.Rational(3, 10) * (1 + ts) * (xs / 2 - sp.sin(2 * sp.pi * xs) / (4 * sp.pi))
    rho_exact = sp.Rational(1, 5) * (1 + ts / 2) * sp.cos(sp.pi * xs)
    mu_exact = K * sp.diff(u_exact, xs) + L * rho_exact
    sigma = C * sp.diff(u_exact, xs) + K * rho_exact + D * sp.diff(sp.diff(u_exact, ts), xs)
    f_expr = -sp.diff(sigma, xs)
    g_expr = sigma.subs(xs, 1)
    s_expr = sp.diff(rho_exact, ts) - M * sp.diff(mu_exact, xs, 2)
    assert sp.simplify(sp.diff(mu_exact, xs).subs(xs, 0)) == 0
    assert sp.simplify(sp.diff(mu_exact, xs).subs(xs, 1)) == 0
    f_fn = sp.lambdify((ts, xs), f_expr, "numpy")
    g_fn = sp.lambdify(ts, g_expr, "numpy")
    s_fn = sp.lambdify((ts, xs), s_expr, "numpy")
    u_fn = sp.lambdify((ts, xs), u_exact, "numpy")
    r_fn = sp.lambdify((ts, xs), rho_exact, "numpy")

    tau, T = 1e-3, 0.05
    errors = []
    for n in (32, 64, 128):
        grid = Grid1D(n)
        x = grid.nodes
        loading = BoundLoading(
            f=lambda t, x=x: f_fn(t, x),
            g=lambda t: float(g_fn(t)),
            source=lambda t, x=x: s_fn(t, x),
        )
        run = stored(run_linear, grid, tensors, loading, u0=u_fn(0.0, x), rho0=r_fn(0.0, x),
                     tau=tau, T=T)
        eu = lq_norm(grid, run.u[-1] - u_fn(T, x), 2)
        er = lq_norm(grid, run.rho[-1] - r_fn(T, x), 2)
        errors.append(float(np.hypot(eu, er)))
    orders = np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))
    assert np.all(orders >= 1.9)
    report("7 manufactured convergence", order_32_64=orders[0], order_64_128=orders[1])


def test_criterion_8_uniqueness_and_decay(unit_params):
    """Re-solve discrepancy <= 1e-10; the decay curve is nonincreasing
    with final/initial <= 1e-6 at T = 50."""
    tensors = linearize(unit_params)
    grid = Grid1D(64)
    x = grid.nodes
    loading = BoundLoading(
        f=lambda t: min(t / 0.1, 1.0) * 0.6 * np.sin(np.pi * x),
        g=lambda t: min(t / 0.1, 1.0) * 0.25,
    )
    discrepancy = uniqueness_discrepancy(grid, tensors, loading,
                                         rho0=0.2 * np.cos(np.pi * x), tau=1e-3, T=0.5)
    assert discrepancy <= 1e-10

    f_static = 0.6 * np.sin(np.pi * x)
    result = long_time_decay(grid, tensors, f_static, 0.25,
                             rho0=0.2 * np.cos(np.pi * x), tau=0.02, T=50.0)
    assert result.curve[0] > 0.0
    assert result.max_increase <= 1e-12
    assert result.final_ratio <= 1e-6
    report("8 uniqueness and decay", resolve_discrepancy=discrepancy,
           decay_final_ratio=result.final_ratio)


def test_criterion_9_moser_ladder(unit_params, biot_run):
    """The exponent ladder matches 2^n (2 - m) + m - 1 exactly; the norm
    sequence is nondecreasing and lands within 1% of the recorded sup
    norm at n = 8."""
    m = unit_params.m
    qs = norm_ladder(unit_params)
    norms = np.array([np.max(biot_run.ledger.column(f"lq_c_{q:g}")) for q in qs])
    gap = np.max(biot_run.ledger.column("linf_c")) - norms[-1]
    expected = tuple(2.0 ** n * (2.0 - m) + m - 1.0 for n in range(9))
    assert qs == expected
    assert np.all(np.diff(norms) >= -1e-12)
    sup = norms[-1] + gap
    assert norms[-1] <= sup * (1.0 + 1e-8)
    assert gap <= 0.01 * sup
    report("9 moser ladder", relative_gap=gap / sup)
