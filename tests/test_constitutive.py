import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porovisco.constitutive import (
    DomainError,
    InadmissibleMaterial,
    MaterialParams,
    chemical_potential,
    dissipation,
    free_energy,
    free_energy_hessian,
    hyperstress,
    linearize,
    max_antisymmetric_action,
    min_symmetric_eigenvalue,
    mobility,
    mobility_log_bound_constant,
    power_difference_bound_constant,
    stress_elastic,
    verification_grid,
)
from porovisco.constitutive import _planar_elasticity as planar_elasticity

FD_STEP = 1e-6


def central(f, x, s=FD_STEP):
    return (f(x + s) - f(x - s)) / (2.0 * s)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


class TestFreeEnergy:
    def test_zero_exactly_at_equilibrium(self, unit_params):
        assert free_energy(unit_params, 1.0, 1.0) == 0.0

    def test_stretched_value(self, unit_params):
        # kappa_e*(F-1)^2 + delta*(F^-2 + 2F - 3) + M_B/2 * beta^2 (F-1)^2
        assert free_energy(unit_params, 2.0, 1.0) == pytest.approx(1.125, abs=1e-15)

    def test_concentrated_value(self, unit_params):
        expected = 0.5 + 2.0 * np.log(2.0) - 1.0
        assert free_energy(unit_params, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_domain_errors(self, unit_params):
        with pytest.raises(DomainError):
            free_energy(unit_params, -0.5, 1.0)
        with pytest.raises(DomainError):
            free_energy(unit_params, 1.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(F=st.floats(0.05, 5.0), c=st.floats(1e-3, 10.0))
    def test_nonnegative_and_coercive(self, F, c):
        pr = MaterialParams()
        val = free_energy(pr, F, c)
        assert val >= 0.0
        assert val >= pr.kappa_e * (F - 1.0) ** 2 - 1e-14

    def test_zero_set_is_exactly_equilibrium(self, unit_params):
        for F, c in [(1.2, 1.0), (1.0, 1.3), (0.8, 0.9)]:
            assert free_energy(unit_params, F, c) > 0.0


class TestStress:
    def test_stress_free_reference(self, unit_params):
        assert stress_elastic(unit_params, 1.0, 1.0) == 0.0

    def test_matches_energy_derivative_at_offset(self, unit_params):
        F = 1.3
        fd = central(lambda x: free_energy(unit_params, x, 1.0), F)
        assert rel(float(stress_elastic(unit_params, F, 1.0)), fd) < 1e-6

    def test_no_penalty_closed_form(self):
        pr = MaterialParams(delta=0.0)
        F = np.linspace(0.5, 1.8, 7)
        expected = (2.0 * pr.kappa_e + pr.M_B * pr.beta ** 2) * (F - 1.0)
        assert np.allclose(stress_elastic(pr, F, pr.c_eq), expected, atol=1e-14)


class TestChemicalPotential:
    def test_normalized_at_equilibrium(self, unit_params):
        assert chemical_potential(unit_params, 1.0, 1.0) == 0.0

    def test_closed_form_value(self, unit_params):
        assert chemical_potential(unit_params, 1.0, np.e) == pytest.approx(np.e, rel=1e-14)

    def test_diverges_as_c_vanishes(self, unit_params):
        assert chemical_potential(unit_params, 1.0, 1e-200) < -400.0


class TestHessian:
    def test_unit_values(self, unit_params):
        ff, fc, cc = free_energy_hessian(unit_params, 1.0, 1.0)
        assert cc == pytest.approx(2.0)
        assert fc == pytest.approx(-1.0)

    def test_blocks_match_first_derivative_differences(self, unit_params):
        F, c = 1.2, 0.7
        ff, fc, cc = free_energy_hessian(unit_params, F, c)
        assert rel(float(ff), central(lambda x: float(stress_elastic(unit_params, x, c)), F)) < 1e-6
        assert rel(float(fc), central(lambda x: float(stress_elastic(unit_params, F, x)), c)) < 1e-6
        assert rel(float(cc), central(lambda x: float(chemical_potential(unit_params, F, x)), c)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(F=st.floats(0.3, 3.0), c=st.floats(0.05, 8.0))
    def test_entropy_lower_bound(self, F, c):
        pr = MaterialParams()
        _, _, cc = free_energy_hessian(pr, F, c)
        assert float(cc) * c >= pr.k - 1e-12


class TestHyperstress:
    def test_zero_at_origin(self, unit_params):
        H, h = hyperstress(unit_params, 0.0)
        assert H == 0.0 and h == 0.0

    def test_cubic_example(self, unit_params):
        H, h = hyperstress(unit_params, 2.0)
        assert H == pytest.approx(0.01 / 3.0 * 8.0, rel=1e-14)
        assert h == pytest.approx(0.04, rel=1e-14)

    def test_derivative_matches_difference(self, unit_params):
        fd = central(lambda g: float(hyperstress(unit_params, g)[0]), 1.5)
        assert rel(float(hyperstress(unit_params, 1.5)[1]), fd) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(G=st.floats(-5.0, 5.0))
    def test_growth_bounds(self, G):
        pr = MaterialParams()
        H, h = hyperstress(pr, G)
        base = abs(G) ** pr.p
        assert pr.nu_h / pr.p * base - 1e-12 <= H <= pr.nu_h / pr.p * (1.0 + base)
        assert abs(h) <= pr.nu_h * abs(G) ** (pr.p - 1.0) + 1e-12


class TestDissipation:
    def test_zero_rate(self, unit_params):
        z, s = dissipation(unit_params, 1.7, 0.0, 0.5)
        assert z == 0.0 and s == 0.0

    def test_unit_example(self, unit_params):
        z, s = dissipation(unit_params, 1.0, 1.0, 1.0)
        assert z == pytest.approx(0.5) and s == pytest.approx(1.0)

    def test_stress_matches_difference(self, unit_params):
        F, Fd = 1.3, 0.4
        fd = central(lambda x: float(dissipation(unit_params, F, x, 1.0)[0]), Fd)
        assert rel(float(dissipation(unit_params, F, Fd, 1.0)[1]), fd) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(F=st.floats(0.3, 3.0), Fd=st.floats(-2.0, 2.0))
    def test_quadratic_form_bounds(self, F, Fd):
        pr = MaterialParams()
        z, _ = dissipation(pr, F, Fd, 1.0)
        cdot2 = (2.0 * F * Fd) ** 2
        assert z == pytest.approx(0.5 * pr.D_tilde * cdot2, rel=1e-12, abs=1e-15)


class TestMobility:
    def test_identity_pullback(self, unit_params):
        assert mobility(unit_params, 1.0, 0.8) == pytest.approx(0.8)

    def test_stretched_value(self, unit_params):
        assert mobility(unit_params, 2.0, 3.0) == pytest.approx(0.75)

    def test_degenerate_at_zero(self, unit_params):
        for F in (0.5, 1.0, 2.5):
            assert mobility(unit_params, F, 0.0) == 0.0

    def test_rejects_bad_inputs(self, unit_params):
        with pytest.raises(DomainError):
            mobility(unit_params, -1.0, 1.0)
        with pytest.raises(DomainError):
            mobility(unit_params, 1.0, -0.1)

    @settings(max_examples=50, deadline=None)
    @given(F=st.floats(0.25, 4.0), c=st.floats(0.0, 5.0))
    def test_eigenvalue_window(self, F, c):
        pr = MaterialParams()
        R = 4.0
        val = float(mobility(pr, F, c))
        assert val >= 0.0
        lo = float(pr.M0) * R ** (-(pr.m + 1.0)) * c ** pr.m
        hi = float(pr.M0) * R ** (pr.m + 1.0) * c ** pr.m
        assert lo - 1e-12 <= val <= hi + 1e-12


class TestLinearize:
    def test_unit_biot_values(self, unit_params):
        t = linearize(unit_params)
        assert t.C == pytest.approx(2.6, abs=1e-12)
        assert t.K == pytest.approx(-1.0, abs=1e-14)
        assert t.L == pytest.approx(2.0, abs=1e-14)
        assert t.D == pytest.approx(1.0, abs=1e-14)
        assert t.M_eq == pytest.approx(1.0, abs=1e-14)

    def test_viscosity_is_four_times_weight(self):
        for dt in (0.1, 0.25, 2.0):
            t = linearize(MaterialParams(D_tilde=dt))
            assert t.D == pytest.approx(4.0 * dt, rel=1e-14)

    def test_finite_difference_cross_check_runs(self, unit_params):
        # linearize raises if any analytic entry disagrees with the
        # central finite difference beyond relative 1e-6
        linearize(unit_params)

    def test_planar_invariant_under_antisymmetric_shift(self):
        C = planar_elasticity(MaterialParams())
        rng = np.random.default_rng(2)
        U = rng.standard_normal((2, 2))
        W = np.array([[0.0, 1.3], [-1.3, 0.0]])
        CU = np.einsum("ijkl,kl->ij", C, U)
        CUW = np.einsum("ijkl,kl->ij", C, U + W)
        assert np.allclose(CU, CUW, atol=1e-12)


class TestParameterWindows:
    def test_case_one_requires_m_window(self):
        with pytest.raises(InadmissibleMaterial, match="Case I"):
            MaterialParams(m=3.0, gamma1=0.0, gamma2=0.0)
        with pytest.raises(InadmissibleMaterial, match="Case I"):
            MaterialParams(m=0.5, gamma1=0.0, gamma2=0.0)
        MaterialParams(m=1.5, gamma1=0.0, gamma2=0.0)  # admissible

    def test_case_two_windows(self):
        MaterialParams(m=2.5, r=0.0)  # IIa: m < 3 + r
        with pytest.raises(InadmissibleMaterial, match="Case II"):
            MaterialParams(m=3.5, r=0.0)
        with pytest.raises(InadmissibleMaterial):
            MaterialParams(m=1.0, alpha=-1.0)  # m + 2 alpha < 0

    def test_case_label(self):
        assert MaterialParams().case == "IIa"
        assert MaterialParams(gamma1=0.0, gamma2=0.0).case == "I"

    def test_misc_rejections(self):
        with pytest.raises(InadmissibleMaterial):
            MaterialParams(c_eq=0.0)
        with pytest.raises(InadmissibleMaterial):
            MaterialParams(p=2.5)
        with pytest.raises(InadmissibleMaterial):
            MaterialParams(r=-1.0)
        with pytest.raises(InadmissibleMaterial):
            MaterialParams(q_det=1.0)  # below p/(p - 1) = 1.5
        with pytest.raises(InadmissibleMaterial):
            MaterialParams(gamma1=0.0, gamma2=1.0)


class TestLogBoundConstant:
    def test_near_equilibrium_limit_is_one(self):
        grid = np.linspace(0.9, 1.1, 2001)
        sup = mobility_log_bound_constant(1.0, 1.0, grid)
        assert sup == pytest.approx(1.0, abs=1e-3)

    def test_single_point_value(self):
        val = mobility_log_bound_constant(1.0, 1.0, [np.e])
        assert val == pytest.approx(np.e / (np.e - 1.0) ** 2, rel=1e-12)

    def test_vanishes_as_x_to_zero(self):
        val = mobility_log_bound_constant(1.0, 1.0, [1e-12])
        assert val < 1e-9

    def test_refinement_stable(self):
        a = mobility_log_bound_constant(1.0, 1.0, verification_grid(1.0, 2000))
        b = mobility_log_bound_constant(1.0, 1.0, verification_grid(1.0, 4000))
        assert np.isfinite(a) and abs(a - b) <= 0.05 * max(a, b)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            mobility_log_bound_constant(2.5, 1.0, [0.5])
        with pytest.raises(ValueError):
            mobility_log_bound_constant(0.0, 1.0, [0.5])


class TestPowerBoundConstant:
    def test_unit_fixture_bounded_by_one(self):
        # r = 0, c_eq = 1: (x^2-1)/2 - (x-1) = (x-1)^2/2 makes the ratio
        # 1/(1 + |x-1|/2) <= 1
        sup = power_difference_bound_constant(0.0, 1.0, verification_grid(1.0, 3000))
        assert sup <= 1.0 + 1e-9

    def test_near_equilibrium_finite(self):
        grid = 1.0 + np.linspace(-1e-6, 1e-6, 101)
        sup = power_difference_bound_constant(0.0, 1.0, grid)
        assert np.isfinite(sup) and sup <= 1.0 + 1e-9

    def test_general_exponent_stable(self):
        grid_a = np.linspace(1e-3, 10.0, 4001)
        grid_b = np.linspace(1e-3, 10.0, 8001)
        a = power_difference_bound_constant(1.0, 2.0, grid_a)
        b = power_difference_bound_constant(1.0, 2.0, grid_b)
        assert np.isfinite(a) and abs(a - b) <= 0.05 * max(a, b)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            power_difference_bound_constant(-1.0, 1.0, [0.5])


class TestTensorStructure:
    def test_antisymmetric_action_vanishes(self, unit_params):
        max_c, max_d = max_antisymmetric_action(unit_params)
        assert max_c <= 1e-6
        assert max_d <= 1e-6

    def test_zero_direction(self, unit_params):
        C = planar_elasticity(unit_params)
        assert np.allclose(np.einsum("ijkl,kl->ij", C, np.zeros((2, 2))), 0.0)

    def test_rayleigh_quotient_bound(self, unit_params):
        C = planar_elasticity(unit_params)
        lam = min_symmetric_eigenvalue(unit_params)
        rng = np.random.default_rng(4)
        for _ in range(10):
            U = rng.standard_normal((2, 2))
            S = 0.5 * (U + U.T)
            S /= np.linalg.norm(S)
            quad = np.einsum("ijkl,kl,ij->", C, S, S)
            assert quad >= lam - 1e-10

    # in d = 2, (A3)(i) asks q_det >= 2p/(p - 2) = 6 at p = 3: q_det = 2 is
    # raised to 6, q_det = 10 is taken as given
    @pytest.mark.parametrize("q_det, q_planar", [(2.0, 6.0), (10.0, 10.0)])
    def test_planar_eigenvalues_match_difference_oracle(self, q_det, q_planar):
        pr = MaterialParams(q_det=q_det)
        analytic = min_symmetric_eigenvalue(pr)
        fd = min_symmetric_eigenvalue(pr, use_fd=True)
        assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-6)
        # the whole spectrum of the closed-form tensor on the symmetric
        # basis (e11, e22, (e12 + e21)/sqrt 2)
        C = planar_elasticity(pr)
        basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)]
        spectrum = np.linalg.eigvalsh([[np.einsum("ijkl,kl,ij->", C, b, a) for b in basis] for a in basis])
        lam = pr.delta * q_planar * (q_planar + 1.0) + pr.M_B * pr.beta ** 2
        assert np.allclose(spectrum, np.sort([2 * pr.kappa_e, 2 * pr.kappa_e, 2 * pr.kappa_e + 2 * lam]))
        assert np.allclose(analytic, spectrum[0])
