import zlib

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv

from porovisco import discretization, nonlinear_solver
from porovisco.constitutive import (
    _entropy,
    chemical_potential,
    free_energy,
    free_energy_hessian,
    hyperstress,
    hyperstress_dG,
    mobility,
    mobility_dc,
    stress_elastic,
)
from porovisco.discretization import (
    BCSpec,
    Grid1D,
    cell_average,
    gradient,
    h1_norm,
    linf_norm,
    llogl_deviation,
    lq_norm,
    mass,
    node_average,
    node_weights,
    second_derivative,
)
from porovisco.loading import BoundLoading, SpatialProfile, TimeAmplitude
from porovisco.nonlinear_solver import (
    EnergyLedger,
    NoConvergence,
    OrientationLoss,
    PositivityLoss,
    check_dissipation_inequality,
    diffusion_step,
    mechanical_step,
    nodal_chemical_potential,
    rescale,
    run_nonlinear,
    _diff_band,
    _diff_point,
    _dual_norm,
    _mech_band,
    _mech_point,
    _scaled_gradient,
    _solve_bands,
)

from conftest import assert_ledgers_equal, default_loading, stored

TAU = 1e-3


def zero_loading(grid):
    return BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.0)


def ramp_loading(grid, f_scale=0.6, g_scale=0.25, t_ramp=0.1):
    x = grid.nodes
    return BoundLoading(
        f=lambda t: min(t / t_ramp, 1.0) * f_scale * np.sin(np.pi * x),
        g=lambda t: min(t / t_ramp, 1.0) * g_scale,
    )


class TestMechanicalStep:
    def test_equilibrium_is_fixed_point(self, unit_params):
        grid = Grid1D(16)
        w = np.zeros(grid.n_nodes)
        c = np.ones(grid.n_nodes)
        w_new, info = mechanical_step(unit_params, grid, w, c, TAU, np.zeros(grid.n_nodes), 0.0)
        assert np.array_equal(w_new, w)
        assert info["iterations"] == 0
        assert info["residual"] == 0.0

    def test_descends_incremental_energy(self, unit_params):
        grid = Grid1D(32)
        w = np.zeros(grid.n_nodes)
        c = np.ones(grid.n_nodes)
        w_new, info = mechanical_step(unit_params, grid, w, c, TAU, np.zeros(grid.n_nodes), 0.1 * 0.1)
        assert info["energy"] < info["energy_start"]
        assert np.max(np.abs(w_new)) > 0.0

    def test_residual_certified(self, unit_params):
        grid = Grid1D(64)
        w = np.zeros(grid.n_nodes)
        c = np.ones(grid.n_nodes)
        f = 0.1 * 0.6 * np.sin(np.pi * grid.nodes)
        w_new, info = mechanical_step(unit_params, grid, w, c, TAU, f, 0.02, tol=1e-10)
        assert info["residual"] <= 1e-10

    def test_rejects_inadmissible_start(self, unit_params):
        grid = Grid1D(8)
        w = np.zeros(grid.n_nodes)
        w[1:] = -grid.nodes[1:] * 1.5  # chi' < 0 everywhere
        with pytest.raises(OrientationLoss):
            mechanical_step(unit_params, grid, w, np.ones(grid.n_nodes), TAU, np.zeros(grid.n_nodes), 0.0)

    def test_iteration_cap(self, unit_params):
        grid = Grid1D(16)
        w = np.zeros(grid.n_nodes)
        c = np.ones(grid.n_nodes)
        with pytest.raises(NoConvergence):
            mechanical_step(unit_params, grid, w, c, TAU, np.zeros(grid.n_nodes), 0.05, max_newton=0)


def dense_from_band(ab, lower, upper):
    # inverse of the LAPACK band storage ab[upper + i - j, j] = A[i, j]
    n = ab.shape[1]
    A = np.zeros((n, n))
    for d in range(-lower, upper + 1):
        i = np.arange(max(0, -d), min(n, n - d))
        A[i, i + d] = ab[upper - d, i + d]
    return A


def central_differences(fun, x, cols, s=1e-6):
    # columns d fun / d x[j] for j in cols
    out = []
    for j in cols:
        xp = x.copy()
        xp[j] += s
        xm = x.copy()
        xm[j] -= s
        out.append((fun(xp) - fun(xm)) / (2.0 * s))
    return np.column_stack(out)


class TestBandedNewtonMatrices:
    @pytest.mark.parametrize("n", [7, 8])
    def test_mech_hessian_matches_residual_differences(self, unit_params, n):
        grid = Grid1D(n)
        rng = np.random.default_rng(n)
        w = np.concatenate([[0.0], np.cumsum(0.2 * grid.h * rng.standard_normal(n))])
        c_hat = cell_average(1.0 + 0.3 * rng.random(grid.n_nodes))
        C_prev = (1.0 + gradient(grid, w) + 0.01 * rng.standard_normal(n)) ** 2
        f = 0.05 * np.sin(np.pi * grid.nodes)
        weights = node_weights(grid)
        ent = _entropy(unit_params, c_hat)

        def point(wv):
            return _mech_point(unit_params, grid, wv, c_hat, ent, C_prev, TAU, weights * f, 0.02, weights)

        def residual(wv):
            return point(wv).r

        H = dense_from_band(_mech_band(unit_params, grid, TAU, point(w)), 2, 2)
        fd = central_differences(residual, w, range(1, n + 1))
        assert np.max(np.abs(H - fd)) <= 1e-7 * np.max(np.abs(H))

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("kappa", [(0.0, 0.0), (0.7, 1.3)])
    def test_diff_jacobian_matches_residual_differences(self, unit_params, n, kappa):
        grid = Grid1D(n)
        rng = np.random.default_rng(n)
        F = 1.0 + 0.1 * rng.standard_normal(n)
        c = 1.0 + 0.3 * rng.random(grid.n_nodes)
        c_prev = 1.0 + 0.3 * rng.random(grid.n_nodes)
        tau = 0.05  # large enough that the flux and Robin entries matter
        bc = BCSpec(kappa_left=kappa[0], kappa_right=kappa[1], mu_ext=0.3)
        weights = node_weights(grid)

        def point(cv):
            return _diff_point(unit_params, grid, F, cv, c_prev, tau, bc, bc.mu_ext_value(0.0), weights)

        def residual(cv):
            return point(cv).r

        J = dense_from_band(_diff_band(unit_params, grid, F, tau, bc, weights, point(c)), 2, 2)
        fd = central_differences(residual, c, range(n + 1))
        tol = 1e-7 * np.max(np.abs(J))
        assert np.max(np.abs(J - fd)) <= tol
        if kappa[0] > 0.0:
            J0 = dense_from_band(_diff_band(unit_params, grid, F, tau, BCSpec(), weights, point(c)), 2, 2)
            robin = np.abs(J - J0)
            for i, j in ((0, 0), (0, 1), (n, n), (n, n - 1)):
                assert robin[i, j] > 100.0 * tol
            robin[[0, 0, n, n], [0, 1, n, n - 1]] = 0.0
            assert np.max(robin) == 0.0


def public_mech_point(params, grid, w, c_hat, C_prev, tau, f, g, weights):
    """The mechanical value, round-off scale, residual and Hessian band at
    w, from the public constitutive functions alone."""
    h, n = grid.h, grid.n_cells
    F = 1.0 + gradient(grid, w)
    G = second_derivative(grid, w)
    cdot = (F ** 2 - C_prev) / tau
    hyper, hy = hyperstress(params, G)
    phi = h * free_energy(params, F, c_hat).sum(axis=-1)
    hyp = h * hyper[..., 1:-1].sum(axis=-1)
    visc = tau * h * (0.5 * params.D_tilde * cdot ** 2).sum(axis=-1)
    load = (weights * f * w).sum(axis=-1) + g * w[..., -1]
    sigma = stress_elastic(params, F, c_hat) + 2.0 * F * params.D_tilde * cdot
    hy[..., 0] = hy[..., -1] = 0.0
    hpad = np.concatenate([hy, np.zeros(hy.shape[:-1] + (1,))], axis=-1)
    r = sigma - np.concatenate([sigma[..., 1:], np.zeros(sigma.shape[:-1] + (1,))], axis=-1)
    r += (hpad[..., 0:n] - 2.0 * hpad[..., 1 : n + 1] + hpad[..., 2 : n + 2]) / h
    r -= weights[1:] * f[..., 1:]
    r[..., -1] -= g
    a = free_energy_hessian(params, F, c_hat)[0] + 2.0 * params.D_tilde * cdot + 4.0 * params.D_tilde * F ** 2 / tau
    b = hyperstress_dG(params, G) / h ** 3
    b[..., 0] = b[..., -1] = 0.0
    bp = np.concatenate([b, np.zeros(b.shape[:-1] + (1,))], axis=-1)
    ab = np.zeros((5,) + a.shape)
    ab[2] = np.concatenate([a[..., :-1] + a[..., 1:], a[..., -1:]], axis=-1) / h
    ab[2] += bp[..., 0:n] + 4.0 * bp[..., 1 : n + 1] + bp[..., 2 : n + 2]
    ab[2] += nonlinear_solver.TIKHONOV_SHIFT
    ab[1, ..., 1:] = -a[..., 1:] / h - 2.0 * (bp[..., 1:n] + bp[..., 2 : n + 1])
    ab[0, ..., 2:] = bp[..., 2:n]
    ab[3, ..., :-1] = ab[1, ..., 1:]
    ab[4, ..., :-2] = ab[0, ..., 2:]
    return phi + hyp + visc - load, abs(phi) + abs(hyp) + abs(visc) + abs(load), r, ab


def public_diff_point(params, grid, F, c, c_prev, tau, bc, mu_ext, weights):
    """The diffusion residual, nodal potential and Jacobian band at c, from
    the public constitutive functions alone."""
    h = grid.h
    c_hat = cell_average(c)
    mu = nodal_chemical_potential(params, grid, F, c)
    mob = mobility(params, F, c_hat)
    q = mob * (mu[..., 1:] - mu[..., :-1]) / h
    zero = np.zeros(q.shape[:-1] + (1,))
    r = weights * (c - c_prev) + tau * (np.concatenate([zero, q], axis=-1) - np.concatenate([q, zero], axis=-1))
    r[..., 0] += tau * bc.kappa_left * (mu[..., 0] - mu_ext)
    r[..., -1] += tau * bc.kappa_right * (mu[..., -1] - mu_ext)
    m = mobility(params, F, c_hat) / h
    s = 0.5 * mobility_dc(params, F, c_hat) * ((mu[..., 1:] - mu[..., :-1]) / h)
    cc = free_energy_hessian(params, F, c_hat)[2]
    dd = np.concatenate([0.5 * cc[..., :1], 0.25 * (cc[..., :-1] + cc[..., 1:]), 0.5 * cc[..., -1:]], axis=-1)
    lower = np.concatenate([0.25 * cc[..., :-1], 0.5 * cc[..., -1:]], axis=-1)
    upper = np.concatenate([0.5 * cc[..., :1], 0.25 * cc[..., 1:]], axis=-1)
    qm1 = tau * (m[..., 1:] * -lower[..., :-1])
    q0 = tau * (m * (lower - dd[..., :-1]) + s)
    q1 = tau * (m * (dd[..., 1:] - upper) + s)
    q2 = tau * (m[..., :-1] * upper[..., 1:])

    def pad(x, before):
        return np.concatenate([zero, x] if before else [x, zero], axis=-1)

    ab = np.zeros((5,) + c.shape)
    ab[0, ..., 2:] = -q2
    ab[1, ..., 1:] = pad(q2, True) - q1
    ab[2] = weights + pad(q1, True) - pad(q0, False)
    ab[3, ..., :-1] = q0 - pad(qm1, False)
    ab[4, ..., :-2] = qm1
    ab[2, ..., 0] += tau * bc.kappa_left * dd[..., 0]
    ab[1, ..., 1] += tau * bc.kappa_left * upper[..., 0]
    ab[2, ..., -1] += tau * bc.kappa_right * dd[..., -1]
    ab[3, ..., -2] += tau * bc.kappa_right * lower[..., -1]
    return r, mu, mob, ab


class TestPointKernel:
    """The solver's point records and bands against the same quantities
    built from the public constitutive functions, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mech_point_matches_public_functions(self, unit_params, seed):
        grid = Grid1D(9)
        rng = np.random.default_rng(seed)
        rows = (3, grid.n_cells)
        F = 0.6 + 0.8 * rng.random(rows)  # admissible: F in (0.6, 1.4)
        w = np.concatenate([np.zeros((3, 1)), np.cumsum(grid.h * (F - 1.0), axis=-1)], axis=-1)
        c_hat = cell_average(0.2 + 2.0 * rng.random((3, grid.n_nodes)))
        C_prev = (0.6 + 0.8 * rng.random(rows)) ** 2
        f = rng.standard_normal((3, grid.n_nodes))
        g = rng.standard_normal(3)
        weights = node_weights(grid)
        pt = _mech_point(unit_params, grid, w, c_hat, _entropy(unit_params, c_hat), C_prev, TAU,
                         weights * f, g, weights)
        value, scale, r, ab = public_mech_point(unit_params, grid, w, c_hat, C_prev, TAU, f, g, weights)
        F = 1.0 + gradient(grid, w)
        for got, want in ((pt.value, value), (pt.scale, scale), (pt.r, r), (pt.rn, _dual_norm(r, weights[1:])),
                          (pt.F, F),
                          (pt.d2G, hyperstress_dG(unit_params, second_derivative(grid, w))),
                          (_mech_band(unit_params, grid, TAU, pt), ab)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diff_point_matches_public_functions(self, unit_params, seed):
        grid = Grid1D(9)
        rng = np.random.default_rng(seed)
        F = 0.6 + 0.8 * rng.random((3, grid.n_cells))
        c = 0.2 + 2.0 * rng.random((3, grid.n_nodes))
        c_prev = 0.2 + 2.0 * rng.random((3, grid.n_nodes))
        bc = BCSpec(kappa_left=0.7, kappa_right=1.3, mu_ext=0.3)
        weights = node_weights(grid)
        pt = _diff_point(unit_params, grid, F, c, c_prev, 0.05, bc, 0.3, weights)
        r, mu, mob, ab = public_diff_point(unit_params, grid, F, c, c_prev, 0.05, bc, 0.3, weights)
        c_hat = cell_average(c)
        assert np.array_equal(mu, node_average(chemical_potential(unit_params, F, c_hat)))
        for got, want in ((pt.r, r), (pt.rn, _dual_norm(r, weights)), (pt.mu, mu), (pt.c_hat, c_hat),
                          (pt.mob, mob), (_diff_band(unit_params, grid, F, 0.05, bc, weights, pt), ab)):
            assert np.array_equal(got, want)


class TestDiffusionStep:
    def test_equilibrium_unchanged(self, unit_params):
        grid = Grid1D(16)
        F = np.ones(grid.n_cells)
        c = np.ones(grid.n_nodes)
        c_new, info = diffusion_step(unit_params, grid, F, c, TAU, BCSpec(zero_flux=True), 0.0)
        assert np.array_equal(c_new, c)
        assert info["iterations"] == 0

    def test_mass_conserved_per_step(self, unit_params):
        grid = Grid1D(32)
        F = 1.0 + 0.05 * np.sin(2 * np.pi * grid.cell_midpoints)
        c = 1.0 + 0.2 * np.cos(np.pi * grid.nodes)
        c_new, _ = diffusion_step(unit_params, grid, F, c, TAU, BCSpec(zero_flux=True), 0.0, tol=1e-12)
        assert abs(mass(grid, c_new) - mass(grid, c)) <= 1e-13
        assert np.min(c_new) > 0.0

    def test_robin_inflow_increases_mass(self, unit_params):
        grid = Grid1D(24)
        bc = BCSpec(kappa_left=0.5, kappa_right=0.5, mu_ext=2.0)
        F = np.ones(grid.n_cells)
        c = np.ones(grid.n_nodes)
        c_new, _ = diffusion_step(unit_params, grid, F, c, TAU, bc, 0.0, tol=1e-12)
        assert mass(grid, c_new) > mass(grid, c)

    def test_positivity_guard(self, unit_params):
        grid = Grid1D(8)
        F = np.ones(grid.n_cells)
        c = np.ones(grid.n_nodes)
        c[3] = 0.0
        with pytest.raises(PositivityLoss):
            diffusion_step(unit_params, grid, F, c, TAU, BCSpec(zero_flux=True), 0.0)


class TestRun:
    def test_equilibrium_trajectory_constant(self, unit_params):
        grid = Grid1D(16)
        run = stored(run_nonlinear, unit_params, grid, zero_loading(grid), BCSpec(zero_flux=True),
                     tau=TAU, T=0.02, eps=0.1)
        assert np.max(np.abs(run.displacement)) == 0.0
        assert np.max(np.abs(run.concentration - 1.0)) == 0.0
        assert np.max(run.ledger.column("diss_mech")) == 0.0
        assert np.max(run.ledger.column("diss_diff")) == 0.0
        assert check_dissipation_inequality(run.ledger) == 0.0

    def test_structure_preserved_on_short_run(self, unit_params):
        grid = Grid1D(32)
        run = stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                     tau=TAU, T=0.1, eps=0.1, tol=5e-11)
        led = run.ledger
        assert check_dissipation_inequality(led) <= 1e-9
        masses = led.column("mass")
        assert np.max(np.abs(masses - masses[0])) <= 1e-12
        assert np.min(led.column("min_F")) > 0.0
        assert np.min(led.column("min_c")) > 0.0
        assert led.column("residual_mech").max() <= 1e-10
        assert led.column("residual_diff").max() <= 1e-10

    def test_detector_flags_corrupted_energy(self, unit_params):
        grid = Grid1D(16)
        run = stored(run_nonlinear, unit_params, grid, zero_loading(grid), BCSpec(zero_flux=True),
                     tau=TAU, T=0.02, eps=0.1)
        run.ledger._cols["energy"][5] += 1e-3
        violation = check_dissipation_inequality(run.ledger)
        assert violation == pytest.approx(1e-3, rel=1e-6)

    def test_failures_carry_time(self, unit_params):
        grid = Grid1D(16)
        with pytest.raises(NoConvergence) as err:
            stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                   tau=TAU, T=0.05, eps=0.1, max_newton=0)
        assert err.value.time is not None

    def test_reference_problem_at_n1024(self, unit_params):
        # three steps of the reference problem on a 1024-cell grid; the
        # banded Newton solves make this a matter of milliseconds
        grid = Grid1D(1024)
        run = stored(run_nonlinear, unit_params, grid, default_loading(grid), BCSpec(zero_flux=True),
                     tau=TAU, T=3 * TAU, eps=0.1, tol=1e-9)
        assert len(run.times) == 4
        assert check_dissipation_inequality(run.ledger) <= 1e-12
        assert run.ledger.column("residual_mech").max() <= 1e-9
        assert run.ledger.column("residual_diff").max() <= 1e-9

    def test_initial_data_validated(self, unit_params):
        grid = Grid1D(16)
        rho0 = np.full(grid.n_nodes, -15.0)  # c0 = 1 - 1.5 < 0 at eps = 0.1
        with pytest.raises(PositivityLoss):
            stored(run_nonlinear, unit_params, grid, zero_loading(grid), BCSpec(zero_flux=True),
                   tau=TAU, T=0.01, eps=0.1, rho0=rho0)

    def test_tau_refinement_first_order(self, unit_params):
        grid = Grid1D(32)
        finals = {}
        for tau in (2e-3, 1e-3, 5e-4):
            run = stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                         tau=tau, T=0.25, eps=0.1, tol=5e-11)
            finals[tau] = np.concatenate([run.displacement[-1], run.concentration[-1]])
        d1 = np.max(np.abs(finals[2e-3] - finals[1e-3]))
        d2 = np.max(np.abs(finals[1e-3] - finals[5e-4]))
        assert d2 < d1
        assert 1.4 <= d1 / d2 <= 3.0

    def test_sup_norm_tau_independent(self, unit_params):
        grid = Grid1D(32)
        sups = []
        for tau in (2e-3, 1e-3, 5e-4):
            run = stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                         tau=tau, T=0.25, eps=0.1, tol=5e-11)
            sups.append(run.ledger.column("linf_c").max())
        assert max(sups) / min(sups) <= 1.01


def direct_difference_flux(params, grid, eps, w, c):
    """Cellwise flux from direct differences of the nodal discrete
    potential (oracle for the chain-rule flux of ``rescale``)."""
    F = 1.0 + gradient(grid, w)
    mu = nodal_chemical_potential(params, grid, F, c)
    return mobility(params, F, cell_average(c)) * (mu[1:] - mu[:-1]) / grid.h / eps


class TestRescale:
    def test_equilibrium_rescales_to_zero(self, unit_params):
        grid = Grid1D(16)
        run = stored(run_nonlinear, unit_params, grid, zero_loading(grid), BCSpec(zero_flux=True),
                     tau=TAU, T=0.02, eps=0.1)
        rs = rescale(unit_params, grid, run.displacement, run.concentration, 0.1)
        assert np.max(np.abs(rs["u"])) == 0.0
        assert np.max(np.abs(rs["rho"])) == 0.0
        assert np.max(np.abs(rs["flux"])) == 0.0

    def test_linearity_roundtrip(self, unit_params):
        grid = Grid1D(24)
        run = stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                     tau=TAU, T=0.05, eps=0.1, tol=5e-11)
        rs = rescale(unit_params, grid, run.displacement, run.concentration, 0.1)
        assert np.max(np.abs(rs["u"] * 0.1 - run.displacement)) <= 1e-14

    def test_flux_matches_direct_difference_to_first_order(self, unit_params):
        errs = []
        for n in (32, 64):
            grid = Grid1D(n)
            run = stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                         tau=2e-3, T=0.2, eps=0.1, tol=5e-11)
            rs = rescale(unit_params, grid, run.displacement, run.concentration, 0.1)
            w, c = run.displacement[-1], run.concentration[-1]
            diff = rs["flux"][-1] - direct_difference_flux(unit_params, grid, 0.1, w, c)
            errs.append(np.sqrt(np.sum(grid.h * diff ** 2)))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] >= 1.5  # at least O(h)


class TestLedger:
    @staticmethod
    def columns(**row):
        return {name: [value] for name, value in row.items()}

    def test_rejects_inconsistent_rows(self):
        row = self.columns(t=0.0, energy=1.0, diss_mech=0.0, diss_diff=0.0,
                           flux_boundary=0.0, load_power=0.0)
        with pytest.raises(ValueError, match="extra"):
            EnergyLedger(0.1, {**row, "extra": []})  # short "extra" column
        with pytest.raises(ValueError, match="diss_diff"):
            EnergyLedger(0.1, {name: v for name, v in row.items() if name != "diss_diff"})

    def test_rejects_negative_dissipation(self):
        with pytest.raises(ValueError, match="diss_mech"):
            EnergyLedger(0.1, self.columns(t=0.0, energy=1.0, diss_mech=-1.0, diss_diff=0.0,
                                           flux_boundary=0.0, load_power=0.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="energy"):
            EnergyLedger(0.1, self.columns(t=0.0, energy=np.inf, diss_mech=0.0, diss_diff=0.0,
                                           flux_boundary=0.0, load_power=0.0))

    def test_column_is_a_copy(self):
        led = EnergyLedger(0.1, self.columns(t=0.0, energy=1.0, diss_mech=0.0, diss_diff=0.0,
                                             flux_boundary=0.0, load_power=0.0))
        led.column("energy")[0] = 5.0
        assert led.column("energy")[0] == 1.0


def _ledger_oracle(params, grid, eps, run, loading, bc, tol):
    """The ledger of a stored finite-strain run evaluated row by row from
    the one-field formulas; the residual columns are recomputed from the
    stored states, and the Newton counts by repeating each step from the
    stored states with the start the run extrapolates from them."""
    tau = run.ledger.tau
    W = run.displacement
    h = grid.h
    weights = node_weights(grid)
    rows = []
    for k, t in enumerate(run.times):
        w, c = run.displacement[k], run.concentration[k]
        F = 1.0 + gradient(grid, w)
        c_hat = cell_average(c)
        G = second_derivative(grid, w)
        u = w / eps
        mu = nodal_chemical_potential(params, grid, F, c)
        stored = h * np.sum(free_energy(params, F, c_hat)) + h * np.sum(hyperstress(params, G[1:-1])[0])
        row = {
            "t": t,
            "energy": stored / eps ** 2 - (np.sum(weights * loading.f_star(t) * u) + loading.g_star(t) * u[-1]),
            "diss_mech": 0.0,
            "diss_diff": 0.0,
            "flux_boundary": 0.0,
            "load_power": 0.0,
            "mass": mass(grid, c),
            "residual_mech": 0.0,
            "residual_diff": 0.0,
        }
        newton = (0, 0)
        if k > 0:
            t_prev = run.times[k - 1]
            w_prev, c_prev = run.displacement[k - 1], run.concentration[k - 1]
            C_prev = (1.0 + gradient(grid, w_prev)) ** 2
            mu_ext = bc.mu_ext_value(t)
            c_hat_prev = cell_average(c_prev)
            r_mech = _mech_point(params, grid, w, c_hat_prev, _entropy(params, c_hat_prev), C_prev, tau,
                                 weights * (eps * loading.f_star(t)), eps * loading.g_star(t), weights).r
            r_diff = _diff_point(params, grid, F, c, c_prev, tau, bc, mu_ext, weights).r
            start = None if k == 1 else 2.0 * W[1] - W[0] if k == 2 else 3.0 * (W[k - 1] - W[k - 2]) + W[k - 3]
            w_step, minfo = mechanical_step(params, grid, w_prev, c_prev, tau, eps * loading.f_star(t),
                                            eps * loading.g_star(t), tol=tol, start=start)
            c_step, dinfo = diffusion_step(params, grid, F, c_prev, tau, bc, t, tol=tol)
            assert np.array_equal(w_step, w) and np.array_equal(c_step, c)
            newton = (minfo["iterations"], dinfo["iterations"])
            row.update(
                diss_mech=h * np.sum(0.5 * params.D_tilde * ((F ** 2 - C_prev) / tau) ** 2) / eps ** 2,
                diss_diff=h * np.sum(mobility(params, F, c_hat) * gradient(grid, mu) ** 2) / eps ** 2,
                flux_boundary=(bc.kappa_left * (mu[0] - mu_ext) * mu[0]
                               + bc.kappa_right * (mu[-1] - mu_ext) * mu[-1]) / eps ** 2,
                load_power=(np.sum(weights * (loading.f_star(t) - loading.f_star(t_prev)) * (w_prev / eps))
                            + (loading.g_star(t) - loading.g_star(t_prev)) * (w_prev[-1] / eps)) / tau,
                residual_mech=_dual_norm(r_mech, weights[1:]),
                residual_diff=_dual_norm(r_diff, weights),
            )
        row.update(
            linf_c=linf_norm(grid, c),
            min_c=np.min(c),
            min_F=np.min(F),
            llogl=llogl_deviation(grid, c, params.c_eq),
            h1_u=h1_norm(grid, u),
            l2_rho=lq_norm(grid, (c - params.c_eq) / eps, 2),
            lp_d2u=lq_norm(grid, G / eps, params.p),
            mu_left=mu[0],
            mu_right=mu[-1],
        )
        # Moser's Case I ladder q_n = 2^n (2 - m) + m - 1, n = 0..8, at m = 1
        assert params.m == 1.0
        for q in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
            row[f"lq_c_{q:g}"] = lq_norm(grid, c, q)
        row.update(newton_mech=newton[0], newton_diff=newton[1])
        rows.append(row)
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def test_ledger_matches_per_row_oracle(unit_params, monkeypatch):
    # the ledger is built in blocks of 256 rows here, so 600 steps cross
    # two seams; Robin data and a moving mu_ext make every core column
    # nonzero
    grid = Grid1D(16)
    monkeypatch.setattr(discretization, "_BLOCK_VALUES", 256 * grid.n_nodes)
    bc = BCSpec(kappa_left=0.5, kappa_right=0.25, mu_ext=lambda t: 0.02 * np.sin(3.0 * t))
    loading = ramp_loading(grid)
    run = stored(run_nonlinear, unit_params, grid, loading, bc, tau=TAU, T=600 * TAU, eps=0.1,
                 u0=0.05 * grid.nodes, rho0=0.3 * np.cos(np.pi * grid.nodes), tol=5e-11)
    assert len(run.times) == 601
    expected = _ledger_oracle(unit_params, grid, 0.1, run, loading, bc, tol=5e-11)
    assert run.ledger.column_names == tuple(expected)
    for name, col in expected.items():
        np.testing.assert_allclose(run.ledger.column(name), col, rtol=1e-13, atol=0.0, err_msg=name)
    assert np.all(expected["flux_boundary"][1:] != 0.0)
    assert np.all(expected["newton_mech"][1:] >= 1) and np.all(expected["newton_diff"][1:] >= 1)


def test_nodal_potential_consistent_with_energy_gradient(unit_params):
    # mu is the weighted gradient of the quadrature energy in the nodal
    # concentrations
    from porovisco.constitutive import free_energy

    grid = Grid1D(12)
    rng = np.random.default_rng(1)
    F = 1.0 + 0.1 * rng.standard_normal(grid.n_cells)
    c = 1.0 + 0.2 * rng.random(grid.n_nodes)
    weights = node_weights(grid)

    def energy(cv):
        return grid.h * float(np.sum(free_energy(unit_params, F, cell_average(cv))))

    mu = nodal_chemical_potential(unit_params, grid, F, c)
    s = 1e-7
    for i in range(grid.n_nodes):
        cp = c.copy()
        cp[i] += s
        cm = c.copy()
        cm[i] -= s
        fd = (energy(cp) - energy(cm)) / (2 * s) / weights[i]
        assert abs(mu[i] - fd) < 1e-6


# ---------------------------------------------------------------------------
# lockstep members
# ---------------------------------------------------------------------------

SWEEP_EPS = (0.2, 0.1, 0.05, 0.025)


def robin_problem(grid):
    bc = BCSpec(kappa_left=0.5, kappa_right=0.25, mu_ext=lambda t: 0.02 * np.sin(3.0 * t))
    init = dict(u0=0.05 * grid.nodes, rho0=0.3 * np.cos(np.pi * grid.nodes))
    return bc, init


def assert_runs_equal(run, solo):
    assert np.array_equal(run.times, solo.times)
    assert np.array_equal(run.displacement, solo.displacement)
    assert np.array_equal(run.concentration, solo.concentration)
    assert_ledgers_equal(run.ledger, solo.ledger)


class TestLockstep:
    def solve(self, params, eps, **kw):
        grid = Grid1D(16)
        bc, init = robin_problem(grid)
        return stored(run_nonlinear, params, grid, ramp_loading(grid), bc, tau=TAU, T=60 * TAU, eps=eps,
                      tol=5e-11, **init, **kw)

    def test_members_equal_solo_runs(self, unit_params):
        runs = self.solve(unit_params, SWEEP_EPS)
        assert isinstance(runs, tuple) and len(runs) == len(SWEEP_EPS)
        for run, eps in zip(runs, SWEEP_EPS):
            assert_runs_equal(run, self.solve(unit_params, eps))
        assert runs[0].ledger.column("residual_mech")[1:].max() > 0.0
        # the Newton counts (compared above) differ between members
        counts = [run.ledger.column("newton_mech") for run in runs]
        assert not all(np.array_equal(counts[0], col) for col in counts[1:])

    def test_batch_steps_equal_row_calls(self, unit_params):
        runs = self.solve(unit_params, SWEEP_EPS[:3])
        grid, k, t = Grid1D(16), 30, runs[0].times[31]
        bc, _ = robin_problem(grid)
        loading = ramp_loading(grid)
        eps = np.array(SWEEP_EPS[:3])
        w = np.array([run.displacement[k] for run in runs])
        c = np.array([run.concentration[k] for run in runs])
        f = eps[:, None] * loading.f_star(t)
        g = eps * loading.g_star(t)
        w_new, minfo = mechanical_step(unit_params, grid, w, c, TAU, f, g, tol=5e-11)
        F = 1.0 + gradient(grid, w_new)
        c_new, dinfo = diffusion_step(unit_params, grid, F, c, TAU, bc, t, tol=5e-11)
        for info in (minfo, dinfo):
            assert type(info["iterations"]) is int
            assert info["iterations"] == int(np.sum(info["member_iterations"]))
            assert info["errors"] == {}
        for i in range(3):
            w1, m1 = mechanical_step(unit_params, grid, w[i], c[i], TAU, f[i], g[i], tol=5e-11)
            c1, d1 = diffusion_step(unit_params, grid, F[i], c[i], TAU, bc, t, tol=5e-11)
            assert np.array_equal(w_new[i], w1) and np.array_equal(c_new[i], c1)
            assert np.array_equal(dinfo["mu"][i], d1["mu"])
            assert minfo["member_iterations"][i] == m1["iterations"] >= 1
            assert dinfo["member_iterations"][i] == d1["iterations"] >= 1
            assert minfo["member_residual"][i] == m1["residual"]
            assert minfo["member_energy"][i] == m1["energy"]
            assert dinfo["member_residual"][i] == d1["residual"]

    def test_first_failed_member_in_order_raises_its_own_error(self, unit_params):
        # with two Newton iterations at most, the larger members fail at
        # the load jumps, the largest at the first jump; 0.1 runs through
        grid = Grid1D(16)
        bc, _ = robin_problem(grid)
        x = grid.nodes

        def amplitude(t):
            return 0.5 * (t > 0.01) + 1.0 * (t > 0.02)

        loading = BoundLoading(f=lambda t: amplitude(t) * 3.0 * np.sin(np.pi * x),
                               g=lambda t: amplitude(t) * 1.0)

        def solve(eps):
            return stored(run_nonlinear, unit_params, grid, loading, bc, tau=TAU, T=0.05, eps=eps,
                          tol=1e-10, max_newton=2)

        solo = {}
        for eps in (0.2, 0.8):
            with pytest.raises(NoConvergence) as err:
                solve(eps)
            solo[eps] = err.value
        assert solo[0.8].time < solo[0.2].time
        solve(0.1)
        with pytest.raises(NoConvergence) as err:
            solve((0.1, 0.2, 0.8))
        assert str(err.value) == str(solo[0.2])
        assert err.value.time == solo[0.2].time
        assert err.value.eps == 0.2

    def test_newton_columns_sum_to_the_step_totals(self, unit_params, monkeypatch):
        totals = {"mech": 0, "diff": 0}

        def counted(name, step):
            def wrapper(*args, **kwargs):
                out = step(*args, **kwargs)
                totals[name] += out[1]["iterations"]
                return out
            return wrapper

        monkeypatch.setattr(nonlinear_solver, "mechanical_step", counted("mech", mechanical_step))
        monkeypatch.setattr(nonlinear_solver, "diffusion_step", counted("diff", diffusion_step))
        runs = self.solve(unit_params, SWEEP_EPS)
        for name in ("mech", "diff"):
            cols = [run.ledger.column(f"newton_{name}") for run in runs]
            assert all(col[0] == 0.0 for col in cols)
            assert sum(col.sum() for col in cols) == totals[name] > 0
        names = runs[0].ledger.column_names
        assert names[-2:] == ("newton_mech", "newton_diff")

    def test_initial_failure_waits_for_earlier_members(self, unit_params):
        # eps * u0 folds the bar from eps = 0.5 on
        grid = Grid1D(16)
        kw = dict(tau=TAU, T=10 * TAU, u0=-2.0 * grid.nodes)
        with pytest.raises(OrientationLoss) as solo:
            stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True), eps=0.6, **kw)
        with pytest.raises(OrientationLoss) as err:
            stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True), eps=(0.1, 0.6), **kw)
        assert str(err.value) == str(solo.value) and err.value.time == 0.0
        assert err.value.eps == 0.6

    def test_invalid_input_raises_before_the_loop(self, unit_params, monkeypatch):
        grid = Grid1D(16)

        def no_steps(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(nonlinear_solver, "mechanical_step", no_steps)
        with pytest.raises(ValueError, match="must be positive") as err:
            stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(), tau=TAU, T=0.01, eps=(0.1, 0.0))
        assert err.value.eps == 0.0
        with pytest.raises(ValueError, match="at least one"):
            stored(run_nonlinear, unit_params, grid, ramp_loading(grid), BCSpec(), tau=TAU, T=0.01, eps=())

    def test_source_is_rejected_by_name(self, unit_params, monkeypatch):
        # the finite-strain species equation has no source term: a loading
        # that carries one is refused, not run without it
        grid = Grid1D(16)

        def no_steps(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(nonlinear_solver, "mechanical_step", no_steps)
        loading = BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.0,
                               source=lambda t: np.ones(grid.n_nodes))
        with pytest.raises(ValueError, match=r"^loading\.source is not supported"):
            stored(run_nonlinear, unit_params, grid, loading, BCSpec(), tau=TAU, T=0.01, eps=(0.1, 0.05))

    def test_separable_loading_gives_the_runs_of_its_callable(self, unit_params, monkeypatch):
        # the separable force is rebuilt per step and per ledger block from
        # its amplitude column, the callable one is called at each step;
        # both give the same members bit for bit across block seams
        grid = Grid1D(16)
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 7 * grid.n_nodes)
        bc, init = robin_problem(grid)
        amplitude = TimeAmplitude("sin", 0.6, rate=9.0)
        profile = SpatialProfile("sin_pi").sample(grid.nodes)

        def g(t):
            return 0.25 * min(t / 0.02, 1.0)

        separable, bare = (
            stored(run_nonlinear, unit_params, grid, loading, bc, tau=TAU, T=60 * TAU, eps=(0.2, 0.1), tol=5e-11, **init)
            for loading in (BoundLoading.separable(amplitude, profile, g),
                            BoundLoading(f=lambda t: amplitude(t) * profile, g=g))
        )
        for run, solo in zip(separable, bare):
            assert_runs_equal(run, solo)
        assert np.all(separable[0].ledger.column("load_power")[1:] != 0.0)

    def test_singular_joint_band_solves_blocks_alone(self, unit_params, monkeypatch):
        solos = [self.solve(unit_params, eps) for eps in SWEEP_EPS]
        calls = {"joint": 0}

        def joint_singular(kl, ku, ab, b, **kwargs):
            if ab.shape[1] > 17:
                calls["joint"] += 1
                return ab, None, b, 1  # gbsv's report of a zero pivot
            return dgbsv(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(nonlinear_solver, "dgbsv", joint_singular)
        for run, solo in zip(self.solve(unit_params, SWEEP_EPS), solos):
            assert_runs_equal(run, solo)
        assert calls["joint"] > 0

    def test_singular_members_take_their_scaled_gradient(self, unit_params, monkeypatch):
        # a block is singular by a pure function of its right-hand side,
        # so a member meets the same singular solves alone and in company.
        # Near a minimum the scaled gradient cannot descend, so only large
        # right-hand sides are singular.
        calls = {"singular": 0, "solved": 0}

        def partly_singular(kl, ku, ab, b, **kwargs):
            joint = ab.shape[1] > 17
            if joint or (np.max(np.abs(b)) > 1e-4 and zlib.crc32(b.tobytes()) % 3 == 0):
                calls["singular"] += not joint
                return ab, None, b, 1
            calls["solved"] += 1
            return dgbsv(kl, ku, ab, b, **kwargs)

        monkeypatch.setattr(nonlinear_solver, "dgbsv", partly_singular)
        solos = [self.solve(unit_params, eps) for eps in SWEEP_EPS]
        calls.update(singular=0, solved=0)
        for run, solo in zip(self.solve(unit_params, SWEEP_EPS), solos):
            assert_runs_equal(run, solo)
        assert calls["singular"] > 0 and calls["solved"] > 0

    def test_bands_come_from_the_records_of_their_points(self, unit_params, monkeypatch):
        # every band the driver builds from stored records equals the band
        # of their points evaluated afresh.  A point is found again by the
        # bytes of its residual.
        checked = {"mechanical": 0, "diffusion": 0}
        driver = nonlinear_solver._lockstep_newton

        def checking(x, cur, live, errors, evaluate, band, *args, **kwargs):
            points = {r.tobytes(): p for p, r in zip(x, cur.r)}

            def remember(batch):
                record = evaluate(batch)
                points.update((r.tobytes(), p) for p, r in zip(batch, record.r))
                return record

            def check(record):
                ab = band(record)
                fresh = np.array([points[r.tobytes()] for r in record.r])
                assert np.array_equal(band(evaluate(fresh)), ab)
                checked[kwargs["kind"]] += len(fresh)
                return ab

            return driver(x, cur, live, errors, remember, check, *args, **kwargs)

        monkeypatch.setattr(nonlinear_solver, "_lockstep_newton", checking)
        runs = self.solve(unit_params, SWEEP_EPS)
        assert checked["mechanical"] >= len(SWEEP_EPS) * (len(runs[0].times) - 1)
        assert checked["diffusion"] >= len(SWEEP_EPS) * (len(runs[0].times) - 1)

    def test_rejected_member_takes_the_scaled_gradient_of_its_own_band(self, unit_params, monkeypatch):
        # member 1's Newton direction is replaced by zero, which the line
        # search never accepts: it must take the scaled gradient of its own
        # band and residual.  The fallback is built once, for the batch.
        runs = self.solve(unit_params, SWEEP_EPS[:3])
        grid, k = Grid1D(16), 30
        t = runs[0].times[k + 1]
        loading = ramp_loading(grid)
        eps = np.array(SWEEP_EPS[:3])
        w = np.array([run.displacement[k] for run in runs])
        c = np.array([run.concentration[k] for run in runs])
        f, g = eps[:, None] * loading.f_star(t), eps * loading.g_star(t)
        solve, scaled_gradient = nonlinear_solver._solve_bands, nonlinear_solver._scaled_gradient
        fallbacks = []

        def rejected_for_member_1(ab, rhs, floor):
            delta = solve(ab, rhs, floor)
            delta[1] = 0.0
            return delta

        def recorded(ab, rhs, floor):
            out = scaled_gradient(ab, rhs, floor)
            fallbacks.append((ab, rhs, floor, out))
            return out

        monkeypatch.setattr(nonlinear_solver, "_solve_bands", rejected_for_member_1)
        monkeypatch.setattr(nonlinear_solver, "_scaled_gradient", recorded)
        # one Newton iteration, from w_prev, in which every member takes part
        w_new, info = mechanical_step(unit_params, grid, w, c, TAU, f, g, tol=5e-11, max_newton=1)
        assert list(info["member_iterations"]) == [1, 1, 1]
        assert len(fallbacks) == 1
        ab, rhs, floor, direction = fallbacks[0]
        weights = node_weights(grid)
        c_hat = cell_average(c[1])
        pt = _mech_point(unit_params, grid, w[1], c_hat, _entropy(unit_params, c_hat), (1.0 + gradient(grid, w[1])) ** 2,
                         TAU, weights * f[1], g[1], weights)
        H = _mech_band(unit_params, grid, TAU, pt)
        assert direction.shape == w[:, 1:].shape
        assert np.array_equal(ab[:, 1], H) and np.array_equal(rhs[1], -pt.r) and floor == 1.0
        assert np.array_equal(direction[1], _scaled_gradient(H, -pt.r, 1.0))
        steps = [0.5 ** j for j in range(41)]
        assert any(np.array_equal(w_new[1, 1:], w[1, 1:] + s * direction[1]) for s in steps)

    def batch_at_step(self, params, k):
        # the states of three lockstep members at steps k - 1, k and k + 1,
        # and the time and loads of the step from k to k + 1
        runs = self.solve(params, SWEEP_EPS[:3])
        grid, t = Grid1D(16), runs[0].times[k + 1]
        loading = ramp_loading(grid)
        eps = np.array(SWEEP_EPS[:3])
        W = np.array([run.displacement[k - 1 : k + 2] for run in runs])
        C = np.array([run.concentration[k - 1 : k + 2] for run in runs])
        return grid, t, W, C, eps[:, None] * loading.f_star(t), eps * loading.g_star(t)

    def test_folded_member_leaves_its_company_as_alone(self, unit_params):
        # member 1's w_prev folds the bar: the identity stands in for it,
        # and the others step bit for bit as alone
        grid, _, W, C, f, g = self.batch_at_step(unit_params, 30)
        w, c, start = W[:, 1].copy(), C[:, 1], 2.0 * W[:, 1] - W[:, 0]
        w[1] = -2.0 * grid.nodes
        w_new, info = mechanical_step(unit_params, grid, w, c, TAU, f, g, tol=5e-11, start=start)
        with pytest.raises(OrientationLoss) as solo:
            mechanical_step(unit_params, grid, w[1], c[1], TAU, f[1], g[1], tol=5e-11, start=start[1])
        assert list(info["errors"]) == [1]
        assert type(info["errors"][1]) is OrientationLoss and str(info["errors"][1]) == str(solo.value)
        for i in (0, 2):
            w1, m1 = mechanical_step(unit_params, grid, w[i], c[i], TAU, f[i], g[i], tol=5e-11, start=start[i])
            assert np.array_equal(w_new[i], w1)
            assert info["member_iterations"][i] == m1["iterations"] >= 1

    def test_nonpositive_member_leaves_its_company_as_alone(self, unit_params):
        # one node of member 1's c_prev is so far below zero that its cell
        # averages are too, where no point can be evaluated: c_eq stands
        # in for it, and the others step bit for bit as alone
        grid, t, W, C, _, _ = self.batch_at_step(unit_params, 30)
        bc, _ = robin_problem(grid)
        F, c = 1.0 + gradient(grid, W[:, 2]), C[:, 1].copy()
        c[1, 5] = -5.0
        c_new, info = diffusion_step(unit_params, grid, F, c, TAU, bc, t, tol=5e-11)
        with pytest.raises(PositivityLoss) as solo:
            diffusion_step(unit_params, grid, F[1], c[1], TAU, bc, t, tol=5e-11)
        assert list(info["errors"]) == [1]
        assert type(info["errors"][1]) is PositivityLoss and str(info["errors"][1]) == str(solo.value)
        for i in (0, 2):
            c1, d1 = diffusion_step(unit_params, grid, F[i], c[i], TAU, bc, t, tol=5e-11)
            assert np.array_equal(c_new[i], c1) and np.array_equal(info["mu"][i], d1["mu"])
            assert info["member_iterations"][i] == d1["iterations"] >= 1

    def test_illegal_gbsv_argument_raises(self, monkeypatch):
        monkeypatch.setattr(nonlinear_solver, "dgbsv", lambda kl, ku, ab, b, **kwargs: (ab, None, b, -4))
        ab = np.zeros((5, 2, 6))
        ab[2] = 1.0
        with pytest.raises(ValueError, match="argument 4"):
            _solve_bands(ab, np.ones((2, 6)), 1.0)

    def test_only_the_singular_block_falls_back(self):
        rng = np.random.default_rng(3)
        ab = rng.standard_normal((5, 3, 9))
        ab[2] += 8.0  # diagonally dominant blocks
        for i in range(3):  # the unused corners of the band storage
            ab[0, i, :2] = ab[1, i, 0] = ab[3, i, -1] = ab[4, i, -2:] = 0.0
        ab[:, 1, 4] = 0.0  # a zero column makes block 1 singular
        rhs = rng.standard_normal((3, 9))
        out = _solve_bands(ab, rhs, 1.0)
        for i in (0, 2):
            assert np.array_equal(out[i], solve_banded((2, 2), ab[:, i], rhs[i], check_finite=False))
        # the fallback of a one-member step: rhs / max(max |diag|, floor)
        assert np.array_equal(out[1], rhs[1] / max(float(np.max(np.abs(ab[2, 1]))), 1.0))
        assert np.array_equal(_scaled_gradient(ab, rhs, 1.0)[1], out[1])


# ---------------------------------------------------------------------------
# Newton start from the extrapolated trajectory
# ---------------------------------------------------------------------------

def reversing_loading(grid):
    # ramps up, then flips sign at t = 0.03: the trajectory's trend points
    # away from the new minimizer
    x = grid.nodes

    def amplitude(t):
        return min(t / 0.02, 1.0) if t < 0.03 else -1.0

    return BoundLoading(f=lambda t: amplitude(t) * 0.6 * np.sin(np.pi * x), g=lambda t: amplitude(t) * 0.25)


class TestPredictor:
    def test_run_agrees_with_steps_started_at_the_previous_state(self, unit_params):
        # Both runs stop every Newton solve at a residual dual norm <= tol.
        # Each step's functional is at least 1-convex in the node-weighted
        # L2 norm (the viscous term alone gives 4 D_tilde F^2 / tau ~ 1e3
        # for the displacement, the node weights for the concentration),
        # so one step's two solutions differ by at most 2 tol there, and a
        # dissipative step does not amplify earlier differences.
        tol, n_steps = 5e-11, 60
        bound = 2.0 * tol * n_steps
        grid = Grid1D(16)
        bc, init = robin_problem(grid)
        loading = ramp_loading(grid)
        weights = node_weights(grid)
        for eps in (0.2, 0.05):
            run = stored(run_nonlinear, unit_params, grid, loading, bc, tau=TAU, T=n_steps * TAU, eps=eps,
                         tol=tol, **init)
            w, c = run.displacement[0], run.concentration[0]
            iterations = 0
            for k in range(1, n_steps + 1):
                t = run.times[k]
                w, info = mechanical_step(unit_params, grid, w, c, TAU, eps * loading.f_star(t),
                                          eps * loading.g_star(t), tol=tol)
                c, _ = diffusion_step(unit_params, grid, 1.0 + gradient(grid, w), c, TAU, bc, t, tol=tol)
                iterations += info["iterations"]
                for field, kept in ((w, run.displacement[k]), (c, run.concentration[k])):
                    assert np.sqrt(np.sum(weights * (field - kept) ** 2)) <= bound
            # the extrapolated start saves Newton iterations
            assert run.ledger.column("newton_mech").sum() < iterations

    @staticmethod
    def recorded_steps(params, monkeypatch, grid, loading, eps, T):
        """The arguments and results of every mechanical step of a run."""
        calls = []

        def recorder(*args, **kwargs):
            out = mechanical_step(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        monkeypatch.setattr(nonlinear_solver, "mechanical_step", recorder)
        stored(run_nonlinear, params, grid, loading, BCSpec(zero_flux=True), tau=TAU, T=T, eps=eps, tol=5e-11)
        return calls

    @staticmethod
    def energies(params, args, kwargs, w_new, info):
        """Check the reported energies of one step against the points
        evaluated again, and return the points: at w_prev, at the start
        and at w_new."""
        _, grid, w, c, tau, f, g = args
        weights = node_weights(grid)
        c_hat, C_prev = cell_average(c), kwargs["C_prev"]
        ent = _entropy(params, c_hat)

        def point(wv):
            return _mech_point(params, grid, wv, c_hat, ent, C_prev, tau, weights * f, g, weights)

        # the energy reported is E(w_new), and it exceeds E(w_prev) by at
        # most the line search's round-off budget over the point Newton
        # started from and the returned state
        at_prev, at_new = point(w), point(w_new)
        at_start = at_prev if kwargs["start"] is None else point(kwargs["start"])
        assert np.array_equal(info["member_energy"], at_new.value)
        assert np.array_equal(info["member_energy_start"], at_prev.value)
        taken = at_start.value <= at_prev.value
        scale = np.maximum(np.where(taken, at_start.scale, at_prev.scale), at_new.scale)
        budget = 1024.0 * np.finfo(float).eps * scale + 1e-15
        assert np.all(info["member_energy"] <= info["member_energy_start"] + budget)
        return at_prev, at_start, at_new

    def test_start_above_the_previous_energy_is_not_taken(self, unit_params, monkeypatch):
        grid = Grid1D(16)
        calls = self.recorded_steps(unit_params, monkeypatch, grid, reversing_loading(grid), (0.2, 0.1), 0.05)
        above = 0
        for args, kwargs, (w_new, info) in calls:
            at_prev, at_start, _ = self.energies(unit_params, args, kwargs, w_new, info)
            if kwargs["start"] is None:
                continue
            e_prev, e_start = at_prev.value, at_start.value
            if np.any(e_start > e_prev):
                above += 1
                assert np.all(e_start > e_prev)
                kwargs = dict(kwargs, start=None)
                w_ref, ref = mechanical_step(*args, **kwargs)
                assert np.array_equal(w_new, w_ref)
                assert np.array_equal(info["member_iterations"], ref["member_iterations"])
        assert above > 0

    def test_energy_raised_by_the_polish_is_reported(self, unit_params, monkeypatch):
        # on this run the final Newton polish raises the energy of some
        # member steps within the round-off budget: the energy reported is
        # still that of the returned state, not the smallest one seen
        grid = Grid1D(16)
        calls = self.recorded_steps(unit_params, monkeypatch, grid, default_loading(grid), SWEEP_EPS, 0.1)
        raised = 0
        for args, kwargs, (w_new, info) in calls:
            at_prev, at_start, at_new = self.energies(unit_params, args, kwargs, w_new, info)
            raised += np.count_nonzero(at_new.value > np.minimum(at_prev.value, at_start.value))
        assert raised > 0

    def test_folding_start_falls_back_to_the_previous_state(self, unit_params):
        grid = Grid1D(16)
        bc, init = robin_problem(grid)
        loading = ramp_loading(grid)
        runs = stored(run_nonlinear, unit_params, grid, loading, bc, tau=TAU, T=40 * TAU, eps=(0.2, 0.1), tol=5e-11,
                      **init)
        k, t = 30, runs[0].times[31]
        eps = np.array([0.2, 0.1])
        w = np.array([run.displacement[k] for run in runs])
        c = np.array([run.concentration[k] for run in runs])
        f, g = eps[:, None] * loading.f_star(t), eps * loading.g_star(t)
        start = np.array([3.0 * (run.displacement[k] - run.displacement[k - 1]) + run.displacement[k - 2]
                          for run in runs])
        start[0, 4:] -= 2.0 * grid.h  # chi' = 1 + w' < 0 in one cell of member 0
        assert (1.0 + gradient(grid, start[0])).min() < 0.0

        def solo(i, **kw):
            return mechanical_step(unit_params, grid, w[i], c[i], TAU, f[i], g[i], tol=5e-11, **kw)[0]

        w_new, info = mechanical_step(unit_params, grid, w, c, TAU, f, g, tol=5e-11, start=start)
        assert info["errors"] == {}
        assert np.array_equal(solo(0, start=start[0]), solo(0))
        assert np.array_equal(w_new[0], solo(0))
        # the other member takes its start, which changes its bits
        assert np.array_equal(w_new[1], solo(1, start=start[1]))
        assert not np.array_equal(w_new[1], solo(1))
