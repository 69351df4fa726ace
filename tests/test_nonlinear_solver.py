import numpy as np
import pytest

from porovisco.discretization import (
    BCSpec,
    Grid1D,
    cell_average,
    gradient,
    mass,
    node_weights,
)
from porovisco.loading import BoundLoading
from porovisco.nonlinear_solver import (
    EnergyLedger,
    NoConvergence,
    OrientationLoss,
    PositivityLoss,
    check_dissipation_inequality,
    diffusion_step,
    direct_difference_flux,
    mechanical_step,
    nodal_chemical_potential,
    rescale,
    run_nonlinear,
    _diff_jacobian,
    _diff_residual,
    _mech_hessian,
    _mech_residual,
)

from conftest import default_loading

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

        def residual(wv):
            return _mech_residual(unit_params, grid, wv, c_hat, C_prev, TAU, f, 0.02, weights)

        H = dense_from_band(_mech_hessian(unit_params, grid, w, c_hat, C_prev, TAU), 2, 2)
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

        def residual(cv):
            return _diff_residual(unit_params, grid, F, cv, c_prev, tau, bc, 0.0, weights)[0]

        J = dense_from_band(_diff_jacobian(unit_params, grid, F, c, tau, bc, weights), 2, 2)
        fd = central_differences(residual, c, range(n + 1))
        tol = 1e-7 * np.max(np.abs(J))
        assert np.max(np.abs(J - fd)) <= tol
        if kappa[0] > 0.0:
            J0 = dense_from_band(_diff_jacobian(unit_params, grid, F, c, tau, BCSpec(), weights), 2, 2)
            robin = np.abs(J - J0)
            for i, j in ((0, 0), (0, 1), (n, n), (n, n - 1)):
                assert robin[i, j] > 100.0 * tol
            robin[[0, 0, n, n], [0, 1, n, n - 1]] = 0.0
            assert np.max(robin) == 0.0


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
        run = run_nonlinear(unit_params, grid, zero_loading(grid), BCSpec(zero_flux=True),
                            tau=TAU, T=0.02, eps=0.1)
        assert np.max(np.abs(run.displacement)) == 0.0
        assert np.max(np.abs(run.concentration - 1.0)) == 0.0
        assert np.max(run.ledger.column("diss_mech")) == 0.0
        assert np.max(run.ledger.column("diss_diff")) == 0.0
        assert check_dissipation_inequality(run.ledger) == 0.0

    def test_structure_preserved_on_short_run(self, unit_params):
        grid = Grid1D(32)
        run = run_nonlinear(unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
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
        run = run_nonlinear(unit_params, grid, zero_loading(grid), BCSpec(zero_flux=True),
                            tau=TAU, T=0.02, eps=0.1)
        run.ledger._cols["energy"][5] += 1e-3
        violation = check_dissipation_inequality(run.ledger)
        assert violation == pytest.approx(1e-3, rel=1e-6)

    def test_failures_carry_time(self, unit_params):
        grid = Grid1D(16)
        with pytest.raises(NoConvergence) as err:
            run_nonlinear(unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                          tau=TAU, T=0.05, eps=0.1, max_newton=0)
        assert err.value.time is not None

    def test_reference_problem_at_n1024(self, unit_params):
        # three steps of the reference problem on a 1024-cell grid; the
        # banded Newton solves make this a matter of milliseconds
        grid = Grid1D(1024)
        run = run_nonlinear(unit_params, grid, default_loading(grid), BCSpec(zero_flux=True),
                            tau=TAU, T=3 * TAU, eps=0.1, tol=1e-9)
        assert run.n_steps == 3
        assert check_dissipation_inequality(run.ledger) <= 1e-12
        assert run.ledger.column("residual_mech").max() <= 1e-9
        assert run.ledger.column("residual_diff").max() <= 1e-9

    def test_initial_data_validated(self, unit_params):
        grid = Grid1D(16)
        rho0 = np.full(grid.n_nodes, -15.0)  # c0 = 1 - 1.5 < 0 at eps = 0.1
        with pytest.raises(PositivityLoss):
            run_nonlinear(unit_params, grid, zero_loading(grid), BCSpec(zero_flux=True),
                          tau=TAU, T=0.01, eps=0.1, rho0=rho0)

    def test_tau_refinement_first_order(self, unit_params):
        grid = Grid1D(32)
        finals = {}
        for tau in (2e-3, 1e-3, 5e-4):
            run = run_nonlinear(unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
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
            run = run_nonlinear(unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                                tau=tau, T=0.25, eps=0.1, tol=5e-11)
            sups.append(run.ledger.column("linf_c").max())
        assert max(sups) / min(sups) <= 1.01


class TestRescale:
    def test_equilibrium_rescales_to_zero(self, unit_params):
        grid = Grid1D(16)
        run = run_nonlinear(unit_params, grid, zero_loading(grid), BCSpec(zero_flux=True),
                            tau=TAU, T=0.02, eps=0.1)
        rs = rescale(run)
        assert np.max(np.abs(rs.u)) == 0.0
        assert np.max(np.abs(rs.rho)) == 0.0
        assert np.max(np.abs(rs.flux)) == 0.0

    def test_linearity_roundtrip(self, unit_params):
        grid = Grid1D(24)
        run = run_nonlinear(unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                            tau=TAU, T=0.05, eps=0.1, tol=5e-11)
        rs = rescale(run)
        assert np.max(np.abs(rs.u * run.eps - run.displacement)) <= 1e-14

    def test_flux_matches_direct_difference_to_first_order(self, unit_params):
        errs = []
        for n in (32, 64):
            grid = Grid1D(n)
            run = run_nonlinear(unit_params, grid, ramp_loading(grid), BCSpec(zero_flux=True),
                                tau=2e-3, T=0.2, eps=0.1, tol=5e-11)
            rs = rescale(run)
            k = run.n_steps
            diff = rs.flux[k] - direct_difference_flux(run, k)
            errs.append(np.sqrt(np.sum(grid.h * diff ** 2)))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] >= 1.5  # at least O(h)


class TestLedger:
    def test_rejects_inconsistent_rows(self):
        led = EnergyLedger(0.1, extra_columns=("extra",))
        with pytest.raises(ValueError):
            led.append(t=0.0, energy=1.0, diss_mech=0.0, diss_diff=0.0,
                       flux_boundary=0.0, load_power=0.0)  # missing "extra"

    def test_rejects_negative_dissipation(self):
        led = EnergyLedger(0.1)
        with pytest.raises(ValueError):
            led.append(t=0.0, energy=1.0, diss_mech=-1.0, diss_diff=0.0,
                       flux_boundary=0.0, load_power=0.0)

    def test_rejects_nonfinite(self):
        led = EnergyLedger(0.1)
        with pytest.raises(ValueError):
            led.append(t=0.0, energy=np.inf, diss_mech=0.0, diss_diff=0.0,
                       flux_boundary=0.0, load_power=0.0)


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
