import tracemalloc

import numpy as np
import pytest

from porovisco import discretization
from porovisco.cli import default_config_path, parse_config
from porovisco.constitutive import linearize
from porovisco.discretization import Grid1D, cell_derivative, cell_l2_norm, gradient, h1_norm, lq_norm
from porovisco.experiments import (
    eps_sweep,
    long_time_decay,
    moser_diagnostic,
    moser_exponents,
    uniqueness_test,
)
from porovisco.loading import BoundLoading
from porovisco.discretization import BCSpec
from porovisco.linear_solver import run_linear
from porovisco.loading import LoadingSpec, SpatialProfile, TimeAmplitude
from porovisco.nonlinear_solver import EnergyLedger, NoConvergence, NonlinearRun, rescale, run_nonlinear


@pytest.fixture(scope="module")
def tensors(unit_params):
    return linearize(unit_params)


def zero_loading(grid):
    return BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.0)


def peak_traced_bytes(fn) -> int:
    """The peak of the memory numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ramp_loading(grid, t_ramp=0.05):
    x = grid.nodes
    return BoundLoading(
        f=lambda t: min(t / t_ramp, 1.0) * 0.6 * np.sin(np.pi * x),
        g=lambda t: min(t / t_ramp, 1.0) * 0.25,
    )


class TestSweep:
    def test_equilibrium_sweep_all_zero(self, unit_params):
        grid = Grid1D(16)
        report = eps_sweep(unit_params, grid, zero_loading(grid), (0.2, 0.1, 0.05),
                           tau=2e-3, T=0.02)
        for vals in report.errors.values():
            assert all(v == 0.0 for v in vals)
        for ratio in report.audit_ratios.values():
            assert ratio == 1.0 or np.isfinite(ratio)

    def test_short_loaded_sweep_decreases(self, unit_params):
        grid = Grid1D(24)
        rep = eps_sweep(unit_params, grid, ramp_loading(grid), (0.2, 0.1, 0.05),
                        tau=2e-3, T=0.2, tol=5e-11)
        for name, vals in rep.errors.items():
            assert all(np.diff(vals) < 0.0), name
        assert max(rep.dissipation_violations) <= 1e-9
        for ratio in rep.audit_ratios.values():
            assert ratio <= 3.0

    def test_failed_member_message(self, unit_params):
        # below the round-off floor every member fails, 0.1 earlier in
        # time than 0.2; the sweep names the first member in its order
        grid = Grid1D(16)
        x = grid.nodes
        loading = BoundLoading(f=lambda t: min(t / 0.05, 1.0) * 0.6 * np.sin(np.pi * x),
                               g=lambda t: min(t / 0.05, 1.0) * 0.2)
        solo = {}
        for eps in (0.2, 0.1):
            with pytest.raises(NoConvergence) as err:
                run_nonlinear(unit_params, grid, loading, BCSpec(zero_flux=True), tau=2e-3, T=0.1,
                              eps=eps, tol=1e-12)
            solo[eps] = err.value
        assert solo[0.1].time < solo[0.2].time
        with pytest.raises(RuntimeError) as err:
            eps_sweep(unit_params, grid, loading, (0.2, 0.1, 0.05, 0.025), tau=2e-3, T=0.1, tol=1e-12)
        assert str(err.value) == f"sweep member eps = 0.2 failed: {solo[0.2]}"
        assert type(err.value.__cause__) is NoConvergence
        with pytest.raises(RuntimeError) as err:
            eps_sweep(unit_params, grid, loading, (0.2, 0.1, 0.0, -0.1), tau=2e-3, T=0.1)
        assert str(err.value) == "sweep member eps = 0.0 failed: tau, T and eps must be positive"

    def test_default_tol_runs_the_shipped_config(self):
        # the default tolerance must lie above the round-off floor of the
        # mechanical residual on the shipped problem
        config = parse_config(default_config_path())
        u0, rho0 = config.initial_fields()
        report = eps_sweep(config.material, config.grid, config.loading.bind(config.grid), config.eps_list,
                           tau=config.tau, T=0.05, u0=u0, rho0=rho0)
        assert max(report.dissipation_violations) <= 1e-9
        for name, vals in report.errors.items():
            assert all(v > 0.0 for v in vals), name

    def test_block_pass_matches_whole_trajectory_oracle(self, unit_params, monkeypatch):
        # the sweep forms the rescaled fields and the linear flux a row
        # block at a time; its columns equal, bit for bit, the ones made
        # from rescale(run) and the linear flux of the whole trajectory.
        # 101 rows in blocks of 10 leave a last block of one row, which
        # has no rate
        grid = Grid1D(16)
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 10 * grid.n_nodes)
        loading, eps_list, tau, T = ramp_loading(grid), (0.2, 0.1, 0.05), 2e-3, 0.2
        init = dict(u0=0.05 * grid.nodes, rho0=0.3 * np.cos(np.pi * grid.nodes))
        report = eps_sweep(unit_params, grid, loading, eps_list, tau=tau, T=T, **init)
        tensors = linearize(unit_params)
        linear = run_linear(grid, tensors, loading, tau=tau, T=T, **init)
        assert linear.n_steps == 100
        lin_flux = tensors.M_eq * (tensors.K * cell_derivative(grid, gradient(grid, linear.u))
                                   + tensors.L * gradient(grid, linear.rho))
        runs = run_nonlinear(unit_params, grid, loading, BCSpec(zero_flux=True), tau=tau, T=T, eps=eps_list,
                             tol=5e-11, **init)
        for i, run in enumerate(runs):
            rs = rescale(run)
            du = rs.u - linear.u
            rate = (rs.u[1:] - rs.u[:-1]) / tau
            expected = {
                "err_u_h1": float(np.max(h1_norm(grid, du))),
                "err_u_l2": float(np.max(lq_norm(grid, du, 2))),
                "err_rho_l2": float(np.max(lq_norm(grid, rs.rho - linear.rho, 2))),
                "err_flux_l2": float(np.sqrt(np.sum(tau * cell_l2_norm(grid, rs.flux - lin_flux)[1:] ** 2))),
                "u_linf_h1": float(np.max(h1_norm(grid, rs.u))),
                "udot_grad_l2": float(np.sqrt(np.sum(tau * cell_l2_norm(grid, gradient(grid, rate)) ** 2))),
                "flux_l2": float(np.sqrt(np.sum(tau * cell_l2_norm(grid, rs.flux[1:]) ** 2))),
            }
            got = {**report.errors, **report.audit}
            for name, value in expected.items():
                assert got[name][i] == value, (name, i)
            assert all(value > 0.0 for value in expected.values())

    def test_peak_holds_no_whole_rescaled_trajectory(self, unit_params, monkeypatch):
        # three members and the linear run store 8 trajectories of states,
        # and their ledgers at n = 64 about 2 more.  Rescaled copies of the
        # members (u, rho and flux) and a whole linear flux took the peak
        # to 18.2 trajectories; a row-block pass peaks at about 12.4.
        # Blocks of 32 rows keep the block terms small against 301 rows
        grid = Grid1D(64)
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 32 * grid.n_nodes)
        spec = LoadingSpec(SpatialProfile("sin_pi", 0.6), TimeAmplitude("ramp", 1.0, t_ramp=0.25),
                           TimeAmplitude("ramp", 0.25, t_ramp=0.25))
        peak = peak_traced_bytes(lambda: eps_sweep(
            unit_params, grid, spec.bind(grid), (0.2, 0.1, 0.05), tau=1e-3, T=0.3,
            rho0=0.2 * np.cos(np.pi * grid.nodes),
        ))
        assert peak <= 14.0 * 301 * grid.n_nodes * 8

    def test_rejects_bad_eps_list(self, unit_params):
        grid = Grid1D(16)
        with pytest.raises(ValueError):
            eps_sweep(unit_params, grid, zero_loading(grid), (0.1, 0.2, 0.3), tau=1e-3, T=0.01)
        with pytest.raises(ValueError):
            eps_sweep(unit_params, grid, zero_loading(grid), (0.2, 0.1), tau=1e-3, T=0.01)


class TestMoser:
    def test_case_one_ladder(self):
        assert moser_exponents(1.0, 4, case="I") == (1.0, 2.0, 4.0, 8.0, 16.0)
        qs = moser_exponents(1.5, 3, case="I")
        assert qs == tuple(2.0 ** n * 0.5 + 0.5 for n in range(4))

    def test_case_two_ladders(self):
        assert moser_exponents(1.0, 2, case="IIa", r=0.0) == (2.0, 4.0, 8.0)
        assert moser_exponents(1.0, 2, case="IIb", r=0.5) == (2.5, 3.5, 5.5)

    def test_window_rejections(self):
        with pytest.raises(ValueError):
            moser_exponents(2.5, 3, case="I")
        with pytest.raises(ValueError):
            moser_exponents(3.2, 3, case="IIa", r=0.0)
        with pytest.raises(ValueError):
            moser_exponents(2.0, 3, case="IIb")
        with pytest.raises(ValueError):
            moser_exponents(1.0, 3, case="X")

    def test_constant_concentration_saturates(self, unit_params):
        grid = Grid1D(16)
        K = 3
        run = NonlinearRun(
            params=unit_params, grid=grid, eps=0.1,
            times=1e-3 * np.arange(K + 1),
            displacement=np.zeros((K + 1, grid.n_nodes)),
            concentration=np.full((K + 1, grid.n_nodes), 2.0),
            ledger=EnergyLedger(1e-3),
        )
        qs, norms, gap = moser_diagnostic(run, N=5, case="I")
        assert all(v == pytest.approx(2.0, rel=1e-13) for v in norms)
        assert abs(gap) <= 1e-12

    def test_biot_run_ladder(self, biot_run):
        qs, norms, gap = moser_diagnostic(biot_run, N=8, case="I")
        assert qs == tuple(2.0 ** n for n in range(9))
        assert np.all(np.diff(norms) >= -1e-12)
        sup = norms[-1] + gap
        assert norms[-1] <= sup * (1.0 + 1e-8)


class TestDecay:
    def test_start_at_equilibrium_is_flat(self, tensors):
        grid = Grid1D(24)
        f = 0.3 * np.sin(np.pi * grid.nodes)
        from porovisco.linear_solver import static_solve

        v, xi, _, _ = static_solve(grid, tensors, f, 0.1, 0.2)
        result = long_time_decay(grid, tensors, f, 0.1, u0=v, rho0=xi, tau=0.02, T=1.0)
        assert np.max(result.curve) <= 1e-20

    def test_perturbed_start_decays_monotonically(self, tensors):
        grid = Grid1D(24)
        f = 0.3 * np.sin(np.pi * grid.nodes)
        result = long_time_decay(grid, tensors, f, 0.1,
                                 rho0=0.2 * np.cos(np.pi * grid.nodes), tau=0.02, T=5.0)
        assert result.curve[0] > 0.0
        assert result.max_increase <= 1e-12
        assert result.final_ratio <= 1e-3


    def test_peak_holds_two_trajectories_and_blocks(self, tensors):
        # the run stores u and rho (two trajectories of 2001 x 257); the
        # constant load is kept as its profile, not as a force per step
        grid = Grid1D(256)
        f = 0.3 * np.sin(np.pi * grid.nodes)
        peak = peak_traced_bytes(lambda: long_time_decay(
            grid, tensors, f, 0.1, rho0=0.2 * np.cos(np.pi * grid.nodes), tau=0.02, T=40.0,
        ))
        assert peak <= 2.6 * 2001 * grid.n_nodes * 8


class TestUniqueness:
    def test_zero_data(self, tensors):
        grid = Grid1D(16)
        assert uniqueness_test(grid, tensors, zero_loading(grid), tau=1e-3, T=0.05) == 0.0

    def test_biot_defaults(self, tensors):
        grid = Grid1D(32)
        loading = ramp_loading(grid)
        d = uniqueness_test(grid, tensors, loading, rho0=0.2 * np.cos(np.pi * grid.nodes),
                            tau=1e-3, T=0.3)
        assert d <= 1e-10

    def test_sensitivity_to_data_change(self, tensors):
        # a 1e-6 change in the initial data must register far above the
        # re-solve noise floor
        from porovisco.linear_solver import run_linear

        grid = Grid1D(32)
        loading = ramp_loading(grid)
        rho0 = 0.2 * np.cos(np.pi * grid.nodes)
        a = run_linear(grid, tensors, loading, rho0=rho0, tau=1e-3, T=0.3)
        b = run_linear(grid, tensors, loading, rho0=rho0 + 1e-6, tau=1e-3, T=0.3)
        d = max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.rho - b.rho)))
        assert d >= 1e-7
