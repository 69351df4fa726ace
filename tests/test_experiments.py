import functools

import numpy as np
import pytest

from conftest import assert_ledgers_equal, peak_traced_bytes, stored, uniqueness_discrepancy
from porovisco import discretization, experiments, linear_solver
from porovisco.cli import default_config_path, parse_config
from porovisco.constitutive import linearize
from porovisco.discretization import Grid1D, cell_derivative, cell_l2_norm, drain, gradient, h1_norm, lq_norm
from porovisco.experiments import (
    eps_sweep,
    long_time_decay,
    moser_exponents,
)
from porovisco.loading import BoundLoading
from porovisco.discretization import BCSpec
from porovisco.linear_solver import SingularSystem, check_energy_balance, linear_ledger, run_linear
from porovisco.loading import LoadingSpec, SpatialProfile, TimeAmplitude
from porovisco.nonlinear_solver import (
    NoConvergence,
    check_dissipation_inequality,
    norm_ladder,
    rescale,
    run_nonlinear,
)


@pytest.fixture(scope="module")
def tensors(unit_params):
    return linearize(unit_params)


def zero_loading(grid):
    return BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.0)


def sweep_oracle(params, grid, tau, eps_list, linear, runs) -> dict:
    """The sweep's columns that come from its trajectories, one value per
    member, made from the stored runs, ``rescale`` of their whole arrays
    and the linear flux of the whole trajectory."""
    t = linearize(params)
    lin_flux = t.M_eq * (t.K * cell_derivative(grid, gradient(grid, linear.u)) + t.L * gradient(grid, linear.rho))
    columns = []
    for eps, run in zip(eps_list, runs):
        rs = rescale(params, grid, run.displacement, run.concentration, eps)
        du = rs["u"] - linear.u
        rate = (rs["u"][1:] - rs["u"][:-1]) / tau
        columns.append({
            "err_u_h1": float(np.max(h1_norm(grid, du))),
            "err_u_l2": float(np.max(lq_norm(grid, du, 2))),
            "err_rho_l2": float(np.max(lq_norm(grid, rs["rho"] - linear.rho, 2))),
            "err_flux_l2": float(np.sqrt(np.sum(tau * cell_l2_norm(grid, rs["flux"] - lin_flux)[1:] ** 2))),
            "u_linf_h1": float(np.max(h1_norm(grid, rs["u"]))),
            "udot_grad_l2": float(np.sqrt(np.sum(tau * cell_l2_norm(grid, gradient(grid, rate)) ** 2))),
            "flux_l2": float(np.sqrt(np.sum(tau * cell_l2_norm(grid, rs["flux"][1:]) ** 2))),
        })
    return {name: tuple(c[name] for c in columns) for name in columns[0]}


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
        # below the round-off floor both members fail, 0.2 earlier in
        # time than 0.3; the sweep names the first member in its order
        grid = Grid1D(16)
        x = grid.nodes
        loading = BoundLoading(f=lambda t: min(t / 0.05, 1.0) * 0.6 * np.sin(np.pi * x),
                               g=lambda t: min(t / 0.05, 1.0) * 0.2)
        solo = {}
        for eps in (0.3, 0.2):
            with pytest.raises(NoConvergence) as err:
                stored(run_nonlinear, unit_params, grid, loading, BCSpec(), tau=2e-3, T=0.1,
                       eps=eps, tol=5e-14)
            solo[eps] = err.value
        assert solo[0.2].time < solo[0.3].time
        with pytest.raises(RuntimeError) as err:
            eps_sweep(unit_params, grid, loading, (0.3, 0.2, 0.1, 0.05), tau=2e-3, T=0.1, tol=5e-14)
        assert str(err.value) == f"sweep member eps = 0.3 failed: {solo[0.3]}"
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
        # by rescale and the linear flux from the whole trajectories.
        # 101 rows in blocks of 10 leave a last block of one row, which
        # has no rate
        grid = Grid1D(16)
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 10 * grid.n_nodes)
        loading, eps_list, tau, T = ramp_loading(grid), (0.2, 0.1, 0.05), 2e-3, 0.2
        init = dict(u0=0.05 * grid.nodes, rho0=0.3 * np.cos(np.pi * grid.nodes))
        report = eps_sweep(unit_params, grid, loading, eps_list, tau=tau, T=T, **init)
        linear = stored(run_linear, grid, linearize(unit_params), loading, tau=tau, T=T, **init)
        assert len(linear.times) == 101
        runs = stored(run_nonlinear, unit_params, grid, loading, BCSpec(), tau=tau, T=T,
                      eps=eps_list, tol=5e-11, **init)
        got = {**report.errors, **report.audit}
        for name, values in sweep_oracle(unit_params, grid, tau, eps_list, linear, runs).items():
            assert got[name] == values, name
            assert all(value > 0.0 for value in values)

    def test_streamed_sweep_matches_the_stored_oracle(self, unit_params, monkeypatch):
        # the members and the linear reference hand their rows on in
        # blocks of 7 as their time loops make them, and 71 rows leave a
        # last block of one row.  The columns and every ledger equal, bit
        # for bit, those of stored runs whose ledgers and rescaled fields
        # come from the whole arrays at once
        grid = Grid1D(16)
        loading, eps_list, tau, T = ramp_loading(grid), (0.2, 0.1, 0.05), 2e-3, 0.14
        init = dict(u0=0.05 * grid.nodes, rho0=0.3 * np.cos(np.pi * grid.nodes))
        tensors, bc = linearize(unit_params), BCSpec()
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 1 << 20)
        linear = stored(run_linear, grid, tensors, loading, tau=tau, T=T, **init)
        runs = stored(run_nonlinear, unit_params, grid, loading, bc, tau=tau, T=T, eps=eps_list, tol=5e-11, **init)
        assert len(linear.times) == 71
        expected = sweep_oracle(unit_params, grid, tau, eps_list, linear, runs)

        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 7 * grid.n_nodes)
        report = eps_sweep(unit_params, grid, loading, eps_list, tau=tau, T=T, **init)
        got = {**report.errors, **report.audit}
        for name, values in expected.items():
            assert got[name] == values, name
        assert report.dissipation_violations == tuple(check_dissipation_inequality(run.ledger) for run in runs)
        assert report.energy_balance_residual == check_energy_balance(linear.ledger)
        blocks = []
        streamed = run_nonlinear(unit_params, grid, loading, bc, tau=tau, T=T, eps=eps_list, tol=5e-11,
                                 consume=lambda rows, W, C: blocks.append((rows, W.shape)), **init)
        assert blocks[-2:] == [(slice(63, 70), (3, 8, 17)), (slice(70, 71), (3, 1, 17))]
        for ledger, oracle in zip(streamed, runs):
            assert_ledgers_equal(ledger, oracle.ledger)
        assert_ledgers_equal(drain(linear_ledger(run_linear(grid, tensors, loading, tau=tau, T=T, **init))),
                             linear.ledger)

    def test_streamed_failures_are_the_stored_ones(self, unit_params, monkeypatch):
        # at tol 1e-13, below the round-off floor, the last of three
        # members fails at step 36 and the others run through to T.  The
        # step that makes row 36 would close the block [27, 36): a failed
        # run hands on no block after its failure.  The sweep reports the
        # member's own error, as it did when the trajectories were stored
        grid = Grid1D(16)
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 9 * grid.n_nodes)
        x = grid.nodes
        loading = BoundLoading(f=lambda t: min(t / 0.05, 1.0) * 0.6 * np.sin(np.pi * x),
                               g=lambda t: min(t / 0.05, 1.0) * 0.2)
        kw = dict(tau=2e-3, T=0.076, tol=1e-13)
        bc = BCSpec()
        stored(run_nonlinear, unit_params, grid, loading, bc, eps=0.3, **kw)
        with pytest.raises(NoConvergence) as solo:
            stored(run_nonlinear, unit_params, grid, loading, bc, eps=0.25, **kw)
        assert solo.value.time == pytest.approx(0.072)
        blocks = []
        with pytest.raises(NoConvergence) as err:
            run_nonlinear(unit_params, grid, loading, bc, eps=(0.35, 0.3, 0.25),
                          consume=lambda rows, W, C: blocks.append(rows), **kw)
        assert blocks == [slice(0, 9), slice(9, 18), slice(18, 27)]
        assert (str(err.value), err.value.eps, err.value.time) == (str(solo.value), 0.25, solo.value.time)
        with pytest.raises(RuntimeError) as err:
            eps_sweep(unit_params, grid, loading, (0.35, 0.3, 0.25), **kw)
        assert str(err.value) == f"sweep member eps = 0.25 failed: {solo.value}"
        assert type(err.value.__cause__) is NoConvergence
        assert (err.value.__cause__.eps, err.value.__cause__.time) == (0.25, solo.value.time)
        # the linear reference's failure is raised as itself, and first
        with pytest.raises(SingularSystem, match=r"^step 1 \(t = 0.002\): residual "):
            stored(run_linear, grid, linearize(unit_params), loading, tau=2e-3, T=0.1, tol=0.0)
        monkeypatch.setattr(experiments, "run_linear", functools.partial(run_linear, tol=0.0))
        with pytest.raises(SingularSystem, match=r"^step 1 \(t = 0.002\): residual "):
            eps_sweep(unit_params, grid, loading, (0.3, 0.1, 0.05), **kw)

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

    def test_peak_grows_by_columns_not_trajectories(self, unit_params, monkeypatch):
        # doubling the horizon adds 300 rows.  Stored states added about
        # 11.4 member trajectories of 301 x 65 values; streamed, what grows
        # is the per-row columns: the three members' ledgers (29 columns
        # each, 1.3 trajectories by themselves), the linear ledger, the
        # sweep's terms and the time grids, together about 2.4.  Under 3
        # leaves no room for one more stored trajectory
        grid = Grid1D(64)
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 32 * grid.n_nodes)
        spec = LoadingSpec(SpatialProfile("sin_pi", 0.6), TimeAmplitude("ramp", 1.0, t_ramp=0.25),
                           TimeAmplitude("ramp", 0.25, t_ramp=0.25))
        short, long = (peak_traced_bytes(lambda: eps_sweep(
            unit_params, grid, spec.bind(grid), (0.2, 0.1, 0.05), tau=1e-3, T=T,
            rho0=0.2 * np.cos(np.pi * grid.nodes),
        )) for T in (0.3, 0.6))
        assert long - short < 3.0 * 301 * grid.n_nodes * 8

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
        # c = 2 everywhere, unloaded: the bar swells uniformly and the
        # concentration stays constant, so every rung of the ledger's
        # ladder, and its sup-norm, is 2
        grid = Grid1D(16)
        ledger = run_nonlinear(unit_params, grid, zero_loading(grid), BCSpec(), tau=2e-3, T=0.01,
                               eps=0.1, rho0=np.full(grid.n_nodes, 10.0), consume=lambda rows, W, C: None)
        norms = [float(np.max(ledger.column(f"lq_c_{q:g}"))) for q in norm_ladder(unit_params)]
        gap = float(np.max(ledger.column("linf_c"))) - norms[-1]
        assert all(v == pytest.approx(2.0, rel=1e-13) for v in norms)
        assert abs(gap) <= 1e-12

    def test_biot_run_ladder(self, unit_params, biot_run):
        qs = norm_ladder(unit_params)
        norms = np.array([np.max(biot_run.ledger.column(f"lq_c_{q:g}")) for q in qs])
        gap = np.max(biot_run.ledger.column("linf_c")) - norms[-1]
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

    def test_residual_gate_stops_at_the_perturbed_step(self, tensors, monkeypatch):
        # decay folds no ledger, but each of its steps still meets the
        # run's residual gate: a state knocked off its step's solution at
        # step 10 is named, within step 10's block (rows 7-13 and the next
        # one, so steps 8-14), and no later block is stepped.  The ledger's
        # column writer is never called
        grid = Grid1D(16)
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 7 * grid.n_nodes)
        step, calls = linear_solver.LinearStepper.step, []

        def perturbed(self, *args):
            step(self, *args)
            calls.append(1)
            if len(calls) == 10:
                args[-1][3] += 1e-6  # rho of step 10

        monkeypatch.setattr(linear_solver.LinearStepper, "step", perturbed)
        monkeypatch.setattr(linear_solver, "put_rows", lambda *args: pytest.fail("decay folded a ledger"))
        f = 0.3 * np.sin(np.pi * grid.nodes)
        with pytest.raises(SingularSystem, match=r"^step 10 \(t = 0\.2\): residual .* exceeds tol 1\.000e-09$"):
            long_time_decay(grid, tensors, f, 0.1, rho0=0.2 * np.cos(np.pi * grid.nodes), tau=0.02, T=1.0)
        assert len(calls) == 14

    def test_peak_holds_two_trajectories_and_blocks(self, tensors):
        # the run stores u and rho (two trajectories of 2001 x 257); the
        # constant load is kept as its profile, not as a force per step
        grid = Grid1D(256)
        f = 0.3 * np.sin(np.pi * grid.nodes)
        peak = peak_traced_bytes(lambda: long_time_decay(
            grid, tensors, f, 0.1, rho0=0.2 * np.cos(np.pi * grid.nodes), tau=0.02, T=40.0,
        ))
        assert peak <= 2.6 * 2001 * grid.n_nodes * 8

    def test_peak_does_not_grow_with_the_trajectory(self, tensors, monkeypatch):
        # the curve is made a block at a time as the linear run makes its
        # rows: doubling the horizon adds less than one trajectory of
        # 1001 x 257 values (stored u and rho added two)
        grid = Grid1D(256)
        monkeypatch.setattr(discretization, "_BLOCK_VALUES", 32 * grid.n_nodes)
        f = 0.3 * np.sin(np.pi * grid.nodes)
        short, long = (peak_traced_bytes(lambda: long_time_decay(
            grid, tensors, f, 0.1, rho0=0.2 * np.cos(np.pi * grid.nodes), tau=0.02, T=T,
        )) for T in (20.0, 40.0))
        assert long - short < 1001 * grid.n_nodes * 8


class TestUniqueness:
    def test_zero_data(self, tensors):
        grid = Grid1D(16)
        assert uniqueness_discrepancy(grid, tensors, zero_loading(grid), tau=1e-3, T=0.05) == 0.0

    def test_biot_defaults(self, tensors):
        grid = Grid1D(32)
        loading = ramp_loading(grid)
        d = uniqueness_discrepancy(grid, tensors, loading, rho0=0.2 * np.cos(np.pi * grid.nodes),
                                   tau=1e-3, T=0.3)
        assert d <= 1e-10

    def test_sensitivity_to_data_change(self, tensors):
        # a 1e-6 change in the initial data must register far above the
        # re-solve noise floor
        from porovisco.linear_solver import run_linear

        grid = Grid1D(32)
        loading = ramp_loading(grid)
        rho0 = 0.2 * np.cos(np.pi * grid.nodes)
        a = stored(run_linear, grid, tensors, loading, rho0=rho0, tau=1e-3, T=0.3)
        b = stored(run_linear, grid, tensors, loading, rho0=rho0 + 1e-6, tau=1e-3, T=0.3)
        d = max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.rho - b.rho)))
        assert d >= 1e-7
