import numpy as np
import pytest
from scipy.linalg.blas import dgbmv

import conftest
from conftest import band_to_dense, dense_resolve_run, permuted_dense_stepper, stored
from porovisco import discretization, linear_solver
from porovisco.constitutive import InadmissibleMaterial, LinearizedTensors, linearize
from porovisco.discretization import (
    Grid1D,
    _pad,
    cell_average,
    gradient,
    h1_norm,
    lq_norm,
    mass,
    node_weights,
)
from porovisco.loading import BoundLoading, LoadingSpec, SpatialProfile, TimeAmplitude
from porovisco.linear_solver import (
    LinearStepper,
    SingularSystem,
    check_energy_balance,
    nodal_potential,
    run_linear,
    state_energy,
    static_solve,
)


@pytest.fixture(scope="module")
def tensors(unit_params):
    return linearize(unit_params)


def smooth_loading(grid, f_scale=0.5, g_scale=0.3):
    x = grid.nodes
    return BoundLoading(
        f=lambda t: f_scale * np.sin(t) * np.sin(np.pi * x),
        g=lambda t: g_scale * np.sin(t),
    )


def test_ledger_matches_per_row_oracle(tensors, monkeypatch):
    # the ledger is built in blocks of 256 rows here, so 600 steps cross
    # two seams.  Each row is evaluated from the one-field formulas and
    # the stored states; repeating each step from the stored previous
    # state must give the stored state bit for bit.
    grid = Grid1D(16)
    monkeypatch.setattr(discretization, "_BLOCK_VALUES", 256 * grid.n_nodes)
    x = grid.nodes
    loading = BoundLoading(
        f=lambda t: min(t / 0.1, 1.0) * 0.5 * np.sin(np.pi * x),
        g=lambda t: min(t / 0.1, 1.0) * 0.2,
        source=lambda t: 0.3 * np.cos(5.0 * t) * np.cos(np.pi * x),
    )
    tau = 1e-3
    run = stored(run_linear, grid, tensors, loading, u0=0.05 * x, rho0=0.2 * np.cos(np.pi * x), tau=tau, T=0.6)
    assert len(run.times) == 601
    stepper = LinearStepper(grid, tensors, tau)
    weights = node_weights(grid)
    rows = []
    for k, t in enumerate(run.times):
        u, rho = run.u[k], run.rho[k]
        mu = nodal_potential(grid, tensors, u, rho)
        row = {
            "t": t,
            "energy": state_energy(grid, tensors, u, rho)
            - (np.sum(weights * loading.f_star(t) * u) + loading.g_star(t) * u[-1]),
            "diss_mech": 0.0,
            "diss_diff": tensors.M_eq * np.sum(grid.h * gradient(grid, mu) ** 2),
            "flux_boundary": 0.0,
            "load_power": 0.0,
            "mass": mass(grid, rho),
            "residual": 0.0,
            "h1_u": h1_norm(grid, u),
            "l2_rho": lq_norm(grid, rho, 2),
            "linf_rho": lq_norm(grid, rho, np.inf),
        }
        if k > 0:
            t_prev, u_prev = run.times[k - 1], run.u[k - 1]
            src = np.asarray(loading.source(t), dtype=float)
            u_new, rho_new = stepper.step(u_prev, run.rho[k - 1], loading.f_star(t), loading.g_star(t), src)
            assert np.array_equal(u_new, u) and np.array_equal(rho_new, rho)
            residual = stepper.residual(u_prev, run.rho[k - 1], u, rho, loading.f_star(t), loading.g_star(t), src)
            up_rate = (gradient(grid, u) - gradient(grid, u_prev)) / tau
            row.update(
                diss_mech=0.5 * tensors.D * np.sum(grid.h * up_rate ** 2),
                load_power=(np.sum(weights * (loading.f_star(t) - loading.f_star(t_prev)) * u_prev)
                            + (loading.g_star(t) - loading.g_star(t_prev)) * u_prev[-1]) / tau,
                residual=residual,
            )
        rows.append(row)
    assert run.ledger.column_names == tuple(rows[0])
    for name in rows[0]:
        expected = np.array([row[name] for row in rows])
        np.testing.assert_allclose(run.ledger.column(name), expected, rtol=1e-13, atol=0.0, err_msg=name)



@pytest.mark.parametrize("amplitude", [
    TimeAmplitude("constant", 0.4),
    TimeAmplitude("ramp", 0.7, t_ramp=0.3),
    TimeAmplitude("linear", 0.5, rate=-2.0),
    TimeAmplitude("sin", 0.6, rate=7.0),
])
def test_bound_loading_rows_are_its_calls(amplitude):
    # a bound config loading keeps its amplitude per step and forms the
    # force rows from it: each row and each block of rows is the force
    # f_star gives at that time, bit for bit.  Single rows come from
    # blocks of 963 rows at n = 16, so 2000 steps cross two seams
    grid = Grid1D(16)
    bound = LoadingSpec(f_profile=SpatialProfile("hat", 0.9), f_amplitude=amplitude).bind(grid)
    ts = (0.001 * np.arange(2000)).tolist()
    f = bound.f_steps(ts)
    calls = np.array([bound.f_star(t) for t in ts])
    assert np.array_equal(np.array([f(k) for k in range(len(ts))]), calls)
    assert np.array_equal(np.concatenate([f(slice(k, k + 7)) for k in range(0, len(ts), 7)]), calls)
    assert bound.source_steps(ts) is None


def test_separable_loading_gives_the_run_of_its_callable(tensors, monkeypatch):
    # the separable force is rebuilt per step and per ledger block from
    # its amplitude column, the callable one is called at each step; both
    # runs, source included, agree bit for bit across block seams
    grid = Grid1D(16)
    monkeypatch.setattr(discretization, "_BLOCK_VALUES", 7 * grid.n_nodes)
    x = grid.nodes
    amplitude = TimeAmplitude("sin", 0.5, rate=9.0)
    profile = SpatialProfile("sin_pi").sample(x)

    def g(t):
        return 0.2 * np.sin(t)

    def source(t):
        return 0.3 * np.cos(5.0 * t) * np.cos(np.pi * x)

    a, b = (
        stored(run_linear, grid, tensors, loading, u0=0.05 * x, rho0=0.2 * np.cos(np.pi * x), tau=1e-3, T=0.1)
        for loading in (BoundLoading.separable(amplitude, profile, g, source),
                        BoundLoading(f=lambda t: amplitude(t) * profile, g=g, source=source))
    )
    assert np.array_equal(a.u, b.u) and np.array_equal(a.rho, b.rho)
    assert a.ledger.column_names == b.ledger.column_names
    for name in a.ledger.column_names:
        assert np.array_equal(a.ledger.column(name), b.ledger.column(name)), name
    assert np.all(a.ledger.column("load_power")[1:] != 0.0)


def _blocked_matrix(grid, tensors, tau):
    # the coupled matrix from its operator formulas, in the blocked order
    # (u_1..u_n, rho_0..rho_n), and the viscous block of the right-hand side
    n, h = grid.n_cells, grid.h
    w = node_weights(grid)
    Gu = (np.eye(n) - np.eye(n, k=-1)) / h
    Gr = (np.eye(n, n + 1, k=1) - np.eye(n, n + 1)) / h
    Ar = 0.5 * (np.eye(n, n + 1) + np.eye(n, n + 1, k=1))
    S = Gr.T @ (h * tensors.M_eq * Gr)
    mu_u = (h / w)[:, None] * (Ar.T @ (tensors.K * Gu))
    mu_r = (h / w)[:, None] * (Ar.T @ (tensors.L * Ar))
    A = np.block([
        [Gu.T @ (h * (tensors.C + tensors.D / tau) * Gu), Gu.T @ (h * tensors.K * Ar)],
        [tau * S @ mu_u, np.diag(w) + tau * S @ mu_r],
    ])
    return A, Gu.T @ (h * tensors.D / tau * Gu)


def test_band_matches_operator_formulas(tensors):
    grid, tau = Grid1D(12), 1e-3
    n = grid.n_cells
    A, _ = _blocked_matrix(grid, tensors, tau)
    order = [n] + [i for j in range(1, n + 1) for i in (j - 1, n + j)]  # rho_0, u_1, rho_1, ...
    A = A[np.ix_(order, order)]
    stepper = LinearStepper(grid, tensors, tau)
    d = stepper._d
    band = linear_solver._band(stepper._apply, 2 * n + 1, linear_solver.KL, linear_solver.KU, d, d)
    scaled = band_to_dense(band, linear_solver.KL, linear_solver.KU, 2 * n + 1)
    np.testing.assert_allclose(scaled / np.outer(d, d), A, rtol=0.0, atol=1e-12 * np.max(np.abs(A)))
    # the scaled matrix has a unit diagonal
    np.testing.assert_allclose(np.diag(scaled), 1.0, rtol=1e-14)


def test_rhs_band_matches_stencils(tensors):
    # P applied to previous states (u_prev[0] included) gives the scaled
    # right-hand side of _rhs without loads
    grid, tau = Grid1D(12), 1e-3
    n_dofs = 2 * grid.n_cells + 1
    stepper = LinearStepper(grid, tensors, tau)
    d = stepper._d
    rng = np.random.default_rng(11)
    for _ in range(5):
        u_prev, rho_prev = rng.standard_normal((2, grid.n_nodes))
        b = dgbmv(n_dofs, n_dofs + 1, 0, 4, 1.0, stepper._P, linear_solver._interleave(rho_prev, u_prev))
        b_u, b_r = stepper._rhs(u_prev, rho_prev, np.zeros(grid.n_nodes), 0.0, None)
        np.testing.assert_allclose(b[1::2] / d[1::2], b_u, rtol=0.0, atol=1e-14 * np.max(np.abs(b_u)))
        np.testing.assert_allclose(b[0::2] / d[0::2], b_r, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("seed", [None, 7])
def test_step_is_one_band_product_and_one_solve(tensors, monkeypatch, seed):
    grid = Grid1D(16)
    stepper = LinearStepper(grid, tensors, 1e-3)
    if seed is not None:
        stepper = permuted_dense_stepper(stepper, seed)
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(linear_solver, "dgbmv", counted("dgbmv", dgbmv))
    monkeypatch.setattr(linear_solver, "dgbtrs", counted("solve", linear_solver.dgbtrs))
    monkeypatch.setattr(conftest, "lu_solve", counted("solve", conftest.lu_solve))
    x = grid.nodes
    stepper.step(0.1 * x, 0.2 * np.cos(np.pi * x), 0.5 * np.sin(np.pi * x), 0.2, 0.3 * np.cos(np.pi * x))
    assert sorted(calls) == ["dgbmv", "solve"]


def test_residual_matches_operator_formulas(tensors):
    # an arbitrary pair of states: a residual of order one, so the
    # round-off of either evaluation does not show
    grid, tau = Grid1D(12), 1e-3
    n = grid.n_cells
    rng = np.random.default_rng(5)
    u_prev, u = rng.standard_normal((2, grid.n_nodes))
    u_prev[0] = u[0] = 0.0
    rho_prev, rho, f = rng.standard_normal((3, grid.n_nodes))
    g = 0.3
    w = node_weights(grid)
    A, visc = _blocked_matrix(grid, tensors, tau)
    b = np.concatenate([w[1:] * f[1:] + visc @ u_prev[1:], w * rho_prev])
    b[n - 1] += g
    expected = np.max(np.abs(A @ np.concatenate([u[1:], rho]) - b))
    got = LinearStepper(grid, tensors, tau).residual(u_prev, rho_prev, u, rho, f, g)
    assert got == pytest.approx(expected, rel=1e-12)


def test_singular_band_raises(tensors, monkeypatch):
    grid = Grid1D(16)
    monkeypatch.setattr(linear_solver, "dgbtrf", lambda ab, kl, ku, **kwargs: (ab, np.zeros(ab.shape[1], np.int32), 3))
    with pytest.raises(SingularSystem, match="zero pivot 3"):
        LinearStepper(grid, tensors, 1e-3)
    loading = BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.1)
    with pytest.raises(SingularSystem):
        run_linear(grid, tensors, loading, tau=1e-3, T=0.01)


def test_illegal_gbtrf_argument_raises(tensors, monkeypatch):
    monkeypatch.setattr(linear_solver, "dgbtrf", lambda ab, kl, ku, **kwargs: (ab, None, -2))
    with pytest.raises(ValueError, match="argument 2"):
        LinearStepper(Grid1D(16), tensors, 1e-3)


def test_first_step_over_tol_is_named(tensors):
    grid = Grid1D(16)
    rho0 = 0.3 * np.cos(np.pi * grid.nodes)
    run = stored(run_linear, grid, tensors, smooth_loading(grid), rho0=rho0, tau=1e-3, T=0.05)
    res = run.ledger.column("residual")
    k = int(np.argmax(res))  # the first step at the largest residual
    assert k >= 1 and res[k] > 0.0
    with pytest.raises(SingularSystem, match=rf"^step {k} \(t = "):
        stored(run_linear, grid, tensors, smooth_loading(grid), rho0=rho0, tau=1e-3, T=0.05, tol=np.max(res[:k]))


def test_residual_gate_stops_at_the_failing_block(tensors, monkeypatch):
    # each block is checked as the time loop makes it: a tol under every
    # residual fails step 1, named as before, and the run stops within
    # its 7-row block instead of taking all 50 steps first
    grid = Grid1D(16)
    monkeypatch.setattr(discretization, "_BLOCK_VALUES", 7 * grid.n_nodes)
    rho0 = 0.3 * np.cos(np.pi * grid.nodes)
    run = stored(run_linear, grid, tensors, smooth_loading(grid), rho0=rho0, tau=1e-3, T=0.05)
    res = run.ledger.column("residual")
    tol = 0.5 * np.min(res[1:])
    assert tol > 0.0
    step, calls = LinearStepper.step, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(LinearStepper, "step", counted)
    message = f"step 1 (t = {run.times[1]:.9g}): residual {res[1]:.3e} exceeds tol {tol:.3e}"
    with pytest.raises(SingularSystem) as err:
        stored(run_linear, grid, tensors, smooth_loading(grid), rho0=rho0, tau=1e-3, T=0.05, tol=tol)
    assert str(err.value) == message
    assert len(calls) == 7 < len(run.times) - 1


def test_zero_data_stays_zero(tensors):
    grid = Grid1D(16)
    loading = BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.0)
    run = stored(run_linear, grid, tensors, loading, tau=1e-3, T=0.01)
    assert np.max(np.abs(run.u)) == 0.0
    assert np.max(np.abs(run.rho)) == 0.0
    assert check_energy_balance(run.ledger) == 0.0


def test_single_step_mass_conserved(tensors):
    grid = Grid1D(32)
    loading = BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.1)
    run = stored(run_linear, grid, tensors, loading, rho0=0.3 * np.cos(np.pi * grid.nodes), tau=1e-3, T=1e-3)
    assert len(run.times) == 2
    assert abs(mass(grid, run.rho[1]) - mass(grid, run.rho[0])) <= 1e-13
    assert run.times[1] == pytest.approx(1e-3)


def test_long_horizon_mass_conserved(tensors):
    # the decay experiment's horizon and step under the shipped load:
    # the constant that step adds to the solved rho holds this bound;
    # without it the round-off of the solve drifts the mass by 2.4e-12 over
    # these 2500 steps
    grid = Grid1D(64)
    x = grid.nodes
    loading = BoundLoading(f=lambda t: 0.6 * np.sin(np.pi * x), g=lambda t: 0.25)
    run = stored(run_linear, grid, tensors, loading, rho0=0.4 * np.cos(np.pi * x), tau=0.02, T=50.0)
    m = run.ledger.column("mass")
    assert np.max(np.abs(m - m[0])) <= 1e-12


def test_mass_conserved_along_trajectory(tensors):
    grid = Grid1D(48)
    run = stored(run_linear, grid, tensors, smooth_loading(grid), rho0=0.3 * np.cos(np.pi * grid.nodes),
                 tau=1e-3, T=0.3)
    m = run.ledger.column("mass")
    assert np.max(np.abs(m - m[0])) <= 1e-12


def test_balance_residual_halves_with_tau(tensors):
    grid = Grid1D(48)
    rho0 = 0.3 * np.cos(np.pi * grid.nodes)
    res = {}
    for tau in (2e-3, 1e-3):
        run = stored(run_linear, grid, tensors, smooth_loading(grid), rho0=rho0, tau=tau, T=0.4)
        res[tau] = check_energy_balance(run.ledger)
    ratio = res[1e-3] / res[2e-3]
    assert 0.4 <= ratio <= 0.6


def test_balance_detector_inflates_under_corrupted_viscosity(tensors):
    # step-traction relaxation: viscous dissipation dominates while the
    # honest defect stays at the small-tau level, so a 10% error in the
    # viscosity entry stands out
    grid = Grid1D(48)
    loading = BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.3)
    run = stored(run_linear, grid, tensors, loading, tau=1e-4, T=0.3)
    base = check_energy_balance(run.ledger)
    run.ledger._cols["diss_mech"] = [1.1 * v for v in run.ledger._cols["diss_mech"]]
    corrupted = check_energy_balance(run.ledger)
    assert corrupted > 10.0 * base


def test_tau_refinement_first_order(tensors):
    grid = Grid1D(32)
    rho0 = 0.3 * np.cos(np.pi * grid.nodes)
    finals = {}
    for tau in (2e-3, 1e-3, 5e-4):
        run = stored(run_linear, grid, tensors, smooth_loading(grid), rho0=rho0, tau=tau, T=0.3)
        finals[tau] = np.concatenate([run.u[-1], run.rho[-1]])
    d1 = np.max(np.abs(finals[2e-3] - finals[1e-3]))
    d2 = np.max(np.abs(finals[1e-3] - finals[5e-4]))
    assert d2 < d1
    assert 1.4 <= d1 / d2 <= 3.0


def test_energy_nonincreasing_without_loading(tensors):
    grid = Grid1D(32)
    loading = BoundLoading(f=lambda t: np.zeros(grid.n_nodes), g=lambda t: 0.0)
    run = stored(run_linear, grid, tensors, loading, rho0=0.4 * np.cos(np.pi * grid.nodes),
                 tau=2e-3, T=0.5)
    E = run.ledger.column("energy")
    assert np.all(np.diff(E) <= 1e-14)
    assert E[-1] < E[0]


def test_uniqueness_under_reordering(tensors):
    grid = Grid1D(40)
    rho0 = 0.3 * np.cos(np.pi * grid.nodes)
    a = stored(run_linear, grid, tensors, smooth_loading(grid), rho0=rho0, tau=1e-3, T=0.2)
    b = dense_resolve_run(grid, tensors, smooth_loading(grid), seed=123, rho0=rho0, tau=1e-3, T=0.2)
    assert np.max(np.abs(a.u - b.u)) <= 1e-10
    assert np.max(np.abs(a.rho - b.rho)) <= 1e-10


def dense_static_solve(grid, tensors, f_nodes, g_value, total_mass):
    """The static system assembled as a (2n + 2)-square matrix and solved
    by dense LU (oracle for the elimination of ``static_solve``).  The
    unknowns are (v_1..v_n, xi_0..xi_n, nu)."""
    n = grid.n_cells
    weights = node_weights(grid)
    alt = weights * (-1.0) ** np.arange(n + 1)

    def rows(x):
        # mechanical rows (nodes 1..n), weighted potential rows (nodes
        # 1..n; node 0's is redundant), oscillatory-mode and mass rows
        v, xi, nu = _pad(x[..., :n], 1, 0), x[..., n : 2 * n + 1], x[..., 2 * n + 1]
        stress = tensors.C * gradient(grid, v) + tensors.K * cell_average(xi)
        pot = weights * (nodal_potential(grid, tensors, v, xi) - nu[..., None])
        return np.column_stack([-linear_solver._divergence(stress)[..., 1:], pot[..., 1:], xi @ alt, xi @ weights])

    N = 2 * n + 2
    b = np.zeros(N)
    b[:n] = weights[1:] * f_nodes[1:]
    b[n - 1] += g_value
    b[N - 1] = total_mass
    x = np.linalg.solve(rows(np.eye(N)).T, b)
    return _pad(x[:n], 1, 0), x[n : 2 * n + 1], x[2 * n + 1]


@pytest.mark.parametrize("n", [24, 64])
def test_static_matches_dense_solve(tensors, n):
    grid = Grid1D(n)
    f = 0.4 * np.sin(np.pi * grid.nodes) + 0.1 * grid.nodes
    v, xi, nu, res = static_solve(grid, tensors, f, 0.2, 0.3)
    v_ref, xi_ref, nu_ref = dense_static_solve(grid, tensors, f, 0.2, 0.3)
    assert res <= 1e-12
    assert np.max(np.abs(v - v_ref)) <= 1e-12
    assert np.max(np.abs(xi - xi_ref)) <= 1e-12
    assert abs(nu - nu_ref) <= 1e-12


class TestStatic:
    def test_zero_data(self, tensors):
        grid = Grid1D(24)
        v, xi, nu, res = static_solve(grid, tensors, np.zeros(grid.n_nodes), 0.0, 0.0)
        assert np.max(np.abs(v)) == 0.0
        assert np.max(np.abs(xi)) == 0.0
        assert nu == 0.0
        assert res <= 1e-12

    def test_pure_mass_closed_form(self, tensors):
        grid = Grid1D(24)
        R = 0.7
        v, xi, nu, res = static_solve(grid, tensors, np.zeros(grid.n_nodes), 0.0, R)
        assert np.max(np.abs(xi - R)) <= 1e-9
        vp = np.diff(v) / grid.h
        assert np.max(np.abs(vp + tensors.K / tensors.C * R)) <= 1e-9
        assert res <= 1e-12

    def test_residual_self_certified(self, tensors):
        grid = Grid1D(32)
        f = 0.4 * np.sin(np.pi * grid.nodes)
        _, _, _, res = static_solve(grid, tensors, f, 0.2, 0.3)
        assert res <= 1e-12

    def test_static_is_fixed_point_of_stepper(self, tensors):
        grid = Grid1D(24)
        f = 0.3 * np.sin(np.pi * grid.nodes)
        g = 0.1
        v, xi, nu, _ = static_solve(grid, tensors, f, g, 0.2)
        loading = BoundLoading(f=lambda t: f, g=lambda t: g)
        run = stored(run_linear, grid, tensors, loading, u0=v, rho0=xi, tau=1e-2, T=1e-2)
        assert len(run.times) == 2
        assert np.max(np.abs(run.u[1] - v)) <= 1e-11
        assert np.max(np.abs(run.rho[1] - xi)) <= 1e-11


def test_state_energy_positive_definite(tensors):
    grid = Grid1D(16)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal(grid.n_nodes)
        u[0] = 0.0
        rho = rng.standard_normal(grid.n_nodes)
        val = state_energy(grid, tensors, u, rho)
        if np.max(np.abs(np.diff(u))) + np.max(np.abs(rho[1:] + rho[:-1])) > 0:
            assert val >= 0.0


def test_nodal_potential_constant_state(tensors):
    grid = Grid1D(16)
    rho = np.full(grid.n_nodes, 0.5)
    mu = nodal_potential(grid, tensors, np.zeros(grid.n_nodes), rho)
    assert np.allclose(mu, tensors.L * 0.5, atol=1e-14)


def test_invalid_tensors_rejected():
    with pytest.raises(InadmissibleMaterial):
        LinearizedTensors(C=1.0, K=2.0, L=1.0, D=1.0, M_eq=1.0)  # L - K^2/C < 0
    with pytest.raises(InadmissibleMaterial):
        LinearizedTensors(C=-1.0, K=0.0, L=1.0, D=1.0, M_eq=1.0)
    with pytest.raises(InadmissibleMaterial):
        LinearizedTensors(C=1.0, K=0.0, L=1.0, D=1.0, M_eq=0.0)
