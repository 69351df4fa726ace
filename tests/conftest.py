import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from porovisco import MaterialParams, linear_solver
from porovisco.discretization import BCSpec, Grid1D, drain
from porovisco.loading import LoadingSpec, SpatialProfile, TimeAmplitude
from porovisco.nonlinear_solver import run_nonlinear


def stored(solver, *args, **kwargs):
    """Drain a streamed run of ``solver`` (``run_linear``, or
    ``run_nonlinear`` at one eps or a list) into stored arrays: a namespace
    with ``times``, ``ledger`` and the states, ``u`` and ``rho`` for the
    linear system and ``displacement`` and ``concentration`` for the
    finite-strain one; a tuple of one per member for an eps list."""
    parts = []

    def keep(rows, *fields):  # copies: the run reuses its buffers
        parts.append([np.array(f[:, :rows.stop - rows.start]) for f in fields])

    if solver.__name__ == "run_linear":
        names = ("u", "rho")
        ledgers = drain(solver(*args, **kwargs), lambda rows, u, rho: keep(rows, u[None], rho[None]))
    else:
        names = ("displacement", "concentration")
        ledgers = solver(*args, consume=keep, **kwargs)
    many = isinstance(ledgers, tuple)
    fields = [np.concatenate(field, axis=1) for field in zip(*parts)]
    runs = [SimpleNamespace(times=ledger.column("t"), ledger=ledger, **{name: f[i] for name, f in zip(names, fields)})
            for i, ledger in enumerate(ledgers if many else (ledgers,))]
    return tuple(runs) if many else runs[0]


def peak_traced_bytes(fn) -> int:
    """The peak of the memory numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def unit_params():
    """Unit Biot material: M_B = beta = k = c_eq = M0 = 1, kappa_e = 0.5,
    delta = 0.1, q_det = 2, nu_h = 0.01, p = 3, D_tilde = 0.25."""
    return MaterialParams()


def default_loading(grid):
    spec = LoadingSpec(
        f_profile=SpatialProfile("sin_pi", 0.6),
        f_amplitude=TimeAmplitude("ramp", 1.0, t_ramp=0.25),
        g_amplitude=TimeAmplitude("ramp", 0.25, t_ramp=0.25),
    )
    return spec.bind(grid)


@pytest.fixture(scope="session")
def biot_run(unit_params):
    """The reference finite-strain run: n = 64, tau = 1e-3, T = 1,
    eps = 0.1, ramped body force and traction (shared across tests)."""
    grid = Grid1D(64)
    bc = BCSpec(zero_flux=True)
    return stored(run_nonlinear, unit_params, grid, default_loading(grid), bc, tau=1e-3, T=1.0, eps=0.1, tol=5e-11)


def band_to_dense(band, kl, ku, n_rows):
    """The matrix of a BLAS band a[ku + i - j, j]."""
    n_cols = band.shape[1]
    out = np.zeros((n_rows, n_cols))
    for k in range(kl + ku + 1):
        cols = np.arange(max(0, ku - k), min(n_cols, n_rows + ku - k))
        out[cols + k - ku, cols] = band[k, cols]
    return out


def permuted_dense_stepper(stepper, seed):
    """``stepper`` with its banded solve replaced by dense LU of the same
    scaled matrix under a seeded random symmetric permutation: a second,
    independent solve of each step, for the uniqueness check."""
    n, d = stepper._n_dofs, stepper._d
    kl, ku = linear_solver.KL, linear_solver.KU
    dense = band_to_dense(linear_solver._band(stepper._apply, n, kl, ku, d, d), kl, ku, n)
    perm = np.random.default_rng(seed).permutation(n)
    inverse = np.argsort(perm)
    lu_piv = lu_factor(dense[np.ix_(perm, perm)], check_finite=False)
    assert np.all(np.diag(lu_piv[0]) != 0.0)
    stepper._solve = lambda b: lu_solve(lu_piv, b[perm], check_finite=False)[inverse]
    return stepper


def dense_resolve_run(grid, tensors, loading, seed=7, **kwargs):
    """The stored ``run_linear`` with every step solved by
    ``permuted_dense_stepper`` (its ledger and residual gate included)."""
    banded = linear_solver.LinearStepper
    with mock.patch.object(linear_solver, "LinearStepper",
                           lambda *args: permuted_dense_stepper(banded(*args), seed)):
        return stored(linear_solver.run_linear, grid, tensors, loading, **kwargs)


def uniqueness_discrepancy(grid, tensors, loading, seed=7, **kwargs):
    """Largest state difference between the banded run and its permuted
    dense re-solve; bounded by direct-solver precision."""
    a = stored(linear_solver.run_linear, grid, tensors, loading, **kwargs)
    b = dense_resolve_run(grid, tensors, loading, seed, **kwargs)
    return max(float(np.max(np.abs(a.u - b.u))), float(np.max(np.abs(a.rho - b.rho))))


def assert_ledgers_equal(ledger, oracle):
    """The two ledgers have the same columns, bit for bit."""
    assert ledger.column_names == oracle.column_names
    for name in oracle.column_names:
        assert np.array_equal(ledger.column(name), oracle.column(name)), name
