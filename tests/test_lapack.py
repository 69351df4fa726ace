"""The binding of ``porovisco._lapack`` against scipy's compiled wrappers
of the same LAPACK and BLAS routines: the solvers' results, bit for bit."""

import ctypes

import numpy as np
import pytest
from scipy.linalg.blas import dgbmv as scipy_dgbmv
from scipy.linalg.lapack import dgbsv as scipy_dgbsv, dgbtrf as scipy_dgbtrf, dgbtrs as scipy_dgbtrs

from porovisco import _lapack, linear_solver, nonlinear_solver
from porovisco.constitutive import linearize
from porovisco.discretization import Grid1D
from porovisco.linear_solver import KL, KU, LinearStepper, _band
from porovisco.nonlinear_solver import _gbsv, _solve_bands


def pentadiagonal_bands(rng, members, n):
    """Diagonally dominant (5, members, n) bands in ``solve_banded((2,
    2), ...)`` storage, with the corners outside each matrix zero, so that
    side by side they are one block-diagonal band."""
    ab = rng.standard_normal((5, members, n))
    ab[2] += 10.0
    ab[0, :, :2] = ab[1, :, :1] = ab[3, :, -1:] = ab[4, :, -2:] = 0.0
    return ab


def scipy_solve(ab, rhs):
    # scipy's dgbsv on the same (7, n) work band as _gbsv: (x, info)
    work = np.zeros((7, ab.shape[-1]), order="F")
    work[2:] = ab
    _, _, x, info = scipy_dgbsv(2, 2, work, rhs)
    return x, info


@pytest.mark.parametrize("members", [1, 4])
def test_gbsv_matches_scipy(members):
    rng = np.random.default_rng(members)
    n = 17
    solved = []
    for _ in range(3):  # the buffers of one width serve every call
        ab, rhs = pentadiagonal_bands(rng, members, n), rng.standard_normal((members, n))
        x, _ = _solve_bands(lambda _: ab, None, rhs)
        expected, info = scipy_solve(ab.reshape(5, members * n), rhs.reshape(members * n))
        assert info == 0
        assert np.array_equal(x.reshape(-1), expected)
        solved.append((x.copy(), x))
    assert all(np.array_equal(kept, x) for kept, x in solved)  # no later call overwrote a result


def test_singular_band_gives_none():
    rng = np.random.default_rng(3)
    ab, rhs = pentadiagonal_bands(rng, 1, 9)[:, 0], rng.standard_normal(9)
    ab[:, 4] = 0.0  # a zero column
    assert scipy_solve(ab, rhs)[1] > 0
    assert _gbsv(ab, rhs) is None
    # the next band of that width is solved in full, whatever the failed
    # factorization left in the buffers
    ab, rhs = pentadiagonal_bands(rng, 1, 9)[:, 0], rng.standard_normal(9)
    assert np.array_equal(_gbsv(ab, rhs), scipy_solve(ab, rhs)[0])


def test_illegal_argument_is_named(monkeypatch):
    # the real routine, called with kl = -1 (its second argument)
    def bad_kl(n, kl, *rest):
        _lapack.dgbsv(n, ctypes.pointer(ctypes.c_int64(-1)), *rest)

    monkeypatch.setattr(nonlinear_solver, "dgbsv", bad_kl)
    ab = np.zeros((5, 6))
    ab[2] = 1.0
    with pytest.raises(ValueError, match="illegal value in argument 2 of gbsv"):
        _gbsv(ab, np.ones(6))


@pytest.fixture(scope="module")
def stepper(unit_params):
    return LinearStepper(Grid1D(16), linearize(unit_params), 1e-3)


def test_gbtrf_matches_scipy(stepper):
    n, d = stepper._n_dofs, stepper._d
    ab = np.zeros((2 * KL + KU + 1, n), order="F")
    ab[KL:] = _band(stepper._apply, n, KL, KU, d, d)
    expected, expected_piv, info = scipy_dgbtrf(ab.copy(order="F"), KL, KU)
    lu, piv, ours = _lapack.dgbtrf(ab, KL, KU)
    assert info == ours == 0 and lu is ab
    assert np.array_equal(lu, expected)
    assert np.array_equal(piv, expected_piv + 1)  # LAPACK numbers its pivots from 1, scipy from 0
    assert np.any(piv != np.arange(1, n + 1))  # the band pivots
    assert np.array_equal(stepper._factors[0], lu) and np.array_equal(stepper._factors[1], piv)


def test_step_matches_scipys_product_and_solve(stepper, monkeypatch):
    x = stepper.grid.nodes
    f, g, s = 0.5 * np.sin(np.pi * x), 0.2, 0.3 * np.cos(np.pi * x)

    def two_steps():
        U, R = np.full((2, 3, len(x)), np.nan)
        U[0], R[0] = 0.1 * x, 0.2 * np.cos(np.pi * x)
        stepper.steps(U, R, np.array([f, f]), np.array([g, g]), np.array([s, s]))
        return U, R

    U, R = two_steps()
    lu, piv = stepper._factors
    n = stepper._n_dofs

    def product(*args):  # P z into the step's b
        stepper._b[:] = scipy_dgbmv(n, n + 1, linear_solver.P_KL, linear_solver.P_KU, 1.0, stepper._P, stepper._z)

    def solve(*args):  # b solved in place
        stepper._b[:] = scipy_dgbtrs(lu, KL, KU, stepper._b, piv - 1)[0]

    monkeypatch.setattr(linear_solver, "dgbmv", product)
    monkeypatch.setattr(linear_solver, "dgbtrs", solve)
    U_ref, R_ref = two_steps()
    assert np.array_equal(U, U_ref) and np.array_equal(R, R_ref)
