import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from porovisco.discretization import (
    BCSpec,
    Grid1D,
    cell_l2_norm,
    gradient,
    h1_norm,
    h1_seminorm,
    llogl_deviation,
    lq_norm,
    mass,
    node_weights,
    second_derivative,
)


def test_grid_invariants():
    g = Grid1D(8)
    assert g.h * g.n_cells == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(g.nodes) > 0)
    with pytest.raises(ValueError):
        Grid1D(3)


def test_bcspec_validation():
    BCSpec(kappa_left=0.5)
    for kappa in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            BCSpec(kappa_left=kappa)
        with pytest.raises(ValueError):
            BCSpec(kappa_right=kappa)


def test_gradient_exact_for_affine():
    g = Grid1D(8)
    assert np.allclose(gradient(g, g.nodes), 1.0, atol=1e-14)
    assert np.allclose(gradient(g, np.full(9, 3.7)), 0.0)


def test_gradient_quadratic_midpoints():
    g = Grid1D(64)
    vals = gradient(g, g.nodes ** 2)
    # central difference of x^2 equals 2x exactly at midpoints
    assert np.max(np.abs(vals - 2.0 * (np.arange(g.n_cells) + 0.5) * g.h)) < 1e-12


def test_second_derivative():
    g = Grid1D(16)
    affine = 2.0 * g.nodes + 1.0
    assert np.allclose(second_derivative(g, affine), 0.0, atol=1e-12)
    quad = second_derivative(g, g.nodes ** 2 / 2.0)
    assert np.allclose(quad[1:-1], 1.0, atol=1e-12)
    assert quad[0] == 0.0 and quad[-1] == 0.0


def test_norms_of_constant():
    g = Grid1D(10)
    f = np.full(11, 2.0)
    for q in (1, 2, 5, np.inf):
        assert lq_norm(g, f, q) == pytest.approx(2.0, rel=1e-14)


def test_h1_seminorm_linear():
    g = Grid1D(12)
    assert h1_seminorm(g, g.nodes) == pytest.approx(1.0, rel=1e-14)


def test_lq_rejects_small_exponent():
    g = Grid1D(4)
    with pytest.raises(ValueError):
        lq_norm(g, np.zeros(5), 0.5)


def test_hat_quadrature_refines_to_exact():
    # integral of (2 min(x, 1-x))^2 over (0,1) is 1/3
    for n in (16, 64):
        g = Grid1D(n)
        hat = 2.0 * np.minimum(g.nodes, 1.0 - g.nodes)
        err = abs(lq_norm(g, hat, 2) ** 2 - 1.0 / 3.0)
        assert err <= g.h


@settings(max_examples=60, deadline=None)
@given(
    vals=hnp.arrays(np.float64, 17, elements=st.floats(-5, 5)),
    q1=st.floats(1.0, 30.0),
    q2=st.floats(1.0, 30.0),
)
def test_norm_monotone_in_exponent(vals, q1, q2):
    g = Grid1D(16)
    lo, hi = min(q1, q2), max(q1, q2)
    assert lq_norm(g, vals, lo) <= lq_norm(g, vals, hi) + 1e-12
    assert lq_norm(g, vals, hi) <= lq_norm(g, vals, np.inf) + 1e-12


def test_norm_approaches_sup():
    g = Grid1D(32)
    f = 1.0 + 0.3 * np.sin(2 * np.pi * g.nodes)
    seq = [lq_norm(g, f, 2.0 ** k) for k in range(10)]
    assert np.all(np.diff(seq) >= -1e-12)
    assert lq_norm(g, f, np.inf) - seq[-1] < 0.01 * lq_norm(g, f, np.inf)


def test_summation_by_parts():
    g = Grid1D(32)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.n_nodes)
    q = rng.standard_normal(g.n_cells)
    lhs = np.sum(g.h * gradient(g, f) * q)
    divergence = (q[1:] - q[:-1]) / g.h
    rhs = f[-1] * q[-1] - f[0] * q[0] - np.sum(g.h * f[1:-1] * divergence)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_llogl_examples():
    g = Grid1D(8)
    assert llogl_deviation(g, np.ones(9), 1.0) == 0.0
    assert llogl_deviation(g, np.full(9, 2.0), 1.0) == pytest.approx(2 * np.log(2) - 1, rel=1e-14)
    with pytest.raises(ValueError):
        llogl_deviation(g, np.array([1.0] * 8 + [-0.1]), 1.0)


def test_llogl_zero_handled():
    g = Grid1D(4)
    c = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    assert llogl_deviation(g, c, 1.0) == pytest.approx(g.h / 2.0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(vals=hnp.arrays(np.float64, 17, elements=st.floats(0.5, 2.0)))
def test_llogl_controls_l2_distance(vals):
    # on [0.5, 2] the pointwise bound c log c - c + 1 >= 0.38 (c-1)^2 holds
    g = Grid1D(16)
    dev = llogl_deviation(g, vals, 1.0)
    assert dev >= 0.38 * lq_norm(g, vals - 1.0, 2) ** 2 - 1e-12


def test_weights_and_mass():
    g = Grid1D(7)
    assert np.sum(node_weights(g)) == pytest.approx(1.0, abs=1e-15)
    assert mass(g, g.nodes) == pytest.approx(0.5, abs=1e-12)


def test_cell_l2_norm():
    g = Grid1D(5)
    assert cell_l2_norm(g, np.full(5, 2.0)) == pytest.approx(2.0, rel=1e-14)


def _batch(rows, cols, elements):
    # (rows, cols) arrays, some rows of which may be all zero
    return st.tuples(
        hnp.arrays(np.float64, (rows, cols), elements=elements),
        st.lists(st.booleans(), min_size=rows, max_size=rows),
    ).map(lambda a: np.where(np.array(a[1])[:, None], 0.0, a[0]))


def _assert_rowwise(batch_value, per_row):
    assert isinstance(per_row[0], float)
    np.testing.assert_allclose(batch_value, per_row, rtol=1e-14, atol=0.0, equal_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    vals=_batch(5, 17, st.floats(-1e3, 1e3)),
    q=st.sampled_from([1, 2, 3, 257, np.inf]),
)
def test_batch_norms_match_single_fields(vals, q):
    g = Grid1D(16)
    for fn in (
        lambda f: lq_norm(g, f, q),
        lambda f: lq_norm(g, f, np.inf),
        lambda f: h1_seminorm(g, f),
        lambda f: h1_norm(g, f),
        lambda f: mass(g, f),
        lambda f: cell_l2_norm(g, f[..., 1:]),
    ):
        _assert_rowwise(fn(vals), [fn(row) for row in vals])
        assert np.all(fn(vals)[~vals.any(axis=1)] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    vals=_batch(4, 9, st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
    c_eq=st.floats(0.1, 5.0),
)
def test_batch_llogl_matches_single_fields(vals, c_eq):
    g = Grid1D(8)
    _assert_rowwise(llogl_deviation(g, vals, c_eq), [llogl_deviation(g, row, c_eq) for row in vals])
