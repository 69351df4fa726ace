"""Uniform 1-D grid on (0, 1), difference operators and discrete norms.

Nodal fields have ``n_cells + 1`` entries; gradients live at cell
midpoints.  Quadrature is trapezoidal throughout, so the weights sum to
exactly one and the discrete L^q norms are power means (monotone in q).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

# values per row block of a run's time loop: about 256 rows of an n = 64
# trajectory.  This amortizes the per-call overhead of the vectorized
# diagnostics and keeps the temporaries of a block small on every grid.
_BLOCK_VALUES = 1 << 14

__all__ = [
    "Grid1D",
    "BCSpec",
    "node_weights",
    "gradient",
    "second_derivative",
    "cell_derivative",
    "cell_average",
    "node_average",
    "divergence",
    "lq_norm",
    "h1_seminorm",
    "h1_norm",
    "cell_l2_norm",
    "llogl_deviation",
    "mass",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on the unit interval."""

    n_cells: int

    def __post_init__(self) -> None:
        if self.n_cells < 4:
            raise ValueError("grid needs at least 4 cells")

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)


@dataclass(frozen=True)
class BCSpec:
    """Boundary data: displacement pinned at x = 0, traction applied at
    x = 1 (carried by the loading), Robin flux data at both endpoints.

    Zero flux is kappa = 0 at both ends (the default), the regime of the
    small-strain system.
    """

    kappa_left: float = 0.0
    kappa_right: float = 0.0
    mu_ext: Callable[[float], float] | float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.kappa_left < np.inf and 0.0 <= self.kappa_right < np.inf):
            raise ValueError("boundary permeability kappa must be finite and >= 0")

    def mu_ext_value(self, t: float) -> float:
        if callable(self.mu_ext):
            return float(self.mu_ext(t))
        return float(self.mu_ext)


def _vals(grid: Grid1D, f) -> np.ndarray:
    v = np.asarray(f, dtype=float)
    if v.ndim == 0 or v.shape[-1] != grid.n_nodes:
        raise ValueError("field length does not match grid")
    return v


def _per_row(x):
    # a reduction over the last axis: a float for one field, an array of
    # one value per row for a (rows, nodes) batch
    return float(x) if np.ndim(x) == 0 else x


def _pad(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """``x`` with ``before`` zeros in front and ``after`` zeros behind
    along the last axis."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + before + after,))
    out[..., before : before + x.shape[-1]] = x
    return out


def block_rows(row_size: int) -> int:
    """Rows of ``row_size`` values in a block of about ``_BLOCK_VALUES``."""
    return max(1, _BLOCK_VALUES // row_size)


def put_rows(cols: dict, part: dict, start: int, n_rows: int) -> None:
    """Write the arrays of ``part`` into the columns of ``n_rows`` values
    (zeros until written) of their names in ``cols``, from row ``start``."""
    for name, values in part.items():
        if name not in cols:
            cols[name] = np.zeros(n_rows)
        cols[name][start:start + len(values)] = values


def time_grid(T: float, tau: float) -> np.ndarray:
    """The times of a run: 0 and every step of size ``tau`` up to the
    first that reaches the horizon ``T``."""
    return tau * np.arange(int(np.ceil(T / tau - 1e-12)) + 1)


def drain(blocks, fn=lambda *block: None):
    """Pass each block the generator ``blocks`` yields to ``fn``; return
    the generator's return value."""
    while True:
        try:
            block = next(blocks)
        except StopIteration as stop:
            return stop.value
        fn(*block)


@functools.lru_cache(maxsize=16)
def node_weights(grid: Grid1D) -> np.ndarray:
    """Trapezoidal quadrature weights; they sum to |Omega| = 1 exactly.
    Every call on a grid returns the same read-only array."""
    w = np.full(grid.n_nodes, grid.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


# The difference operators and norms act on the last axis, so a (rows,
# nodes) batch of fields gives one result per row.

def gradient(grid: Grid1D, f) -> np.ndarray:
    """First differences at cell midpoints; exact for affine fields."""
    v = _vals(grid, f)
    return (v[..., 1:] - v[..., :-1]) / grid.h


def second_derivative(grid: Grid1D, f) -> np.ndarray:
    """Central second differences at interior nodes with natural end
    conditions (endpoint values forced to zero)."""
    v = _vals(grid, f)
    out = np.zeros(v.shape)
    out[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / grid.h ** 2
    return out


def cell_derivative(grid: Grid1D, cell_values) -> np.ndarray:
    """Derivative of a cell field at the cell midpoints: centred
    differences inside, one-sided differences in the two end cells."""
    v = np.asarray(cell_values, dtype=float)
    h = grid.h
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    out[..., 0] = (v[..., 1] - v[..., 0]) / h
    out[..., -1] = (v[..., -1] - v[..., -2]) / h
    return out


def cell_average(f) -> np.ndarray:
    v = np.asarray(f, dtype=float)
    return 0.5 * (v[..., 1:] + v[..., :-1])


def node_average(cell_values) -> np.ndarray:
    """Nodal values of a cell field: the mean of the two adjacent cells
    inside, the end cell's value at the two end nodes."""
    v = np.asarray(cell_values, dtype=float)
    out = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    out[..., 0] = v[..., 0]
    out[..., -1] = v[..., -1]
    out[..., 1:-1] = 0.5 * (v[..., :-1] + v[..., 1:])
    return out


def divergence(q: np.ndarray) -> np.ndarray:
    """Nodal difference q_i - q_{i-1} of a cell flux, with zero flux
    outside the grid: minus the transpose of the gradient, times h."""
    out = np.zeros(q.shape[:-1] + (q.shape[-1] + 1,))
    out[..., :-1] += q
    out[..., 1:] -= q
    return out


def lq_norm(grid: Grid1D, f, q):
    """Trapezoidal L^q norm; q = inf gives the max nodal absolute value."""
    v = np.abs(_vals(grid, f))
    peak = np.max(v, axis=-1)
    if q == np.inf:
        return _per_row(peak)
    q = float(q)
    if q < 1.0:
        raise ValueError("norm exponent q must be >= 1")
    # factor out the peak so large q cannot overflow; a zero field has
    # norm zero (its scaled values are divided by 1 instead)
    scale = np.where(peak == 0.0, 1.0, peak)[..., None]
    return _per_row(peak * np.sum(node_weights(grid) * (v / scale) ** q, axis=-1) ** (1.0 / q))


def h1_seminorm(grid: Grid1D, f):
    return cell_l2_norm(grid, gradient(grid, f))


def h1_norm(grid: Grid1D, f):
    return _per_row(np.sqrt(lq_norm(grid, f, 2) ** 2 + h1_seminorm(grid, f) ** 2))


def cell_l2_norm(grid: Grid1D, cell_values):
    """L^2 norm of a piecewise-constant (cell) field."""
    v = np.asarray(cell_values, dtype=float)
    return _per_row(np.sqrt(np.sum(grid.h * v ** 2, axis=-1)))


def llogl_deviation(grid: Grid1D, c, c_eq: float):
    """Integral of c log(c/c_eq) - c + c_eq; nonnegative, zero iff c = c_eq.

    Nodal concentrations must be nonnegative (0 log 0 := 0).
    """
    v = _vals(grid, c)
    if np.any(v < 0.0):
        raise ValueError("llogl deviation requires c >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        xlog = np.where(v > 0.0, v * np.log(np.maximum(v, 1e-300) / c_eq), 0.0)
    return _per_row(np.sum(node_weights(grid) * (xlog - v + c_eq), axis=-1))


def mass(grid: Grid1D, f):
    """Trapezoidal integral of a nodal field."""
    return _per_row(np.sum(node_weights(grid) * _vals(grid, f), axis=-1))


def load_pairing(grid: Grid1D, f, g, u):
    """The pairing sum_i w_i f_i u_i + g u_n of the nodal body force ``f``
    and end traction ``g`` with the displacements ``u``, one per row."""
    return np.sum(node_weights(grid) * f * u, axis=-1) + g * u[..., -1]
