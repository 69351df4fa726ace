"""Desk-scale numerical laboratory for quasistatic poro-visco-elasticity
with Kelvin-Voigt rheology and degenerate-mobility diffusion.

Each public name imports its home module on first use (PEP 562), so that
``import porovisco`` compiles no submodule and a command only those it runs."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "constitutive": (
        "DomainError", "InadmissibleMaterial", "LinearizedTensors", "MaterialParams", "chemical_potential",
        "dissipation", "free_energy", "free_energy_hessian", "hyperstress", "linearize",
        "max_antisymmetric_action", "min_symmetric_eigenvalue", "mobility", "mobility_log_bound_constant",
        "power_difference_bound_constant", "stress_elastic",
    ),
    "discretization": ("BCSpec", "Grid1D"),
    "experiments": ("eps_sweep", "long_time_decay"),
    "linear_solver": ("SingularSystem", "check_energy_balance", "run_linear", "static_solve"),
    "loading": ("BoundLoading", "LoadingSpec", "SpatialProfile", "TimeAmplitude"),
    "nonlinear_solver": (
        "NoConvergence", "OrientationLoss", "PositivityLoss", "check_dissipation_inequality", "diffusion_step",
        "mechanical_step", "moser_exponents", "norm_ladder", "rescale", "run_nonlinear",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli", "_csv17", "_lapack"}

__all__ = sorted(_HOME)


def _resolve(module, name):
    """The home module's object for the package name ``name``, asked of
    ``module``.  ``cli`` and ``experiments`` resolve the names through it
    too: the benchmark's traced run patches the solvers by name there."""
    if name not in _HOME:
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    return _resolve(__name__, name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
