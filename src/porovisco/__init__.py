"""Desk-scale numerical laboratory for quasistatic poro-visco-elasticity
with Kelvin-Voigt rheology and degenerate-mobility diffusion."""

from .constitutive import (
    DomainError,
    InadmissibleMaterial,
    LinearizedTensors,
    MaterialParams,
    chemical_potential,
    dissipation,
    free_energy,
    free_energy_hessian,
    hyperstress,
    linearize,
    max_antisymmetric_action,
    min_symmetric_eigenvalue,
    mobility,
    mobility_log_bound_constant,
    power_difference_bound_constant,
    stress_elastic,
)
from .discretization import BCSpec, Grid1D
from .experiments import (
    eps_sweep,
    long_time_decay,
    moser_exponents,
)
from .linear_solver import (
    SingularSystem,
    check_energy_balance,
    run_linear,
    static_solve,
)
from .loading import BoundLoading, LoadingSpec, SpatialProfile, TimeAmplitude
from .nonlinear_solver import (
    NoConvergence,
    OrientationLoss,
    PositivityLoss,
    check_dissipation_inequality,
    diffusion_step,
    mechanical_step,
    norm_ladder,
    rescale,
    run_nonlinear,
)

__version__ = "0.1.0"
