"""Declarative loading descriptions and their compiled callable form.

Configs describe loads as a spatial profile times a scalar-in-time
amplitude (Lipschitz by construction); solvers and tests may also supply
arbitrary callables through :class:`BoundLoading` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .discretization import Grid1D

__all__ = ["TimeAmplitude", "SpatialProfile", "LoadingSpec", "BoundLoading"]

_AMPLITUDE_KINDS = ("constant", "ramp", "linear", "sin")
_PROFILE_KINDS = ("zero", "constant", "sin_pi", "cos_pi", "hat", "array")


@dataclass(frozen=True)
class TimeAmplitude:
    """Scalar amplitude a(t): constant, linear ramp to ``scale`` at
    ``t_ramp``, affine ``scale*(1 + rate*t)``, or ``scale*sin(rate*t)``."""

    kind: str = "constant"
    scale: float = 0.0
    t_ramp: float = 1.0
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _AMPLITUDE_KINDS:
            raise ValueError(f"unknown amplitude kind {self.kind!r}")
        if self.kind == "ramp" and self.t_ramp <= 0.0:
            raise ValueError("ramp time must be positive")

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return self.scale
        if self.kind == "ramp":
            return self.scale * min(t / self.t_ramp, 1.0)
        if self.kind == "linear":
            return self.scale * (1.0 + self.rate * t)
        return self.scale * np.sin(self.rate * t)


@dataclass(frozen=True)
class SpatialProfile:
    """Nodal profile shape on (0, 1)."""

    kind: str = "zero"
    scale: float = 1.0
    values: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.kind not in _PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "array" and self.values is None:
            raise ValueError("array profile needs values")

    def sample(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return self.scale * np.ones_like(x)
        if self.kind == "sin_pi":
            return self.scale * np.sin(np.pi * x)
        if self.kind == "cos_pi":
            return self.scale * np.cos(np.pi * x)
        if self.kind == "hat":
            return self.scale * 2.0 * np.minimum(x, 1.0 - x)
        v = np.asarray(self.values, dtype=float)
        if v.shape != x.shape:
            raise ValueError("array profile length does not match grid")
        return self.scale * v


@dataclass(frozen=True)
class LoadingSpec:
    """Body force profile with time amplitude, and boundary traction with
    time amplitude."""

    f_profile: SpatialProfile = field(default_factory=SpatialProfile)
    f_amplitude: TimeAmplitude = field(default_factory=TimeAmplitude)
    g_amplitude: TimeAmplitude = field(default_factory=TimeAmplitude)

    def bind(self, grid: Grid1D) -> "BoundLoading":
        return BoundLoading.separable(self.f_amplitude, self.f_profile.sample(grid.nodes), self.g_amplitude)


class BoundLoading:
    """Loads ready for a solver: nodal body force f(t), traction scalar
    g(t), optional volumetric source s(t) in the species equation (used by
    manufactured-solution studies only).  A force made by ``separable``
    keeps its factors a(t) and profile as ``amplitude`` and ``profile``."""

    def __init__(
        self,
        f: Callable[[float], np.ndarray],
        g: Callable[[float], float],
        source: Optional[Callable[[float], np.ndarray]] = None,
    ):
        self.f = f
        self.g = g
        self.source = source
        self.amplitude = self.profile = None

    @classmethod
    def separable(cls, amplitude: Callable[[float], float], profile: np.ndarray, g: Callable[[float], float],
                  source: Optional[Callable[[float], np.ndarray]] = None):
        """The loading with body force f(t) = amplitude(t) * profile."""
        profile = np.asarray(profile, dtype=float)
        loading = cls(f=lambda t: amplitude(t) * profile, g=g, source=source)
        loading.amplitude, loading.profile = amplitude, profile
        return loading

    def f_star(self, t: float) -> np.ndarray:
        return np.asarray(self.f(t), dtype=float)

    def g_star(self, t: float) -> float:
        return float(self.g(t))

    def f_steps(self, ts: list):
        """The body force at the times ``ts``, by step index (a nodal
        vector) or slice of steps (a row each).  A separable force keeps
        a(t) per step and forms a[k] * profile, the products f(t) forms;
        any other force is called per step."""
        if self.profile is None:
            return _at_steps(self.f_star, ts)
        a = np.array([self.amplitude(t) for t in ts], dtype=float)
        return lambda k: a[k, None] * self.profile

    def source_steps(self, ts: list):
        """The source at the times ``ts`` as ``f_steps`` gives the force."""
        return None if self.source is None else _at_steps(lambda t: np.asarray(self.source(t), dtype=float), ts)


def _at_steps(fn, ts: list):
    return lambda k: np.array([fn(t) for t in ts[k]]) if isinstance(k, slice) else fn(ts[k])
