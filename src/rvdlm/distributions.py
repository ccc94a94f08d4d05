"""The probability laws the filter runs on: gamma, location-scale Student-t,
and the scaled-F one-step law for realized variance.

Densities are exposed in log space only; cumulative predictive scores over
thousands of trading days underflow otherwise. Random draws take an
explicitly passed `numpy.random.Generator`, so replay is bit-exact and
threads stay independent by owning their streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import DomainError


def _require_finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return v


def _require_positive(name: str, value: float) -> float:
    v = _require_finite(name, value)
    if v <= 0.0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return v


@dataclass(frozen=True)
class StudentTParams:
    """Location-scale Student-t: (y - location) / sqrt(scale) is standard t."""

    dof: float
    location: float
    scale: float  # squared scale

    def __post_init__(self):
        _require_positive("dof", self.dof)
        _require_finite("location", self.location)
        _require_positive("scale", self.scale)


@dataclass(frozen=True)
class ScaledFParams:
    """Law of z = scale * X with X ~ F(dof_num, dof_den)."""

    dof_num: float
    dof_den: float
    scale: float

    def __post_init__(self):
        _require_positive("dof_num", self.dof_num)
        _require_positive("dof_den", self.dof_den)
        _require_positive("scale", self.scale)

    @property
    def mean(self) -> float:
        """s * n / (n - 2); defined for dof_den > 2."""
        if self.dof_den <= 2.0:
            raise DomainError("scaled-F mean requires dof_den > 2")
        return self.scale * self.dof_den / (self.dof_den - 2.0)


@dataclass(frozen=True)
class GammaParams:
    """Gamma in shape/rate form; mean = shape / rate."""

    shape: float
    rate: float

    def __post_init__(self):
        _require_positive("shape", self.shape)
        _require_positive("rate", self.rate)


def student_t_logpdf(y: float, p: StudentTParams) -> float:
    y = _require_finite("y", y)
    half = 0.5 * (p.dof + 1.0)
    return (special.log_gamma(half) - special.log_gamma(0.5 * p.dof)
            - 0.5 * math.log(p.dof * math.pi * p.scale)
            - half * math.log1p((y - p.location) ** 2 / (p.dof * p.scale)))


def scaled_f_logpdf(z: float, p: ScaledFParams) -> float:
    z = _require_finite("z", z)
    if z <= 0.0:
        raise DomainError(f"scaled-F support is z > 0, got {z!r}")
    x = z / p.scale
    d1, d2 = p.dof_num, p.dof_den
    return (special.log_gamma(0.5 * (d1 + d2))
            - special.log_gamma(0.5 * d1) - special.log_gamma(0.5 * d2)
            + 0.5 * d1 * math.log(d1 / d2) + (0.5 * d1 - 1.0) * math.log(x)
            - 0.5 * (d1 + d2) * math.log1p(d1 * x / d2)
            - math.log(p.scale))


def gamma_cdf(x: float, p: GammaParams) -> float:
    if x <= 0.0:
        return 0.0
    return special.reg_lower_gamma(p.shape, p.rate * x)


def gamma_quantile(u: float, p: GammaParams) -> float:
    """x with gamma CDF(x) = u, solved to well below 1e-10 absolute."""
    return special.inv_reg_lower_gamma(p.shape, u) / p.rate


def student_t_quantile(u: float, p: StudentTParams) -> float:
    """Quantile of the location-scale t."""
    return p.location + math.sqrt(p.scale) * special.student_t_quantile(u, p.dof)


def _gamma_draws_unit_rate(shape: float, rng: np.random.Generator, n: int) -> np.ndarray:
    # Marsaglia-Tsang squeeze; shapes below 1 use the boost U^(1/shape).
    a = shape
    boost = None
    if a < 1.0:
        boost = rng.random(n) ** (1.0 / a)
        a += 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        x = rng.standard_normal(todo.size)
        v = (1.0 + c * x) ** 3
        u = rng.random(todo.size)
        pos = v > 0.0
        vsafe = np.where(pos, v, 1.0)
        accept = pos & (np.log(u) < 0.5 * x * x + d - d * vsafe + d * np.log(vsafe))
        out[todo[accept]] = d * vsafe[accept]
        todo = todo[~accept]
    if boost is not None:
        out *= boost
    return out


def sample_gamma(p: GammaParams, rng: np.random.Generator, size: int | None = None):
    """Draws from Gamma(shape, rate). Returns a float when size is None."""
    n = 1 if size is None else int(size)
    draws = _gamma_draws_unit_rate(p.shape, rng, n) / p.rate
    return float(draws[0]) if size is None else draws


def sample_scaled_f(p: ScaledFParams, rng: np.random.Generator, size: int | None = None):
    """Compositional scaled-F draw: precision from the gamma margin, then a
    conditional-gamma observation with that precision."""
    n = 1 if size is None else int(size)
    phi = _gamma_draws_unit_rate(0.5 * p.dof_den, rng, n) / (0.5 * p.dof_den * p.scale)
    z = _gamma_draws_unit_rate(0.5 * p.dof_num, rng, n) / (0.5 * p.dof_num * phi)
    return float(z[0]) if size is None else z
