"""The probability laws the filter runs on: gamma, location-scale Student-t,
and the scaled-F one-step law for realized variance.

Densities are exposed in log space only; cumulative predictive scores over
thousands of trading days underflow otherwise. Random draws come from the
`standard_gamma` of an explicitly passed `numpy.random.Generator`, so replay
is bit-exact per seed and threads stay independent by owning their streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import DomainError, number, number_fields


@dataclass(frozen=True)
class StudentTParams:
    """Location-scale Student-t: (y - location) / sqrt(scale) is standard t."""

    dof: float
    location: float
    scale: float  # squared scale

    def __post_init__(self):
        number_fields(self, "finite and positive", "dof", "scale")
        number_fields(self, "finite", "location")


@dataclass(frozen=True)
class ScaledFParams:
    """Law of z = scale * X with X ~ F(dof_num, dof_den)."""

    dof_num: float
    dof_den: float
    scale: float

    def __post_init__(self):
        number_fields(self, "finite and positive", "dof_num", "dof_den", "scale")

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
        number_fields(self, "finite and positive", "shape", "rate")


def student_t_logpdf(y: float, p: StudentTParams) -> float:
    y = number(y, "y")
    half = 0.5 * (p.dof + 1.0)
    return (special.log_gamma(half) - special.log_gamma(0.5 * p.dof)
            - 0.5 * math.log(p.dof * math.pi * p.scale)
            - half * math.log1p((y - p.location) ** 2 / (p.dof * p.scale)))


def scaled_f_logpdf(z: float, p: ScaledFParams) -> float:
    z = number(z, "z", "finite and positive")  # the support is z > 0
    x = z / p.scale
    d1, d2 = p.dof_num, p.dof_den
    return (special.log_gamma(0.5 * (d1 + d2))
            - special.log_gamma(0.5 * d1) - special.log_gamma(0.5 * d2)
            + 0.5 * d1 * math.log(d1 / d2) + (0.5 * d1 - 1.0) * math.log(x)
            - 0.5 * (d1 + d2) * math.log1p(d1 * x / d2)
            - math.log(p.scale))


def gamma_quantile(u: float, p: GammaParams) -> float:
    """x with gamma CDF(x) = u, solved to well below 1e-10 absolute."""
    return special.inv_reg_lower_gamma(p.shape, u) / p.rate


def sample_scaled_f(p: ScaledFParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` compositional scaled-F draws, as an array: precisions from the
    gamma margin, then conditional-gamma draws divided by them in place."""
    phi = rng.standard_gamma(0.5 * p.dof_den, number(size, "size", "a nonnegative integer"))
    phi /= 0.5 * p.dof_den * p.scale
    phi *= 0.5 * p.dof_num
    return np.divide(rng.standard_gamma(0.5 * p.dof_num, phi.size), phi, out=phi)
