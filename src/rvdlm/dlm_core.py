"""Conjugate state/volatility recursions shared by the three model classes.

One filtering day decomposes into three pure stages:

  evolve            discount the state scale (R = C/delta) and the volatility
                    degrees of freedom (n* = beta n)
  rv_update         condition the precision gamma on the day's realized
                    variance (skipped by the SV variant)
  price_update      condition state and precision on the day's price

The model classes are the rows of `ModelClass`: F's regressors and whether
volatility learning observes the realized variance. Every alpha in use goes
through one rule, `_learning_alpha` (0.0 for the SV variant).

Scale bookkeeping: C and R are carried in variance units relative to the
*current* volatility scale estimate, so the one-step predictive scale is
q = s + F'RF and the carried posterior means `theta | phi ~ N(m, C/(s phi))`
with `phi ~ G(n/2, n s/2)`. Whenever new information moves the volatility
scale (the realized-variance update, the price update), the state scale
matrix is re-expressed against the new anchor rather than multiplied by the
scale ratio; R therefore passes through `rv_update` unchanged. Filtered
summaries under this convention: E[theta] = m, V[theta] = C n/(n-2),
E[phi] = 1/s, and each coefficient margin is t_n(m_i, C_ii).
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import StudentTParams, student_t_logpdf
from .errors import DomainError, NumericalError, number, number_fields


class ModelClass(enum.Enum):
    """Regressor layout, one row per class: its value, whether its volatility
    learning observes the realized variance z, and F's regressor names after
    the intercept, which pick (y_prev, x_now, x_prev) as ar1, rv_now, rv_lag."""

    SVDLM = "svdlm", False, ("ar1", "rv_lag")
    RVDLM = "rvdlm", True, ("ar1", "rv_lag")
    RVLDLM = "rvldlm", True, ("ar1", "rv_now", "rv_lag")

    def __new__(cls, value: str, uses_rv: bool, names: tuple):
        member = object.__new__(cls)
        member._value_, member.uses_rv = value, uses_rv
        member.coefficient_names = ("intercept", *names)
        member.dim = len(member.coefficient_names)
        # the column order, resolved once: the generator calls regressors once a day
        member._pick = operator.itemgetter(*map(("ar1", "rv_now", "rv_lag").index, names))
        return member

    def regressors(self, y_prev, x_now, x_prev) -> tuple:
        """F without its intercept, in coefficient order. Floats and arrays alike."""
        return self._pick((y_prev, x_now, x_prev))

    def alpha(self, alpha) -> float:
        """This layout's `_learning_alpha`: an RV layout needs alpha > 0."""
        return _learning_alpha(alpha, self.uses_rv, self.value)


def _learning_alpha(alpha, uses_rv: bool, owner: str = None) -> float:
    """The one effective-alpha rule: alpha, a finite number kept as a float,
    where volatility learning observes the realized variance, else 0.0. Given
    an `owner`, an alpha not > 0 there is a DomainError "{owner} requires alpha > 0"."""
    if uses_rv and owner is not None and isinstance(alpha, numbers.Real) and not alpha > 0.0:
        raise DomainError(f"{owner} requires alpha > 0")
    return number(alpha, "alpha") if uses_rv else 0.0


@dataclass(frozen=True)
class HyperParams:
    """Discount factors and the realized-variance shape index.

    delta discounts the state scale, beta the volatility degrees of freedom;
    alpha weights one realized-variance observation against one price
    observation in volatility learning (alpha = 0 for the SV variant).
    """

    delta: float
    beta: float
    alpha: float = 0.0

    def __post_init__(self):
        number_fields(self, "in (0, 1]", "delta", "beta")
        number_fields(self, "finite and nonnegative", "alpha")


def _as_state_matrix(M, dim: int, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (dim, dim):
        raise DomainError(f"{name} must be {dim}x{dim}, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DomainError(f"{name} must be finite")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-8 * max(1.0, float(np.abs(M).max()))):
        raise DomainError(f"{name} must be symmetric")
    return M


def _as_state_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must be a finite 1-d vector")
    return v


@dataclass(frozen=True)
class NormalGammaPosterior:
    """Carried filter state: state moments (m, C) plus gamma volatility
    parameters (n, s) with E[phi | data] = 1/s."""

    m: np.ndarray
    C: np.ndarray
    n: float
    s: float

    def __post_init__(self):
        m = _as_state_vector(self.m, "m")
        C = _as_state_matrix(self.C, m.size, "C")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "C", C)
        number_fields(self, "finite and positive", "n", "s")

    @property
    def dim(self) -> int:
        return self.m.size


@dataclass(frozen=True)
class PriorMoments:
    """One-step-evolved prior: (a, R) state moments, discounted degrees of
    freedom n_star, and the volatility scale s_prev carried into the day."""

    a: np.ndarray
    R: np.ndarray
    n_star: float
    s_prev: float

    def __post_init__(self):
        a = _as_state_vector(self.a, "a")
        R = _as_state_matrix(self.R, a.size, "R")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "R", R)
        number_fields(self, "finite and positive", "n_star", "s_prev")

    @property
    def dim(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class RvUpdatedPrior:
    """Prior after conditioning the precision on the day's realized variance."""

    a: np.ndarray
    R: np.ndarray
    n_tilde: float
    s_tilde: float

    @property
    def dim(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class OneStepStats:
    """One-step forecast quantities kept for scoring: location, squared
    scale, error, degrees of freedom, and the predictive log density of y."""

    forecast: float
    scale: float
    error: float
    dof: float
    log_density: float


def evolve(post: NormalGammaPosterior, hp: HyperParams) -> PriorMoments:
    """Discount evolution: a = m, R = C/delta, n* = beta n, s carried."""
    R = post.C / hp.delta
    R = 0.5 * (R + R.T)
    return PriorMoments(post.m.copy(), R, hp.beta * post.n, post.s)


def _realized_variance(z) -> float:
    """A realized variance as a Python float: a finite real > 0, or a DomainError."""
    return number(z, "realized variance", "positive (floor it upstream)")


def rv_update(prior: PriorMoments, z: float, alpha: float) -> RvUpdatedPrior:
    """Condition the precision gamma on realized variance z > 0.

    n~ = n* + alpha and s~ = r~ s_prev with
    r~ = (n* + alpha z / s_prev) / n~. State moments pass through unchanged.
    """
    z = _realized_variance(z)
    alpha = _learning_alpha(alpha, True, "the realized-variance update")
    n_tilde = prior.n_star + alpha
    r_tilde = (prior.n_star + alpha * z / prior.s_prev) / n_tilde
    return RvUpdatedPrior(prior.a, prior.R, n_tilde, r_tilde * prior.s_prev)


def build_regressor(mc: ModelClass, y_prev: float, x_now: float, x_prev: float) -> np.ndarray:
    """Regression vector in the fixed ordering (1, y_prev[, x_now], x_prev)."""
    return np.array([1.0, *mc.regressors(number(y_prev, "y_prev"), number(x_now, "x_now"),
                                         number(x_prev, "x_prev"))])


def _observe_price(a: np.ndarray, R: np.ndarray, dof: float, vol_scale: float,
                   y: float, F: np.ndarray) -> tuple[NormalGammaPosterior, OneStepStats]:
    if F.shape != a.shape:
        raise DomainError(f"regressor dimension {F.shape} does not match state {a.shape}")
    y = number(y, "price observation")
    Rf = R @ F
    f = float(F @ a)
    q = vol_scale + float(F @ Rf)
    if not (math.isfinite(q) and q > 0.0):
        raise NumericalError(
            f"nonpositive one-step scale q={q!r} (vol_scale={vol_scale!r}, "
            f"F'RF={float(F @ Rf)!r}); R is not a valid prior scale")
    e = y - f
    A = Rf / q
    C = R - q * np.outer(A, A)
    C = 0.5 * (C + C.T)
    dmin = float(np.diag(C).min())
    if dmin < -1e-10 * max(1.0, float(np.diag(R).max())):
        raise NumericalError(f"posterior scale lost positive semidefiniteness (min diag {dmin})")
    m = a + A * e
    n = dof + 1.0
    r = (dof + e * e / q) / n
    s = r * vol_scale
    if not 0.0 < s < math.inf:
        raise NumericalError(f"filter left the finite range (volatility scale s={s!r}, "
                             f"forecast error e={e!r}, q={q!r})")
    logpdf = student_t_logpdf(y, StudentTParams(dof, f, q))
    return (NormalGammaPosterior(m, C, n, s),
            OneStepStats(f, q, e, dof, logpdf))


def price_update(prior_rv: RvUpdatedPrior, y: float, F: np.ndarray):
    """Condition on the day's price after the realized-variance update.

    One-step predictive is t with dof n~, location f = F'a and squared scale
    q~ = s~ + F'RF; the posterior follows the conjugate formulas with
    n = n~ + 1 and s = r s~, r = (n~ + e^2/q~)/n.
    """
    return _observe_price(prior_rv.a, prior_rv.R, prior_rv.n_tilde, prior_rv.s_tilde, y, F)


def sv_volatility_update_path(prior: PriorMoments, y: float, F: np.ndarray):
    """Price update without realized-variance conditioning (the SV path):
    identical algebra against (n*, s_prev) instead of (n~, s~)."""
    return _observe_price(prior.a, prior.R, prior.n_star, prior.s_prev, y, F)


def limiting_dof(hp: HyperParams, uses_rv: bool = True) -> float:
    """Fixed point of n -> beta n + alpha + 1 (alpha = 0 on the SV path)."""
    alpha = _learning_alpha(hp.alpha, uses_rv)
    return math.inf if hp.beta == 1.0 else (1.0 + alpha) / (1.0 - hp.beta)
