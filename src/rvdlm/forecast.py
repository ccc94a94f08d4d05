"""One-step-ahead predictive laws and compositional Monte Carlo.

The joint one-step forecast factorizes as a scaled-F margin for the realized
variance times a z-conditional Student-t for the price; a joint draw samples
the margin compositionally and then the conditional. For the layout with a
contemporaneous realized-SD predictor the conditional's location and scale
both move with the drawn z; for the other layouts z enters only through the
volatility scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ScaledFParams, StudentTParams, sample_scaled_f
from .dlm_core import ModelClass, PriorMoments, build_regressor, rv_update
from .errors import DomainError
from .rv_measures import DEFAULT_RV_FLOOR


@dataclass(frozen=True)
class RegressorInputs:
    """Everything needed to rebuild F_t at a candidate z: the model layout
    and the lagged predictors already in the information set."""

    model: ModelClass
    y_prev: float
    x_prev: float
    floor_eps: float = DEFAULT_RV_FLOOR


def predictive_z(prior: PriorMoments, alpha: float) -> ScaledFParams:
    """z is scaled-F: z / s_prev ~ F(alpha, n*)."""
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    return ScaledFParams(alpha, prior.n_star, prior.s_prev)


def predictive_y_given_z(prior: PriorMoments, alpha: float, z: float,
                         reg: RegressorInputs) -> StudentTParams:
    """t-parameters of y | z: dof n~, location F'a, scale s~ + F'RF.

    For the SV layout (alpha ignored in volatility learning) the z value
    influences nothing and the section reduces to the plain one-step t.
    """
    if reg.model.uses_rv:
        rvp = rv_update(prior, z, alpha)
        dof, scale0 = rvp.n_tilde, rvp.s_tilde
    else:
        dof, scale0 = prior.n_star, prior.s_prev
    x_now = math.sqrt(max(z, reg.floor_eps))
    F = build_regressor(reg.model, reg.y_prev, x_now, reg.x_prev)
    f = float(F @ prior.a)
    q = scale0 + float(F @ (prior.R @ F))
    return StudentTParams(dof, f, q)


def sample_joint(prior: PriorMoments, alpha: float, reg: RegressorInputs,
                 rng: np.random.Generator, size: int | None = None):
    """Compositional draws of (z, y).

    z from its scaled-F margin (`predictive_z`), floored at `floor_eps`, then
    y from the z-conditional t. Vectorized; returns floats for size None.
    """
    n = 1 if size is None else int(size)
    ns, sp = prior.n_star, prior.s_prev
    z = np.maximum(sample_scaled_f(predictive_z(prior, alpha), rng, n), reg.floor_eps)

    if reg.model.uses_rv:
        dof = ns + alpha
        s_til = (ns + alpha * z / sp) / dof * sp
    else:
        dof, s_til = ns, sp

    a, R = prior.a, prior.R
    x_now = np.sqrt(z)
    if reg.model is ModelClass.RVLDLM:
        F0 = np.array([1.0, reg.y_prev, 0.0, reg.x_prev])
        RF0 = R @ F0
        ix = 2
        f = float(F0 @ a) + a[ix] * x_now
        frf = float(F0 @ RF0) + 2.0 * RF0[ix] * x_now + R[ix, ix] * z
    else:
        F0 = np.array([1.0, reg.y_prev, reg.x_prev])
        f = float(F0 @ a)
        frf = float(F0 @ (R @ F0))
    q = s_til + frf

    y = f + np.sqrt(q) * rng.standard_t(dof, n)
    if size is None:
        return float(z[0]), float(y[0])
    return z, y


def price_scale_effect(theta_coeff: float, x: float) -> float:
    """Multiplicative price-scale effect exp(theta * x) of a realized-SD
    regressor; 1 means no effect."""
    if not (math.isfinite(theta_coeff) and math.isfinite(x)):
        raise DomainError("price_scale_effect requires finite inputs")
    return math.exp(theta_coeff * x)


def net_rv_contribution(theta_now: float, x_now: float,
                        theta_lag: float, x_prev: float) -> float:
    """Net realized-volatility term in the price equation:
    theta_now * x_now + theta_lag * x_prev."""
    for v in (theta_now, x_now, theta_lag, x_prev):
        if not math.isfinite(v):
            raise DomainError("net_rv_contribution requires finite inputs")
    return theta_now * x_now + theta_lag * x_prev
