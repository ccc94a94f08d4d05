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

    # F0 holds the regressors known before the day (x_now = 0); the x_now
    # terms follow for a class that has them
    a, R, names = prior.a, prior.R, reg.model.coefficient_names
    F0 = np.array([1.0, *reg.model.regressors(reg.y_prev, 0.0, reg.x_prev)])
    RF0 = R @ F0
    f = float(F0 @ a)
    frf = float(F0 @ RF0)
    if "rv_now" in names:
        x_now = np.sqrt(z)
        ix = names.index("rv_now")
        f = f + a[ix] * x_now
        frf = frf + 2.0 * RF0[ix] * x_now + R[ix, ix] * z
    q = s_til + frf

    y = f + np.sqrt(q) * rng.standard_t(dof, n)
    if size is None:
        return float(z[0]), float(y[0])
    return z, y

