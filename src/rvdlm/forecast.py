"""One-step-ahead predictive laws and compositional Monte Carlo.

The joint one-step forecast factorizes as a scaled-F margin for the realized
variance times a z-conditional Student-t for the price; a joint draw samples
the margin compositionally, then applies the conditional to t draws block by
block: it holds its two outputs and one block, and no bit depends on the block
size. With a contemporaneous realized-SD predictor the conditional's location
and scale both move with z; in the other layouts z moves only the scale.
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


def _conditional_law(prior: PriorMoments, alpha: float, reg: RegressorInputs, z):
    """(dof, location, squared scale) of y given a floored z, a float or an
    array of draws: dof n~, location F'a and scale s~ + F'RF."""
    ns, sp = prior.n_star, prior.s_prev
    dof, s_til = ns, sp  # the SV layout: z does not enter
    if reg.model.uses_rv:
        dof = ns + alpha
        s_til = (ns + alpha * z / sp) / dof * sp
    # F0 holds the regressors known before the day (x_now = 0); the x_now
    # terms follow for a class that has them
    a, R, names = prior.a, prior.R, reg.model.coefficient_names
    F0 = np.array([1.0, *reg.model.regressors(reg.y_prev, 0.0, reg.x_prev)])
    RF0 = R @ F0
    f, frf = float(F0 @ a), float(F0 @ RF0)
    if "rv_now" in names:
        x_now, ix = np.sqrt(z), names.index("rv_now")
        f = f + a[ix] * x_now
        frf = frf + 2.0 * RF0[ix] * x_now + R[ix, ix] * z
    return dof, f, s_til + frf


def predictive_y_given_z(prior: PriorMoments, alpha: float, z: float,
                         reg: RegressorInputs) -> StudentTParams:
    """t-parameters of y | z: dof n~, location F'a, scale s~ + F'RF, at z
    floored at `floor_eps` as `sample_joint` floors its draws.

    For the SV layout (alpha ignored in volatility learning) the z value
    influences nothing and the section reduces to the plain one-step t.
    """
    if reg.model.uses_rv:
        rv_update(prior, z, alpha)  # the DomainError for a bad z or alpha
    z = max(z, reg.floor_eps)
    build_regressor(reg.model, reg.y_prev, math.sqrt(z), reg.x_prev)  # ... for a bad regressor
    return StudentTParams(*map(float, _conditional_law(prior, alpha, reg, z)))


_BLOCK_DRAWS = 1 << 16  # draws per application of the conditional law in sample_joint


def sample_joint(prior: PriorMoments, alpha: float, reg: RegressorInputs,
                 rng: np.random.Generator, size: int):
    """`size` compositional draws of (z, y), as two arrays.

    z from its scaled-F margin (`predictive_z`), floored at `floor_eps`, then
    y from the z-conditional t of `predictive_y_given_z`, one block at a time.
    """
    z = sample_scaled_f(predictive_z(prior, alpha), rng, size)
    np.maximum(z, reg.floor_eps, out=z)
    y = rng.standard_t(_conditional_law(prior, alpha, reg, reg.floor_eps)[0], z.size)  # z-free dof
    for lo in range(0, z.size, _BLOCK_DRAWS):
        block = slice(lo, lo + _BLOCK_DRAWS)
        _, f, q = _conditional_law(prior, alpha, reg, z[block])
        y[block] = y[block] * np.sqrt(q) + f
    return z, y
