"""Fixed-interval retrospective smoothing and backward sampling.

The state evolves by the identity with discount prior scale
R_{t+1} = C_t/delta, so the smoother gain B_t = C_t R_{t+1}^{-1} is exactly
delta I and the backward recursions need no matrix solves:

    m*_t = (1-delta) m_t + delta m*_{t+1}
    C*_t = (1-delta) C_t + delta^2 C*_{t+1}

and a backward draw of theta_t given theta_{t+1} has mean
(1-delta) m_t + delta theta_{t+1} and scale matrix (1-delta) C_t (zero at
delta = 1, where the state is static). The volatility side mixes filtered and
future information through 1/s̄_t = (1-beta)/s_t + beta/s̄_{t+1} and
n̄_t = (1-beta) n_t + beta n̄_{t+1}. At t = T everything equals the filtered
posterior. Both passes use the discount factors the trajectory was filtered
with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import GammaParams, sample_gamma
from .errors import NumericalError
from .kernel import FilterTrajectory


@dataclass
class SmoothedEstimates:
    """Retrospective summaries over 1..T: state means/scales and the
    smoothed volatility parameters (E[phi_t | all data] = 1/s_bar_t)."""

    m_star: np.ndarray   # (T, d)
    C_star: np.ndarray   # (T, d, d)
    s_bar: np.ndarray    # (T,)
    n_bar: np.ndarray    # (T,)

    @property
    def phi_mean(self) -> np.ndarray:
        return 1.0 / self.s_bar

    def __len__(self) -> int:
        return self.m_star.shape[0]


def smooth(traj: FilterTrajectory) -> SmoothedEstimates:
    """Backward pass over a complete trajectory; pure function of it."""
    delta, beta = traj.hp.delta, traj.hp.beta
    T, d = len(traj), traj.dim
    # m_t and the flattened C_t share one row per day, so each backward step
    # is a single vector update
    rows = np.concatenate([traj.m, traj.C.reshape(T, d * d)], axis=1)
    rows[:-1] *= 1.0 - delta
    gain = np.concatenate([np.full(d, delta), np.full(d * d, delta * delta)])
    for t in range(T - 2, -1, -1):
        rows[t] += gain * rows[t + 1]

    s, n = traj.s.tolist(), traj.n.tolist()
    s_bar, n_bar = s[:], n[:]
    for t in range(T - 2, -1, -1):
        s_bar[t] = 1.0 / ((1.0 - beta) / s[t] + beta / s_bar[t + 1])
        n_bar[t] = (1.0 - beta) * n[t] + beta * n_bar[t + 1]
    return SmoothedEstimates(rows[:, :d], rows[:, d:].reshape(T, d, d),
                             np.array(s_bar), np.array(n_bar))


def _cholesky_all(traj: FilterTrajectory) -> np.ndarray:
    """Lower Cholesky factors of every filtered scale C_t, as one batched
    factorization; a day whose C_t is not positive definite is named."""
    try:
        return np.linalg.cholesky(traj.C)
    except np.linalg.LinAlgError:
        pass
    # Sylvester's criterion: C_t is positive definite iff every leading
    # principal minor is positive. Name the first day that fails it, or the
    # day nearest to failing when rounding kept every minor positive.
    minors = np.stack([np.linalg.det(traj.C[:, :k, :k])
                       for k in range(1, traj.dim + 1)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pivots = minors / np.concatenate([np.ones((len(traj), 1)), minors[:, :-1]], axis=1)
    worst = np.nan_to_num(pivots.min(axis=1), nan=-np.inf)
    t = int(np.argmax(worst <= 0.0)) if np.any(worst <= 0.0) else int(np.argmin(worst))
    where = f" (date {traj.dates[t]})" if traj.dates is not None else ""
    raise NumericalError(f"filtered scale C is not positive definite at step {t}{where}")


def backward_sample(traj: FilterTrajectory, rng: np.random.Generator | None = None,
                    n_samples: int = 1):
    """Joint retrospective draws of (theta_{1:T}, phi_{1:T}).

    Sample the filtered posterior at T, then recurse backward: the precision
    uses the additive decomposition phi_t = beta phi_{t+1} + Gamma((1-beta)
    n_t/2, n_t s_t/2), the state the conditional with mean
    (1-delta) m_t + delta theta_{t+1} and covariance (1-delta) C_t scaled by
    1/(s_t phi_t).

    Returns (theta, phi) with shapes (n_samples, T, d) and (n_samples, T).
    """
    if rng is None:
        raise ValueError("backward_sample needs an explicit random generator")
    delta, beta = traj.hp.delta, traj.hp.beta
    T, d = len(traj), traj.dim
    ns = int(n_samples)
    theta = np.empty((ns, T, d))
    phi = np.empty((ns, T))
    L = _cholesky_all(traj)

    nT, sT = float(traj.n[-1]), float(traj.s[-1])
    phi[:, -1] = sample_gamma(GammaParams(0.5 * nT, 0.5 * nT * sT), rng, ns)
    xi = rng.standard_normal((ns, d))
    theta[:, -1, :] = traj.m[-1] + (xi @ L[-1].T) / np.sqrt(sT * phi[:, -1])[:, None]

    keep = (1.0 - delta) * traj.m
    L_back = math.sqrt(1.0 - delta) * L
    for t in range(T - 2, -1, -1):
        n_t, s_t = float(traj.n[t]), float(traj.s[t])
        # at beta = 1 the shock shape is 0: standard_gamma(0) is exactly 0, phi stays put
        shock = rng.standard_gamma(0.5 * (1.0 - beta) * n_t, ns) / (0.5 * n_t * s_t)
        phi[:, t] = beta * phi[:, t + 1] + shock
        mean = keep[t] + delta * theta[:, t + 1, :]
        xi = rng.standard_normal((ns, d))
        theta[:, t, :] = mean + (xi @ L_back[t].T) / np.sqrt(s_t * phi[:, t])[:, None]
    return theta, phi
