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

from .errors import NumericalError, number
from .kernel import FilterTrajectory


@dataclass
class SmoothedEstimates:
    """Retrospective summaries over 1..T: state means/scales and the
    smoothed volatility parameters (E[phi_t | all data] = 1/s_bar_t)."""

    m_star: np.ndarray   # (T, d)
    C_star: np.ndarray   # (T, d, d)
    s_bar: np.ndarray    # (T,)
    n_bar: np.ndarray    # (T,)

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
    factorization; the first day whose C_t LAPACK rejects is named."""
    try:
        return np.linalg.cholesky(traj.C)
    except np.linalg.LinAlgError as exc:
        for t, C in enumerate(traj.C):
            try:
                np.linalg.cholesky(C)
            except np.linalg.LinAlgError:
                raise NumericalError(f"filtered scale C is not positive definite at step {t}",
                                     traj.dates[t] if traj.dates is not None else None) from exc
        raise


_BLOCK_DAYS = 512  # days per batched matmul in backward_sample


def backward_sample(traj: FilterTrajectory, rng: np.random.Generator, n_samples: int = 1):
    """`n_samples` joint retrospective draws of (theta_{1:T}, phi_{1:T}) from
    `rng`, the generator the caller owns (a seed replays the draws).

    Sample the filtered posterior at T, then recurse backward: the precision
    uses the additive decomposition phi_t = beta phi_{t+1} + Gamma((1-beta)
    n_t/2, n_t s_t/2), the state the conditional with mean
    (1-delta) m_t + delta theta_{t+1} and covariance (1-delta) C_t scaled by
    1/(s_t phi_t).

    The generator is called day by day, from T back to 1, once for the
    gamma and once for the normal draws of each day, so a seed gives the
    same draws as a step-by-step sampler. Everything that no recursion reads
    (rates, Cholesky products, scalings) then runs on whole arrays, and only
    the two backward recursions step over days.

    Returns (theta, phi) with shapes (n_samples, T, d) and (n_samples, T),
    as views of day-major arrays.
    """
    delta, beta = traj.hp.delta, traj.hp.beta
    T, d = len(traj), traj.dim
    ns = number(n_samples, "n_samples", "a nonnegative integer")
    L = _cholesky_all(traj)
    theta = np.empty((T, ns, d))
    phi = np.empty((T, ns))
    n, s = traj.n, traj.s
    # at beta = 1 the shock shape is 0: standard_gamma(0) is exactly 0, phi stays put
    shape = (0.5 * (1.0 - beta) * n).tolist()
    shape[-1] = 0.5 * float(n[-1])
    for t in range(T - 1, -1, -1):
        rng.standard_gamma(shape[t], ns, out=phi[t])
        rng.standard_normal(out=theta[t])

    phi /= (0.5 * n * s)[:, None]  # gamma rates: the posterior at T, the shocks before
    for t in range(T - 2, -1, -1):
        phi[t] += beta * phi[t + 1]
    # xi L^T per day, with L_T at T and sqrt(1 - delta) L_t before: the conditional
    # scale factors; in day blocks to bound the temporaries
    factor = math.sqrt(1.0 - delta) * L
    factor[-1] = L[-1]
    factor_T = factor.transpose(0, 2, 1)
    for lo in range(0, T, _BLOCK_DAYS):
        hi = lo + _BLOCK_DAYS
        root = np.sqrt(s[lo:hi, None] * phi[lo:hi])
        theta[lo:hi] = np.matmul(theta[lo:hi], factor_T[lo:hi]) / root[:, :, None]

    theta[-1] = traj.m[-1] + theta[-1]
    keep = (1.0 - delta) * traj.m
    mean = np.empty((ns, d))
    for t in range(T - 2, -1, -1):
        np.multiply(theta[t + 1], delta, out=mean)
        mean += keep[t]
        theta[t] += mean
    return theta.transpose(1, 0, 2), phi.T

