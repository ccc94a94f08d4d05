"""Fused sequential filter: the O(T d^2) hot path.

The per-day recursions from `dlm_core` are unrolled for the d=3 and d=4
regressor layouts and run on plain floats, which keeps a three-model pass
over a 6,500-day series in the tens of milliseconds. The degrees-of-freedom
sequence is data-independent, so the Student-t scoring constants are
precomputed in one vectorized sweep. `run_filter` is asserted equivalent to
the step-by-step `dlm_core` composition by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import special
from .dlm_core import HyperParams, ModelClass, PriorMoments, RvUpdatedPrior
from .errors import DataError, DomainError, NumericalError

_LOG_PI = math.log(math.pi)


@dataclass
class FilterTrajectory:
    """Per-day record of a filtered series under one model.

    Priors are not stored: a_t = m_{t-1} and R_t = C_{t-1}/delta (with the
    initial prior kept explicitly), so `prior_at` reconstructs them exactly.
    """

    variant: ModelClass
    hp: HyperParams
    init: PriorMoments
    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    y_prev: np.ndarray
    x_prev: np.ndarray
    m: np.ndarray        # (T, d)
    C: np.ndarray        # (T, d, d)
    n: np.ndarray        # (T,)
    s: np.ndarray        # (T,)
    n_star: np.ndarray   # (T,) prior dof used on day t
    forecast: np.ndarray
    scale: np.ndarray    # one-step squared scale q~
    error: np.ndarray
    log_density: np.ndarray
    dates: list | None = None

    def __len__(self) -> int:
        return self.m.shape[0]

    @property
    def dim(self) -> int:
        return self.m.shape[1]

    def prior_at(self, t: int) -> PriorMoments:
        if t == 0:
            return self.init
        R = self.C[t - 1] / self.hp.delta
        return PriorMoments(self.m[t - 1].copy(), 0.5 * (R + R.T),
                            float(self.n_star[t]), float(self.s[t - 1]))

    def rv_prior_at(self, t: int) -> RvUpdatedPrior:
        pr = self.prior_at(t)
        if not self.variant.uses_rv:
            return RvUpdatedPrior(pr.a, pr.R, pr.n_star, pr.s_prev)
        alpha = self.hp.alpha
        n_til = pr.n_star + alpha
        r_til = (pr.n_star + alpha * float(self.z[t]) / pr.s_prev) / n_til
        return RvUpdatedPrior(pr.a, pr.R, n_til, r_til * pr.s_prev)


def dof_sequences(hp: HyperParams, n_star_1: float, T: int, uses_rv: bool):
    """Data-independent (n*_t, n~_t, n_t) paths for T days."""
    alpha = hp.alpha if uses_rv else 0.0
    vals = []
    ns = n_star_1
    for _ in range(T):
        vals.append(ns)
        nxt = hp.beta * (ns + alpha + 1.0)
        if nxt == ns:  # floating-point fixed point: the rest of the path is constant
            vals += [ns] * (T - len(vals))
            break
        ns = nxt
    n_star = np.asarray(vals)
    n_tilde = n_star + alpha
    return n_star, n_tilde, n_tilde + 1.0


def _score_constants(n_tilde: np.ndarray) -> np.ndarray:
    # lnG((v+1)/2) - lnG(v/2) - 0.5 ln(v pi), the q-independent part of the
    # one-step t log density. Evaluated up to the last change of dof; the
    # constant tail repeats the final value.
    changes = np.flatnonzero(n_tilde != n_tilde[-1])
    head = n_tilde[:changes[-1] + 2 if changes.size else 1]
    out = np.empty_like(n_tilde)
    out[:head.size] = (special.log_gamma_array(0.5 * (head + 1.0))
                       - special.log_gamma_array(0.5 * head)
                       - 0.5 * np.log(head * math.pi))
    out[head.size:] = out[head.size - 1]
    return out


def _sym_gather(d: int) -> np.ndarray:
    # index into the row-major packed upper triangle for each entry of a d x d matrix
    slot = {}
    for k, (i, j) in enumerate((i, j) for i in range(d) for j in range(i, d)):
        slot[i, j] = slot[j, i] = k
    return np.array([slot[i, j] for i in range(d) for j in range(d)])


_SYM_GATHER = {d: _sym_gather(d) for d in (3, 4)}


def run_filter(variant: ModelClass, hp: HyperParams, init: PriorMoments,
               y, z, x, y_prev, x_prev, dates=None) -> FilterTrajectory:
    """Filter one series under one model; returns the full trajectory.

    Inputs are the modeled columns of a series frame: log price y, floored
    realized variance z, realized SD x, and their one-day lags. The initial
    prior applies to the first modeled day; later priors come from the
    discount evolution of each posterior.
    """
    y = np.ascontiguousarray(y, dtype=float)
    z = np.ascontiguousarray(z, dtype=float)
    x = np.ascontiguousarray(x, dtype=float)
    y_prev = np.ascontiguousarray(y_prev, dtype=float)
    x_prev = np.ascontiguousarray(x_prev, dtype=float)
    T = y.size
    if not (z.size == x.size == y_prev.size == x_prev.size == T):
        raise DomainError("series arrays must share one length")
    if T == 0:
        raise DataError("cannot filter an empty series")
    finite = np.isfinite(np.stack((y, z, x, y_prev, x_prev)))
    if not finite.all():
        t = int(np.argmin(finite.all(axis=0)))
        name = ("log price y", "realized variance z", "realized SD x",
                "lagged log price", "lagged realized SD")[int(np.argmin(finite[:, t]))]
        raise DataError(f"non-finite {name} at step {t}",
                        date=dates[t] if dates is not None else None)
    if init.dim != variant.dim:
        raise DomainError(f"initial prior dimension {init.dim} does not match "
                          f"{variant.value} layout ({variant.dim})")
    uses_rv = variant.uses_rv
    if uses_rv:
        if hp.alpha <= 0.0:
            raise DomainError(f"{variant.value} requires alpha > 0")
        if not np.all(z > 0.0):
            t = int(np.argmin(z > 0.0))
            raise DataError(f"nonpositive realized variance at step {t} (apply the floor)",
                            date=dates[t] if dates is not None else None)
    alpha = hp.alpha if uses_rv else 0.0

    n_star_seq, n_tilde_seq, n_arr = dof_sequences(hp, init.n_star, T, uses_rv)
    consts = _score_constants(n_tilde_seq)

    # plain-list views: elementwise float iteration is several times faster
    # than numpy scalar extraction inside the sequential loop
    d = variant.dim
    loop = _loop_d4 if d == 4 else _loop_d3
    regressors = (y_prev.tolist(), x.tolist(), x_prev.tolist()) if d == 4 \
        else (y_prev.tolist(), x_prev.tolist())
    flat = loop(hp.delta, alpha, init.a, init.R, float(init.s_prev),
                zip(y.tolist(), z.tolist(), *regressors, n_star_seq.tolist(),
                    n_tilde_seq.tolist(), n_arr.tolist(), consts.tolist()))
    # one row per day: m (d), packed upper triangle of C, then s, f, q, e, lp
    npack = d * (d + 1) // 2
    rows = np.fromiter(flat, dtype=float, count=len(flat)).reshape(T, d + npack + 5)
    m = rows[:, :d].copy()
    C = rows[:, d + _SYM_GATHER[d]].reshape(T, d, d)
    s_arr, f_arr, q_arr, e_arr, lp_arr = (rows[:, k].copy() for k in range(d + npack, d + npack + 5))
    if not np.all(np.isfinite(s_arr)) or not np.all(s_arr > 0.0):
        raise NumericalError("volatility scale left the positive reals during filtering")
    # the step composition's PSD check, once for all days: R_t = C_{t-1}/delta, R_1 = init.R.
    # Day-major (d, T) copy: numpy reduces a short trailing axis slowly.
    diag_C = np.diagonal(C, axis1=1, axis2=2).T.copy()
    diag_R_max = np.concatenate(([np.diag(init.R).max()], diag_C[:, :-1].max(axis=0) / hp.delta))
    lost = diag_C.min(axis=0) < -1e-10 * np.maximum(1.0, diag_R_max)
    if lost.any():
        t = int(np.argmax(lost))
        raise NumericalError(f"posterior scale lost positive semidefiniteness at step {t} "
                             f"(min diag {diag_C[:, t].min()!r})"
                             + (f" [date={dates[t]}]" if dates is not None else ""))
    return FilterTrajectory(variant, hp, init, y, z, x, y_prev, x_prev,
                            m, C, n_arr, s_arr, n_star_seq,
                            f_arr, q_arr, e_arr, lp_arr,
                            list(dates) if dates is not None else None)


def _nonpositive_q(q, flat, width):
    return NumericalError(f"nonpositive one-step scale q={q!r} at step {len(flat) // width}")


def _loop_d3(delta, alpha, a0, R0, s, days):
    inv_delta = 1.0 / delta
    log = math.log
    m0, m1, m2 = (float(v) for v in a0)
    R00, R01, R02 = float(R0[0, 0]), float(R0[0, 1]), float(R0[0, 2])
    R11, R12 = float(R0[1, 1]), float(R0[1, 2])
    R22 = float(R0[2, 2])
    flat = []
    push = flat.extend
    for yt, zt, F1, F2, ns, n_til, n, c in days:
        s_til = (ns + alpha * zt / s) / n_til * s if alpha > 0.0 else s
        RF0 = R00 + R01 * F1 + R02 * F2
        RF1 = R01 + R11 * F1 + R12 * F2
        RF2 = R02 + R12 * F1 + R22 * F2
        f = m0 + m1 * F1 + m2 * F2
        q = s_til + RF0 + RF1 * F1 + RF2 * F2
        if not q > 0.0:
            raise _nonpositive_q(q, flat, 14)
        e = yt - f
        iq = 1.0 / q
        A0 = RF0 * iq; A1 = RF1 * iq; A2 = RF2 * iq
        m0 += A0 * e; m1 += A1 * e; m2 += A2 * e
        qA0 = q * A0; qA1 = q * A1; qA2 = q * A2
        C00 = R00 - qA0 * A0; C01 = R01 - qA0 * A1; C02 = R02 - qA0 * A2
        C11 = R11 - qA1 * A1; C12 = R12 - qA1 * A2
        C22 = R22 - qA2 * A2
        u = e * e * iq
        s = (n_til + u) / n * s_til
        lp = c - 0.5 * log(q) - 0.5 * n * log(1.0 + u / n_til)
        push((m0, m1, m2, C00, C01, C02, C11, C12, C22, s, f, q, e, lp))
        R00 = C00 * inv_delta; R01 = C01 * inv_delta; R02 = C02 * inv_delta
        R11 = C11 * inv_delta; R12 = C12 * inv_delta
        R22 = C22 * inv_delta
    return flat


def _loop_d4(delta, alpha, a0, R0, s, days):
    inv_delta = 1.0 / delta
    log = math.log
    m0, m1, m2, m3 = (float(v) for v in a0)
    R00, R01, R02, R03 = float(R0[0, 0]), float(R0[0, 1]), float(R0[0, 2]), float(R0[0, 3])
    R11, R12, R13 = float(R0[1, 1]), float(R0[1, 2]), float(R0[1, 3])
    R22, R23 = float(R0[2, 2]), float(R0[2, 3])
    R33 = float(R0[3, 3])
    flat = []
    push = flat.extend
    for yt, zt, F1, F2, F3, ns, n_til, n, c in days:
        s_til = (ns + alpha * zt / s) / n_til * s if alpha > 0.0 else s
        RF0 = R00 + R01 * F1 + R02 * F2 + R03 * F3
        RF1 = R01 + R11 * F1 + R12 * F2 + R13 * F3
        RF2 = R02 + R12 * F1 + R22 * F2 + R23 * F3
        RF3 = R03 + R13 * F1 + R23 * F2 + R33 * F3
        f = m0 + m1 * F1 + m2 * F2 + m3 * F3
        q = s_til + RF0 + RF1 * F1 + RF2 * F2 + RF3 * F3
        if not q > 0.0:
            raise _nonpositive_q(q, flat, 19)
        e = yt - f
        iq = 1.0 / q
        A0 = RF0 * iq; A1 = RF1 * iq; A2 = RF2 * iq; A3 = RF3 * iq
        m0 += A0 * e; m1 += A1 * e; m2 += A2 * e; m3 += A3 * e
        qA0 = q * A0; qA1 = q * A1; qA2 = q * A2; qA3 = q * A3
        C00 = R00 - qA0 * A0; C01 = R01 - qA0 * A1; C02 = R02 - qA0 * A2; C03 = R03 - qA0 * A3
        C11 = R11 - qA1 * A1; C12 = R12 - qA1 * A2; C13 = R13 - qA1 * A3
        C22 = R22 - qA2 * A2; C23 = R23 - qA2 * A3
        C33 = R33 - qA3 * A3
        u = e * e * iq
        s = (n_til + u) / n * s_til
        lp = c - 0.5 * log(q) - 0.5 * n * log(1.0 + u / n_til)
        push((m0, m1, m2, m3, C00, C01, C02, C03, C11, C12, C13, C22, C23, C33,
              s, f, q, e, lp))
        R00 = C00 * inv_delta; R01 = C01 * inv_delta; R02 = C02 * inv_delta; R03 = C03 * inv_delta
        R11 = C11 * inv_delta; R12 = C12 * inv_delta; R13 = C13 * inv_delta
        R22 = C22 * inv_delta; R23 = C23 * inv_delta
        R33 = C33 * inv_delta
    return flat
