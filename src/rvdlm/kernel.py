"""Fused sequential filter: the O(T d^2) hot path.

The per-day recursions from `dlm_core` are written once in index form
(`_loop_source`) and generated, unrolled over named scalars, once per
regressor dimension; the price-only class runs the realized-variance
recursion at alpha = 0, where s~ = s bit for bit. The loop runs on plain
floats, reads each day's inputs as one packed float64 row and appends its
outputs to one `bytearray` as another, which keeps a three-model pass over a
6,500-day series in the tens of milliseconds and leaves no float object
alive per day. It computes only what the next day reads: the forecast error
and the log density follow after it as whole arrays, with the loop's
operations in its order and the logs through libm per day. The
degrees-of-freedom sequence is data-independent, so the Student-t scoring
constants are precomputed in one vectorized sweep over its distinct values
(`special.on_distinct`), and both are built once per process for each
(beta, alpha, n*_1, T) (`_dof_plan`): every trajectory on one path shares its
`n` and `n_star` arrays, read-only.
`run_filter` is asserted equivalent to the step-by-step `dlm_core`
composition by the test suite.
"""

from __future__ import annotations

import functools
import linecache
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import special
from .dlm_core import HyperParams, ModelClass, PriorMoments, _learning_alpha
from .errors import DataError, DomainError, NumericalError, number


@dataclass
class FilterTrajectory:
    """Per-day record of a filtered series under one model.

    Priors are not stored: a_t = m_{t-1}, R_t = C_{t-1} (1/delta) and
    n*_t = beta n_{t-1}, with the initial prior kept explicitly, so
    `prior_at` rebuilds each as the filter loop formed it, bit for bit.
    `n` and `n_star` are read-only views of the dof plan of the path
    (`_dof_plan`), shared by every trajectory on it.
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
    n_star: np.ndarray   # (T,) prior dof used on day t, read-only like n
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
        """The prior of day t (0-based) for 0 <= t <= T, t = T being the day
        after the last: `run_filter` restarted from it on days t, t+1, ...
        gives the rows of the full run bit for bit. C is gathered from its
        packed triangle, so it and R are exactly symmetric."""
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t <= len(self):
            raise DomainError(f"prior_at takes an integer day 0 <= t <= {len(self)}, got {t!r}")
        if t == 0:
            return self.init
        return PriorMoments(self.m[t - 1].copy(), self.C[t - 1] * (1.0 / self.hp.delta),
                            self.hp.beta * self.n[t - 1], self.s[t - 1])


def dof_sequences(hp: HyperParams, n_star_1: float, T: int, uses_rv: bool):
    """Data-independent (n*_t, n~_t, n_t) paths for T >= 0 days from a finite
    positive n*_1; other arguments are a DomainError."""
    T = number(T, "T", "a nonnegative integer")
    ns = number(n_star_1, "n_star_1", "finite and positive")
    alpha = _learning_alpha(hp.alpha, uses_rv)
    vals = []
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
    # the q-independent part of the one-step t log density, once per distinct dof
    return special.on_distinct(special.student_t_log_const, n_tilde)


@functools.lru_cache(maxsize=32)
def _dof_plan(beta: float, alpha: float, n_star_1: float, T: int) -> tuple:
    """(n*, n~, n, score constants) of one dof path, read-only and built once
    per process: they depend on (beta, the effective alpha, n*_1, T) alone."""
    # delta plays no part in the path; uses_rv=True takes alpha as given
    n_star, n_tilde, n = dof_sequences(HyperParams(1.0, beta, alpha), n_star_1, T, True)
    plan = (n_star, n_tilde, n, _score_constants(n_tilde))
    for a in plan:
        a.flags.writeable = False
    return plan


def _layout_plan(variant: ModelClass, hp: HyperParams, n_star_1: float, T: int) -> tuple:
    """The one `_dof_plan` key of a filter run; the pipeline's quantile table shares it."""
    return _dof_plan(hp.beta, variant.alpha(hp.alpha), n_star_1, T)


def _sym_gather(d: int) -> np.ndarray:
    # index into the row-major packed upper triangle for each entry of a d x d matrix
    slot = {}
    for k, (i, j) in enumerate((i, j) for i in range(d) for j in range(i, d)):
        slot[i, j] = slot[j, i] = k
    return np.array([slot[i, j] for i in range(d) for j in range(d)])


_SYM_GATHER = {variant.dim: _sym_gather(variant.dim) for variant in ModelClass}


def _date(dates, t: int):
    return None if dates is None else dates[t]


def run_filter(variant: ModelClass, hp: HyperParams, init: PriorMoments,
               y, z, x, y_prev, x_prev, dates=None) -> FilterTrajectory:
    """Filter one series under one model; returns the full trajectory.

    Inputs are the modeled columns of a series frame: log price y, floored
    realized variance z, realized SD x, and their one-day lags. The initial
    prior applies to the first modeled day; later priors come from the
    discount evolution of each posterior. `dates`, one per day or None,
    only name the day in an error and are kept in the trajectory; a list of
    another length is a DomainError.
    """
    y = np.ascontiguousarray(y, dtype=float)
    z = np.ascontiguousarray(z, dtype=float)
    x = np.ascontiguousarray(x, dtype=float)
    y_prev = np.ascontiguousarray(y_prev, dtype=float)
    x_prev = np.ascontiguousarray(x_prev, dtype=float)
    T = y.size
    if not (z.size == x.size == y_prev.size == x_prev.size == T):
        raise DomainError("series arrays must share one length")
    if dates is not None and len(dates) != T:
        raise DomainError(f"dates has {len(dates)} entries for {T} days")
    if T == 0:
        raise DataError("cannot filter an empty series")
    finite = np.isfinite(np.stack((y, z, x, y_prev, x_prev)))
    if not finite.all():
        t = int(np.argmin(finite.all(axis=0)))
        name = ("log price y", "realized variance z", "realized SD x",
                "lagged log price", "lagged realized SD")[int(np.argmin(finite[:, t]))]
        raise DataError(f"non-finite {name} at step {t}", _date(dates, t))
    if init.dim != variant.dim:
        raise DomainError(f"initial prior dimension {init.dim} does not match "
                          f"{variant.value} layout ({variant.dim})")
    alpha = variant.alpha(hp.alpha)  # the price-only class ignores hp.alpha
    if variant.uses_rv and not np.all(z > 0.0):
        t = int(np.argmin(z > 0.0))
        raise DataError(f"nonpositive realized variance at step {t} (apply the floor)",
                        _date(dates, t))

    n_star_seq, n_tilde_seq, n_arr, consts = _layout_plan(variant, hp, init.n_star, T)

    d = variant.dim
    npack = d * (d + 1) // 2
    width = d + npack + 3
    # the loop's input columns as one C-contiguous (T, k) block, read a row of k
    # native doubles at a time: no Python list holds a float object per entry
    block = np.column_stack([y, alpha * z, *variant.regressors(y_prev, x, x_prev),
                             n_star_seq, n_tilde_seq, n_arr])
    buf = bytearray()
    bad_q = _LOOPS[d](hp.delta, init.a, init.R, init.s_prev, buf,
                      struct.Struct(f"{width}d").pack,
                      struct.iter_unpack(f"{block.shape[1]}d", block))
    # one row per day the loop finished: m (d), packed upper triangle of C, then s, f, q;
    # every field below is a copy, so no trajectory keeps the buffer alive
    rows = np.frombuffer(buf, dtype=float).reshape(-1, width)
    days = rows.shape[0]
    m = rows[:, :d].copy()
    C = rows[:, d + _SYM_GATHER[d]].reshape(days, d, d)
    s_arr, f_arr, q_arr = (rows[:, k].copy() for k in range(d + npack, width))
    # the forecast error and the log density feed no later day: whole-array passes with
    # the loop's operations in its order, logs through libm per day
    with np.errstate(over="ignore", invalid="ignore"):  # as quiet as float arithmetic
        e_arr = y[:days] - f_arr
        u = e_arr * e_arr * (1.0 / q_arr)
        lp_arr = (consts[:days] - 0.5 * special._each(math.log, q_arr)
                  - 0.5 * n_arr[:days] * special._each(math.log, 1.0 + u / n_tilde_seq[:days]))
    # the finite s and score that the step composition checks per day; a day
    # leaving the finite range (an overflowed s) makes the next day's q bad
    bad = ~((s_arr > 0.0) & (s_arr < math.inf) & np.isfinite(lp_arr))
    if bad.any():
        t = int(np.argmax(bad))
        raise NumericalError(f"filter left the finite range at step {t} (volatility scale "
                             f"s={float(s_arr[t])!r}, log density {float(lp_arr[t])!r})",
                             _date(dates, t))
    if bad_q is not None:
        raise NumericalError(f"nonpositive one-step scale q={bad_q!r} at step {days}",
                             _date(dates, days))
    # the step composition's PSD check, once for all days: R_t = C_{t-1}/delta, R_1 = init.R.
    # Day-major (d, T) copy: numpy reduces a short trailing axis slowly.
    diag_C = np.diagonal(C, axis1=1, axis2=2).T.copy()
    diag_R_max = np.concatenate(([np.diag(init.R).max()], diag_C[:, :-1].max(axis=0) / hp.delta))
    lost = diag_C.min(axis=0) < -1e-10 * np.maximum(1.0, diag_R_max)
    if lost.any():
        t = int(np.argmax(lost))
        raise NumericalError(f"posterior scale lost positive semidefiniteness at step {t} "
                             f"(min diag {float(diag_C[:, t].min())!r})", _date(dates, t))
    return FilterTrajectory(variant, hp, init, y, z, x, y_prev, x_prev,
                            m, C, n_arr, s_arr, n_star_seq,
                            f_arr, q_arr, e_arr, lp_arr,
                            list(dates) if dates is not None else None)


def _loop_source(d: int) -> str:
    """Source of the per-day filter recursion for d regressors.

    Index form, unrolled over named scalars: F_0 = 1 and F_1..F_{d-1} come
    from `days`, in `ModelClass.regressors` order; R and C are kept as their
    packed upper triangles (R_ij with i <= j). Sums run left to right over j,
    which fixes every float operation.
    Each day reads alpha z_t and n*_t and moves s to s~ before the price
    update; at alpha = 0 (the price-only class) n~ = n* and s~ = s exactly.
    Only what the next day reads is computed: each day appends one row of
    native doubles (`pack`) to `buf`: m, packed C, s, f, q. Returns None, or
    the first one-step scale q that is not finite and positive (its day is the
    row count of `buf`).
    """
    idx = range(d)
    upper = [(i, j) for i in idx for j in range(i, d)]

    def dot(terms):  # sum_j terms_j F_j
        return " + ".join(v if j == 0 else f"{v} * F{j}" for j, v in enumerate(terms))

    m = ", ".join(f"m{i}" for i in idx)
    F = ", ".join(f"F{j}" for j in range(1, d))
    C = ", ".join(f"C{i}{j}" for i, j in upper)
    return "\n".join([
        "def loop(delta, a0, R0, s, buf, pack, days):",
        "    inv_delta = 1.0 / delta",
        f"    {m} = (float(v) for v in a0)",
        *(f"    R{i}{j} = float(R0[{i}, {j}])" for i, j in upper),
        "    push = buf.extend",
        f"    for yt, az, {F}, ns, n_til, n in days:",
        "        s_til = (ns + az / s) / n_til * s",
        *(f"        RF{i} = " + dot(f"R{min(i, j)}{max(i, j)}" for j in idx) for i in idx),
        "        f = " + dot(f"m{j}" for j in idx),
        "        q = s_til + " + dot(f"RF{j}" for j in idx),
        "        if not 0.0 < q < inf:",
        "            return q",
        "        e = yt - f",
        "        iq = 1.0 / q",
        *(f"        A{i} = RF{i} * iq" for i in idx),
        *(f"        m{i} += A{i} * e" for i in idx),
        *(f"        qA{i} = q * A{i}" for i in idx),
        *(f"        C{i}{j} = R{i}{j} - qA{i} * A{j}" for i, j in upper),
        "        s = (n_til + e * e * iq) / n * s_til",
        f"        push(pack({m}, {C}, s, f, q))",
        *(f"        R{i}{j} = C{i}{j} * inv_delta" for i, j in upper),
    ]) + "\n"


def _compile_loop(d: int):
    source = _loop_source(d)
    filename = f"<rvdlm.kernel loop d={d}>"
    # tracebacks and profilers read generated lines from the linecache
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), {"inf": math.inf}, namespace)
    return namespace["loop"]


_LOOPS = {d: _compile_loop(d) for d in _SYM_GATHER}
