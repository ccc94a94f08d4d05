"""Special functions: log-gamma, regularized incomplete gamma/beta, and the
safeguarded quantile solvers built on them.

The scalar functions check their arguments once (`errors.number`) and
iterate on plain floats. `log_gamma_array` is the vectorized log-gamma of the
scoring constants and the lane solvers: `inv_reg_lower_gamma_lanes` and
`student_t_quantile_lanes` solve many lanes (shapes, dofs, levels) at once in
one shared loop, `_converge`, bit-identical to the scalar solvers lane by lane.
Numbers keyed by a dof path are evaluated once per distinct dof (`on_distinct`),
and `student_t_log_const` is the one array Student-t log-density constant.

Every log, log1p, exp and sin whose value reaches an output comes from libm
(`math`), one element at a time, through `_each`: numpy picks its ufunc loops
by CPU at import, and its AVX-512 log, log1p and exp differ from libm in the
last bit on some inputs. + - * /, sqrt and comparisons are exact IEEE
operations and stay on whole arrays.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np

from .errors import DomainError, NumericalError, number

# Lanczos approximation, g = 7, nine-term double-precision coefficient set.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

_EPS = 2.220446049250313e-16
_TINY = 1e-300


def _each(fn, v: np.ndarray) -> np.ndarray:
    """fn of each element of the float array v, one Python float at a time."""
    return np.fromiter(map(fn, v.ravel().tolist()), dtype=float, count=v.size).reshape(v.shape)


def on_distinct(fn, v: np.ndarray) -> np.ndarray:
    """fn(v) for an fn of each value on its own: one call on v's sorted distinct
    values, gathered back to v's shape (a row of fn per value, a row per entry)."""
    values, at = np.unique(v, return_inverse=True)
    return fn(values)[at.reshape(v.shape)]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0."""
    x = number(x, "x", "finite and positive", prefix="log_gamma: ")
    if x < 0.5:
        # Reflection keeps the Lanczos argument in its accurate range.
        return _LOG_PI - math.log(math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def log_gamma_array(x: np.ndarray) -> np.ndarray:
    """`log_gamma` of every entry of a positive array, bit for bit."""
    x = np.asarray(x, dtype=float)
    if x.size and (not np.all(np.isfinite(x)) or np.any(x <= 0.0)):
        raise DomainError("log_gamma_array requires finite positive entries")
    small = x < 0.5
    z = np.where(small, 1.0 - x, x) - 1.0  # reflected below 0.5
    acc = np.full_like(z, _LANCZOS[0])
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_2PI + (z + 0.5) * _each(math.log, t) - t + _each(math.log, acc)
    out[small] = _LOG_PI - _each(math.log, _each(math.sin, math.pi * x[small])) - out[small]
    return out


def student_t_log_const(v: np.ndarray) -> np.ndarray:
    """lnG((v+1)/2) - lnG(v/2) - 0.5 ln(v pi), in that order, per entry of the
    dof array v: the part of the Student-t log density that only v sets."""
    return (log_gamma_array(0.5 * (v + 1.0)) - log_gamma_array(0.5 * v)
            - 0.5 * _each(math.log, v * math.pi))


def _max_terms(a: float) -> int:
    # Term cap of the incomplete-gamma series and continued fraction. Near
    # x = a the series needs about sqrt(2 a ln(1/eps)) = 8.5 sqrt(a) terms.
    return 1000 + int(10.0 * math.sqrt(a))


def _gamma_series(a: float, x: float, itmax: int) -> float:
    # Series sum of P(a, x) without its prefactor, for x < a + 1.
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(itmax):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise NumericalError(f"incomplete gamma series failed to converge (a={a}, x={x})")


def _lentz(an: float, bn: float, c: float, d: float) -> tuple[float, float, float]:
    """One modified-Lentz step of (an, bn): new c and d, kept off zero, and c d."""
    d = an * d + bn
    if abs(d) < _TINY:
        d = _TINY
    c = bn + an / c
    if abs(c) < _TINY:
        c = _TINY
    d = 1.0 / d
    return c, d, d * c


def _gamma_contfrac(a: float, x: float, itmax: int) -> float:
    # Lentz continued fraction of Q(a, x) without its prefactor, for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, itmax + 1):
        an = -i * (i - a)
        b += 2.0
        c, d, delta = _lentz(an, b, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericalError(f"incomplete gamma continued fraction failed (a={a}, x={x})")


def _lower_gamma(x: float, a: float, lga: float, itmax: int) -> float:
    # P(a, x) for finite x >= 0, given lga = ln Gamma(a) and itmax = _max_terms(a)
    if x == 0.0:
        return 0.0
    front = math.exp(-x + a * math.log(x) - lga)
    if x < a + 1.0:
        return _gamma_series(a, x, itmax) * front
    return 1.0 - front * _gamma_contfrac(a, x, itmax)


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    a = number(a, "shape", "finite and positive")
    x = number(x, "argument", "finite and nonnegative")
    return _lower_gamma(x, a, log_gamma(a), _max_terms(a))


def normal_quantile(u: float) -> float:
    """Standard normal quantile (Acklam's rational approximation).

    About 1e-9 relative accuracy; used only to seed Newton solvers.
    """
    u = number(u, "quantile level", "in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    plow, phigh = 0.02425, 1.0 - 0.02425
    if u < plow or u > phigh:  # the tails: one rational, negated for the upper one
        q = math.sqrt(-2.0 * math.log(min(u, 1.0 - u)))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
        return x if u < plow else -x
    q = u - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


# Both quantile solvers run Newton's method on the CDF, safeguarded by
# bisection (Numerical Recipes section 9.4, `rtsafe`), to fixed tolerances. A
# Newton step is tried only where the log density exceeds a floor: -700 for
# the gamma, none (-inf) for the t, where a floor would move bits in the tails.
_GAMMA_TOL = 1e-13
_GAMMA_FLOOR = -700.0
_T_TOL = 1e-12
_MAX_STEPS = 200


def _newton(cdf, log_pdf, x: float, u: float, tol: float, floor: float, what: str) -> float:
    """Solve cdf(x) = u for x > 0 from the start x: a Newton step where
    log_pdf(x) > floor and the step lands inside the bracket, otherwise a
    bisection (or a doubling while the bracket is open above). `what` is
    the error message should it not converge."""
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_STEPS):
        f = cdf(x) - u
        if abs(f) <= tol:
            return x
        if f > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        lpdf = log_pdf(x)
        xn = x - f * math.exp(-lpdf) if lpdf > floor else math.nan
        if not (math.isfinite(xn) and lo < xn < hi):
            xn = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * max(x, 1.0)
        if xn == x:
            return x
        x = xn
    raise NumericalError(what)


def inv_reg_lower_gamma(a: float, u: float) -> float:
    """Solve P(a, x) = u for x by bracketed Newton with bisection fallback."""
    u = number(u, "quantile level", "in (0, 1)")
    a = number(a, "shape", "finite and positive")
    # Wilson-Hilferty starting point.
    z = normal_quantile(u)
    g = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    x = a * g * g * g if g > 0.0 else a * math.exp((math.log(u) + log_gamma(a + 1.0)) / a)
    lga, itmax = log_gamma(a), _max_terms(a)
    return _newton(lambda x: _lower_gamma(x, a, lga, itmax),
                   lambda x: (a - 1.0) * math.log(x) - x - lga,  # log density of Gamma(a, 1)
                   max(x, _TINY), u, _GAMMA_TOL, _GAMMA_FLOOR,
                   f"gamma quantile solver failed (a={a}, u={u})")


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz continued fraction for the incomplete beta.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        c, d, delta = _lentz(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        c, d, delta = _lentz(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericalError(f"incomplete beta continued fraction failed (a={a}, b={b}, x={x})")


def _inc_beta(a: float, b: float, x: float, log_beta: float) -> float:
    """I_x(a, b) of floats, given log_beta = ln Gamma(a+b) - ln Gamma(a) - ln Gamma(b),
    summed in that order: 0 at x <= 0 and 1 at x >= 1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = log_beta + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _betacf(b, a, 1.0 - x) / b


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b); 0 at x <= 0 and 1 at x >= 1."""
    a = number(a, "a", "finite and positive", prefix="reg_inc_beta: ")
    b = number(b, "b", "finite and positive", prefix="reg_inc_beta: ")
    x = number(x, "x", "a number", prefix="reg_inc_beta: ")
    return _inc_beta(a, b, x, log_gamma(a + b) - log_gamma(a) - log_gamma(b))


def _t_cdf(t: float, dof: float, log_beta: float) -> float:
    """`student_t_cdf` of floats; log_beta is `_inc_beta`'s constant for (dof/2, 1/2)."""
    if t == 0.0:
        return 0.5
    tail = 0.5 * _inc_beta(0.5 * dof, 0.5, dof / (dof + t * t), log_beta)
    return tail if t < 0.0 else 1.0 - tail


def student_t_cdf(t: float, dof: float) -> float:
    """CDF of the standard Student-t with `dof` degrees of freedom."""
    dof = number(dof, "degrees of freedom", "finite and positive")
    t = number(t, "t", "a number")  # the cdf is 0 at -inf and 1 at inf
    return _t_cdf(t, dof, log_gamma(0.5 * dof + 0.5) - log_gamma(0.5 * dof) - _LOG_GAMMA_HALF)


# Below the levels u whose reflection 1 - u rounds to 1 (about 5.6e-17), the
# t quantile -e^s solves -ln F(-e^s) = -ln u for s: Newton to a residual
# relative to u, on the direct branch of `_inc_beta` in logs. There t^2 =
# e^{2s} may overflow, so x = dof/(dof + t^2) is formed from r = dof e^{-2s},
# and d/ds -ln F(-e^s) = dof / (the continued fraction). t > sqrt(3) there, so
# the direct branch is the one `_inc_beta` takes.
_LOG_HUGE = math.log(1.7976931348623157e308)
_LOG_GAMMA_HALF = log_gamma(0.5)


def _log_t_tail(s: float, dof: float, log_beta: float) -> float:
    # ln F(-e^s), given log_beta = ln Gamma(dof/2 + 1/2) - ln Gamma(dof/2) - ln Gamma(1/2)
    r = dof * math.exp(-2.0 * s)
    big = math.log1p(r)
    return (log_beta + 0.5 * dof * (math.log(dof) - 2.0 * s - big) - 0.5 * big
            + math.log(_betacf(0.5 * dof, 0.5, r / (1.0 + r)) / dof))


def _log_t_tail_slope(s: float, dof: float) -> float:
    # ln of d/ds -ln F(-e^s)
    r = dof * math.exp(-2.0 * s)
    return math.log(dof / _betacf(0.5 * dof, 0.5, r / (1.0 + r)))


def student_t_quantile(u: float, dof: float) -> float:
    """Standard-t quantile by bracketed Newton on the CDF, or on the log of
    the lower tail below the levels whose reflection rounds to 1."""
    u = number(u, "quantile level", "in (0, 1)")
    dof = number(dof, "degrees of freedom", "finite and positive")
    if u == 0.5:
        return 0.0
    far = 1.0 - u == 1.0
    if u < 0.5 and not far:
        return -student_t_quantile(1.0 - u, dof)
    z = normal_quantile(u)
    x = z + (z ** 3 + z) / (4.0 * dof)  # first-order tail correction
    what = f"t quantile solver failed (dof={dof}, u={u})"
    lb = log_gamma(0.5 * dof + 0.5) - log_gamma(0.5 * dof) - _LOG_GAMMA_HALF
    if far:
        s = _newton(lambda s: -_log_t_tail(s, dof, lb), lambda s: _log_t_tail_slope(s, dof),
                    math.log(-x), -math.log(u), _T_TOL, -math.inf, what)
        return -math.exp(s) if s <= _LOG_HUGE else -math.inf  # math.exp raises past it
    # the t log density is c - (dof + 1)/2 log1p(x^2/dof)
    c = log_gamma(0.5 * (dof + 1.0)) - log_gamma(0.5 * dof) - 0.5 * math.log(dof * math.pi)
    return _newton(lambda t: _t_cdf(t, dof, lb),
                   lambda t: c - 0.5 * (dof + 1.0) * math.log1p(t * t / dof),
                   x, u, _T_TOL, -math.inf, what)


# Lane-parallel solvers. Every lane performs exactly the operation sequence
# of the scalar solvers above: exact IEEE operations on whole arrays, libm
# through `_each` and `log_gamma_array`, every branch taken per lane, and a
# lane's result is taken the iteration it converges. Results are thus
# bit-identical to the scalar solvers, which `tests/test_special.py` checks.
# The four lane loops share one driver, `_converge`, and supply only one
# step function, a cap and a failure message. The t's far lower tail has no
# lane form: `student_t_quantile_lanes` hands it to the scalar solver.


def _lanes(u, v, what: str) -> list[np.ndarray]:
    """Levels u in (0, 1) and finite positive `what` v, scalars or arrays,
    checked, broadcast together and flattened (in C order) to float lanes."""
    u, v = (np.array(w, dtype=float).ravel() for w in np.broadcast_arrays(u, v))
    bad = ~((u > 0.0) & (u < 1.0))
    if bad.any():
        raise DomainError(f"quantile level must be in (0, 1), got {float(u[bad][0])!r}")
    bad = ~((v > 0.0) & np.isfinite(v))
    if bad.any():
        raise DomainError(f"{what} must be positive, got {float(v[bad][0])!r}")
    return [u, v]


# Python float arithmetic overflows to inf (and makes nan of inf - inf)
# silently; the public entry points keep numpy lanes just as quiet
_quiet = np.errstate(over="ignore", invalid="ignore")


def _converge(state: np.ndarray, cap, fail, step) -> np.ndarray:
    """Iterate the lanes of `state` (one row per variable, one column per lane)
    until each converges. Iteration k = 1, 2, ... calls step(k, s) on the
    columns s held; it updates s in place and returns a mask of the lanes that
    have converged. Such a lane leaves `live`, with row 0 as its result, but
    stays in s until a quarter of the columns have left: then s is compacted.
    A live lane after iteration `cap` (a number, or one per lane) has failed:
    the first, column j of `state`, raises NumericalError(fail(j))."""
    n = state.shape[1]
    out, lane, live = np.empty(n), np.arange(n), np.ones(n, dtype=bool)
    cap = np.broadcast_to(cap, lane.shape)
    for k in itertools.count(1):
        if not lane.size:
            return out
        done = step(k, state) & live
        if done.any():
            out[lane[done]] = state[0][done]
            live &= ~done
            if 4 * np.count_nonzero(live) <= 3 * live.size:
                state, lane, cap = np.compress(live, state, axis=1), lane[live], cap[live]
                live = live[live]
        over = live & (cap <= k)
        if over.any():
            raise NumericalError(fail(int(lane[np.argmax(over)])))


def _gamma_series_lanes(a, x, itmax):
    # Series sum of P(a, x) without its prefactor, for 0 < x < a + 1. Every
    # term and partial sum is positive, so the scalar test's abs() changes no
    # bit and is left out.
    def add_term(_, s):
        total, x, ap, term = s
        ap += 1.0
        term *= x / ap
        total += term
        return term < total * _EPS

    return _converge(np.array([1.0 / a, x, a, 1.0 / a]), itmax,
                     lambda j: f"incomplete gamma series failed to converge "
                               f"(a={float(a[j])}, x={float(x[j])})", add_term)


def _lentz_lanes(an, bn, c, d):
    """`_lentz` in every lane."""
    d = an * d + bn
    d = np.where(np.abs(d) < _TINY, _TINY, d)
    c = bn + an / c
    c = np.where(np.abs(c) < _TINY, _TINY, c)
    d = 1.0 / d
    return c, d, d * c


def _gamma_contfrac_lanes(a, x, itmax):
    # Lentz continued fraction of Q(a, x) without its prefactor, for x >= a + 1.
    def step(i, s):
        h, a, b, c, d = s
        b += 2.0
        s[3], s[4], delta = _lentz_lanes(-i * (i - a), b, c, d)
        h *= delta
        return np.abs(delta - 1.0) < _EPS

    b = x + 1.0 - a
    return _converge(np.array([1.0 / b, a, b, np.full_like(a, 1.0 / _TINY), 1.0 / b]), itmax,
                     lambda j: f"incomplete gamma continued fraction failed "
                               f"(a={float(a[j])}, x={float(x[j])})", step)


def _lower_gamma_lanes(x, a, lga, itmax):
    """P(a, x) per lane for finite x >= 0, given lga = ln Gamma(a) and
    itmax = _max_terms(a)."""
    out = np.zeros_like(x)
    pos = np.flatnonzero(x > 0.0)
    x, a, lga, itmax = x[pos], a[pos], lga[pos], itmax[pos]
    front = _each(math.exp, -x + a * _each(math.log, x) - lga)
    ser = x < a + 1.0
    cf = ~ser
    out[pos[ser]] = _gamma_series_lanes(a[ser], x[ser], itmax[ser]) * front[ser]
    out[pos[cf]] = 1.0 - front[cf] * _gamma_contfrac_lanes(a[cf], x[cf], itmax[cf])
    return out


def _newton_lanes(cdf, log_pdf, x, u, params, tol: float, floor: float, fail):
    """`_newton` in every lane: cdf(x, *params) and log_pdf(x, *params) take the
    held lanes' iterates and parameters. A lane whose residual meets `tol`, or
    whose step would not move it, converges where it stands; no Newton step
    is taken from a lane that meets `tol`. fail(j) is the error message
    should lane j not converge."""
    def step(_, s):
        x, u, lo, hi, *p = s
        f = cdf(x, *p) - u
        met = np.abs(f) <= tol
        up = f > 0.0
        np.copyto(hi, np.minimum(hi, x), where=up)
        np.copyto(lo, np.maximum(lo, x), where=~up)
        lpdf = log_pdf(x, *p)
        newton = (lpdf > floor) & ~met
        xn = np.full_like(x, math.nan)
        xn[newton] = x[newton] - f[newton] * _each(math.exp, -lpdf[newton])
        bis = ~(np.isfinite(xn) & (lo < xn) & (xn < hi))
        xn[bis] = np.where(np.isfinite(hi[bis]), 0.5 * (lo[bis] + hi[bis]),
                           2.0 * np.maximum(x[bis], 1.0))
        done = met | (xn == x)
        np.copyto(x, xn, where=~done)
        return done

    return _converge(np.array([x, u, np.zeros_like(x), np.full_like(x, math.inf), *params]),
                     _MAX_STEPS, fail, step)


@_quiet
def inv_reg_lower_gamma_lanes(a, u) -> np.ndarray:
    """Solve P(a, x) = u for x in every lane of `a` and `u`, broadcast
    together and flattened, by bracketed Newton with bisection fallback."""
    u, a = _lanes(u, a, "shape")
    # Wilson-Hilferty starting point
    z = on_distinct(partial(_each, normal_quantile), u)
    g = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
    x = a * g * g * g
    cold = ~(g > 0.0)
    ac = a[cold]
    x[cold] = ac * _each(math.exp, (_each(math.log, u[cold]) + log_gamma_array(ac + 1.0)) / ac)
    return _newton_lanes(_lower_gamma_lanes,
                         lambda x, a, lga, _: (a - 1.0) * _each(math.log, x) - x - lga,
                         np.maximum(x, _TINY), u,
                         (a, log_gamma_array(a), on_distinct(partial(_each, _max_terms), a)),
                         _GAMMA_TOL, _GAMMA_FLOOR,
                         lambda j: f"gamma quantile solver failed (a={float(a[j])}, "
                                   f"u={float(u[j])})")


def _betacf_lanes(a, b, x):
    # Lentz continued fraction for the incomplete beta.
    def step(m, s):
        h, a, b, x, qab, qap, qam, c, d = s
        m2 = 2 * m
        s[7], s[8], delta = _lentz_lanes(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        s[7], s[8], delta = _lentz_lanes(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
                                         1.0, c, d)
        h *= delta
        return np.abs(delta - 1.0) < _EPS

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
    # 399 terms, as `_betacf`'s range(1, 400)
    return _converge(np.array([d, a, b, x, qab, qap, qam, np.ones_like(a), d]), 399,
                     lambda j: f"incomplete beta continued fraction failed "
                               f"(a={float(a[j])}, b={float(b[j])}, x={float(x[j])})", step)


def _inc_beta_lanes(a, b, x, log_beta):
    """I_x(a, b) per lane for 0 < x < 1, given
    log_beta = ln Gamma(a+b) - ln Gamma(a) - ln Gamma(b), summed in that order."""
    front = _each(math.exp, log_beta + a * _each(math.log, x) + b * _each(math.log1p, -x))
    out = np.empty_like(x)
    direct = x < (a + 1.0) / (a + b + 2.0)
    swap = ~direct
    out[direct] = front[direct] * _betacf_lanes(a[direct], b[direct], x[direct]) / a[direct]
    out[swap] = 1.0 - front[swap] * _betacf_lanes(b[swap], a[swap], 1.0 - x[swap]) / b[swap]
    return out


def _t_cdf_lanes(t, dof, log_beta):
    """Standard-t CDF per lane; log_beta is `_inc_beta_lanes`'s constant for
    (dof/2, 1/2)."""
    xb = dof / (dof + t * t)
    zero, one = xb <= 0.0, xb >= 1.0
    ib = np.where(zero, 0.0, 1.0)
    inner = ~(zero | one)
    a = 0.5 * dof[inner]
    ib[inner] = _inc_beta_lanes(a, np.full_like(a, 0.5), xb[inner], log_beta[inner])
    tail = 0.5 * ib
    out = np.where(t < 0.0, tail, 1.0 - tail)
    out[t == 0.0] = 0.5
    return out


@_quiet
def student_t_quantile_lanes(u, dof) -> np.ndarray:
    """Standard-t quantiles in every lane of `u` and `dof`, broadcast together
    and flattened: 0 at u = 0.5, reflection below it and bracketed Newton
    above. The levels whose reflection 1 - u rounds to 1 go to the scalar
    `student_t_quantile`, one at a time, after the Newton lanes."""
    u, dof = _lanes(u, dof, "degrees of freedom")
    low = u < 0.5
    w = np.where(low, 1.0 - u, u)
    far = w == 1.0
    near = ~far & (w != 0.5)
    w, n = w[near], dof[near]
    z = on_distinct(partial(_each, normal_quantile), w)
    x = z + (_each(lambda v: v ** 3, z) + z) / (4.0 * n)  # first-order tail correction
    log_beta = log_gamma_array(0.5 * n + 0.5) - log_gamma_array(0.5 * n) - _LOG_GAMMA_HALF
    out = np.zeros_like(u)
    # the t log density is c - (n + 1)/2 log1p(x^2/n)
    out[near] = _newton_lanes(
        lambda t, n, log_beta, _: _t_cdf_lanes(t, n, log_beta),
        lambda t, n, _, c: c - 0.5 * (n + 1.0) * _each(math.log1p, t * t / n),
        x, w, (n, log_beta, student_t_log_const(n)), _T_TOL, -math.inf,
        lambda j: f"t quantile solver failed (dof={float(n[j])}, u={float(w[j])})")
    out = np.where(low, -out, out)
    out[far] = list(map(student_t_quantile, u[far].tolist(), dof[far].tolist()))
    return out
