"""Synthetic market data drawn from the bivariate price/realized-variance
process, emitted in the ingestion CSV format.

Daily recipe: the precision follows the multiplicative beta-shock evolution,
the realized variance is a conditional-gamma observation of it, and the log
price follows the regression with the chosen coefficient path. Each (y, z)
pair is then folded into an OHLC bar whose Rogers-Satchell value equals z
exactly and whose close is exp(y): with the open pinned to the previous
close, splitting z between the high and low terms always has a real
solution, so no rejection step is needed (the bar shape parameter u only
varies the split). Bars are written at full float precision; rounding to
ticks would break the round trip.
"""

from __future__ import annotations

import datetime as dt
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .dlm_core import ModelClass
from .errors import ConfigError, number_fields
from .rv_measures import DEFAULT_RV_FLOOR, OhlcBar
from .special import _each


@dataclass(frozen=True)
class SyntheticParams:
    """Generator settings: model layout, coefficient path, volatility process.

    `theta` is the (T, d) path of regression coefficients. `vol_info` sets
    the information level of the beta shocks (higher = smoother volatility);
    `alpha` is the realized-variance shape index of the conditional gamma.
    """

    model: ModelClass
    theta: np.ndarray
    v0: float = 1e-4
    beta: float = 0.875
    alpha: float = 2.75
    vol_info: float = 200.0
    y0: float = math.log(100.0)
    start: dt.date = dt.date(2000, 1, 3)
    floor_eps: float = DEFAULT_RV_FLOOR

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2 or theta.shape[1] != self.model.dim:
            raise ConfigError(
                f"theta path must be (T, {self.model.dim}) for {self.model.value}, "
                f"got shape {theta.shape}")
        if not np.isfinite(theta).all():
            raise ConfigError("theta path must be finite")
        object.__setattr__(self, "theta", theta)
        number_fields(self, "finite and positive", "v0", "alpha", "vol_info", "floor_eps",
                      error=ConfigError)
        number_fields(self, "in (0, 1]", "beta", error=ConfigError)
        number_fields(self, "finite", "y0", error=ConfigError)

    @property
    def days(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class SyntheticTruth:
    """The latent path behind a generated file, for recovery tests."""

    dates: tuple
    theta: np.ndarray  # (T, d)
    v: np.ndarray      # (T,) observation variance 1/phi
    y: np.ndarray      # (T,) log close
    z: np.ndarray      # (T,) realized variance


def slowly_varying_theta(model: ModelClass, T: int, base, amplitude=None,
                         period=None) -> np.ndarray:
    """Sinusoidal coefficient paths around `base`: theta_i(t) = base_i +
    amplitude_i * sin(2 pi t / period_i). Zero amplitude gives constants."""
    d = model.dim
    base = np.broadcast_to(np.asarray(base, dtype=float), (d,))
    amp = np.zeros(d) if amplitude is None else np.broadcast_to(
        np.asarray(amplitude, dtype=float), (d,))
    per = np.full(d, 750.0) if period is None else np.broadcast_to(
        np.asarray(period, dtype=float), (d,))
    t = np.arange(T)[:, None]
    return base[None, :] + amp[None, :] * _each(math.sin, 2.0 * math.pi * t / per[None, :])


def _weekday_dates(start: dt.date, count: int) -> list[dt.date]:
    # the first `count` weekdays on or after `start`
    return np.busday_offset(start, np.arange(count), roll="forward").tolist()


def generate_synthetic(params: SyntheticParams,
                       rng: np.random.Generator) -> tuple[list[OhlcBar], SyntheticTruth]:
    """Simulate T modeled days and return T+1 bars (the first bar only seeds
    the lags) together with the latent truth."""
    T = params.days
    if T < 2:
        raise ConfigError(f"need at least 2 modeled days, got {T}")
    beta, alpha, nbar, floor = params.beta, params.alpha, params.vol_info, params.floor_eps
    shock = (0.5 * beta * nbar, 0.5 * (1.0 - beta) * nbar)
    shape = 0.5 * alpha
    phi = 1.0 / params.v0

    # lag-seeding day 0; the paths hold raw doubles, no float object per day
    y_path = array("d", [params.y0])
    z_path = array("d", [max(rng.gamma(shape, 2.0 / (alpha * phi)), floor)])
    v = array("d")
    x_prev = math.sqrt(z_path[0])
    regressors = params.model.regressors
    for th in params.theta.tolist():
        if beta < 1.0:
            phi = phi * rng.beta(*shock) / beta
        v.append(1.0 / phi)
        z = max(rng.gamma(shape, 2.0 / (alpha * phi)), floor)
        x_now = math.sqrt(z)
        f = th[0]  # summed left to right
        for c, r in zip(th[1:], regressors(y_path[-1], x_now, x_prev)):
            f += c * r
        y_path.append(f + rng.standard_normal() * math.sqrt(v[-1]))
        z_path.append(z)
        x_prev = x_now

    # Each (y, z) pair becomes a bar whose open is the previous close: split
    # z = uz + (1-u)z between the high and low Rogers-Satchell terms; the
    # larger/smaller quadratic roots give h >= max(o, c), l <= min(o, c).
    c_log = np.array(y_path)
    z = np.array(z_path)
    o_log = np.concatenate((c_log[:1], c_log[:-1]))
    u = rng.uniform(0.25, 0.75, T + 1)
    su = c_log + o_log
    # squared with libm pow, as `** 2` on a float does: x * x differs in a last bit now and then
    spread = _each(lambda v: v ** 2, c_log - o_log)
    h_log = 0.5 * (su + np.sqrt(spread + 4.0 * u * z))
    l_log = 0.5 * (su - np.sqrt(spread + 4.0 * (1.0 - u) * z))
    close = _each(math.exp, c_log).tolist()
    bars = list(map(OhlcBar, _weekday_dates(params.start, T + 1), close[:1] + close[:-1],
                    _each(math.exp, h_log).tolist(), _each(math.exp, l_log).tolist(), close))
    truth = SyntheticTruth(tuple(b.date for b in bars[1:]), params.theta.copy(), np.array(v),
                           c_log[1:], z[1:])
    return bars, truth
