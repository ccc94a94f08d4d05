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
from dataclasses import dataclass, field

import numpy as np

from .dlm_core import ModelClass
from .errors import ConfigError
from .rv_measures import DEFAULT_RV_FLOOR, OhlcBar


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
        object.__setattr__(self, "theta", theta)
        for name, v in (("v0", self.v0), ("alpha", self.alpha), ("vol_info", self.vol_info)):
            if not v > 0.0:
                raise ConfigError(f"{name} must be positive, got {v!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1], got {self.beta!r}")

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
    return base[None, :] + amp[None, :] * np.sin(2.0 * math.pi * t / per[None, :])


def _weekday_dates(start: dt.date, count: int) -> list[dt.date]:
    out, d = [], start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def _bar_from_logs(date: dt.date, o_log: float, c_log: float, z: float, u: float) -> OhlcBar:
    # Split z = uz + (1-u)z between the high and low Rogers-Satchell terms;
    # the larger/smaller quadratic roots give h >= max(o, c), l <= min(o, c).
    su = c_log + o_log
    h = 0.5 * (su + math.sqrt((c_log - o_log) ** 2 + 4.0 * u * z))
    l = 0.5 * (su - math.sqrt((c_log - o_log) ** 2 + 4.0 * (1.0 - u) * z))
    return OhlcBar(date, math.exp(o_log), math.exp(h), math.exp(l), math.exp(c_log))


def generate_synthetic(params: SyntheticParams,
                       rng: np.random.Generator) -> tuple[list[OhlcBar], SyntheticTruth]:
    """Simulate T modeled days and return T+1 bars (the first bar only seeds
    the lags) together with the latent truth."""
    T = params.days
    if T < 2:
        raise ConfigError(f"need at least 2 modeled days, got {T}")
    beta, alpha, nbar = params.beta, params.alpha, params.vol_info
    phi = 1.0 / params.v0

    # lag-seeding day 0
    z0 = rng.gamma(0.5 * alpha, 2.0 / (alpha * phi))
    y_path = np.empty(T + 1)
    z_path = np.empty(T + 1)
    y_path[0], z_path[0] = params.y0, max(z0, params.floor_eps)

    v = np.empty(T)
    theta, regressors = params.theta.tolist(), params.model.regressors
    for t in range(1, T + 1):
        if beta < 1.0:
            gamma_shock = rng.beta(0.5 * beta * nbar, 0.5 * (1.0 - beta) * nbar)
            phi = phi * gamma_shock / beta
        v[t - 1] = 1.0 / phi
        z = max(rng.gamma(0.5 * alpha, 2.0 / (alpha * phi)), params.floor_eps)
        x_now = math.sqrt(z)
        x_prev = math.sqrt(z_path[t - 1])
        th = theta[t - 1]
        f = th[0]  # summed left to right
        for c, r in zip(th[1:], regressors(y_path[t - 1], x_now, x_prev)):
            f += c * r
        y_path[t] = f + rng.standard_normal() * math.sqrt(v[t - 1])
        z_path[t] = z

    dates = _weekday_dates(params.start, T + 1)
    bars = []
    for t in range(T + 1):
        o_log = params.y0 if t == 0 else y_path[t - 1]
        u = rng.uniform(0.25, 0.75)
        bars.append(_bar_from_logs(dates[t], o_log, y_path[t], z_path[t], u))
    truth = SyntheticTruth(tuple(dates[1:]), params.theta.copy(), v,
                           y_path[1:].copy(), z_path[1:].copy())
    return bars, truth
