"""Realized-variance proxies computed from daily OHLC bars.

The checks and the Rogers-Satchell measure work on whole columns, one entry
per bar; `validate_bar` and `rogers_satchell` apply them to one bar.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .special import _each

#: Relative slack for vendor rounding: OHLC ordering violations below this are
#: clamped to validity, anything larger is a hard error.
OHLC_REL_TOL = 1e-9

#: Default floor applied to realized variance before it enters the gamma
#: update (the conditional-gamma likelihood degenerates at z = 0).
DEFAULT_RV_FLOOR = 1e-12

PRICE_FIELDS = ("open", "high", "low", "close")


@dataclass(frozen=True)
class OhlcBar:
    """One trading day's open/high/low/close prices."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float


def bar_columns(bars) -> tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dates and the open, high, low and close float columns of bars. A
    price that is not a number raises `DataError` carrying its bar's date."""
    rows = [(b.open, b.high, b.low, b.close) for b in bars]
    prices = np.array(rows).reshape(len(rows), 4)
    if prices.dtype.kind not in "biuf":
        for bar, row in zip(bars, rows):
            for name, p in zip(PRICE_FIELDS, row):
                if not isinstance(p, (int, float)):
                    raise DataError(f"{name} price must be finite and positive, got {p!r}",
                                    bar.date)
    o, h, l, c = prices.astype(float).T
    return [b.date for b in bars], o, h, l, c


def clamp_ohlc(dates, o, h, l, c):
    """Enforce L <= min(O, C) and max(O, C) <= H on finite positive prices,
    bar by bar; returns the high and low columns.

    Violations within `OHLC_REL_TOL` (relative) are clamped. The first bar that
    fails a check raises `DataError` carrying its date and naming the first
    check it fails: the four prices in order, the high, the low, then low/high at
    least the smallest normal float (every ratio `rs_variance` logs is then normal).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi_floor = np.maximum(o, c)
        lo_cap = np.minimum(o, c)
        high_short = h < hi_floor
        low_over = l > lo_cap
        checks = [~(np.isfinite(p) & (p > 0.0)) for p in (o, h, l, c)]
        checks.append(high_short & ~(hi_floor - h <= OHLC_REL_TOL * hi_floor))
        checks.append(low_over & ~(l - lo_cap <= OHLC_REL_TOL * lo_cap))
        high, low = np.where(high_short, hi_floor, h), np.where(low_over, lo_cap, l)
        checks.append(~(low / high >= sys.float_info.min))
    bad = np.logical_or.reduce(checks)
    if bad.any():
        i = int(bad.argmax())
        k = next(k for k, failed in enumerate(checks) if failed[i])
        if k < 4:
            p = float((o, h, l, c)[k][i])
            raise DataError(f"{PRICE_FIELDS[k]} price must be finite and positive, got {p!r}",
                            dates[i])
        why = (f"high {float(h[i])} below max(open, close) {float(hi_floor[i])}",
               f"low {float(l[i])} above min(open, close) {float(lo_cap[i])}",
               f"low {float(low[i])} / high {float(high[i])} below {sys.float_info.min}")
        raise DataError(why[k - 4], dates[i])
    return high, low


def rs_variance(o, h, l, c) -> np.ndarray:
    """Drift-robust realized variance per bar of checked columns,
    z = log(H/C) log(H/O) + log(L/C) log(L/O), with libm logs."""
    h_c, h_o, l_c, l_o = _each(math.log, np.concatenate((h / c, h / o, l / c, l / o))
                               ).reshape(4, o.size)
    # each summand is a product of same-sign logs; clamp float residue
    return np.maximum(h_c * h_o + l_c * l_o, 0.0)


def validate_bar(bar: OhlcBar) -> OhlcBar:
    """`clamp_ohlc` on one bar: the bar itself when it passes unchanged, a
    clamped copy when a violation is within `OHLC_REL_TOL`."""
    dates, o, h, l, c = bar_columns([bar])
    high, low = clamp_ohlc(dates, o, h, l, c)
    if high[0] == h[0] and low[0] == l[0]:
        return bar
    return dataclasses.replace(bar, high=float(high[0]), low=float(low[0]))


def rogers_satchell(bar: OhlcBar) -> float:
    """`rs_variance` of one bar, checked (and clamped) first."""
    dates, o, h, l, c = bar_columns([bar])
    h, l = clamp_ohlc(dates, o, h, l, c)
    return float(rs_variance(o, h, l, c)[0])
