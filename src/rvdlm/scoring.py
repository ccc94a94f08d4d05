"""Cumulative log Bayes factors and the realized-variance score tally.

The pipeline compares models by `running_log_bayes_factor` of their one-step
price log densities over the scored window, which `pipeline._write_bayes_factors`
writes for both `rvdlm filter` and `rvdlm score`. Models are always compared on
the same price realizations: realized variance enters conditioning, never the
scored margin. `ScoreLedger` and `log_bayes_factor_path` are no part of that
path; they stay only for perfbench's replay of it, until ROADMAP item 1.
"""

from __future__ import annotations

import math

import numpy as np

from . import special
from .errors import DomainError, NumericalError
from .kernel import _date
from .special import _each, on_distinct


def log_score_z_path(traj) -> np.ndarray:
    """Per-day log densities of the realized-variance margin under its
    one-step scaled-F predictive, for the models that observe it.

    Model comparison stays on the price margin (the price-only model has no
    realized-variance likelihood); this tally is exposed alongside it for
    diagnostics such as shape-index selection.
    """
    if not traj.variant.uses_rv:
        raise DomainError(f"{traj.variant.value} has no realized-variance likelihood")
    alpha = traj.hp.alpha
    n_star = traj.n_star
    s_prev = np.concatenate([[traj.init.s_prev], traj.s[:-1]])
    x = traj.z / s_prev
    if not (x > 0.0).all():  # math.log(0) raises; the true density is finite
        t = int(np.argmin(x > 0.0))
        raise NumericalError(f"z / s_prev underflows to 0 at step {t}", _date(traj.dates, t))
    const = on_distinct(lambda n: special.log_gamma_array(0.5 * (alpha + n))
                        - special.log_gamma(0.5 * alpha) - special.log_gamma_array(0.5 * n)
                        + 0.5 * alpha * _each(math.log, alpha / n), n_star)
    return (const + (0.5 * alpha - 1.0) * _each(math.log, x)
            - 0.5 * (alpha + n_star) * _each(math.log1p, alpha * x / n_star)
            - _each(math.log, s_prev))


class ScoreLedger:
    """Cumulative log predictive density for one model over one series.

    Increments dated before `window_start` are ignored (warm-up days carry no
    score); each retained increment is kept so trajectories can be emitted
    and the cumulative cross-checked against their sum.
    """

    def __init__(self, model_name: str, window_start=None):
        self.model_name = model_name
        self.window_start = window_start
        self._dates: list = []
        self._increments: list[float] = []
        self._cumulative = 0.0

    def record(self, date, log_density: float) -> bool:
        """Add one day's score; returns False for warm-up days."""
        if not math.isfinite(log_density):
            raise NumericalError(f"non-finite score increment {log_density!r}", date)
        if self.window_start is not None and date < self.window_start:
            return False
        if self._dates and not date > self._dates[-1]:
            raise ValueError(f"scores must arrive in date order; got {date} after {self._dates[-1]}")
        self._dates.append(date)
        self._increments.append(log_density)
        self._cumulative += log_density
        return True

    @property
    def dates(self) -> tuple:
        return tuple(self._dates)

    @property
    def increments(self) -> tuple[float, ...]:
        return tuple(self._increments)

    @property
    def cumulative(self) -> float:
        return self._cumulative

    def check_consistency(self) -> None:
        total = math.fsum(self._increments)
        if abs(total - self._cumulative) > 1e-9 * max(1.0, abs(total)):
            raise NumericalError(
                f"ledger cumulative {self._cumulative} drifted from increment sum {total}")

    def __len__(self) -> int:
        return len(self._dates)


def running_log_bayes_factor(increments_m, increments_m2) -> np.ndarray:
    """Cumulative log BF of the first model over the second after each day,
    from aligned per-day score increments. `np.cumsum` adds in order (no
    pairwise summation), so each entry equals a running `+=` total."""
    return np.cumsum(np.subtract(increments_m, increments_m2))


def log_bayes_factor_path(ledger_m: ScoreLedger, ledger_m2: ScoreLedger):
    """(date, cumulative log BF) trajectory over the shared window."""
    if ledger_m.dates != ledger_m2.dates:
        raise ValueError("ledgers do not cover the same dates")
    bf = running_log_bayes_factor(ledger_m.increments, ledger_m2.increments)
    return list(zip(ledger_m.dates, bf.tolist()))

