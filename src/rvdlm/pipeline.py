"""Configuration-driven pipeline: filter every (series, model) pair, emit
per-day trajectory CSVs, pairwise log-Bayes-factor trajectories, and a run
summary JSON.

Config is a JSON document; see README for the schema. Baked-in defaults
follow the standard specification: the SV variant uses (delta, beta) =
(0.999, 0.925), the RV variants (delta, beta, alpha) = (0.999, 0.875, 2.75),
initial state mean (0, 1, 0[, 0]) with prior scale diag(0.10, 0.01, 0.05
[, 0.05])/delta, and initial volatility degrees of freedom n* = beta. The
per-series initial volatility scale s1 has no universal default and must be
supplied.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dlm_core import HyperParams, ModelClass, PriorMoments
from .distributions import GammaParams, gamma_quantile
from .errors import ConfigError, DataError, RvdlmError
from .ingestion import CsvSchema, SeriesFrame, apply_split, build_series, parse_csv
from .kernel import FilterTrajectory, run_filter
from .rv_measures import DEFAULT_RV_FLOOR
from .scoring import ScoreLedger, log_score_z_path
from .special import student_t_quantile

_FMT = "%.17g"

DEFAULT_HYPERPARAMS = {
    ModelClass.SVDLM: HyperParams(0.999, 0.925, 0.0),
    ModelClass.RVDLM: HyperParams(0.999, 0.875, 2.75),
    ModelClass.RVLDLM: HyperParams(0.999, 0.875, 2.75),
}
DEFAULT_A1 = {3: (0.0, 1.0, 0.0), 4: (0.0, 1.0, 0.0, 0.0)}
DEFAULT_R1_DIAG = {3: (0.10, 0.01, 0.05), 4: (0.10, 0.01, 0.05, 0.05)}


@dataclass(frozen=True)
class SeriesSpec:
    ticker: str
    path: str
    s1: float

    def __post_init__(self):
        if not self.s1 > 0.0:
            raise ConfigError(f"series {self.ticker!r}: s1 must be positive, got {self.s1!r}")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    variant: ModelClass
    hp: HyperParams
    a1: tuple = None
    r1_diag: tuple = None
    n_star_1: float = None

    def initial_prior(self, s1: float) -> PriorMoments:
        d = self.variant.dim
        a = np.array(self.a1 if self.a1 is not None else DEFAULT_A1[d], dtype=float)
        diag = np.array(self.r1_diag if self.r1_diag is not None else DEFAULT_R1_DIAG[d],
                        dtype=float)
        if a.size != d or diag.size != d:
            raise ConfigError(f"model {self.name!r}: prior vectors must have length {d}")
        n1 = self.n_star_1 if self.n_star_1 is not None else self.hp.beta
        return PriorMoments(a, np.diag(diag / self.hp.delta), n1, s1)


@dataclass(frozen=True)
class RunConfig:
    series: tuple[SeriesSpec, ...]
    models: tuple[ModelSpec, ...]
    train_end: dt.date
    eval_start: dt.date
    out_dir: str
    seed: int = 0
    floor_eps: float = DEFAULT_RV_FLOOR
    schema: CsvSchema = field(default_factory=CsvSchema)

    def __post_init__(self):
        if not self.series:
            raise ConfigError("config lists no series")
        if not self.models:
            raise ConfigError("config lists no models")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ConfigError(f"model names must be unique, got {names}")
        if not self.floor_eps > 0.0:
            raise ConfigError(f"floor_eps must be positive, got {self.floor_eps!r}")
        for s in self.series:
            if not os.path.exists(s.path):
                raise ConfigError(f"series {s.ticker!r}: file not found: {s.path}")


def _parse_date(text, what: str) -> dt.date:
    try:
        return dt.date.fromisoformat(str(text))
    except ValueError as exc:
        raise ConfigError(f"{what}: invalid ISO date {text!r}") from exc


def _model_from_dict(entry: dict) -> ModelSpec:
    try:
        variant = ModelClass(str(entry["variant"]).lower())
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"model entry {entry!r}: unknown or missing variant "
                          f"(expected one of {[m.value for m in ModelClass]})") from exc
    base = DEFAULT_HYPERPARAMS[variant]
    hp = HyperParams(float(entry.get("delta", base.delta)),
                     float(entry.get("beta", base.beta)),
                     float(entry.get("alpha", base.alpha)))
    if variant.uses_rv and hp.alpha <= 0.0:
        raise ConfigError(f"model {entry.get('name', variant.value)!r}: "
                          f"{variant.value} requires alpha > 0")
    return ModelSpec(
        name=str(entry.get("name", variant.value)),
        variant=variant,
        hp=hp,
        a1=tuple(entry["a1"]) if "a1" in entry else None,
        r1_diag=tuple(entry["r1_diag"]) if "r1_diag" in entry else None,
        n_star_1=float(entry["n_star_1"]) if "n_star_1" in entry else None,
    )


def load_config(path_or_dict, out_dir_override=None, seed_override=None) -> RunConfig:
    """Build a validated RunConfig from a JSON file path or a dict."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path_or_dict}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path_or_dict} is not valid JSON: {exc}") from exc
    try:
        series = tuple(SeriesSpec(str(e["ticker"]), str(e["path"]), float(e["s1"]))
                       for e in raw["series"])
        models = tuple(_model_from_dict(e) for e in raw["models"])
        train_end = _parse_date(raw["train_end"], "train_end")
        eval_start = _parse_date(raw["eval_start"], "eval_start")
        out_dir = str(out_dir_override or raw.get("out_dir", "out"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, RvdlmError):
            raise
        raise ConfigError(f"malformed config: {exc}") from exc
    schema = CsvSchema(**raw["schema"]) if "schema" in raw else CsvSchema()
    return RunConfig(
        series=series, models=models, train_end=train_end, eval_start=eval_start,
        out_dir=out_dir,
        seed=int(seed_override if seed_override is not None else raw.get("seed", 0)),
        floor_eps=float(raw.get("floor_eps", DEFAULT_RV_FLOOR)),
        schema=schema,
    )


def _trajectory_columns(iso_dates, scored, mspec: ModelSpec, traj: FilterTrajectory,
                        quantiles: dict):
    """Header and whole-series columns of one `{ticker}__{model}.csv`, plus
    the realized-variance log scores (None for the price-only model).

    The dof path is data-independent and converges, so the quantile
    multipliers are solved once per distinct dof and memoised in `quantiles`:
    dof -> (gamma 0.50, 0.95, 0.05 quantiles of G(n/2, n/2), t 0.95 quantile).
    """
    dofs, day = np.unique(traj.n, return_inverse=True)
    for n in dofs.tolist():
        if n not in quantiles:
            g = GammaParams(0.5 * n, 0.5 * n)
            quantiles[n] = (gamma_quantile(0.50, g), gamma_quantile(0.95, g),
                            gamma_quantile(0.05, g), student_t_quantile(0.95, n))
    g_med, g_hi, g_lo, tmult = np.array([quantiles[n] for n in dofs.tolist()])[day].T
    s = traj.s
    header = ["date_iso", "y_log_price", "z_realized_var", "x_realized_sd",
              "forecast_log_price", "forecast_scale_var", "forecast_error",
              "log_score_nats", "scored", "dof_n", "vol_scale_s_var",
              "sd_daily_med", "sd_daily_lo05", "sd_daily_hi95"]
    # quantiles of phi ~ G(n/2, n s/2) are g(n)/s; sqrt(v) = 1/sqrt(phi) flips them
    cols = [iso_dates, traj.y, traj.z, traj.x, traj.forecast, traj.scale, traj.error,
            traj.log_density, scored, traj.n, s,
            1.0 / np.sqrt(g_med / s), 1.0 / np.sqrt(g_hi / s), 1.0 / np.sqrt(g_lo / s)]
    half = tmult[:, None] * np.sqrt(np.maximum(np.diagonal(traj.C, axis1=1, axis2=2), 0.0))
    for i, c in enumerate(mspec.variant.coefficient_names):
        header += [f"coef_{c}_med", f"coef_{c}_lo05", f"coef_{c}_hi95"]
        med = traj.m[:, i]
        cols += [med, med - half[:, i], med + half[:, i]]
    if mspec.variant is ModelClass.RVLDLM:
        now = traj.m[:, 2] * traj.x
        header += ["price_effect_med", "net_rv_med"]
        # math.exp per day: np.exp may differ from libm in the last ulp
        cols += [np.array([math.exp(v) for v in now.tolist()]), now + traj.m[:, 3] * traj.x_prev]
    z_scores = None
    if mspec.variant.uses_rv:
        z_scores = log_score_z_path(traj)
        header.append("log_score_z_nats")
        cols.append(z_scores)
    return header, cols, z_scores


def _write_csv(path, header, columns):
    """Write one row per day; numpy columns as %.17g, other columns as str."""
    line = ",".join(_FMT if isinstance(c, np.ndarray) else "%s" for c in columns) + "\n"
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*columns))


def _write_bayes_factors(out_dir: str, ticker: str, scores: dict) -> dict:
    """Write `{ticker}__BF__{hi}_over_{lo}.csv` for every model pair, in
    config order, from per-model (dates, score increments) over the scored
    window; dates are written as `str(date)`, the ISO form. Returns
    {pair name: (path, final cumulative log BF)}."""
    names = list(scores)
    out = {}
    for i, lo in enumerate(names):
        for hi in names[i + 1:]:
            (dates, hi_inc), (lo_dates, lo_inc) = scores[hi], scores[lo]
            if dates != lo_dates:
                raise DataError(f"{ticker}: scored dates differ between {hi!r} and {lo!r}")
            # cumsum accumulates in order (no pairwise summation): exact running sums
            bf = np.cumsum(np.subtract(hi_inc, lo_inc))
            name = f"{hi}_over_{lo}"
            path = os.path.join(out_dir, f"{ticker}__BF__{name}.csv")
            _write_csv(path, ["date_iso", "cum_log_bf_nats"], [dates, bf])
            out[name] = (path, float(bf[-1]) if bf.size else 0.0)
    return out


def run_series_model(frame: SeriesFrame, mspec: ModelSpec, s1: float):
    """Filter one series under one model and build its score ledger."""
    init = mspec.initial_prior(s1)
    traj = run_filter(mspec.variant, mspec.hp, init,
                      frame.y, frame.z, frame.x, frame.y_prev, frame.x_prev,
                      dates=frame.dates)
    ledger = ScoreLedger(mspec.name, window_start=frame.eval_start)
    for date, lp in zip(frame.dates, traj.log_density.tolist()):
        ledger.record(date, lp)
    ledger.check_consistency()
    return traj, ledger


def run_filter_pipeline(config: RunConfig) -> dict:
    """Run every (series, model) pair and write all output files.

    Returns the summary dict (also written as summary.json). Deterministic:
    identical config and inputs yield byte-identical outputs.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    quantiles = {}  # dof -> quantile multipliers, see _trajectory_columns
    summary = {
        "config": _echo_config(config),
        "seed": config.seed,
        "series": {},
    }
    for sspec in config.series:
        try:
            bars = parse_csv(sspec.path, config.schema)
            frame = build_series(bars, config.floor_eps, ticker=sspec.ticker)
            frame = apply_split(frame, config.train_end, config.eval_start)
        except RvdlmError as exc:
            raise type(exc)(f"series {sspec.ticker!r} [ingestion]: {exc}") from exc
        entry = {
            "days_modeled": len(frame),
            "days_train": frame.n_train,
            "days_eval": frame.n_eval,
            "first_date": frame.dates[0].isoformat(),
            "last_date": frame.dates[-1].isoformat(),
            "models": {},
            "log_bayes_factors": {},
        }
        first = frame.first_eval
        iso_dates = [d.isoformat() for d in frame.dates]
        scored = ["0"] * first + ["1"] * (len(frame) - first)
        scores = {}
        for mspec in config.models:
            try:
                traj, ledger = run_series_model(frame, mspec, sspec.s1)
            except RvdlmError as exc:
                raise type(exc)(
                    f"series {sspec.ticker!r} model {mspec.name!r} [filter]: {exc}") from exc
            scores[mspec.name] = (ledger.dates, ledger.increments)
            header, cols, z_scores = _trajectory_columns(iso_dates, scored, mspec, traj,
                                                         quantiles)
            _write_csv(os.path.join(config.out_dir, f"{sspec.ticker}__{mspec.name}.csv"),
                       header, cols)
            model_entry = {
                "cumulative_log_score": ledger.cumulative,
                "scored_days": len(ledger),
                "final_n": float(traj.n[-1]),
                "final_s": float(traj.s[-1]),
            }
            if z_scores is not None:
                # diagnostic second tally on the realized-variance margin
                model_entry["cumulative_log_score_z"] = float(z_scores[first:].sum())
            entry["models"][mspec.name] = model_entry
        for name, (_, total) in _write_bayes_factors(config.out_dir, sspec.ticker,
                                                     scores).items():
            entry["log_bayes_factors"][name] = total
        summary["series"][sspec.ticker] = entry
    with open(os.path.join(config.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _echo_config(config: RunConfig) -> dict:
    return {
        "series": [{"ticker": s.ticker, "path": s.path, "s1": s.s1} for s in config.series],
        "models": [{
            "name": m.name, "variant": m.variant.value,
            "delta": m.hp.delta, "beta": m.hp.beta, "alpha": m.hp.alpha,
            "a1": list(m.a1) if m.a1 is not None else list(DEFAULT_A1[m.variant.dim]),
            "r1_diag": list(m.r1_diag) if m.r1_diag is not None
                       else list(DEFAULT_R1_DIAG[m.variant.dim]),
            "n_star_1": m.n_star_1 if m.n_star_1 is not None else m.hp.beta,
        } for m in config.models],
        "train_end": config.train_end.isoformat(),
        "eval_start": config.eval_start.isoformat(),
        "out_dir": config.out_dir,
        "floor_eps": config.floor_eps,
    }


def recompute_bayes_factors(run_dir: str) -> list[str]:
    """Rebuild the pairwise log-BF trajectory files from the per-day score
    increments already emitted in `run_dir` (the `score` subcommand)."""
    from .ingestion import read_csv_rows

    summary_path = os.path.join(run_dir, "summary.json")
    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {summary_path}: {exc}") from exc
    model_names = [m["name"] for m in summary["config"]["models"]]
    written = []
    for ticker in summary["series"]:
        scores = {}
        for name in model_names:
            path = os.path.join(run_dir, f"{ticker}__{name}.csv")
            header, rows = read_csv_rows(path)
            idx = {h: k for k, h in enumerate(header)}
            for col in ("date_iso", "log_score_nats", "scored"):
                if col not in idx:
                    raise DataError(f"{path}: missing column {col!r}")
            scored = [r for r in rows if r[idx["scored"]] == "1"]
            scores[name] = ([r[idx["date_iso"]] for r in scored],
                            [float(r[idx["log_score_nats"]]) for r in scored])
        written += [path for path, _ in
                    _write_bayes_factors(run_dir, ticker, scores).values()]
    return written
