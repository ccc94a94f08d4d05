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

import contextlib
import dataclasses
import datetime as dt
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .dlm_core import HyperParams, ModelClass, PriorMoments
from .errors import ConfigError, DataError, DomainError, NumericalError, RvdlmError
from .ingestion import CsvSchema, apply_split, read_ohlc, series_from_ohlc, write_columns_csv
from .kernel import FilterTrajectory, dof_sequences, run_filter
from .rv_measures import DEFAULT_RV_FLOOR
from .scoring import log_score_z_path, running_log_bayes_factor
from .special import _each, inv_reg_lower_gamma_lanes, student_t_quantile_lanes

DEFAULT_HYPERPARAMS = {
    ModelClass.SVDLM: HyperParams(0.999, 0.925, 0.0),
    ModelClass.RVDLM: HyperParams(0.999, 0.875, 2.75),
    ModelClass.RVLDLM: HyperParams(0.999, 0.875, 2.75),
}
DEFAULT_PRIOR = {"intercept": (0.0, 0.10), "ar1": (1.0, 0.01),
                 "rv_now": (0.0, 0.05), "rv_lag": (0.0, 0.05)}


def _check_name(what: str, name: str, banned=()) -> None:
    """Tickers and model names become parts of output file names, where `__`
    separates the parts and `_over_` the two models of a Bayes-factor file;
    a name may not hold a separator or anything that leaves `out_dir`."""
    if not name:
        raise ConfigError(f"{what} must be non-empty")
    for part in ("/", "\\", "\0", "..", "__", *banned):
        if part in name:
            raise ConfigError(f"{what} {name!r} must not contain {part!r}")


def _check_output_names(tickers: list, names: list) -> None:
    """The tickers and model names of a run, as `filter` takes them from its
    config and `score` from a summary: each a legal name, neither list with a
    repeat, and no two output files of the run with one name."""
    for ticker in tickers:
        _check_name("series ticker", ticker)
    for name in names:
        _check_name("model name", name, banned=("_over_",))
    if len(set(names)) != len(names):
        raise ConfigError(f"model names must be unique, got {names}")
    if len(set(tickers)) != len(tickers):
        raise ConfigError(f"series tickers must be unique, got {tickers}")
    # names joined into file names can still meet: ('A_', 'm') and ('A', '_m')
    seen = set()
    for f in _output_files(tickers, names):
        if f in seen:
            raise ConfigError(f"output file name {f!r} would be written twice; "
                              f"rename a series ticker or model")
        seen.add(f)


def _output_files(tickers: list, names: list) -> list[str]:
    """The names of the files a run writes into its out_dir: a trajectory
    per series and model, a Bayes-factor file per series and model pair, and
    summary.json."""
    return ([_trajectory_file(t, m) for t in tickers for m in names]
            + [_bf_file(t, hi, lo) for t in tickers for hi, lo in _model_pairs(names)]
            + ["summary.json"])


def _existing(path: str) -> str:
    """The absolute `path`, or its nearest existing ancestor."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    return head


@dataclass(frozen=True)
class SeriesSpec:
    ticker: str
    path: str
    s1: float

    def __post_init__(self):
        if not (math.isfinite(self.s1) and self.s1 > 0.0):
            raise ConfigError(f"series {self.ticker!r}: s1 must be finite and positive, "
                              f"got {self.s1!r}")


@dataclass(frozen=True)
class ModelSpec:
    """One configured model. A prior field left as None takes its default:
    per coefficient name, `DEFAULT_PRIOR` holds its a1 and r1_diag entries;
    n*_1 = beta. Given values are kept as given, so the summary echoes them."""

    name: str
    variant: ModelClass
    hp: HyperParams
    a1: tuple = None
    r1_diag: tuple = None
    n_star_1: float = None

    def __post_init__(self):
        d = self.variant.dim
        a1, r1_diag = zip(*map(DEFAULT_PRIOR.get, self.variant.coefficient_names))
        for key, default in (("a1", a1), ("r1_diag", r1_diag), ("n_star_1", self.hp.beta)):
            if getattr(self, key) is None:
                object.__setattr__(self, key, default)
        for key, vec, rule, ok in (
                ("a1", self.a1, "finite", np.isfinite),
                ("r1_diag", self.r1_diag, "finite and >= 0",
                 lambda v: np.isfinite(v) & (v >= 0.0))):
            v = np.asarray(vec, dtype=float)
            if v.shape != (d,):
                raise ConfigError(f"model {self.name!r}: {key} must have length {d}, "
                                  f"got {list(vec)}")
            if not ok(v).all():
                raise ConfigError(f"model {self.name!r}: {key} entries must be {rule}, "
                                  f"got {list(vec)}")
        n1 = self.n_star_1
        if not (math.isfinite(n1) and n1 > 0.0):
            raise ConfigError(f"model {self.name!r}: n_star_1 must be finite and positive, "
                              f"got {n1!r}")

    def initial_prior(self, s1: float) -> PriorMoments:
        return PriorMoments(np.array(self.a1, dtype=float),
                            np.diag(np.array(self.r1_diag, dtype=float) / self.hp.delta),
                            self.n_star_1, s1)


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
        _check_output_names([s.ticker for s in self.series], [m.name for m in self.models])
        if not (math.isfinite(self.floor_eps) and self.floor_eps > 0.0):
            raise ConfigError(f"floor_eps must be finite and positive, got {self.floor_eps!r}")
        if not self.out_dir:
            raise ConfigError("out_dir must be non-empty")
        head = _existing(self.out_dir)
        if not os.path.isdir(head):
            raise ConfigError(f"out_dir {self.out_dir!r}: {head} is not a directory")
        for s in self.series:
            if not os.path.exists(s.path):
                raise ConfigError(f"series {s.ticker!r}: file not found: {s.path}")
            self.refuse_output(s.path, f"series {s.ticker!r}: path")

    def refuse_output(self, path: str, what: str) -> None:
        """A ConfigError naming `what` if `path` is a file this run writes,
        which the run would replace."""
        files = _output_files([s.ticker for s in self.series], [m.name for m in self.models])
        if os.path.realpath(path) in {os.path.realpath(os.path.join(self.out_dir, f))
                                      for f in files}:
            raise ConfigError(f"{what} {path} is an output file of this run "
                              f"(out_dir {self.out_dir!r}), which would replace it")


def json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {type(value).__name__}")
    return float(value)


def _json_numbers(value) -> tuple:
    """A JSON array of JSON numbers, kept as given (the summary echoes it)."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    for v in value:
        json_number(v)
    return tuple(value)


def _json_integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {type(value).__name__}")
    return value


def json_string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a JSON string, got {type(value).__name__}")
    return value


def _json_objects(value) -> list:
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise TypeError("expected a JSON array of objects")
    return value


def _json_variant(value) -> ModelClass:
    try:
        return ModelClass(json_string(value).lower())
    except ValueError:
        raise ValueError(f"expected one of {[m.value for m in ModelClass]}") from None


def load_json(path, what: str):
    """The JSON document in `path`; a ConfigError naming `what` if unreadable,
    not UTF-8 or not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


REQUIRED = object()  # the default of a key that must be given


def read_object(raw, table: dict, owner: str) -> dict:
    """{key: convert(raw[key]), or the default if absent} for each row
    `key: (convert, default)` of `table`; a REQUIRED key must be given. An
    unknown or missing key, or a value `convert` rejects, is a ConfigError
    naming `owner` and the key (a misspelled key would keep its default)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{owner} must be a JSON object")
    unknown = [k for k in raw if k not in table]
    if unknown:
        raise ConfigError(f"{owner}: unknown key {unknown[0]!r} "
                          f"(known keys: {', '.join(table)})")
    out = {}
    for key, (convert, default) in table.items():
        if key not in raw and default is REQUIRED:
            raise ConfigError(f"{owner}: missing key {key!r}")
        try:
            out[key] = convert(raw[key]) if key in raw else default
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{owner}: {key}: invalid value {raw[key]!r} ({exc})") from exc
    return out


# One table per JSON object of the config; the keys are the fields of the
# spec each object builds. README's "Config schema" documents every key.
SERIES_KEYS = {"ticker": (json_string, REQUIRED), "path": (json_string, REQUIRED),
               "s1": (json_number, REQUIRED)}
MODEL_KEYS = {  # None: the variant's name, DEFAULT_HYPERPARAMS or default prior
    "name": (json_string, None), "variant": (_json_variant, REQUIRED),
    "delta": (json_number, None), "beta": (json_number, None), "alpha": (json_number, None),
    "a1": (_json_numbers, None), "r1_diag": (_json_numbers, None),
    "n_star_1": (json_number, None),
}
SCHEMA_KEYS = {f.name: (json_string, f.default) for f in dataclasses.fields(CsvSchema)}
CONFIG_KEYS = {
    "series": (lambda v: tuple(map(_read_series, _json_objects(v))), REQUIRED),
    "models": (lambda v: tuple(map(_read_model, _json_objects(v))), REQUIRED),
    "train_end": (dt.date.fromisoformat, REQUIRED),  # a str only: TypeError otherwise
    "eval_start": (dt.date.fromisoformat, REQUIRED),
    "out_dir": (json_string, "out"),
    "seed": (_json_integer, 0),
    "floor_eps": (json_number, DEFAULT_RV_FLOOR),
    "schema": (lambda v: CsvSchema(**read_object(v, SCHEMA_KEYS, "schema")), CsvSchema()),
}


def _read_series(entry: dict) -> SeriesSpec:
    return SeriesSpec(**read_object(entry, SERIES_KEYS, f"series {entry.get('ticker', entry)!r}"))


def _read_model(entry: dict) -> ModelSpec:
    # until its name is known, a model is named by its variant (the default name)
    label = next((v for v in (entry.get("name"), entry.get("variant")) if isinstance(v, str)),
                 entry)
    owner = f"model {label!r}"
    spec = read_object(entry, MODEL_KEYS, owner)
    variant = spec.pop("variant")
    if spec["name"] is None:
        spec["name"] = variant.value
    given = {f.name: spec.pop(f.name) for f in dataclasses.fields(HyperParams)}
    try:
        hp = dataclasses.replace(DEFAULT_HYPERPARAMS[variant],
                                 **{k: v for k, v in given.items() if v is not None})
    except DomainError as exc:
        raise ConfigError(f"{owner}: {exc}") from exc
    if variant.uses_rv and hp.alpha <= 0.0:
        raise ConfigError(f"{owner}: {variant.value} requires alpha > 0")
    if not variant.uses_rv and hp.alpha != 0.0:  # it would be echoed, yet change nothing
        raise ConfigError(f"{owner}: alpha must be 0 for {variant.value}, which observes "
                          f"no realized variance, got {hp.alpha!r}")
    return ModelSpec(variant=variant, hp=hp, **spec)


def load_config(path_or_dict) -> RunConfig:
    """Build a validated RunConfig from a JSON file path or a dict."""
    raw = path_or_dict if isinstance(path_or_dict, dict) else load_json(path_or_dict, "config")
    return RunConfig(**read_object(raw, CONFIG_KEYS, "config"))


def _fill_quantiles(quantiles: dict, dofs) -> None:
    """Add to `quantiles` every distinct dof of `dofs` not yet in it: dof ->
    (gamma 0.50, 0.95, 0.05 quantiles of G(n/2, n/2), t 0.95 quantile).
    One lane-parallel solve per law covers all the new dofs: the gamma's
    three levels are a column broadcast against the dofs."""
    new = [n for n in np.unique(dofs).tolist() if n not in quantiles]
    if not new:
        return
    n = np.array(new)
    half = 0.5 * n
    # the gamma_quantile of G(n/2, n/2): the unit-rate quantile over the rate
    levels = [[0.50], [0.95], [0.05]]
    g_med, g_hi, g_lo = inv_reg_lower_gamma_lanes(half, levels).reshape(3, -1) / half
    tmult = student_t_quantile_lanes(0.95, n)
    quantiles.update(zip(new, zip(g_med.tolist(), g_hi.tolist(), g_lo.tolist(), tmult.tolist())))


def _trajectory_columns(iso_dates, scored, mspec: ModelSpec, traj: FilterTrajectory,
                        quantiles: dict):
    """Header and whole-series columns of one `{ticker}__{model}.csv`, plus
    the realized-variance log scores (None for the price-only model).
    `iso_dates`, a numpy bytes array, is the one text column; every other
    column, the 0.0/1.0 `scored` flag included, is a float64 array, so
    `write_columns_csv` formats each block of rows in one float run.

    `quantiles` maps dof -> multipliers; `_run_into` fills it for all models
    of the series at once, so the fill here solves only if that one failed.
    """
    dofs, day = np.unique(traj.n, return_inverse=True)
    dofs = dofs.tolist()
    _fill_quantiles(quantiles, dofs)
    g_med, g_hi, g_lo, tmult = np.array([quantiles[n] for n in dofs])[day].T
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
    names = mspec.variant.coefficient_names
    for i, c in enumerate(names):
        header += [f"coef_{c}_med", f"coef_{c}_lo05", f"coef_{c}_hi95"]
        med = traj.m[:, i]
        cols += [med, med - half[:, i], med + half[:, i]]
    if "rv_now" in names:
        now = traj.m[:, names.index("rv_now")] * traj.x
        header += ["price_effect_med", "net_rv_med"]
        cols += [_each(math.exp, now), now + traj.m[:, names.index("rv_lag")] * traj.x_prev]
    z_scores = None
    if mspec.variant.uses_rv:
        z_scores = log_score_z_path(traj)
        header.append("log_score_z_nats")
        cols.append(z_scores)
    return header, cols, z_scores


def _trajectory_file(ticker: str, model: str) -> str:
    return f"{ticker}__{model}.csv"


def _bf_file(ticker: str, hi: str, lo: str) -> str:
    return f"{ticker}__BF__{hi}_over_{lo}.csv"


def _model_pairs(names: list) -> list[tuple[str, str]]:
    """(hi, lo) for every model pair, in config order: each later model over
    each earlier one."""
    return [(hi, lo) for i, lo in enumerate(names) for hi in names[i + 1:]]


def _write_bayes_factors(out_dir: str, ticker: str, scores: dict) -> dict:
    """Write `{ticker}__BF__{hi}_over_{lo}.csv` for every model pair, in
    config order, from per-model (ISO date texts, score increments) over the
    scored window: numpy bytes from the filter pass, or a list of `str` from
    `_scored_increments`, encoded once for all pairs. Returns {pair name:
    (path, final cumulative log BF)}."""
    out, dates = {}, None
    for hi, lo in _model_pairs(list(scores)):
        (hi_dates, hi_inc), (lo_dates, lo_inc) = scores[hi], scores[lo]
        if len(hi_dates) != len(lo_dates) or np.any(hi_dates != lo_dates):
            raise DataError(f"{ticker}: scored dates differ between {hi!r} and {lo!r}")
        if dates is None:  # every pair's dates are these
            dates = hi_dates if isinstance(hi_dates, np.ndarray) else \
                np.array(list(map(str.encode, hi_dates)), "S")
        bf = running_log_bayes_factor(hi_inc, lo_inc)
        path = os.path.join(out_dir, _bf_file(ticker, hi, lo))
        write_columns_csv(path, ["date_iso", "cum_log_bf_nats"], [dates, bf])
        out[f"{hi}_over_{lo}"] = (path, float(bf[-1]) if bf.size else 0.0)
    return out


@contextlib.contextmanager
def _staged(out_dir: str):
    """Yield a temporary directory beside `out_dir`, or in its nearest
    existing ancestor. On success `out_dir` and its missing parents are made
    and every file is moved into it (summary.json last); the temporary
    directory is removed either way, so a failed run leaves nothing."""
    parent = _existing(os.path.dirname(os.path.abspath(out_dir)))
    stage = tempfile.mkdtemp(prefix=".rvdlm-", dir=parent)
    try:
        yield stage
        os.makedirs(out_dir, exist_ok=True)
        for name in sorted(os.listdir(stage), key=lambda n: n == "summary.json"):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def run_filter_pipeline(config: RunConfig) -> dict:
    """Run every (series, model) pair and write all output files.

    Returns the summary dict (also written as summary.json). Deterministic:
    identical config and inputs yield byte-identical outputs. All or
    nothing: the files reach `out_dir` only once every pair has run.
    """
    with _staged(config.out_dir) as stage:
        return _run_into(config, stage)


def _run_into(config: RunConfig, out_dir: str) -> dict:
    quantiles = {}  # dof -> quantile multipliers, see _trajectory_columns
    summary = {
        "config": _echo_config(config),
        "seed": config.seed,
        "series": {},
    }
    for sspec in config.series:
        try:
            frame = series_from_ohlc(*read_ohlc(sspec.path, config.schema), config.floor_eps,
                                     ticker=sspec.ticker)
            frame = apply_split(frame, config.train_end, config.eval_start)
        except RvdlmError as exc:
            raise exc.within(f"series {sspec.ticker!r} [ingestion]") from exc
        entry = {
            "days_modeled": len(frame),
            "days_train": frame.n_train,
            "days_eval": frame.n_eval,
            "first_date": frame.dates[0].isoformat(),
            "last_date": frame.dates[-1].isoformat(),
            "models": {},
            "log_bayes_factors": {},
        }
        # the scored window is the suffix from first_eval: its dates and score increments
        first = frame.first_eval
        iso_dates = np.array([d.isoformat() for d in frame.dates], dtype="S")
        scored = (np.arange(len(frame)) >= first).astype(np.float64)
        scores = {}
        with contextlib.suppress(RvdlmError):  # raised again below, naming its model
            _fill_quantiles(quantiles, np.concatenate([  # dof paths are data-free
                dof_sequences(m.hp, m.n_star_1, len(frame), m.variant.uses_rv)[2]
                for m in config.models]))
        for mspec in config.models:
            try:
                traj = run_filter(mspec.variant, mspec.hp, mspec.initial_prior(sspec.s1),
                                  frame.y, frame.z, frame.x, frame.y_prev, frame.x_prev,
                                  dates=frame.dates)
                header, cols, z_scores = _trajectory_columns(iso_dates, scored, mspec, traj,
                                                             quantiles)
            except RvdlmError as exc:
                err, floored = exc, int(np.count_nonzero(frame.z == config.floor_eps))
                if isinstance(exc, NumericalError) and floored:  # a floor may swamp the data
                    err = type(exc)(f"{exc.args[0]} ({floored} of {len(frame)} realized variances"
                                    f" floored at floor_eps={config.floor_eps!r})", exc.date)
                raise err.within(f"series {sspec.ticker!r} model {mspec.name!r} [filter]") from exc
            increments = traj.log_density[first:]
            scores[mspec.name] = (iso_dates[first:], increments)
            write_columns_csv(os.path.join(out_dir, _trajectory_file(sspec.ticker, mspec.name)),
                              header, cols)
            running = np.cumsum(increments)  # adds in order, like a running total
            model_entry = {
                "cumulative_log_score": float(running[-1]) if running.size else 0.0,
                "scored_days": frame.n_eval,
                "final_n": float(traj.n[-1]),
                "final_s": float(traj.s[-1]),
            }
            if z_scores is not None:
                # diagnostic second tally on the realized-variance margin
                model_entry["cumulative_log_score_z"] = float(z_scores[first:].sum())
            entry["models"][mspec.name] = model_entry
        for name, (_, total) in _write_bayes_factors(out_dir, sspec.ticker, scores).items():
            entry["log_bayes_factors"][name] = total
        summary["series"][sspec.ticker] = entry
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _echo_config(config: RunConfig) -> dict:
    """The config with its defaults filled in, in its JSON form, less `seed`
    (the summary holds it beside the echo) and `schema`."""
    echo = dataclasses.asdict(config)
    del echo["seed"], echo["schema"]
    echo.update(train_end=config.train_end.isoformat(), eval_start=config.eval_start.isoformat())
    for m in echo["models"]:
        m.update(m.pop("hp"), variant=m["variant"].value)
    return echo


def recompute_bayes_factors(run_dir: str) -> list[str]:
    """Rebuild the pairwise log-BF trajectory files from the per-day score
    increments already emitted in `run_dir` (the `score` subcommand).

    All or nothing: every trajectory is read before any file is written,
    and the files reach `run_dir` through `_staged`. Returns their paths
    in `run_dir`."""
    summary_path = os.path.join(run_dir, "summary.json")
    summary = load_json(summary_path, "run summary")
    try:
        model_names = [json_string(m["name"]) for m in _json_objects(summary["config"]["models"])]
        if not isinstance(summary["series"], dict):
            raise TypeError(f"series is a {type(summary['series']).__name__}, not an object")
        tickers = list(summary["series"])  # the keys of a JSON object are strings
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"run summary {summary_path} must hold config.models, a list of "
                          f"named models, and series, an object ({type(exc).__name__}: "
                          f"{exc})") from exc
    try:
        _check_output_names(tickers, model_names)
    except ConfigError as exc:
        raise ConfigError(f"run summary {summary_path}: {exc}") from exc
    scores = {ticker: {name: _scored_increments(os.path.join(run_dir,
                                                             _trajectory_file(ticker, name)))
                       for name in model_names} for ticker in tickers}
    written = []
    with _staged(run_dir) as stage:
        for ticker, by_model in scores.items():
            written += [os.path.join(run_dir, os.path.basename(path)) for path, _ in
                        _write_bayes_factors(stage, ticker, by_model).values()]
    return written


def _scored_increments(path: str) -> tuple[list, list]:
    """(dates, log score increments) of the scored rows of one trajectory
    CSV. Only the leading fields up to the last of the three columns used
    are split off each line: `write_columns_csv` never quotes."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        with fh:
            idx = {h: k for k, h in enumerate(fh.readline().rstrip("\r\n").split(","))}
            for col in ("date_iso", "log_score_nats", "scored"):
                if col not in idx:
                    raise DataError(f"{path}: missing column {col!r}")
            i_date, i_score, i_flag = idx["date_iso"], idx["log_score_nats"], idx["scored"]
            last = max(i_date, i_score, i_flag)
            dates, increments = [], []
            for line_no, line in enumerate(fh, start=2):
                fields = line.rstrip("\r\n").split(",", last + 1)
                if len(fields) <= last:
                    if not line.strip():
                        continue
                    raise DataError(f"{path}:{line_no}: row has {len(fields)} fields, "
                                    f"expected at least {last + 1}")
                flag = fields[i_flag]
                if flag == "1":
                    try:
                        score = float(fields[i_score])
                    except ValueError:
                        score = math.nan
                    if not math.isfinite(score):
                        raise DataError(f"{path}:{line_no}: log score must be a finite number, "
                                        f"got {fields[i_score]!r}")
                    increments.append(score)
                    dates.append(fields[i_date])
                elif flag != "0":
                    raise DataError(f"{path}:{line_no}: scored flag must be 0 or 1, got {flag!r}")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    return dates, increments
