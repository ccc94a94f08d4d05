"""Command-line pipeline runner.

Subcommands:
  filter  run the configured filters and emit trajectories/scores
  synth   generate a synthetic OHLC file from the bivariate model
  score   recompute log-Bayes-factor trajectories from emitted increments

Exit codes: 0 success, 2 config error (also an unwritable output), 3 data
error, 4 numerical error. A failed command leaves no file (`pipeline._staged`).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import sys

import numpy as np

from .dlm_core import ModelClass
from .errors import ConfigError, RvdlmError
from .ingestion import write_columns_csv, write_csv
from .pipeline import (CONFIG_KEYS, RunConfig, _staged, as_given, json_number, load_json,
                       read_object, recompute_bayes_factors, run_filter_pipeline)
from .synthetic import SyntheticParams, generate_synthetic, slowly_varying_theta


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvdlm",
        description="Sequential price/realized-volatility filtering, forecasting and scoring.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_filter = sub.add_parser("filter", help="run the filter pipeline from a config file")
    p_filter.add_argument("--config", required=True, help="JSON config path")
    p_filter.add_argument("--out", default=None, help="output directory (overrides config)")
    p_filter.add_argument("--seed", type=int, default=None, help="seed echoed in the summary")

    p_synth = sub.add_parser("synth", help="generate synthetic OHLC data")
    p_synth.add_argument("--model", required=True,
                         choices=[m.value for m in ModelClass])
    p_synth.add_argument("--days", type=int, required=True, help="modeled days T")
    p_synth.add_argument("--params", default=None,
                         help="JSON file with generator settings (see README)")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--truth-out", default=None,
                         help="optional CSV path for the latent truth")
    p_synth.add_argument("--seed", type=int, default=0)

    p_score = sub.add_parser("score", help="recompute BF trajectories from a finished run")
    p_score.add_argument("--run-dir", required=True, help="directory with pipeline outputs")
    return parser


def _cmd_filter(args) -> int:
    fields = read_object(load_json(args.config, "config"), CONFIG_KEYS, "config")
    # --out and --seed win over the config's keys, and are checked with the rest
    fields.update({k: v for k, v in (("out_dir", args.out), ("seed", args.seed)) if v is not None})
    config = RunConfig(**fields)
    config.refuse_output(args.config, "config")
    summary = run_filter_pipeline(config)
    for ticker, entry in summary["series"].items():
        scores = ", ".join(f"{m}={v['cumulative_log_score']:.3f}"
                           for m, v in entry["models"].items())
        print(f"{ticker}: {entry['days_modeled']} days "
              f"({entry['days_train']} train / {entry['days_eval']} eval); {scores}")
    print(f"outputs written to {config.out_dir}")
    return 0


def _json_numeric(value) -> np.ndarray:
    """A JSON number, or a JSON array of them (nested for `theta_path`)."""
    if isinstance(value, list):
        return np.array([_json_numeric(v) for v in value])
    return np.array(json_number(value))


# The numbers are SyntheticParams' float fields, defaults included. README's
# "Synthetic generator params" documents every key.
SYNTH_KEYS = {
    "theta_path": (_json_numeric, None), "theta_base": (_json_numeric, None),
    "theta_amplitude": (_json_numeric, None), "theta_period": (_json_numeric, None),
    **{f.name: (as_given, f.default) for f in dataclasses.fields(SyntheticParams)
       if isinstance(f.default, float)},
}


def _synth_params(args) -> SyntheticParams:
    model = ModelClass(args.model)
    raw = load_json(args.params, "generator params") if args.params else {}
    p = read_object(raw, SYNTH_KEYS, f"generator params {args.params}")
    theta, base, amplitude, period = (p.pop(k) for k in ("theta_path", "theta_base",
                                                         "theta_amplitude", "theta_period"))
    if theta is None:
        if base is None:
            base = ([0.0046, 0.999, -0.5, 0.4] if model is ModelClass.RVLDLM
                    else [0.0046, 0.999, 0.1])
        try:
            theta = slowly_varying_theta(model, args.days, base, amplitude, period)
        except ValueError as exc:
            raise ConfigError(f"theta_base, theta_amplitude or theta_period: {exc}") from exc
    if theta.shape[:1] != (args.days,):
        raise ConfigError(f"theta_path has shape {theta.shape}, --days is {args.days}")
    return SyntheticParams(model=model, theta=theta, **p)


def _cmd_synth(args) -> int:
    # checked before anything is read, generated or written
    if args.days < 2:
        raise ConfigError(f"--days must be at least 2, got {args.days}")
    if args.seed < 0:  # np.random.default_rng takes no negative seed
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    outputs = [(flag, path) for flag, path in (("--out", args.out),
                                               ("--truth-out", args.truth_out)) if path]
    given = [("--params", args.params)] if args.params else []
    for (one, first), (two, path) in itertools.combinations(given + outputs, 2):
        if os.path.realpath(first) == os.path.realpath(path):
            raise ConfigError(f"{one} and {two} name one file, {path!r}")
    for flag, path in outputs:
        target = os.path.abspath(path)
        if os.path.isdir(target):
            raise ConfigError(f"{flag} {path!r} is a directory, not a file path")
        if os.path.lexists(target) and not os.path.isfile(target):  # the stage would replace it
            raise ConfigError(f"{flag} {path!r} is not a regular file")
        if not os.path.isdir(os.path.dirname(target)):
            raise ConfigError(f"{flag} {path!r}: {os.path.dirname(target)} is not an "
                              f"existing directory")
    params = _synth_params(args)
    rng = np.random.default_rng(args.seed)
    bars, truth = generate_synthetic(params, rng)
    with contextlib.ExitStack() as stack:  # a write that fails leaves neither file
        def staged(path):  # in a stage of its own; a link is written through to its file
            folder, name = os.path.split(os.path.realpath(path))
            return os.path.join(stack.enter_context(_staged(folder)), name)
        write_csv(staged(args.out), bars)
        if args.truth_out:
            header = ["date_iso"] + [f"theta_{i}" for i in range(params.model.dim)] + \
                     ["obs_variance_v", "y_log_price", "z_realized_var"]
            write_columns_csv(staged(args.truth_out), header, [
                [d.isoformat() for d in truth.dates], *truth.theta.T, truth.v, truth.y, truth.z])
    print(f"wrote {len(bars)} bars to {args.out} (seed={args.seed})")
    return 0


def _cmd_score(args) -> int:
    written = recompute_bayes_factors(args.run_dir)
    for path in written:
        print(f"rewrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "filter":
            return _cmd_filter(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_score(args)
    except RvdlmError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
