"""The three benchmark workloads, their correctness checks and the per-layer
replays that attribute their time to rvdlm's modules.

Every input is generated from the seed by `rvdlm.synthetic` (the generator
of acceptance criterion 7) and handed to the program as OHLC CSV files,
exactly as a user would. Each workload is a closed loop in one process: the
next pass starts when the previous one and its checks have finished.

- `pipeline`: `run_filter_pipeline` then `recompute_bayes_factors` on one
  series x 3 models, taking 3 series in turn: the `rvdlm filter` /
  `rvdlm score` path. Emission dominates; 3 filters per call sit below the
  batching crossover.
- `grid`: 27 in-memory `run_filter` calls (3 models x 3 deltas x 3 betas) on
  one frame, returning the best cell by cumulative log density. Almost all
  kernel, no I/O, above the batching crossover.
- `retrospective`: `smooth` per model, `backward_sample` and `sample_joint`
  on trajectories filtered during set-up. No kernel in the passes.

End-to-end numbers are measured with tracing off. In a traced run the
benchmark wraps its own calls into rvdlm in spans and, after each traced
pass, replays the stages a call runs internally on the same inputs, so that
per-layer times exist without instrumenting `src/`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from rvdlm import (GammaParams, HyperParams, ModelClass, NormalGammaPosterior,
                   RegressorInputs, ScoreLedger, SyntheticParams, apply_split,
                   backward_sample, build_regressor, build_series, evolve,
                   gamma_quantile, generate_synthetic, limiting_dof, load_config,
                   log_bayes_factor_path, log_score_z_path, parse_csv, price_update,
                   rogers_satchell, run_filter, rv_update, sample_joint, smooth,
                   sv_volatility_update_path, validate_bar, write_csv)
from rvdlm import special
from rvdlm.ingestion import read_csv_rows
from rvdlm.kernel import dof_sequences
from rvdlm.pipeline import (DEFAULT_HYPERPARAMS, ModelSpec, recompute_bayes_factors,
                            run_filter_pipeline)
from rvdlm.rv_measures import DEFAULT_RV_FLOOR

from .reference import calibrated
from .tracing import Tracer

#: Criterion-7 generator: RVLDLM coefficients, initial variance, shock information.
GEN_THETA = (0.0046, 0.998, -0.35, 0.30)
GEN_V0 = 1.3e-4
GEN_VOL_INFO = 400.0
S1 = 1.3e-4
MODEL_NAMES = ("svdlm", "rvdlm", "rvldlm")
GRID_DELTAS = (0.995, 0.998, 0.999)
GRID_BETAS = (0.85, 0.875, 0.9)
RV_ALPHA = 2.75

#: The kernel must match the dlm_core step composition to this relative
#: (max-norm) error on every state quantity, and log densities to
#: LOG_DENSITY_ATOL nats.
COMPOSITION_RTOL = 1e-10
LOG_DENSITY_ATOL = 1e-10
#: Final dof must sit this close to `limiting_dof` after thousands of days.
FINAL_N_GAP_MAX = 1e-6
#: Sample means must lie within this many standard errors of their target.
MEAN_SE_LIMIT = 5.0
#: Cumulative log score in summary.json against the fsum of its column.
CUMULATIVE_RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    days: int = 6538
    series: int = 3
    eval_start_day: int = 1000   # modeled days before it are the warm-up window
    prefix_days: int = 64        # days checked against the step composition
    sampled_days: int = 5        # days whose backward-sample means are checked
    backward_draws: int = 100
    forecast_draws: int = 1_000_000
    setup_repeats: int = 3


FULL = Sizes()


@dataclass
class PassResult:
    seconds: float
    stages: dict[str, list[float]]
    data: object = None
    nominal_s: float = math.nan  # `seconds` scaled to the nominal host speed


def _calibrated_pass(wl) -> PassResult:
    result, wall, nominal = calibrated(wl.run_pass)
    result.nominal_s = result.seconds * nominal / wall
    return result


def _timed(tracer: Tracer, name: str, fn, *args, **kwargs):
    """Call `fn` inside a span named `name`; return (result, seconds)."""
    t0 = time.perf_counter()
    with tracer.span(name):
        out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _traj_bytes(traj) -> int:
    return sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray))


def _digests(directory: str) -> dict[str, tuple[str, int]]:
    """(sha256, size) of every file in `directory`, by name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        out[name] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def _within_se(draws: np.ndarray, target: float) -> bool:
    se = float(np.std(draws, ddof=1)) / math.sqrt(draws.size)
    return abs(float(np.mean(draws)) - target) <= MEAN_SE_LIMIT * se


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    paths: list[str]
    bars: list[list]

    @property
    def bar_count(self) -> int:
        return sum(len(b) for b in self.bars)

    def health(self) -> dict[str, int]:
        """Data-health counts measured from outside the program: bars that
        `validate_bar` clamps, and bars whose Rogers-Satchell value is floored."""
        every = [b for bars in self.bars for b in bars]
        return {
            "rv_measures.clamped_bars": sum(validate_bar(b) is not b for b in every),
            "rv_measures.floored_days": sum(rogers_satchell(b) < DEFAULT_RV_FLOOR
                                            for b in every),
        }


def make_inputs(seed: int, days: int, count: int, in_dir: str, tracer: Tracer) -> Inputs:
    """Generate `count` synthetic series of `days` modeled days and write them
    as ingestion CSVs. Series i draws from the generator seeded (seed, i)."""
    os.makedirs(in_dir, exist_ok=True)
    params = SyntheticParams(model=ModelClass.RVLDLM, theta=np.tile(GEN_THETA, (days, 1)),
                             v0=GEN_V0, vol_info=GEN_VOL_INFO)
    paths, all_bars = [], []
    for i in range(count):
        (bars, _), _ = _timed(tracer, "synthetic.generate", generate_synthetic,
                              params, np.random.default_rng([seed, i]))
        path = os.path.join(in_dir, f"S{i}.csv")
        _timed(tracer, "ingestion.write_csv", write_csv, path, bars)
        paths.append(path)
        all_bars.append(bars)
    return Inputs(paths, all_bars)


def pipeline_config(inputs: Inputs, i: int, sizes: Sizes, out_dir: str):
    """The run config of series i under the three default models."""
    # Bar k+1 carries modeled day k (bar 0 only seeds the lags).
    dates = [b.date for b in inputs.bars[i]]
    e = sizes.eval_start_day + 1
    return load_config({
        "series": [{"ticker": f"S{i}", "path": inputs.paths[i], "s1": S1}],
        "models": [{"name": n, "variant": n} for n in MODEL_NAMES],
        "train_end": dates[e - 1].isoformat(),
        "eval_start": dates[e].isoformat(),
        "out_dir": out_dir,
    })


def day_after(traj):
    """Prior and regressor inputs for day T+1 of a filtered trajectory."""
    post = NormalGammaPosterior(traj.m[-1], traj.C[-1], float(traj.n[-1]), float(traj.s[-1]))
    reg = RegressorInputs(traj.variant, y_prev=float(traj.y[-1]), x_prev=float(traj.x[-1]))
    return evolve(post, traj.hp), reg


# ---------------------------------------------------------------------------
# replays of the stages inside a program call


@dataclass
class PipelineReplay:
    child_seconds: float
    trajectories: list


def _ledger(name, frame, traj) -> ScoreLedger:
    # The work run_series_model adds to run_filter.
    ledger = ScoreLedger(name, window_start=frame.eval_start)
    for t, date in enumerate(frame.dates):
        ledger.record(date, float(traj.log_density[t]))
    ledger.check_consistency()
    return ledger


def _solve_quantiles(dofs) -> None:
    # The gamma and t quantile solves run_filter_pipeline caches per dof.
    for n in dofs:
        for u in (0.05, 0.50, 0.95):
            gamma_quantile(u, GammaParams(0.5 * n, 0.5 * n))
        special.student_t_quantile(0.95, n)


def replay_pipeline(config, tracer: Tracer) -> PipelineReplay:
    """Replay, call by call, what `run_filter_pipeline(config)` computes
    before emission; the replayed seconds are the pipeline's child stages."""
    child = 0.0
    trajs = []
    dofs = set()
    for sspec in config.series:
        bars, sec = _timed(tracer, "ingestion.parse_csv", parse_csv, sspec.path, config.schema)
        child += sec
        t0 = time.perf_counter()
        with tracer.span("ingestion.build_series"):
            frame = apply_split(build_series(bars, config.floor_eps, ticker=sspec.ticker),
                                config.train_end, config.eval_start)
        child += time.perf_counter() - t0
        ledgers = {}
        for mspec in config.models:
            init = mspec.initial_prior(sspec.s1)
            _timed(tracer, "kernel.dof_sequences", dof_sequences,
                   mspec.hp, init.n_star, len(frame), mspec.variant.uses_rv)
            traj, sec = _timed(tracer, "kernel.run_filter", run_filter,
                               mspec.variant, mspec.hp, init, frame.y, frame.z, frame.x,
                               frame.y_prev, frame.x_prev, dates=frame.dates)
            child += sec
            ledgers[mspec.name], sec = _timed(tracer, "scoring.ledger", _ledger,
                                              mspec.name, frame, traj)
            child += sec
            if mspec.variant.uses_rv:
                for _ in range(2):  # emitted as a column and again in the summary
                    child += _timed(tracer, "scoring.log_score_z_path", log_score_z_path, traj)[1]
            trajs.append(traj)
            dofs.update(traj.n.tolist())
        names = [m.name for m in config.models]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                child += _timed(tracer, "scoring.bf_path", log_bayes_factor_path,
                                ledgers[names[j]], ledgers[names[i]])[1]
    child += _timed(tracer, "special.quantile_solve", _solve_quantiles, sorted(dofs))[1]
    return PipelineReplay(child, trajs)


def replay_rescore(config, tracer: Tracer) -> None:
    """Replay the CSV reads `recompute_bayes_factors` makes."""
    for sspec in config.series:
        for mspec in config.models:
            _timed(tracer, "ingestion.read_csv_rows", read_csv_rows,
                   os.path.join(config.out_dir, f"{sspec.ticker}__{mspec.name}.csv"))


def retrospective_calls(tracer: Tracer, trajs: dict, sizes: Sizes, rng) -> PassResult:
    """`smooth` per model, `backward_sample` and `sample_joint` on the
    rvldlm trajectory; the retrospective workload's pass."""
    stages = {"smooth_s": [], "backward_s": [], "forecast_s": []}
    t0 = time.perf_counter()
    smoothed = {}
    for name, traj in trajs.items():
        smoothed[name], sec = _timed(tracer, "smoothing.smooth", smooth, traj)
        stages["smooth_s"].append(sec)
    rvl = trajs["rvldlm"]
    (theta, _), sec = _timed(tracer, "smoothing.backward_sample", backward_sample,
                             rvl, rng=rng, n_samples=sizes.backward_draws)
    stages["backward_s"].append(sec)
    prior, reg = day_after(rvl)
    (z, _), sec = _timed(tracer, "forecast.sample_joint", sample_joint,
                         prior, rvl.hp.alpha, reg, rng, size=sizes.forecast_draws)
    stages["forecast_s"].append(sec)
    return PassResult(time.perf_counter() - t0, stages, (smoothed, theta, z, prior))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one closed-loop pass, its check, and the traced replay."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, work_dir: str, tracer: Tracer):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir
        self.tracer = tracer
        self.reference = None  # the warm-up pass's outputs
        # Filled for the per-layer metrics of a traced run:
        self.self_samples: list[float] = []  # pipeline.self_s, one per pipeline call
        self.trajectories: list = []  # the filter trajectories a pass makes or reads
        self.kernel_calls = 0  # run_filter calls per pass
        self.written: dict[str, tuple[str, int]] = {}  # pipeline output digests and sizes
        self.replayed_rvl = None  # an rvldlm trajectory for the smoothing layers

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def problems(self, result: PassResult) -> list[str]:
        """What is wrong with a pass's outputs, compared with the reference."""
        raise NotImplementedError

    def verify_reference(self, result: PassResult) -> list[str]:
        """Check the warm-up pass from first principles; later passes are
        compared with it."""
        raise NotImplementedError

    def replay(self, result: PassResult) -> None:
        """Traced runs only: replay the stages inside this pass's calls."""

    def complete_layers(self) -> None:
        """Traced runs only: call once, on this workload's inputs, every layer
        its passes never reach, so each workload reports every layer."""
        tr = self.tracer
        if not self.self_samples:
            config = pipeline_config(self.inputs, 0, self.sizes,
                                     os.path.join(self.work_dir, "sweep"))
            _, sec = _timed(tr, "pipeline.run_filter_pipeline", run_filter_pipeline, config)
            rep = replay_pipeline(config, tr)
            self.self_samples.append(sec - rep.child_seconds)
            self.written = _digests(config.out_dir)
            _timed(tr, "pipeline.recompute_bayes_factors", recompute_bayes_factors,
                   config.out_dir)
            replay_rescore(config, tr)
            self.replayed_rvl = rep.trajectories[MODEL_NAMES.index("rvldlm")]
        if not tr.has("smoothing.smooth"):
            rvl = self.replayed_rvl
            retrospective_calls(tr, {"rvldlm": rvl}, self.sizes,
                                np.random.default_rng([self.seed, 3]))
            _timed(tr, "smoothing.backward_fixed", backward_sample, rvl,
                   rng=np.random.default_rng([self.seed, 4]), n_samples=1)

    def health_trajectories(self) -> list:
        """The trajectories whose filter health is reported."""
        return self.trajectories

    def layer_counts(self) -> dict[str, float]:
        trajs = self.health_trajectories()
        return {
            "ingestion.bars": self.inputs.bar_count,
            **self.inputs.health(),
            "kernel.calls": self.kernel_calls,
            "kernel.traj_bytes": sum(_traj_bytes(t) for t in self.trajectories),
            "kernel.min_q": min(float(t.scale.min()) for t in trajs),
            "kernel.min_diag_C": min(float(np.diagonal(t.C, axis1=1, axis2=2).min())
                                     for t in trajs),
            "kernel.final_n_gap": max(abs(float(t.n[-1]) - limiting_dof(t.hp, t.variant.uses_rv))
                                      for t in trajs),
            "special.distinct_dof": max(len(set(t.n.tolist())) for t in trajs),
            "pipeline.files_written": len(self.written),
            "pipeline.bytes_written": sum(size for _, size in self.written.values()),
        }

    def report(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures printed for people to read."""
        return {}

    def input_sizes(self) -> dict[str, int]:
        return {"series": len(self.inputs.paths), "days": self.sizes.days,
                "filters_per_pass": self.kernel_calls,
                "backward_draws": self.sizes.backward_draws,
                "forecast_draws": self.sizes.forecast_draws}


class PipelineWorkload(Workload):
    """One pass filters and rescores one series under three models; passes
    take the series in turn, so a run sees all of them while each pass stays
    short enough for its median to be steady."""

    name = "pipeline"

    def setup(self) -> None:
        self.inputs = make_inputs(self.seed, self.sizes.days, self.sizes.series,
                                  os.path.join(self.work_dir, "inputs"), self.tracer)
        self.configs = [pipeline_config(self.inputs, i, self.sizes,
                                        os.path.join(self.work_dir, f"run{i}"))
                        for i in range(self.sizes.series)]
        self.kernel_calls = len(MODEL_NAMES)
        self.reference = {}  # first outputs of each series
        self.passes = 0

    def run_pass(self) -> PassResult:
        config = self.configs[self.passes % len(self.configs)]
        self.passes += 1
        t0 = time.perf_counter()
        with self.tracer.span("pipeline.run_filter_pipeline") as sp:
            run_filter_pipeline(config)
        filtered = time.perf_counter() - t0
        written = _digests(config.out_dir)
        _, rescored_s = _timed(self.tracer, "pipeline.recompute_bayes_factors",
                               recompute_bayes_factors, config.out_dir)
        rescored = _digests(config.out_dir)
        return PassResult(filtered + rescored_s,
                          {"pipeline_s": [filtered], "rescore_s": [rescored_s]},
                          (config, written, rescored, sp))

    def problems(self, result: PassResult) -> list[str]:
        config, written, rescored, _ = result.data
        out = []
        if written != self.reference.setdefault(config.out_dir, written):
            out.append("outputs differ from the first pass's sha256")
        changed = sorted(n for n in written if rescored.get(n) != written[n])
        if changed or rescored.keys() != written.keys():
            out.append(f"recompute_bayes_factors changed {changed or 'the file set'}")
        with open(os.path.join(config.out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        for ticker, entry in summary["series"].items():
            for model, m in entry["models"].items():
                path = os.path.join(config.out_dir, f"{ticker}__{model}.csv")
                with open(path, encoding="utf-8", newline="") as fh:
                    rows = list(csv.reader(fh))
                ix_score = rows[0].index("log_score_nats")
                ix_scored = rows[0].index("scored")
                total = math.fsum(float(r[ix_score]) for r in rows[1:] if r[ix_scored] == "1")
                if abs(m["cumulative_log_score"] - total) > CUMULATIVE_RTOL * max(1.0, abs(total)):
                    out.append(f"{ticker}/{model}: cumulative_log_score "
                               f"{m['cumulative_log_score']!r} != fsum {total!r}")
        return out

    def verify_reference(self, result: PassResult) -> list[str]:
        self.written = result.data[1]
        return self.problems(result)

    def health_trajectories(self) -> list:
        # Every series, whichever ones the traced passes happened to reach.
        return [t for config in self.configs
                for t in replay_pipeline(config, Tracer(False)).trajectories]

    def replay(self, result: PassResult) -> None:
        config, _, _, sp = result.data
        rep = replay_pipeline(config, self.tracer)
        self.self_samples.append(sp.seconds - rep.child_seconds)
        replay_rescore(config, self.tracer)
        self.trajectories = rep.trajectories
        self.replayed_rvl = rep.trajectories[MODEL_NAMES.index("rvldlm")]

    def report(self, passes):
        return {
            "pipeline_s": (statistics.median(p.stages["pipeline_s"][0] for p in passes), "s"),
            "rescore_s": (statistics.median(p.stages["rescore_s"][0] for p in passes), "s"),
        }


def _load_frame(workload: Workload):
    bars, _ = _timed(workload.tracer, "ingestion.parse_csv", parse_csv, workload.inputs.paths[0])
    frame, _ = _timed(workload.tracer, "ingestion.build_series", build_series, bars)
    return frame


class GridWorkload(Workload):
    name = "grid"

    def setup(self) -> None:
        self.inputs = make_inputs(self.seed, self.sizes.days, 1,
                                  os.path.join(self.work_dir, "inputs"), self.tracer)
        self.frame = _load_frame(self)
        self.cells = []
        for name in MODEL_NAMES:
            variant = ModelClass(name)
            for delta in GRID_DELTAS:
                for beta in GRID_BETAS:
                    hp = HyperParams(delta, beta, RV_ALPHA if variant.uses_rv else 0.0)
                    self.cells.append(ModelSpec(f"{name}-{delta}-{beta}", variant, hp))
        self.inits = [c.initial_prior(S1) for c in self.cells]
        self.kernel_calls = len(self.cells)

    def run_pass(self) -> PassResult:
        f = self.frame
        ix = self.sizes.eval_start_day
        t0 = time.perf_counter()
        trajs, scores = [], []
        for cell, init in zip(self.cells, self.inits):
            with self.tracer.span("kernel.run_filter"):
                traj = run_filter(cell.variant, cell.hp, init, f.y, f.z, f.x, f.y_prev, f.x_prev)
            trajs.append(traj)
            scores.append(float(np.sum(traj.log_density[ix:])))
        best = int(np.argmax(scores))
        seconds = time.perf_counter() - t0
        self.trajectories = trajs
        return PassResult(seconds, {}, (trajs, scores, best))

    _FIELDS = ("m", "C", "n", "s", "forecast", "scale", "error", "log_density")

    def problems(self, result: PassResult) -> list[str]:
        trajs, scores, best = result.data
        ref_trajs, ref_scores, ref_best = self.reference
        out = []
        for cell, traj, ref in zip(self.cells, trajs, ref_trajs):
            if not all(np.array_equal(getattr(traj, k), getattr(ref, k)) for k in self._FIELDS):
                out.append(f"{cell.name}: trajectory differs from the first pass")
            gap = abs(float(traj.n[-1]) - limiting_dof(cell.hp, cell.variant.uses_rv))
            if not gap < FINAL_N_GAP_MAX:
                out.append(f"{cell.name}: final dof is {gap!r} from limiting_dof")
        if scores != ref_scores or best != ref_best:
            out.append("best cell or cumulative log densities differ from the first pass")
        return out

    def verify_reference(self, result: PassResult) -> list[str]:
        self.reference = result.data
        out = self.problems(result)
        f = self.frame
        for cell, init, traj in zip(self.cells, self.inits, result.data[0]):
            err = _composition_error(cell, init, f, traj, self.sizes.prefix_days)
            if err:
                out.append(f"{cell.name}: {err}")
        return out

    def replay(self, result: PassResult) -> None:
        for cell, init in zip(self.cells, self.inits):
            _timed(self.tracer, "kernel.dof_sequences", dof_sequences,
                   cell.hp, init.n_star, len(self.frame), cell.variant.uses_rv)

    def report(self, passes):
        model_days = len(self.cells) * len(self.frame)
        return {"grid_model_days_per_s":
                (model_days / statistics.median(p.seconds for p in passes), "1/s")}


def _composition_error(cell, init, frame, traj, days: int) -> str:
    """Compare a kernel trajectory's first `days` days with the dlm_core step
    composition (evolve / rv_update / price_update or the SV path)."""
    hp, variant = cell.hp, cell.variant
    ref = {k: [] for k in ("m", "C", "n", "s", "forecast", "scale", "log_density")}
    prior, post = init, None
    for t in range(min(days, len(frame))):
        if t > 0:
            prior = evolve(post, hp)
        F = build_regressor(variant, float(frame.y_prev[t]), float(frame.x[t]),
                            float(frame.x_prev[t]))
        if variant.uses_rv:
            post, stats = price_update(rv_update(prior, float(frame.z[t]), hp.alpha),
                                       float(frame.y[t]), F)
        else:
            post, stats = sv_volatility_update_path(prior, float(frame.y[t]), F)
        for k, v in (("m", post.m), ("C", post.C), ("n", post.n), ("s", post.s),
                     ("forecast", stats.forecast), ("scale", stats.scale),
                     ("log_density", stats.log_density)):
            ref[k].append(v)
    t = len(ref["m"])
    for k, vals in ref.items():
        got = getattr(traj, k)[:t]
        if k == "log_density":
            err = float(np.max(np.abs(got - np.asarray(vals))))
            if not err <= LOG_DENSITY_ATOL:
                return f"log_density differs from the step composition by {err:.3g} nats"
        else:
            err = _rel_err(got, vals)
            if not err <= COMPOSITION_RTOL:
                return f"{k} differs from the step composition by {err:.3g} relative"
    return ""


class RetrospectiveWorkload(Workload):
    name = "retrospective"

    def setup(self) -> None:
        self.inputs = make_inputs(self.seed, self.sizes.days, 1,
                                  os.path.join(self.work_dir, "inputs"), self.tracer)
        f = _load_frame(self)
        self.trajs = {}
        for name in MODEL_NAMES:
            variant = ModelClass(name)
            hp = DEFAULT_HYPERPARAMS[variant]
            init = ModelSpec(name, variant, hp).initial_prior(S1)
            self.trajs[name], _ = _timed(self.tracer, "kernel.run_filter", run_filter,
                                         variant, hp, init, f.y, f.z, f.x, f.y_prev, f.x_prev)
            _timed(self.tracer, "kernel.dof_sequences", dof_sequences,
                   hp, init.n_star, len(f), variant.uses_rv)
        self.trajectories = list(self.trajs.values())
        self.passes = 0

    def run_pass(self) -> PassResult:
        rng = np.random.default_rng([self.seed, 2, self.passes])
        self.passes += 1
        return retrospective_calls(self.tracer, self.trajs, self.sizes, rng)

    def problems(self, result: PassResult) -> list[str]:
        out = self._statistical_problems(result)
        for name, sm in result.data[0].items():
            ref = self.reference[name]
            if not all(np.array_equal(getattr(sm, k), getattr(ref, k))
                       for k in ("m_star", "C_star", "s_bar", "n_bar")):
                out.append(f"{name}: smoothed estimates differ from the first pass")
        return out

    def _statistical_problems(self, result: PassResult) -> list[str]:
        smoothed, theta, z, prior = result.data
        out = []
        for name, sm in smoothed.items():
            traj = self.trajs[name]
            if not (np.array_equal(sm.m_star[-1], traj.m[-1])
                    and np.array_equal(sm.C_star[-1], traj.C[-1])
                    and sm.s_bar[-1] == traj.s[-1] and sm.n_bar[-1] == traj.n[-1]):
                out.append(f"{name}: smoothed day T is not the filtered posterior")
        m_star = smoothed["rvldlm"].m_star
        T = m_star.shape[0]
        for t in np.linspace(0, T - 1, self.sizes.sampled_days).astype(int):
            for i in range(m_star.shape[1]):
                if not _within_se(theta[:, t, i], float(m_star[t, i])):
                    out.append(f"backward_sample mean of theta[{t}, {i}] is over "
                               f"{MEAN_SE_LIMIT} SE from m_star")
        n_star, s = prior.n_star, prior.s_prev
        if not _within_se(z, s * n_star / (n_star - 2.0)):
            out.append(f"sample_joint mean z is over {MEAN_SE_LIMIT} SE from s n*/(n*-2)")
        return out

    def verify_reference(self, result: PassResult) -> list[str]:
        self.reference = result.data[0]
        return self._statistical_problems(result)

    def replay(self, result: PassResult) -> None:
        _timed(self.tracer, "smoothing.backward_fixed", backward_sample, self.trajs["rvldlm"],
               rng=np.random.default_rng([self.seed, 5, self.passes]), n_samples=1)

    def report(self, passes):
        med = lambda key: statistics.median(s for p in passes for s in p.stages[key])
        return {
            "smooth_s": (med("smooth_s"), "s"),
            "backward_draws_per_s": (self.sizes.backward_draws / med("backward_s"), "1/s"),
            "forecast_draws_per_s": (self.sizes.forecast_draws / med("forecast_s"), "1/s"),
        }


WORKLOADS = {w.name: w for w in (PipelineWorkload, GridWorkload, RetrospectiveWorkload)}


# ---------------------------------------------------------------------------
# the run


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    inputs: dict[str, int] = field(default_factory=dict)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
                 sizes: Sizes = FULL) -> RunResult:
    """Set up `name`, run its warm-up pass, then closed-loop passes for
    `seconds`. With `trace`, half the time runs untraced and half traced, and
    the metrics are the per-layer ones; otherwise the end-to-end ones."""
    tracer = Tracer(trace)
    wl = WORKLOADS[name](seed, sizes, work_dir, tracer)
    setups = [calibrated(wl.setup)[1:] for _ in range(sizes.setup_repeats)]

    tracer.enabled = False
    warm = _calibrated_pass(wl)
    warm_problems = wl.verify_reference(warm)
    attempted, failed = 1, int(bool(warm_problems))
    for p in warm_problems:
        print(f"check failed (warm-up pass): {p}", file=sys.stderr)

    untraced: list[PassResult] = []
    traced: list[PassResult] = []

    def loop(budget: float, sink: list, traced_passes: bool) -> None:
        nonlocal attempted, failed
        tracer.enabled = traced_passes
        start = time.perf_counter()
        runs = 0
        while runs == 0 or time.perf_counter() - start < budget:
            runs += 1
            attempted += 1
            try:
                result = _calibrated_pass(wl)
                problems = wl.problems(result)
                if warm_problems:
                    problems.append("the first pass, which later passes must equal, failed")
            except Exception:  # a failing pass is counted and the loop goes on
                traceback.print_exc()
                failed += 1
                continue
            if problems:
                failed += 1
                for p in problems:
                    print(f"check failed (pass {attempted}): {p}", file=sys.stderr)
                continue
            if traced_passes:
                wl.replay(result)
            result.data = None  # keep timings only, so memory stays flat
            sink.append(result)

    if trace:
        loop(seconds / 2.0, untraced, False)
        loop(seconds / 2.0, traced, True)
        tracer.enabled = True
        wl.complete_layers()
    else:
        loop(seconds, untraced, False)

    passes = untraced or [warm]
    setup_s = statistics.median(nominal for _, nominal in setups) + warm.nominal_s
    report = {"setup_wall_s": (statistics.median(wall for wall, _ in setups) + warm.seconds, "s"),
              "pass_wall_s": (statistics.median(p.seconds for p in passes), "s"),
              **wl.report(passes),
              "failed_op_share": (failed / attempted, "ratio"),
              "peak_rss_mb": (_peak_rss_mb(), "MB")}
    if trace:
        metrics = _layer_metrics(wl, tracer, passes, traced)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_norm_s": (statistics.median(p.nominal_s for p in passes), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    return RunResult(failed == 0, attempted, failed, metrics, report, wl.input_sizes())


LAYER_SPANS = {
    "ingestion.parse_csv_s": "ingestion.parse_csv",
    "ingestion.build_series_s": "ingestion.build_series",
    "ingestion.read_csv_rows_s": "ingestion.read_csv_rows",
    "ingestion.write_csv_s": "ingestion.write_csv",
    "kernel.run_filter_s": "kernel.run_filter",
    "kernel.dof_sequences_s": "kernel.dof_sequences",
    "scoring.ledger_s": "scoring.ledger",
    "scoring.log_score_z_path_s": "scoring.log_score_z_path",
    "scoring.bf_path_s": "scoring.bf_path",
    "special.quantile_solve_s": "special.quantile_solve",
    "smoothing.smooth_s": "smoothing.smooth",
    "smoothing.backward_sample_s": "smoothing.backward_sample",
    "smoothing.backward_fixed_s": "smoothing.backward_fixed",
    "forecast.sample_joint_s": "forecast.sample_joint",
    "synthetic.generate_s": "synthetic.generate",
}

COUNT_UNITS = {
    "ingestion.bars": "count",
    "rv_measures.clamped_bars": "count",
    "rv_measures.floored_days": "count",
    "kernel.calls": "count",
    "kernel.traj_bytes": "B",
    "kernel.min_q": "value",
    "kernel.min_diag_C": "value",
    "kernel.final_n_gap": "dof",
    "special.distinct_dof": "count",
    "pipeline.files_written": "count",
    "pipeline.bytes_written": "B",
}


def _layer_metrics(wl: Workload, tracer: Tracer, untraced, traced) -> dict:
    """Per-layer numbers of a traced run: median seconds per call of each
    layer's spans, derived self times, counts, and the tracing overhead."""
    out = {name: (tracer.median(span), "s") for name, span in LAYER_SPANS.items()}
    out["kernel.ns_per_model_day"] = (
        out["kernel.run_filter_s"][0] / wl.sizes.days * 1e9, "ns")
    out["pipeline.self_s"] = (statistics.median(wl.self_samples), "s")
    for name, value in wl.layer_counts().items():
        out[name] = (value, COUNT_UNITS[name])
    base = statistics.median(p.nominal_s for p in untraced)
    out["trace.overhead_share"] = (
        (statistics.median(p.nominal_s for p in traced or untraced) - base) / base, "ratio")
    return out
