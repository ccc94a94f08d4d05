"""Smoke tests of the benchmark at a tiny size: every workload reports each
metric BENCHMARK.json names, with its unit, and a corrupted output counts as
a failed operation instead of passing silently."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as W  # noqa: E402
from perfbench.run import expected_units, load_spec  # noqa: E402

TINY = W.Sizes(days=300, series=2, eval_start_day=100, prefix_days=16, sampled_days=3,
               backward_draws=40, forecast_draws=20_000, setup_repeats=1)


def run_tiny(name, tmp_path, trace=False):
    return W.run_workload(name, seed=3, seconds=0.0, trace=trace,
                          work_dir=str(tmp_path / "work"), sizes=TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    res = run_tiny(name, tmp_path, trace)
    assert res.correct and res.failed == 0
    assert res.attempted == (3 if trace else 2)  # warm-up plus one pass per loop
    assert {k: unit for k, (_, unit) in res.metrics.items()} == \
        expected_units(load_spec(), trace)
    assert all(math.isfinite(v) for v, _ in res.metrics.values())


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in load_spec()["workloads"]) == sorted(W.WORKLOADS)


def test_counts_repeat_exactly(tmp_path):
    counts = []
    for k in range(2):
        res = run_tiny("grid", tmp_path / str(k), trace=True)
        counts.append({n: v for n, (v, unit) in res.metrics.items() if unit != "s"
                       and n not in ("trace.overhead_share", "kernel.ns_per_model_day")})
    assert counts[0] == counts[1]


def _flip_bf_byte(real):
    def recompute(run_dir):
        written = real(run_dir)
        with open(written[0], "r+b") as fh:
            fh.seek(-2, os.SEEK_END)  # a digit of the last cumulative log BF
            digit = fh.read(1)
            fh.seek(-2, os.SEEK_END)
            fh.write(bytes([digit[0] ^ 1]))
        return written
    return recompute


def _drift_kernel(real):
    def run_filter(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.m[5, 1] *= 1.0 + 1e-8
        return traj
    return run_filter


def _move_smoothed_end(real):
    def smooth(traj):
        out = real(traj)
        out.m_star[-1] += 1e-12
        return out
    return smooth


@pytest.mark.parametrize("name, target, fault", [
    ("pipeline", "recompute_bayes_factors", _flip_bf_byte),
    ("grid", "run_filter", _drift_kernel),
    ("retrospective", "smooth", _move_smoothed_end),
])
def test_bad_output_counts_as_failed(name, target, fault, tmp_path, monkeypatch):
    monkeypatch.setattr(W, target, fault(getattr(W, target)))
    res = run_tiny(name, tmp_path)
    assert not res.correct
    assert res.failed == res.attempted == 2
    assert res.report["failed_op_share"][0] == 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
