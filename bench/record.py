"""Record end-to-end benchmark runs as a committed BENCH_<label>.json.

    python3 bench/record.py --label emission --side parent=../parent --side change=.

Each side is a checkout of this repository (its `perfbench/run.py` measures
the `src/` of that checkout). The settings are fixed, so that every recorded
file can back a claim: 10 pairs over the three workloads of BENCHMARK.json,
pair i with seed i + 1, the run length BENCHMARK.json sets and `--trace 0`.
Within a pair every side runs once per workload; the order of the sides
alternates from pair to pair, so a drift of the host's speed falls on both.
The file holds the environment (nproc, Python, numpy; per side the git
revision, a digest of its `src/` and the line count of its Python files),
every run's end-to-end metrics and `#` report figures, and per workload and
metric the median and quartiles of each side, how many pairs the last side
won against the first and whether that shows a gain (`gain_shown`). After
the pairs it records 3 `--trace 1` runs per workload and side (seeds 1-3,
the order of the sides alternating as in the pairs), kept apart from that
end-to-end summary under `traced`: each side's median per-layer metrics
show in which layer a change of the end-to-end figures sits, where one run
per side cannot tell it from the host's noise, and each side's min and max
beside the median show how far that noise reaches. Runs go one at a time;
nothing else should run on the host meanwhile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pipeline", "grid", "retrospective")
PAIRS = 10  # a gain is claimed on at least 9 of 10 pairs
TRACED_RUNS = 3  # seeds 1..TRACED_RUNS


def identify(tree: str) -> dict:
    """The git revision of a checkout, whether its `src/` differs from it,
    a sha256 over `src/` (path and bytes of every file) that names the
    measured code either way, and the line count of its Python files (as
    `wc -l`), which shows what a simplification removed."""
    try:
        revision = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], check=True,
                                  capture_output=True, text=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "-C", tree, "status", "--porcelain", "--", "src"],
                                    check=True, capture_output=True, text=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        revision, dirty = "unknown", None
    digest = hashlib.sha256()
    lines = 0
    src = os.path.join(tree, "src")
    for folder, dirs, files in os.walk(src):  # top-down, pruned and sorted in place
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            if name.endswith(".py"):
                lines += data.count(b"\n")
    return {"revision": revision, "src_modified": dirty, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One `perfbench/run.py` run: its JSON result plus the `#` environment
    line and report figures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env, report = {}, {}
    for line in lines[:-1]:
        if line.startswith(f"# {workload} seed="):
            env = json.loads(line.split(" ", 4)[4])
        elif line.startswith("# "):
            name, value, *_ = line[2:].split()
            if name not in result["metrics"]:
                report[name] = float(value)
    return {**result, "report": report, "environment": env}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], sides: list[str], better: dict[str, str]) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles,
    the pairs the last side won against the first (ties count for neither),
    and `gain_shown`, whether those figures back a claimed gain: the last
    side won at least 9 in 10 of the pairs, and its median is better than
    the first side's by more than the first side's interquartile range."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {}
        for metric in mine[0]["metrics"]:
            by_side = {s: [r["metrics"][metric]["value"] for r in mine if r["side"] == s]
                       for s in sides}
            entry = {s: quartiles(v) for s, v in by_side.items() if v}
            if len(sides) > 1:
                base, new = by_side[sides[0]], by_side[sides[-1]]
                sign = 1.0 if better[metric] == "lower" else -1.0
                pairs = entry["pairs"] = min(len(base), len(new))
                wins = entry[f"{sides[-1]}_wins"] = sum(sign * (b - n) > 0.0
                                                        for b, n in zip(base, new))
                first, last = entry[sides[0]], entry[sides[-1]]
                entry["gain_shown"] = (wins >= pairs - pairs // 10 and  # 9 of 10
                                       sign * (first["median"] - last["median"])
                                       > first["q3"] - first["q1"])
            out[workload][metric] = entry
    return out


def traced_table(traced: list[dict]) -> dict:
    """Per workload and per-layer metric, each side's median, min and max over
    its traced runs: a side's spread shows whether the medians differ by more
    than the host's noise."""
    values = {}
    for run in traced:
        layers = values.setdefault(run["workload"], {})
        for metric, entry in run["metrics"].items():
            layers.setdefault(metric, {}).setdefault(run["side"], []).append(entry["value"])
    return {workload: {metric: {side: {"median": statistics.median(v), "min": min(v),
                                       "max": max(v)} for side, v in by_side.items()}
                       for metric, by_side in layers.items()}
            for workload, layers in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--side", action="append", required=True, metavar="NAME=TREE",
                        help="a checkout to measure; the last side is compared with the first")
    args = parser.parse_args(argv)

    trees = dict(s.split("=", 1) for s in args.side)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    sides = list(trees)
    runs = []
    for pair in range(PAIRS):
        seed = pair + 1
        order = sides if pair % 2 == 0 else sides[::-1]
        for workload in WORKLOADS:
            for side in order:
                run = run_once(trees[side], workload, seed, seconds)
                runs.append({"pair": pair, "side": side, "workload": workload, "seed": seed,
                             "seconds": seconds, "trace": 0, **run})
                pass_s = run["metrics"]["pass_norm_s"]["value"]
                print(f"pair {pair} {workload:13s} {side:8s} seed {seed} "
                      f"pass_norm_s {pass_s:.4f} failed {run['failed']}/{run['attempted']}",
                      flush=True)
    traced = []
    for seed in range(1, TRACED_RUNS + 1):
        order = sides if seed % 2 else sides[::-1]
        for workload in WORKLOADS:
            for side in order:
                run = run_once(trees[side], workload, seed, seconds, trace=1)
                traced.append({"side": side, "workload": workload, "seed": seed,
                               "seconds": seconds, "trace": 1, **run})
                print(f"traced {workload:13s} {side:8s} seed {seed} "
                      f"failed {run['failed']}/{run['attempted']}", flush=True)
    doc = {
        "label": args.label,
        "settings": {"workloads": list(WORKLOADS), "pairs": PAIRS,
                     "seeds": list(range(1, PAIRS + 1)), "seconds": seconds, "trace": 0,
                     "traced_seeds": list(range(1, TRACED_RUNS + 1))},
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": runs[0]["environment"].get("numpy"),
                        "machine": platform.machine()},
        "sides": {s: identify(t) for s, t in trees.items()},
        "runs": runs,
        "summary": summarize(runs, sides, better),
        "traced": {"runs": traced, "layers": traced_table(traced)},
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
