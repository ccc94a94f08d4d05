"""Run one rvdlm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/` of the
same tree. Human-readable lines go to stdout first; the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones listed in BENCHMARK.json,
with `--trace 1` the per-layer ones. Scratch files live under
`.perfbench_work/` and are removed before the command exits.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "rvdlm")):
        print(f"perfbench: no program to measure: {src}/rvdlm is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    try:
        import numpy
        from perfbench.workloads import run_workload
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it

    want = expected_units(spec, bool(args.trace))
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    if got != want:
        print(f"perfbench: metrics {got} do not match BENCHMARK.json {want}", file=sys.stderr)
        return 2

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
           **result.inputs}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(env)}")
    for name, (value, unit) in {**result.report, **result.metrics}.items():
        print(f"# {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
