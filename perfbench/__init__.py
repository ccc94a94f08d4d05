"""Benchmark of the rvdlm filter: workloads, checks and per-layer tracing.

Run `python3 perfbench/run.py --help` from the repository root.
"""
