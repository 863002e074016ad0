"""Benchmark of the qnbench library: workloads, checks and per-layer tracing.

Run it with ``python3 perfbench/run.py --workload suite10``; see README.md.
"""
