"""Benchmark for lyndonkit: seeded workloads, output checks and span tracing.

Run it from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

See perfbench/README.md for the workloads and the metrics.
"""
