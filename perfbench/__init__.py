"""End-to-end and per-layer benchmark of the reproduction middleware.

Entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0|1`` (see ``run.py``); ``BENCHMARK.json`` at the repository root
names the workloads and metrics.
"""
