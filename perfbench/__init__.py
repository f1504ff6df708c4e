"""End-to-end pipeline benchmark with a layer-attributed traced run.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload batch-smp --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how to compare
two commits.
"""
