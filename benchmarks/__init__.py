"""Benchmark tooling.

``ab.py`` is the same-runner A/B gate CI runs on every change
(``python -m benchmarks.ab BASE_DIR HEAD_DIR``): it times both checkouts
with the repository benchmark, ``perfbench/``, and compares the medians
against the bounds in ``BENCHMARK.json``.
"""
