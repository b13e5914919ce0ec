"""Benchmark support for the EIE reproduction: workloads, tracing and statistics.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
