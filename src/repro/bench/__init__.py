"""The harness reproducing the paper's §7 evaluation.

:mod:`repro.bench.figures` holds one entry point per figure, in-text
experiment and ablation, and :func:`repro.bench.figures.evaluate`, which
runs them all for ``python -m repro``.  :mod:`repro.bench.harness` runs
one query configuration over a trace and :mod:`repro.bench.workloads`
materialises the traces.
"""
