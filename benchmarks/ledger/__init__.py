"""The perf ledger: one benchmark harness for every deployment shape.

Run it with ``python3 benchmarks/ledger/run.py`` (see README.md next to
this file).  Importing the package starts nothing.
"""
