"""Home of :func:`repro.obs.scenarios.build_steady`, and nothing else.

The in-process observability layer that this package held is retired:
the benchmark in ``perfbench/`` measures every per-layer number from
outside the program.  The steady churn harness stays here only
because the benchmark imports it from this path; it moves to
:mod:`repro.experiments` together with the next change to the
benchmark.
"""
