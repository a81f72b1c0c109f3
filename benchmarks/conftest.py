"""Shared benchmark configuration.

Each benchmark regenerates one paper table or figure. The heavy
experiments run exactly once per session (``benchmark.pedantic`` with a
single round -- re-running a minutes-long simulated campaign for timing
statistics would measure nothing useful), and results are cached across
benchmark files through :mod:`repro.bench.runners`, so e.g. Figures
13/14/15/16/17 reuse the Table-3 executions.

Formatted outputs are printed and mirrored under ``results/``.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark and return its

    value."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
