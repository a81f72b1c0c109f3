"""Shared test configuration."""

import pytest
from hypothesis import HealthCheck, settings

# Graph construction inside strategies is slow relative to hypothesis's
# default deadline; property tests bound example counts themselves.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def bench_suite_runs():
    """``{name: finished run}`` for every ``repro bench-check`` row, run
    once per session and shared by the tests that gate, measure or
    validate the suite."""
    from repro.obs import bench

    return {name: make() for name, make in bench._suite_cases().items()}
