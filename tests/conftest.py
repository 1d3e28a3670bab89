"""Shared fixtures: registries, small traces, DSMS factories.

Also a per-test timeout fallback: resilience tests exercise deadlock
fixes, and a regression there should fail the test, not hang the suite.
When the ``pytest-timeout`` plugin is installed (CI) it owns timeouts;
otherwise a SIGALRM-based hookwrapper enforces the same ceiling on
POSIX.
"""

from __future__ import annotations

import signal

import pytest

_DEFAULT_TEST_TIMEOUT = 120.0


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite trace-event golden files (tests/obs/goldens/) from"
        " the current run instead of comparing against them",
    )

try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

_HAVE_SIGALRM = hasattr(signal, "SIGALRM")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if _HAVE_PYTEST_TIMEOUT or not _HAVE_SIGALRM:
        yield
        return
    marker = item.get_closest_marker("timeout")
    seconds = float(marker.args[0]) if marker and marker.args else _DEFAULT_TEST_TIMEOUT

    def _alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {seconds:.0f}s per-test timeout (fallback"
            " SIGALRM enforcement; install pytest-timeout for rich output)"
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

from hypothesis import settings

# Tier 1 is derandomized, on a fixed budget: a property draws the same
# examples on every run.  ``--hypothesis-profile=deep`` is the CI step
# that looks further (tests/test_oracle.py), ten times the examples,
# freshly drawn.  A test that sets its own ``max_examples`` keeps it.
settings.register_profile("tier1", max_examples=100, deadline=None, derandomize=True, database=None)
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile("tier1")

from repro.dsms.aggregates import default_aggregate_registry
from repro.dsms.functions import default_function_registry
from repro.dsms.parser import Registries
from repro.dsms.runtime import Gigascope
from repro.dsms.stateful import StatefulLibrary
from repro.streams.schema import PKT_SCHEMA, TCP_SCHEMA
from repro.streams.traces import TraceConfig, research_center_feed
from repro.core.superaggregates import default_superaggregate_registry


@pytest.fixture
def registries() -> Registries:
    """Default registries with both packet schemas registered."""
    return Registries(
        schemas={"PKT": PKT_SCHEMA, "TCP": TCP_SCHEMA},
        scalars=default_function_registry(),
        aggregates=default_aggregate_registry(),
        superaggregates=default_superaggregate_registry(),
        stateful=StatefulLibrary(),
    )


@pytest.fixture
def small_trace():
    """A short deterministic bursty trace (three 20 s windows)."""
    config = TraceConfig(duration_seconds=60, rate_scale=0.005, seed=99)
    return list(research_center_feed(config))


@pytest.fixture
def gigascope() -> Gigascope:
    """A fresh DSMS instance with the TCP stream registered."""
    gs = Gigascope()
    gs.register_stream(TCP_SCHEMA)
    return gs
