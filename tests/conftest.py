"""Shared fixtures: the worked example instances, a build counter for
the per-pair tables, and a time limit on every test."""

import signal
from collections import Counter

import pytest

from rbmaf import fig_instances, lp_toolkit, tree_model

# Seconds any one test may run before it fails; the slowest takes about
# 2 s, so only a hang reaches this.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of letting it
    hang the suite.  Where there is no SIGALRM the tests run unlimited."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("test ran past TEST_TIME_LIMIT_S = %d s"
                    % TEST_TIME_LIMIT_S, pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def figs():
    return fig_instances()


@pytest.fixture(scope="session")
def fig1(figs):
    return figs["fig1"].pair


@pytest.fixture(scope="session")
def fig9(figs):
    return figs["fig9"].pair


@pytest.fixture
def table_builds(monkeypatch):
    """Counter of the conflict-mask and compatible-set-table builds."""
    counts = Counter()
    for module, attr in ((tree_model, "_build_conflict_masks"),
                         (lp_toolkit, "_search_compatible_sets")):
        def counted(pair, original=getattr(module, attr), attr=attr):
            counts[attr] += 1
            return original(pair)
        monkeypatch.setattr(module, attr, counted)
    return counts
