"""Shared fixtures: the worked example instances."""

import pytest

from rbmaf import fig_instances


@pytest.fixture(scope="session")
def figs():
    return fig_instances()


@pytest.fixture(scope="session")
def fig1(figs):
    return figs["fig1"].pair


@pytest.fixture(scope="session")
def fig9(figs):
    return figs["fig9"].pair
