"""Shared fixtures: the worked example instances and a build counter
for the per-pair tables."""

from collections import Counter

import pytest

from rbmaf import fig_instances, lp_toolkit, tree_model


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
    """Counter of the triple-table and compatible-set-table builds."""
    counts = Counter()
    for module, attr in ((tree_model, "_find_incompatible_triples"),
                         (lp_toolkit, "_search_compatible_sets")):
        def counted(pair, original=getattr(module, attr), attr=attr):
            counts[attr] += 1
            return original(pair)
        monkeypatch.setattr(module, attr, counted)
    return counts
