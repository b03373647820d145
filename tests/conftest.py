"""Fixtures shared across the test tree."""

import pytest

from repro import perf
from repro.experiments.harness import run_experiment
from repro.glare.deployfile import BuildRecipe
from repro.wsrf import xmldoc


class _FreshSuites(dict):
    """``name -> perf.run_suite(name)``, each run on first use."""

    def __missing__(self, name):
        self[name] = perf.run_suite(name)
        return self[name]


@pytest.fixture(scope="session")
def fresh_suites():
    """A fresh payload of every perf suite, run at most once a session.

    Read-only: tests that tamper must ``copy.deepcopy`` first.
    """
    return _FreshSuites()


class _QuickRuns(dict):
    """``name -> run_experiment(name, quick=True)``, each run on first use."""

    def __missing__(self, name):
        self[name] = run_experiment(name, quick=True)
        return self[name]


@pytest.fixture(scope="session")
def quick_runs():
    """The serial ``--quick`` run of every experiment (results, merged
    digest, rendered text), run at most once a session.  Read-only.
    """
    return _QuickRuns()


@pytest.fixture()
def compiled_recipes(monkeypatch):
    """Names of the deploy-file plans compiled (``BuildRecipe``s built,
    i.e. Kahn passes run) during the test, starting from an empty memo."""
    names = []
    validate = BuildRecipe.__post_init__

    def counting(recipe):
        names.append(recipe.name)
        validate(recipe)

    monkeypatch.setattr(BuildRecipe, "__post_init__", counting)
    xmldoc._SHARED.clear()
    return names
