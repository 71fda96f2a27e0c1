"""Shared fixtures: expensive sweeps and charts are built once per session.

With ``CI`` set, hypothesis runs derandomized, so a failure seen in CI
reproduces locally with ``CI=1``.
"""

import contextlib
import functools
import os
import shutil

import numpy as np
import pytest
from hypothesis import settings

from instab import harness, native
from instab.charts import build_chart, BaseSurfaceMap
from instab.expr import ScalarField
from instab.geometry import MetricSpec

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def count_calls():
    """``with count_calls(owner, name) as calls:`` lists the calls made to
    ``owner.name`` inside, also by kernels compiled inside."""
    @contextlib.contextmanager
    def count(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(owner, name, counted)
            yield calls
    return count


@pytest.fixture(scope="session")
def corpus_sweeps():
    """Epsilon sweeps for every corpus entry, keyed by entry name."""
    return {
        problem.name: harness.run_epsilon_sweep(
            problem, with_certification=False)
        for problem in harness.corpus()
    }


@pytest.fixture(scope="session")
def origin_chart():
    """Single-function adapted chart for x1 + x3^2 around the origin."""
    metric = MetricSpec.identity(3)
    f = ScalarField.parse("x1 + x3^2", 3)
    psi = BaseSurfaceMap(
        [ScalarField.parse(s, 2) for s in ("-x2^2", "x1", "x2")],
        [(-0.4, 0.4), (-0.4, 0.4)],
    )
    return build_chart(metric, f, psi, (-0.25, 0.25), grid_count=9)


@pytest.fixture(scope="session")
def corollary_chart():
    """Two-function chart with its pullback magnetic form."""
    problem = harness.corpus_entry("corollary1-unstable-magnetic")
    chart, fields, pullback = harness.build_problem_chart(problem)
    return problem, chart, fields, pullback


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def compiled():
    """The native loop; the test is skipped where no ``cc`` is on PATH, and
    fails where one is but the loop does not build."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert native.library() is not None
    return native.library()


@pytest.fixture
def no_compiler(monkeypatch):
    """PATH finds no compiler, and the native loop is looked for afresh,
    so every branch steps in Python."""
    monkeypatch.setenv("PATH", "/nonexistent")
    monkeypatch.setattr(native, "library",
                        functools.cache(native.library.__wrapped__))
    assert native.library() is None
