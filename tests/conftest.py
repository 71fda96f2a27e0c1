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

from instab import dynamics, harness, native
from instab.charts import build_chart, BaseSurfaceMap
from instab.expr import ScalarField
from instab.geometry import MetricSpec

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def cache_home(tmp_path_factory):
    """XDG_CACHE_HOME in a directory of the session's own, so the suite and
    the processes it starts keep the compiled loop out of the user's home
    and share one build of it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


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


class _PythonSteps:
    """The tries that the Python stepper makes, each (y, h), by the decline
    of the native loop that they follow: ``steps`` holds the state of each
    decline and the tries made after it until the loop is lent the state
    again, ``stray`` the tries that follow no decline."""

    def __init__(self):
        self.stray, self.steps = [], []

    @property
    def tries(self):
        return self.stray + [t for _y, tries in self.steps for t in tries]

    @property
    def only_declined(self):
        """Whether the Python stepper made tries only from the states the
        loop declined a try at, and after each decline from its state."""
        return not self.stray and all(
            y == tried for y, tries in self.steps for tried, _h in tries)

    @property
    def each_declined_step(self):
        """Whether it also made a step's tries after each decline."""
        return self.only_declined and all(tries for _y, tries in self.steps)


@pytest.fixture(scope="session")
def python_steps():
    """``with python_steps() as python:`` records in ``python`` the tries
    made inside by the step function that ``dynamics._stepper`` returns,
    by the loop's declines (``_PythonSteps``)."""
    @contextlib.contextmanager
    def record():
        python = _PythonSteps()
        stepper, lend = dynamics._stepper, native.lend
        following = [python.stray]  # the list a try goes to

        def counted(m):
            step = stepper(m)

            def counted_step(f, arg, y, k1, h, *rest):
                following[0].append((y, h))
                return step(f, arg, y, k1, h, *rest)
            return counted_step

        def lending(*args):
            run = lend(*args)
            following[0] = python.stray

            def counted_run(*state):
                out = run(*state)
                following[0] = python.stray
                if out[0] < 0:
                    python.steps.append((out[2], []))
                    following[0] = python.steps[-1][1]
                return out
            return run and counted_run

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_stepper", counted)
            patch.setattr(native, "lend", lending)
            yield python
    return record


@pytest.fixture(scope="session")
def python_only():
    """``with python_only():`` lends no branch or row to the native loop
    inside, so every try is the Python stepper's; for a hypothesis test,
    whose examples share its function's fixtures."""
    @contextlib.contextmanager
    def stepped():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "library", lambda: None)
            yield
    return stepped
