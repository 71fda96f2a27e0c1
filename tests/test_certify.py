"""Hypothesis certification: shell tables, verdicts, algebraic identities."""

import collections
import gc
import itertools
import json
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from instab import certify, expr, harness, native
from instab.certify import (
    HypothesisProbe,
    QuasiHomogeneousSpec,
    build_pullback_magnetic,
    certify_magnetic_condition,
    certify_potential_condition,
    chart_contraction_check,
    check_orthogonal_commuting,
    check_quasi_homogeneous,
)
from instab.charts import BaseSurfaceMap, build_multi_chart, compile_flow
from instab.cli import main
from instab.dynamics import compile_motion
from instab.errors import (
    DomainError,
    EmptyShell,
    GradientTooSmall,
    InstabError,
    NonFiniteResult,
    format_point,
)
from instab.expr import ScalarField
from instab.geometry import (
    GRADIENT_FLOOR,
    MetricSpec,
    OneForm,
    gradient_data,
    guard_cancellation,
    magnetic_tensor,
    normalized_gradient_jacobian,
    riemannian_gradient,
)

E2 = MetricSpec.identity(2)
E3 = MetricSpec.identity(3)


def _probe(potential, f, magnetic=None, center=(0, 0, 0), n=3, **kw):
    metric = MetricSpec.identity(n)
    return HypothesisProbe(
        metric=metric,
        potential=ScalarField.parse(potential, n),
        f=ScalarField.parse(f, n),
        magnetic=(None if magnetic is None
                  else OneForm.from_sources(magnetic)),
        center=np.asarray(center, dtype=float),
        **kw,
    )


def test_probe_invariants():
    with pytest.raises(ValueError):
        _probe("x3^2", "x1", delta_min=1e-2, delta_max=1e-3)
    with pytest.raises(ValueError):
        _probe("x3^2", "x1", samples=50)


@pytest.mark.parametrize("setting, message", [
    ({"radius": math.inf}, "radius"),
    ({"delta_max": math.inf}, "delta_max"),
    ({"seed": -1}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": 1.0}, "seed"),
])
def test_probe_rejects_settings_sampling_cannot_use(setting, message):
    """An infinite band never ends its list of shells, an infinite ball
    never samples one, and numpy seeds only non-negative integers."""
    with pytest.raises(ValueError, match=message):
        _probe("x3^2", "x1", **setting)


def test_plane_potential_certified_with_zero_ratios():
    report = certify_potential_condition(_probe("x3^2", "x1", seed=1))
    assert report.verdict == "certified"
    assert report.bound_estimate == 0.0
    assert all(s.max_ratio == 0.0 for s in report.shells)


def test_whitney_ratios_exactly_degree():
    report = certify_potential_condition(_probe(
        "(x1^2 - x2^2*x3)^2", "(x1^2 + x2^2)/2",
        center=(1, 1, 1), radius=0.4, seed=2))
    assert report.verdict == "certified"
    for shell in report.shells:
        assert shell.max_ratio == pytest.approx(4.0, abs=1e-9)
        assert shell.mean_ratio == pytest.approx(4.0, abs=1e-9)


def test_kolibri_ratios_exactly_degree():
    report = certify_potential_condition(_probe(
        "(x1^2*x3^2 + x1^3 - x2^2)^2", "x1^2 + 3*x2^2/2 + x3^2/2",
        center=(1, 1, 0), radius=0.4, seed=3))
    assert report.verdict == "certified"
    for shell in report.shells:
        assert shell.max_ratio == pytest.approx(12.0, abs=1e-9)


def test_crossing_potential_refuted_with_witness():
    probe = HypothesisProbe(
        metric=E2,
        potential=ScalarField.parse("x1^2*x2^2", 2),
        f=ScalarField.parse("x1", 2),
        center=np.zeros(2), seed=4)
    report = certify_potential_condition(probe)
    assert report.verdict == "refuted"
    assert report.witness is not None
    x = report.witness
    assert report.witness_ratio == pytest.approx(2.0 / abs(x[0]), rel=1e-9)
    # shell maxima grow toward the zero locus
    maxima = [s.max_ratio for s in report.shells]
    assert maxima[0] > 10 * maxima[-1]


def test_magnetic_certified_zero_contraction():
    report = certify_magnetic_condition(_probe(
        "x3^2", "x1", magnetic=["0", "x3", "0"], seed=5))
    assert report.verdict == "certified"
    assert all(s.max_ratio == 0.0 for s in report.shells)
    assert report.notes["magnetic_field_on_locus"] == "nonzero"


def test_magnetic_refuted_inverse_sqrt():
    report = certify_magnetic_condition(_probe(
        "x3^2", "x1", magnetic=["0", "x1", "0"], seed=6))
    assert report.verdict == "refuted"
    assert report.witness is not None
    # ratio is exactly 1/sqrt(U) per sample
    for shell in report.shells:
        assert shell.max_ratio >= 1.0 / np.sqrt(10 * shell.delta) - 1e-6
    assert report.notes["full_norm_verdict"] == "refuted"


def test_magnetic_trivial_when_absent_or_closed():
    report = certify_magnetic_condition(_probe("x3^2", "x1", seed=7))
    assert report.verdict == "certified"
    assert report.notes.get("trivial") is True
    closed = certify_magnetic_condition(_probe(
        "x3^2", "x1", magnetic=["x2", "x1", "0"], seed=7))
    assert closed.notes.get("trivial") is True


def test_scale_covariance_of_ratios():
    base = certify_potential_condition(_probe(
        "(x1^2 - x2^2*x3)^2", "(x1^2 + x2^2)/2",
        center=(1, 1, 1), radius=0.4, seed=8))
    doubled = certify_potential_condition(_probe(
        "(x1^2 - x2^2*x3)^2", "x1^2 + x2^2",
        center=(1, 1, 1), radius=0.4, seed=8))
    for a, b in zip(base.shells, doubled.shells):
        assert b.max_ratio == pytest.approx(2 * a.max_ratio, rel=1e-12)
    assert base.verdict == doubled.verdict == "certified"


def test_euclidean_ratio_against_direct_dot_product():
    probe = _probe("(x1^2 - x2^2*x3)^2", "(x1^2 + x2^2)/2",
                   center=(1, 1, 1), radius=0.4, seed=9)
    report = certify_potential_condition(probe)
    for shell in report.shells:
        x = np.asarray(shell.witness)
        u, du = probe.potential.value_and_grad(x)
        direct = abs(float(du @ probe.f.grad(x))) / u
        assert abs(shell.max_ratio - direct) < 1e-12


def test_shell_determinism():
    kw = dict(center=(1, 1, 1), radius=0.4, seed=10)
    a = certify_potential_condition(
        _probe("(x1^2 - x2^2*x3)^2", "(x1^2 + x2^2)/2", **kw))
    b = certify_potential_condition(
        _probe("(x1^2 - x2^2*x3)^2", "(x1^2 + x2^2)/2", **kw))
    assert a.to_dict() == b.to_dict()


def test_empty_shell_reported():
    # potential bounded by 1e-8 in the ball; delta = 1e-2 is unreachable
    probe = _probe("(x1^2 + x2^2 + x3^2)^4", "x1", radius=0.1,
                   delta_min=1e-2, delta_max=2e-2, seed=11)
    with pytest.raises(EmptyShell) as raised:
        certify_potential_condition(probe)
    # one round of starts that keeps no point ends the shell
    assert raised.value.attempts == 2 * probe.samples
    assert raised.value.attempts < certify.MAX_ATTEMPTS_PER_SHELL


def test_too_few_filled_shells_reported(monkeypatch):
    # U = x1^2 x2^2 stays below 1e-5 in this ball: two shells fill, too few
    # to refute, so the refuted crossing potential must not certify
    probe = HypothesisProbe(
        metric=E2,
        potential=ScalarField.parse("x1^2*x2^2", 2),
        f=ScalarField.parse("x1", 2),
        center=np.zeros(2), radius=0.06, seed=4)
    with pytest.raises(EmptyShell) as raised:
        certify_potential_condition(probe)
    assert raised.value.delta == pytest.approx(1e-5)
    # the probe keeps the error: asking again draws no shell
    monkeypatch.setattr(certify, "_sample_shell", None)
    with pytest.raises(EmptyShell):
        certify_potential_condition(probe)


@pytest.mark.parametrize("bad_shell, error", [(0, GradientTooSmall),
                                               (2, EmptyShell)])
def test_too_few_filled_shells_raise_in_shell_order(bad_shell, error,
                                                    monkeypatch):
    """With two filled shells, a point where |grad f| is below the floor
    before the first empty shell is named before that shell's EmptyShell,
    and one after it is never evaluated."""
    good, bad = np.array([[1.0, 0.0, 0.5]]), np.array([[0.0, 0.0, 0.5]])
    shells = {0: good, 2: good, bad_shell: bad}
    monkeypatch.setattr(certify, "_sample_shell", lambda _probe, _delta, j: (
        shells.get(j, good[:0]), 7, []))
    with pytest.raises(error) as raised:
        certify_potential_condition(_probe("x3^2", "x1^2"))
    if error is EmptyShell:
        assert (raised.value.delta, raised.value.attempts) == (
            pytest.approx(1e-6), 7)


def test_codimension_two_shells_fill():
    # U vanishes on the x3 axis, so the 1e-7 shell is a thin tube holding
    # about 5e-6 of the ball's volume; projection fills it all the same
    probe = _probe("x1^2 + x2^2", "x3", radius=0.5)
    report = certify_potential_condition(probe)
    assert [s.delta for s in report.shells] == pytest.approx(
        [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    assert [s.count for s in report.shells] == [200] * 6
    shells, _skipped, _near = probe._table
    for delta, attempts, points, _table in shells:
        assert attempts < certify.MAX_ATTEMPTS_PER_SHELL
        values, _grads = probe.potential.vectorized()(points)
        assert np.all((values >= delta) & (values <= 10 * delta))
        assert np.all(np.linalg.norm(points, axis=1) <= 0.5)


@pytest.mark.parametrize("seed", [2, 14, 23, 60, 62, 63, 86])
@pytest.mark.parametrize("name", ["corollary1-unstable-magnetic",
                                  "corollary1-mechanical"])
def test_corollary_shells_full_at_formerly_starved_seeds(name, seed):
    problem = harness.corpus_entry(name)
    probe = harness.certification_probe(problem, seed=seed)
    potential = certify_potential_condition(probe)
    magnetic = certify_magnetic_condition(probe)
    for report in (potential, magnetic):
        assert "empty_shells" not in report.notes
    assert [s.count for s in potential.shells] == [200] * 6
    verdict = harness.certification_verdict(problem, potential.verdict,
                                            magnetic.verdict)
    assert verdict == problem.labels["certification"]


@pytest.mark.parametrize("name", ["corollary1-unstable-magnetic",
                                  "corollary1-mechanical"])
def test_empty_shell_skipped(name, monkeypatch):
    # a 1e-7 shell with no sample is skipped; the other five decide
    sample = certify._sample_shell

    def starved(probe, delta, j):
        points, attempts, near = sample(probe, delta, j)
        return (points[:0], attempts, near) if j == 0 else (
            points, attempts, near)

    monkeypatch.setattr(certify, "_sample_shell", starved)
    problem = harness.corpus_entry(name)
    probe = harness.certification_probe(problem, seed=2)
    potential = certify_potential_condition(probe)
    magnetic = certify_magnetic_condition(probe)
    assert [s.delta for s in potential.shells] == pytest.approx(
        [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    assert potential.notes["empty_shells"] == [1e-7]
    if magnetic.shells:  # the mechanical entry has no magnetic field
        assert magnetic.notes["empty_shells"] == [1e-7]
    verdict = harness.certification_verdict(problem, potential.verdict,
                                            magnetic.verdict)
    assert verdict == problem.labels["certification"]


def test_each_shell_drawn_once(monkeypatch):
    draws = collections.Counter()
    sample = certify._sample_shell

    def counted(probe, delta, j):
        draws[j] += 1
        return sample(probe, delta, j)

    monkeypatch.setattr(certify, "_sample_shell", counted)
    problem = harness.corpus_entry("unstable-magnetic-plane")
    probe = harness.certification_probe(problem)
    certify_potential_condition(probe)
    certify_magnetic_condition(probe)
    assert draws == {j: 1 for j in range(6)}


def _certified(probe):
    """Both certifiers' reports on ``probe`` as JSON text, or the class and
    message of the error each raised."""
    out = []
    for certifier in (certify_potential_condition,
                      certify_magnetic_condition):
        try:
            out.append(json.dumps(certifier(probe).to_dict(),
                                  sort_keys=True))
        except InstabError as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("stepper", ["compiled", "no_compiler"])
def test_corpus_load_certifies_each_entry_as_loaded_alone(stepper, request,
                                                          count_calls):
    """Entries loaded together share equal fields, so the plane entries
    share U and the corollary entries theirs, and a probe takes the shells
    that an entry before it drew, projecting no start. For probe seeds 0-2
    each entry's reports keep the bytes, or the error, of the entry loaded
    alone, which projects its own."""
    request.getfixturevalue(stepper)
    problems = harness.corpus()
    by_name = {p.name: p for p in problems}
    for group in (["stable-magnetic-plane", "unstable-magnetic-plane",
                   "mechanical-plane"],
                  ["corollary1-unstable-magnetic", "corollary1-mechanical"]):
        assert len({id(by_name[name].potential) for name in group}) == 1
        assert len({id(by_name[name].f) for name in group}) == 1
    assert len({id(p.metric) for p in problems if p.dimension == 3}) == 1
    taken = {"unstable-magnetic-plane", "mechanical-plane",
             "corollary1-mechanical"}
    for seed, problem in itertools.product(range(3), problems):
        with count_calls(certify, "_project") as shared:
            together = _certified(harness.certification_probe(problem,
                                                              seed=seed))
        with count_calls(certify, "_project") as cold:
            alone = _certified(harness.certification_probe(
                harness.corpus_entry(problem.name), seed=seed))
        assert (not shared, not cold) == (problem.name in taken, False)
        assert together == alone


@pytest.mark.parametrize("setting, value, drawn", [
    ("seed", 0, 0),  # no change: the shells are taken, not drawn
    ("center", np.array([-0.0, 0.0, 0.0]), 1), ("radius", 0.4, 1),
    ("delta_min", 1e-6, 1), ("delta_max", 1e-3, 1), ("samples", 150, 1),
    ("seed", 1, 1)])
def test_a_changed_probe_setting_draws_its_own_shells(setting, value, drawn,
                                                      count_calls):
    """On the U that the plane entries share, a probe that differs from the
    last one in a single setting, even by -0.0 against 0.0 in its center,
    projects its own shells, and both its reports are a cold probe's, on
    fields of its own; an unchanged probe projects none."""
    def probe(problem):
        return HypothesisProbe(
            metric=problem.metric, potential=problem.potential, f=problem.f,
            magnetic=problem.magnetic,
            **{"center": problem.center, "seed": 0, setting: value})

    first, second = [p for p in harness.corpus()
                     if p.name in ("stable-magnetic-plane",
                                   "unstable-magnetic-plane")]
    assert first.potential is second.potential
    certify_potential_condition(harness.certification_probe(first))
    with count_calls(certify, "_project") as projected:
        got = _certified(probe(second))
    assert bool(projected) == drawn
    assert got == _certified(probe(harness.corpus_entry(second.name)))


def test_kept_shells_own_their_memory_and_are_read_only():
    """The shells kept on U's field, their points and shell 0's near-locus
    points, are compact read-only arrays, not views of a pass."""
    problem = harness.corpus_entry("corollary1-unstable-magnetic")
    certify_magnetic_condition(harness.certification_probe(problem))
    _key, shells = problem.potential.compiled["shells"]
    near = shells[0][2]
    assert len(near) and all(len(points) == 200 for points, *_ in shells)
    for rows in [points for points, *_ in shells] + [near]:
        assert rows.base is None and not rows.flags.writeable


def test_a_dropped_load_frees_its_fields_and_shells_at_once():
    """No kernel keeps a reference to the field in whose code cache it is,
    so a corpus load that certified, made its motion kernels and its flow
    kernels and is then dropped frees its potentials, with the shells they
    keep, and its f's with no garbage collection."""
    problems = harness.corpus()
    for problem in problems:
        _certified(harness.certification_probe(problem))
        compile_motion(problem.system(0.1))
        compile_flow(problem.metric, problem.f, columns=1)
    fields = [weakref.ref(fld) for problem in problems
              for fld in (problem.potential, problem.f)]
    gc.disable()
    try:
        del problem, problems
        assert not any(ref() for ref in fields)
    finally:
        gc.enable()


def test_run_all_projects_each_distinct_shell_set_once(count_calls):
    """Run-all's probes make 7 Newton passes, not 10: the plane entries
    share one U and its shells, and the corollary entries theirs."""
    with count_calls(native, "newton") as calls:
        harness.run_all(seed=42)
    assert len(calls) == 7


@pytest.mark.parametrize("stepper", ["compiled", "no_compiler"])
def test_each_shell_point_evaluated_once(stepper, request, monkeypatch):
    """One ``vectorized`` pass of f and of U over the probe's shell points
    joined in shell order, one magnetic_tensor_rows pass per shell, one
    projection of all first rounds and shell 0's near-locus starts, and no
    scalar value_and_grad or magnetic_tensor call at a shell point, since
    every row of this entry's shells is finite. Without a compiler the
    projection steps the starts themselves, uncopied, with one pass of U
    per Newton step and no other generated numpy pass; with the compiled
    loop it makes one call of it, which declines no start, and no numpy
    pass at all."""
    request.getfixturevalue(stepper)
    problem = harness.corpus_entry("unstable-magnetic-plane")
    probe = harness.certification_probe(problem)
    passes, generated, scalar, projections, loops = [], [], [], [], []
    vectorized = ScalarField.vectorized
    rows = certify.magnetic_tensor_rows
    project = certify._project
    define = expr._define
    newton = native.newton

    def logged_rows(form, points):
        passes.append((form, points.copy()))
        return rows(form, points)

    def logged(field):
        function = vectorized(field)

        def run(points):
            passes.append((field, points.copy()))
            return function(points)
        return run

    def defined(name, src, namespace):
        function = define(name, src, namespace)
        if name != "_vec":  # a scalar kernel
            return function

        def run(points):  # every generated numpy function
            generated.append(points.copy())
            return function(points)
        return run

    def projected(probe, points, targets):
        start = len(passes), len(generated), len(loops)
        starts = points.copy()  # a declined start is stepped in place
        out = project(probe, points, targets)
        projections.append((starts, out[0] is points, passes[start[0]:],
                            generated[start[1]:], loops[start[2]:]))
        return out

    def looped(*args):
        out = newton(*args)
        loops.append(out[2])  # the mask of the starts it declines
        return out

    def noted(fn):
        def call(owner, point):
            scalar.append(np.asarray(point, dtype=float))
            return fn(owner, point)
        return call

    monkeypatch.setattr(ScalarField, "vectorized", logged)
    monkeypatch.setattr(certify, "magnetic_tensor_rows", logged_rows)
    monkeypatch.setattr(expr, "_define", defined)
    monkeypatch.setattr(certify, "_project", projected)
    monkeypatch.setattr(native, "newton", looped)
    monkeypatch.setattr(ScalarField, "value_and_grad",
                        noted(ScalarField.value_and_grad))
    monkeypatch.setattr(certify, "magnetic_tensor",
                        noted(certify.magnetic_tensor))
    certify_potential_condition(probe)
    magnetic = certify_magnetic_condition(probe)
    assert not magnetic.notes.get("trivial")
    shells, _skipped, _near = probe._table
    assert len(shells) == 6
    shell_points = np.concatenate([points for *_, points, _ in shells])
    for fld in [probe.f, probe.potential]:
        assert sum(owner is fld and np.array_equal(seen, shell_points)
                   for owner, seen in passes) == 1
    assert sum(np.array_equal(seen, shell_points)
               for seen in generated) == 2
    for _delta, _attempts, points, _columns in shells:
        assert sum(owner is probe.magnetic and np.array_equal(seen, points)
                   for owner, seen in passes) == 1
        assert sum(np.array_equal(seen, points) for seen in generated) == 1
    assert not any((shell_points == x).all(axis=1).any() for x in scalar)
    # every shell takes one round: a single projection of all starts
    [(starts, in_place, seen, numpy_passes, [declined])] = projections
    assert len(starts) == 6 * 2 * probe.samples + certify._NEAR_STARTS
    if stepper == "compiled":
        assert not declined.any() and not seen and not numpy_passes
        assert not in_place
        return
    # numpy passes over all starts, then over the points each Newton step
    # moves, so it never evaluates a point twice; the starts themselves are
    # stepped, uncopied
    assert declined.all() and in_place
    assert all(owner is probe.potential for owner, _points in seen)
    assert len(numpy_passes) == len(seen) <= 1 + certify._NEWTON_STEPS
    assert np.array_equal(numpy_passes[0], starts)
    evaluated = np.concatenate(numpy_passes)
    assert len(np.unique(evaluated, axis=0)) == len(evaluated)


@pytest.mark.parametrize("samples, most", [
    # rounds of 400 starts, and shell 0's near-locus 64, joined while they
    # fit: the first pass holds every shell's first round, 2,464 starts,
    # and crossing-axes' starved top shell takes 7 rounds in its second
    (200, certify._BATCH_STARTS),
    (20000, 40000),  # past _BATCH_STARTS each shell's round alone
])
def test_projection_batches_stay_bounded(samples, most, count_calls):
    entries = ["kolibri"] if samples > 200 else [
        name for name, _data in harness._CORPUS_DATA]
    with count_calls(certify, "_project") as calls:
        for entry in entries:
            result = CliRunner().invoke(main, ["certify", entry, "--samples",
                                               str(samples)])
            assert result.exit_code == 0, result.output
    assert calls and max(len(points) for _probe, points, _t in calls) <= most


def test_gradient_floor_enforced():
    probe = _probe("x3^2", "1", seed=12)
    with pytest.raises(GradientTooSmall):
        certify_potential_condition(probe)


def test_quasi_homogeneous_certified_cases():
    whitney = ScalarField.parse("(x1^2 - x2^2*x3)^2", 3)
    spec = QuasiHomogeneousSpec(weights=[1, 1, 0], degree=4)
    report = check_quasi_homogeneous(whitney, spec, seed=0)
    assert report.certified and report.max_residual <= 1e-9

    kolibri = ScalarField.parse("(x1^2*x3^2 + x1^3 - x2^2)^2", 3)
    spec = QuasiHomogeneousSpec(weights=[2, 3, 1], degree=12)
    assert check_quasi_homogeneous(kolibri, spec, seed=0).certified

    plane = ScalarField.parse("x3^2", 3)
    spec = QuasiHomogeneousSpec(weights=[1, 1, 1], degree=2)
    assert check_quasi_homogeneous(plane, spec, seed=0).certified


def test_quasi_homogeneous_wrong_degree_fails():
    whitney = ScalarField.parse("(x1^2 - x2^2*x3)^2", 3)
    spec = QuasiHomogeneousSpec(weights=[1, 1, 0], degree=6)
    report = check_quasi_homogeneous(whitney, spec, seed=0)
    assert not report.certified
    assert report.witness is not None


def test_quasi_homogeneous_spec_rejects_zero_weights():
    with pytest.raises(ValueError):
        QuasiHomogeneousSpec(weights=[0, 0], degree=2)


def test_commuting_certified_cases():
    fields = [ScalarField.parse("x1 + x3^2", 3),
              ScalarField.parse("x2", 3)]
    report = check_orthogonal_commuting(E3, fields, seed=0, box=0.4)
    assert report.certified
    assert report.max_inner_product <= 1e-9
    assert report.max_bracket_norm <= 1e-5

    trivial = [ScalarField.parse("x1", 3), ScalarField.parse("x2", 3)]
    assert check_orthogonal_commuting(E3, trivial, seed=0).certified


def test_commuting_rejects_non_finite_bracket(monkeypatch):
    # a nan bracket fails both "greater than" tests; it must not certify
    def nan_flow(metric, fld, x, floor):
        return np.full(len(x), np.nan), np.full((len(x), len(x)), np.nan)

    monkeypatch.setattr(certify, "normalized_gradient_jacobian", nan_flow)
    fields = [ScalarField.parse("x1", 2), ScalarField.parse("x2", 2)]
    with pytest.raises(NonFiniteResult, match="at point"):
        check_orthogonal_commuting(E2, fields, seed=0)


def test_commuting_raises_where_a_normalized_gradient_jacobian_does():
    # DX overflows there (test_geometry's OVERFLOWING_DX)
    source, point = "x1 - ln(x3)/2", [0.0, 0.0, 7e-104]
    fields = [ScalarField.parse(source, 3), ScalarField.parse("x2", 3)]
    with pytest.raises(NonFiniteResult) as want:
        normalized_gradient_jacobian(E3, fields[0], point, GRADIENT_FLOOR)
    with pytest.raises(NonFiniteResult) as got:  # every sample at the point
        check_orthogonal_commuting(E3, fields, center=point, box=0.0)
    assert str(got.value) == str(want.value)


def test_commuting_refuted_on_oblique_pair():
    fields = [ScalarField.parse("x1", 2),
              ScalarField.parse("x1*x2", 2)]
    report = check_orthogonal_commuting(E2, fields, seed=0,
                                        center=[1.0, 1.0], box=0.3)
    assert not report.certified
    assert report.max_inner_product > 1e-9
    assert report.witness is not None


def test_bracket_norm_is_exact():
    """[x1, x1*x2] on E2 has norm 1/(x1^2 + x2^2) to rounding."""
    fields = [ScalarField.parse("x1", 2),
              ScalarField.parse("x1*x2", 2)]
    report = check_orthogonal_commuting(E2, fields, seed=0,
                                        center=[1.0, 1.0], box=0.3)
    # the 64 points the check draws
    samples = 1.0 + np.random.default_rng(0).uniform(-0.3, 0.3, (64, 2))
    expected = np.max(1.0 / np.sum(samples ** 2, axis=1))
    assert report.max_bracket_norm == pytest.approx(expected, rel=1e-13)


def test_pullback_matches_hand_formula():
    fields = [ScalarField.parse("x1 + x3^2", 3),
              ScalarField.parse("x2", 3)]
    omega = OneForm.from_sources(["0", "x1"])  # first level value times db
    mu = build_pullback_magnetic(fields, omega)
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        values = [c.eval(p) for c in mu.components]
        assert values == pytest.approx([0.0, p[0] + p[2] ** 2, 0.0])
        tensor = magnetic_tensor(mu, p)
        assert tensor[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert tensor[2, 1] == pytest.approx(2 * p[2], abs=1e-12)
    origin = magnetic_tensor(mu, np.zeros(3))
    assert origin[0, 1] == pytest.approx(1.0)


def test_pullback_of_zero_form_is_zero():
    fields = [ScalarField.parse("x1 + x3^2", 3),
              ScalarField.parse("x2", 3)]
    mu = build_pullback_magnetic(fields, OneForm.from_sources(["0", "0"]))
    p = [0.3, -0.2, 0.7]
    assert all(c.eval(p) == 0.0 for c in mu.components)
    assert np.all(magnetic_tensor(mu, p) == 0.0)


def test_chart_contraction_vanishes_for_adapted_candidate():
    fields = [ScalarField.parse("x1 + x3^2", 3),
              ScalarField.parse("x2", 3)]
    psi = BaseSurfaceMap(
        [ScalarField.parse(s, 1) for s in ("-x1^2", "0", "x1")],
        [(0.6, 1.4)],
    )
    chart = build_multi_chart(E3, fields, psi,
                              [(-0.25, 0.25), (-0.25, 0.25)], grid_count=3)
    mu = build_pullback_magnetic(fields, OneForm.from_sources(["0", "x1"]))
    f = ScalarField.parse("x1 - ln(x3)/2", 3)
    out = chart_contraction_check(chart, mu, f, grid_count=3)
    assert out["passed"]
    assert out["max_component"] <= 1e-8


# --- the numpy table against the point-by-point loop -------------------------
#
# The oracle is the certifiers' former scalar path: one gradient_data and one
# value_and_grad call per shell point, one magnetic tensor and two norms per
# point, and a loop over the Euler check's points.

_POINT_METRICS = {
    "euclidean": None,
    "criterion 10": [["1", "0", "0"], ["0", "1 + x1^2/4", "x1/4"],
                     ["0", "x1/4", "1 + (x2 + x3)^2/8"]],
    "singular off x1 > 0": [["1", "0", "0"], ["0", "x1", "0"],
                            ["0", "0", "1"]],
}


def _oracle_ratio(grad, u_val, du):
    if u_val <= 0:
        return math.inf
    num = float(guard_cancellation(du @ grad, np.abs(du) @ np.abs(grad)))
    return abs(num) / u_val


@np.errstate(all="ignore")  # an overflow gives inf, as in the certifier
def _oracle_norms(metric, tensor, grad, x):
    covector = guard_cancellation(grad @ tensor, np.abs(grad) @ np.abs(tensor))
    ginv = metric.inverse(x)
    raised = ginv @ tensor @ ginv
    contracted = covector @ ginv @ covector
    if np.isinf(covector).any() and not np.isnan(covector).any():
        contracted = math.inf  # not inf * 0: g^-1 is positive-definite
    return (float(np.sqrt(max(contracted, 0.0))),
            float(np.sqrt(max(0.5 * np.sum(tensor * raised), 0.0))))


def _oracle_row(points, ratios):
    column = np.array(ratios, dtype=float)
    worst = int(np.argmax(column))
    return (len(points), float(column[worst]), float(column.mean()),
            [float(c) for c in points[worst]])


def _oracle_constants(probe):
    rng = np.random.default_rng([probe.seed, 9999])
    m_grad, m_quad = math.inf, 1.0
    for x in certify._ball_points(probe, rng, 64):
        try:
            _df, _grad, norm_sq = gradient_data(probe.metric, probe.f, x)
            m_grad = min(m_grad, math.sqrt(max(norm_sq, 0.0)))
            if not probe.metric.euclidean:
                m_quad = max(m_quad, float(np.max(
                    np.linalg.eigvalsh(probe.metric.value(x)))))
        except (DomainError, NonFiniteResult):
            continue
    return m_grad, m_quad, gradient_data(probe.metric, probe.f,
                                         probe.center)[2]


def _check_proof_constant(condition, rows, constants, magnetic):
    """Raise the certifier's NonFiniteResult where the proof constant of
    ``rows``, C1 (``magnetic``) or C2, overflows."""
    m_grad, m_quad, cap_sq = constants
    k_bound = max((row[1] for row in rows), default=0.0)
    try:
        if magnetic:
            math.sqrt(m_grad ** -4 * k_bound ** 2 / (2.0 * m_quad))
        else:
            m_grad ** -2 * k_bound * cap_sq / 2.0
    except (OverflowError, ZeroDivisionError):
        raise NonFiniteResult(
            f"proof constant {'C1' if magnetic else 'C2'} of {condition!r} "
            f"overflows: the smallest sampled |grad f| is {m_grad!r}")


def _check_finite(condition, what, points, values):
    """Raise the certifier's NonFiniteResult at the first of ``points``
    where ``values`` is not finite."""
    for x, value in zip(points, values):
        if not math.isfinite(value):
            raise NonFiniteResult(f"{condition!r}: {what} is not finite "
                                  f"({value!r}) at {format_point(x)}")


def _oracle(probe, shells, near):
    """Potential rows, proof constants, magnetic rows, full-norm rows and
    near-locus extremes, in the order the scalar path computed them, or
    the error it raised, also where a proof constant overflows or a
    magnetic ratio where U > 0 or a near-locus norm is not finite."""
    metric, mu = probe.metric, probe.magnetic
    table = [[(gradient_data(metric, probe.f, x, GRADIENT_FLOOR)[1],
               *probe.potential.value_and_grad(x)) for x in points]
             for points in shells]
    out = [[_oracle_row(points, [_oracle_ratio(*at) for at in rows])
            for points, rows in zip(shells, table)],
           _oracle_constants(probe)]
    _check_proof_constant("dU(grad f) = O(U)", *out, magnetic=False)
    if mu is None or certify._is_zero_form(mu, probe.center):
        return out
    condition = "|iota_{grad f} d mu| = O(sqrt U)"
    rows, full_rows = [], []
    for delta, points, evaluated in zip(probe.shell_deltas(), shells, table):
        ratios = [(math.inf, math.inf) if u_val <= 0 else tuple(
            norm / math.sqrt(u_val) for norm in _oracle_norms(
                metric, certify.magnetic_tensor(mu, x), grad, x))
            for x, (grad, u_val, _du) in zip(points, evaluated)]
        positive = [(x, r) for x, r, (_g, u_val, _du)
                    in zip(points, ratios, evaluated) if u_val > 0]
        for i, what in enumerate(["the ratio", "the full-norm ratio"]):
            _check_finite(condition, f"{what} on the shell delta = "
                          f"{float(delta)!r}", [x for x, _r in positive],
                          [r[i] for _x, r in positive])
        rows.append(_oracle_row(points, [c for c, _full in ratios]))
        full_rows.append(_oracle_row(points, [full for _c, full in ratios]))
    near_norms = [_oracle_norms(metric, certify.magnetic_tensor(mu, x),
                                riemannian_gradient(metric, probe.f, x), x)
                  for x in near]
    for i, what in enumerate(["|iota_{grad f} d mu|", "|d mu|"]):
        _check_finite(condition, f"the near-locus {what}", near,
                      [norms[i] for norms in near_norms])
    _check_proof_constant(condition, rows, out[1], magnetic=True)
    return out + [rows, full_rows,
                  max([0.0] + [c for c, _dmu in near_norms]),
                  min([math.inf] + [dmu for _c, dmu in near_norms])]


def _numpy_path(probe):
    def rows(shells):
        return [(s["count"], s["max_ratio"], s["mean_ratio"], s["witness"])
                for s in shells]
    potential = certify_potential_condition(probe).to_dict()
    out = [rows(potential["shells"]), certify._proof_constants(probe)]
    magnetic = certify_magnetic_condition(probe).to_dict()
    notes = magnetic["notes"]
    if notes.get("trivial"):
        return out
    return out + [rows(magnetic["shells"]), rows(notes["full_norm_shells"]),
                  notes["near_locus_contraction_max"],
                  math.inf if notes["near_locus_dmu_min"] is None
                  else notes["near_locus_dmu_min"]]


def _result(fn, *args):
    """(fn(*args), None), or (None, (type, message)) of its InstabError."""
    try:
        return fn(*args), None
    except InstabError as exc:
        return None, (type(exc), str(exc))


def _compare_paths(u_source, f_source, form, metric_name, points, bits):
    """Both certifiers on four shells cut from ``points`` (near-locus
    points: the last two) against the oracle: the same error, or the same
    rows, constants and near-locus extremes (bit for bit with ``bits``)."""
    metric = _POINT_METRICS[metric_name]
    probe = HypothesisProbe(
        metric=(MetricSpec.identity(3) if metric is None
                else MetricSpec.from_sources(3, metric)),
        potential=ScalarField.parse(u_source, 3),
        f=ScalarField.parse(f_source, 3),
        magnetic=None if form is None else OneForm.from_sources(form),
        center=np.array([1.0, 0.5, 0.25]), delta_min=1e-4, delta_max=1e-1)
    points = np.array(points, dtype=float)
    shells, near = np.array_split(points, 4), list(points[-2:])

    def sample(_probe, _delta, j):
        return shells[j], len(shells[j]), near if j == 0 else []

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "_sample_shell", sample)
        got, error = _result(_numpy_path, probe)
    expected, expected_error = _result(_oracle, probe, shells, near)
    assert error == expected_error
    if error is None and bits:
        assert repr(got) == repr(expected)
    elif error is None:
        assert len(got) == len(expected)


_LEAVES = st.sampled_from(["x1", "x2", "x3", "1", "2", "0.5", "3"])


def _polynomial_extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children)
        .map(lambda t: "({} {} {})".format(*t)),
        st.tuples(children, st.integers(0, 16))
        .map(lambda t: "({})^{}".format(*t)))


_POLYNOMIALS = st.recursive(_LEAVES, _polynomial_extend, max_leaves=8)
_RATIONALS = st.one_of(
    _POLYNOMIALS, st.tuples(_POLYNOMIALS, _POLYNOMIALS)
    .map(lambda t: "({}) / ({})".format(*t)))
_SHELL_COORDS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-7, 6.774893096905552e-256,
                     7.537836242473134e-296]),
    st.floats(-2, 2))
_SHELL_POINTS = st.lists(st.tuples(_SHELL_COORDS, _SHELL_COORDS,
                                   _SHELL_COORDS), min_size=4, max_size=24)
_FORMS = st.one_of(st.none(), st.lists(_POLYNOMIALS, min_size=3,
                                       max_size=3))


@given(_RATIONALS, _RATIONALS, _FORMS, st.sampled_from(sorted(_POINT_METRICS)),
       _SHELL_POINTS)
@example("x1^2 + x2^2", "x1", ["1e300 * x2", "0", "0"], "euclidean",
         [(0.5, 0.5, 0.0)] * 4)  # |iota_{grad f} d mu|^2 overflows
@settings(max_examples=150, deadline=None)
def test_numpy_table_matches_point_by_point_loop(u_source, f_source, form,
                                                 metric, points):
    """Polynomial and rational fields: the same bits, or the same error at
    the same point."""
    _compare_paths(u_source, f_source, form, metric, points, bits=True)


# test_backends_agree's edge cases, where only a guard of the scalar
# gradient fails, and a gradient floor missed at the k-th point, k > 0
@given(st.sampled_from(["(-(sqrt(x1))^(0))", "(0 / x2)",
                        "(-((x1)^((0 - 1)))^(0))", "(-((-1))^(18))",
                        "x1 - ln(x3)/2", "sqrt(x2) + x3",
                        "(x1^2 + x2^2)/2", "x3 / (x1 - x2)"]),
       st.sampled_from(["x3^2", "ln(x1)^2 + x2^2", "sqrt(x1 * x2) + x3^2",
                        "x1^2 / x2", "(0 / x2) + x3^2"]),
       st.sampled_from([None, ["0", "x3 / x1", "ln(x2)"],
                        ["sqrt(x3)", "x1", "0"]]),
       st.sampled_from(sorted(_POINT_METRICS)), _SHELL_POINTS)
@example("(x1^2 + x2^2)/2", "x3^2", None, "euclidean",
         [(1.0, 1.0, 0.5)] * 5 + [(1e-7, 1e-7, 0.5), (1.0, 1.0, 1.0),
                                  (0.0, 1e-7, 0.5)])
@example("(-(sqrt(x1))^(0))", "x3^2", None, "euclidean",
         [(1.0, 1.0, 1.0)] * 3 + [(0.0, 1.0, 1.0)] * 2)
@example("x1", "(0 / x2)", None, "euclidean",
         [(1.0, 1.0, 1.0)] * 6 + [(0.0, 6.774893096905552e-256, 1.0)])
@example("x1", "(-((x1)^((0 - 1)))^(0))", None, "euclidean",
         [(1.0, 1.0, 1.0)] * 5 + [(7.537836242473134e-296, 0.0, 1.0)])
# the proof constant C1 overflows: F ~ 1/sqrt(x3) over sqrt(U) = x3
@example("sqrt(x2) + x3", "x3^2", ["sqrt(x3)", "x1", "0"], "criterion 10",
         [(0.0, 1.0, 1.0)] * 3 + [(0.0, 1.0, 8.2514014721536e-135)])
@settings(max_examples=150, deadline=None)
def test_numpy_table_raises_like_point_by_point_loop(f_source, u_source,
                                                     form, metric, points):
    """ln, sqrt and division: the same error class, message and point."""
    _compare_paths(u_source, f_source, form, metric, points, bits=False)


# --- batched rounds against the per-shell sampler ---------------------------

_TRANSCENDENTAL = "ln(1 + x2^2) + x2^2 / (2 + cos(x1)) + sqrt(1 + x2^4) - 1"
_SHELL_POTENTIALS = st.one_of(
    _POLYNOMIALS.map(lambda source: (source, 3)),
    st.sampled_from([(_TRANSCENDENTAL, 2),
                     ("sqrt(x1) * x2^2 + x3^2", 3)]))  # nan where x1 < 0


@given(_SHELL_POTENTIALS, st.sampled_from([100, 150, 1000, 3000]),
       st.integers(0, 2 ** 16), st.sampled_from([0.02, 0.1, 0.5, 1.0]),
       st.sampled_from([1e-7, 1e-4]))
# shell 0 takes a second round, so the batch's near-locus draw goes unused
@example(("x1^2*x2^2*x3^2", 3), 200, 0, 0.5, 1e-4)
@example(("x1^2*x2^2 + x3^4", 3), 200, 1, 0.02, 1e-7)
# test_too_few_filled_shells_reported's probe: two shells fill
@example(("x1^2*x2^2", 2), 200, 4, 0.06, 1e-7)
# shells 0, 1 and 2 take 1, 2 and 19 rounds: later rounds of shells 1 and 2
# share a pass, which shell 0 and its near-locus starts no longer join
@example(("x1^2*x2^2*x3^2 + x1^6", 3), 200, 1, 0.5, 1e-4)
# a round of 4,096 starts fills _BATCH_STARTS alone, and shell 0's
# near-locus starts are projected without it
@example(("x1^2*x2^2 + x3^4", 3), 2048, 3, 0.5, 1e-7)
@settings(max_examples=30, deadline=None)
def test_batched_shells_match_per_shell_sampler(potential, samples, seed,
                                                radius, delta_min):
    """Each shell's points, attempts and near-locus points keep the bits of
    its own sampler, each round projected with the other open shells'
    rounds of the same round while their starts fit in _BATCH_STARTS, and
    too few filled shells raise EmptyShell at the same shell with the same
    attempts."""
    source, n = potential

    def probe():
        return HypothesisProbe(
            metric=MetricSpec.identity(n), potential=ScalarField.parse(
                source, n), f=ScalarField.parse("x1", n),
            center=np.zeros(n), radius=radius, delta_min=delta_min,
            samples=samples, seed=seed)

    batched, alone = probe(), probe()
    expected = []
    for j, delta in enumerate(batched.shell_deltas()):
        got = certify._sample_shell(batched, delta, j)
        want = oracles.sample_shell(alone, delta, j)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert np.array_equal(np.reshape(got[2], (-1, n)),
                              np.reshape(want[2], (-1, n)))
        expected.append((delta, want[1], len(want[0])))
    empty = [(delta, attempts) for delta, attempts, count in expected
             if not count]
    if empty and len(expected) - len(empty) < certify._REFUTATION_WINDOW:
        with pytest.raises(EmptyShell) as raised:
            certify._evaluated_shells(probe())
        assert (raised.value.delta, raised.value.attempts) == empty[0]


# --- the compiled Newton loop against the numpy loop -------------------------

def _polynomials(n):
    leaves = st.sampled_from([f"x{i + 1}" for i in range(n)]
                             + ["1", "0.5", "3"])
    return st.recursive(leaves, _polynomial_extend, max_leaves=8)


def _projections(source, n, starts, targets):
    """``_project`` of the starts toward U = targets, with a probe ball of
    radius 1 about 0, and the mask of the starts the compiled loop
    declines."""
    probe = HypothesisProbe(
        metric=MetricSpec.identity(n), potential=ScalarField.parse(source, n),
        f=ScalarField.parse("x1", n), center=np.zeros(n), radius=1.0)
    declined = native.newton(probe.potential, starts, targets,
                             certify._NEWTON_STEPS, certify._NEWTON_TOL)[2]
    return certify._project(probe, starts, targets), declined


def _starts(n, seed, scale=1.0):
    """64 starts in the box of half-width ``scale`` about 0, or of random
    scales up to it, and targets log-uniform in [1e-8, 1]."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-1.0, 1.0, (64, n))
    if scale != 1.0:
        starts *= scale ** rng.random((64, 1))
    return starts, 10.0 ** rng.uniform(-8.0, 0.0, 64)


def _same_bits(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in zip(got, want))


@given(polynomial=st.sampled_from([1, 2, 3, 5]).flatmap(
    lambda n: st.tuples(st.just(n), _polynomials(n))),
    seed=st.integers(0, 2 ** 16))
@example(polynomial=(5, "(x1^2 + x2^2*x3) * (x4 - 0.5)^2 + x5^4"), seed=0)
@example(polynomial=(3, "(x1 + x2)^16 - 3*x3"), seed=1)
@settings(max_examples=60, deadline=None)
def test_compiled_newton_loop_has_the_numpy_loops_bits(
        polynomial, seed, compiled, python_only):
    """Each start's end point and U, nan where it leaves the ball, keep the
    numpy loop's bits; |grad U|^2 is one left fold in both, also in five
    dimensions. A polynomial's program is numpy-exact."""
    n, source = polynomial
    starts, targets = _starts(n, seed)
    got, _declined = _projections(source, n, starts, targets)
    with python_only():
        want, everything = _projections(source, n, starts, targets)
    assert everything.all() and _same_bits(got, want)
    assert ScalarField.parse(source, n).program(native.program)[4]


@pytest.mark.parametrize("source, n, scale, exact", [
    ("1e200*x1^2 + x2^2", 2, 1e80, True),  # U overflows past |x1| = 1e54
    ("sqrt(x1) * x2^2 + x3^2", 3, 1.0, True),  # nan where x1 < 0
    ("ln(1 + x2^2) + x2^2 / (2 + cos(x1)) + sqrt(1 + x2^4) - 1", 2, 1.0,
     False),  # transcendental: every start takes the numpy loop
])
def test_declined_starts_take_the_numpy_loop(source, n, scale, exact,
                                             compiled, python_only):
    """The compiled loop declines the starts where U's program bails, and
    those land where the numpy loop puts them; a program that is not
    numpy-exact is not run at all."""
    starts, targets = _starts(n, 3, scale)
    got, declined = _projections(source, n, starts, targets)
    with python_only():
        want, _declined = _projections(source, n, starts, targets)
    assert _same_bits(got, want)
    assert 0 < declined.sum() < 64 if exact else declined.all()


@pytest.mark.parametrize("source, n", [
    ("x1^2*x2^2 + x3^4", 3), ("(x1^2 + x2^2*x3) * (x4 - 0.5)^2 + x5^4", 5)])
def test_projection_without_a_compiler_keeps_the_compiled_bits(
        source, n, compiled, request):
    starts, targets = _starts(n, 4)
    got, declined = _projections(source, n, starts, targets)
    assert not declined.any()
    request.getfixturevalue("no_compiler")
    want, declined = _projections(source, n, starts, targets)
    assert declined.all() and _same_bits(got, want)


def _oracle_euler(potential, spec, samples, seed, box):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-box, box, size=(samples, potential.dimension))
    worst, witness = 0.0, None
    for x in points:
        u_val, du = potential.value_and_grad(x)
        residual = abs(float(spec.weights @ (x * du)) - spec.degree * u_val)
        residual /= 1.0 + abs(u_val)
        if residual > worst:
            worst, witness = residual, [float(c) for c in x]
    return worst <= certify.EULER_TOL, worst, witness


@given(_RATIONALS, st.lists(st.integers(-3, 3), min_size=3, max_size=3)
       .filter(any), st.integers(1, 12), st.integers(0, 2 ** 16))
@example("(x1^2 - x2^2*x3)^2", [1, 1, 0], 4, 3)
@example("(x1^2*x3^2 + x1^3 - x2^2)^2", [2, 3, 1], 12, 4)
@example("(x1^2 - x2^2*x3)^2", [1, 1, 0], 5, 5)
@settings(max_examples=100, deadline=None)
def test_euler_residual_matches_point_by_point_loop(source, weights, degree,
                                                    seed):
    potential = ScalarField.parse(source, 3)
    spec = QuasiHomogeneousSpec(weights=weights, degree=degree)
    got, error = _result(check_quasi_homogeneous, potential, spec, seed)
    expected, expected_error = _result(_oracle_euler, potential, spec,
                                       certify.EULER_SAMPLES, seed,
                                       certify.EULER_BOX)
    assert error == expected_error
    if error is None:
        assert repr((got.certified, got.max_residual, got.witness)) \
            == repr(expected)


# --- the verdict's median without numpy.ma ----------------------------------

_MAXIMA = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 2.0, 10.0, 1e308, math.inf,
                               -math.inf, math.nan]),
              st.floats(0, 100)),
    min_size=1, max_size=12)


def _shell_rows(maxima):
    return [certify.ShellRow(delta=10.0 ** -i, count=1, attempts=1,
                             max_ratio=m, mean_ratio=m, witness=[float(i)])
            for i, m in enumerate(maxima)]


def _numpy_median(values):
    with np.errstate(all="ignore"):
        return float(np.median(values))


@given(maxima=_MAXIMA)
@example(maxima=[1.0, math.nan, 2.0])
@example(maxima=[math.inf, -math.inf])
@example(maxima=[1e308, 1e308, 1.0, 1e308])
@example(maxima=[1.0, 1.0, 2.0, 2.0, 4.0])
@settings(max_examples=500, deadline=None)
def test_median_verdict_matches_numpy(maxima):
    got = certify._median(maxima)
    want = _numpy_median(maxima)
    assert got == want or (math.isnan(got) and math.isnan(want))
    shells = _shell_rows(maxima)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "_median", _numpy_median)
        expected = certify._verdict_from_shells(shells)
    assert certify._verdict_from_shells(shells) == expected


def test_certify_imports_no_numpy_ma():
    """np.median's nan check imports numpy.ma, over a megabyte resident;
    certification reads its median without it."""
    code = ("import sys\n"
            "from instab.cli import main\n"
            "try:\n"
            "    main(['certify', 'mechanical-plane'])\n"
            "except SystemExit as exit:\n"
            "    print(exit.code, 'numpy.ma' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.stdout.splitlines()[-1] == "0 False", result.stderr
