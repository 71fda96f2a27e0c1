"""Hypothesis certification: shell tables, verdicts, algebraic identities."""

import collections
import math

import numpy as np
import pytest

from instab import certify, harness
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
from instab.charts import BaseSurfaceMap, build_multi_chart
from instab.errors import EmptyShell, GradientTooSmall
from instab.expr import ScalarField
from instab.geometry import MetricSpec, OneForm, magnetic_tensor

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
    with pytest.raises(EmptyShell):
        certify_potential_condition(probe)


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


@pytest.mark.parametrize("name", ["corollary1-unstable-magnetic",
                                  "corollary1-mechanical"])
def test_empty_shell_skipped(name):
    # at probe seed 2 no draw lands in the 1e-7 shell; the other five decide
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


def test_each_shell_point_evaluated_once(monkeypatch):
    problem = harness.corpus_entry("unstable-magnetic-plane")
    probe = harness.certification_probe(problem)
    calls = collections.Counter()
    potential = probe.potential
    evaluate = type(potential).value_and_grad

    def counted(field, point):
        calls[field is potential] += 1
        return evaluate(field, point)

    monkeypatch.setattr(type(potential), "value_and_grad", counted)
    certify_potential_condition(probe)
    certify_magnetic_condition(probe)
    shells, _skipped, _near = probe._table
    points = sum(len(points) for _delta, points, _evaluated in shells)
    assert calls[True] == points


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
