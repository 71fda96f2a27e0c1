"""Integrator and monitor checks against closed-form solutions."""

import functools
import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from instab import dynamics, expr, geometry, harness, native
from instab.dynamics import (
    LagrangianSystem,
    State,
    Tolerances,
    check_lemma1_bounds,
    compile_motion,
    el_acceleration,
    integrate,
)
from instab.errors import (
    DomainError,
    EnergyDriftExceeded,
    InstabError,
    IntegrationError,
    NonFiniteResult,
    SingularMetric,
    StepSizeUnderflow,
)
from instab.expr import ScalarField
from instab.geometry import MetricSpec, OneForm, magnetic_tensor
import oracles
from oracles import el_residual_adapted, hamiltonian

E3 = MetricSpec.identity(3)
U_PLANE = ScalarField.parse("x3^2", 3)
MU_X = OneForm.from_sources(["0", "x1", "0"])
MU_Z = OneForm.from_sources(["0", "x3", "0"])
ZERO3 = ScalarField.parse("0", 3)
# criterion 10's metric, which is also perfbench's CURVED_PROBLEM metric
CRITERION_10 = [["1", "0", "0"],
                ["0", "1 + x1^2/4", "x1/4"],
                ["0", "x1/4", "1 + (x2 + x3)^2/8"]]


def test_acceleration_restoring_force():
    system = LagrangianSystem(E3, U_PLANE, None, epsilon=1.0)
    acc = el_acceleration(system, State(0, [0, 0, 1], [0, 0, 0]))
    assert acc == pytest.approx([0, 0, -2])


def test_acceleration_free_particle():
    system = LagrangianSystem(E3, ZERO3, None, epsilon=1.0)
    acc = el_acceleration(system, State(0, [1, 2, 3], [4, 5, 6]))
    assert np.all(acc == 0)


def test_acceleration_gyroscopic_sign():
    system = LagrangianSystem(E3, U_PLANE, MU_X, epsilon=1.0)
    acc = el_acceleration(system, State(0, [0, 0, 0], [1, 0, 0]))
    assert acc == pytest.approx([0, -1, 0])


def test_acceleration_curved_metric_geodesic_term():
    g = MetricSpec.from_sources(2, [["1", "0"], ["0", "x1^2"]])
    zero = ScalarField.parse("0", 2)
    system = LagrangianSystem(g, zero, None, epsilon=1.0)
    # angular motion: a^1 = -Gamma^1_{22} v2 v2 = x1 * v2^2
    acc = el_acceleration(system, State(0, [2.0, 0.0], [0.0, 3.0]))
    assert acc[0] == pytest.approx(2.0 * 9.0)


def test_hamiltonian_values():
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=0.25)
    grad = np.array([1.0, 0, 0])
    h = hamiltonian(system, State(0, [0, 0, 0], grad))
    assert h == pytest.approx(0.5)
    assert hamiltonian(system, State(0, [0.4, 1, 0], np.zeros(3))) == 0.0
    eps = 0.3
    system2 = LagrangianSystem(E3, U_PLANE, None, epsilon=eps)
    h2 = hamiltonian(system2, State(0, [0, 0, eps], [1, 1, 0]))
    assert h2 == pytest.approx(2.0)


def test_negative_potential_rejected():
    u = ScalarField.parse("x1", 1)
    system = LagrangianSystem(MetricSpec.identity(1), u, None, epsilon=1.0)
    with pytest.raises(DomainError):
        hamiltonian(system, State(0, [-1.0], [0.0]))


def test_hamiltonian_rows_match_points():
    system = _curved_magnetic_system()
    traj = integrate(system, State(0, np.zeros(3), [0.5, 0.3, 0.1]), 1.0,
                     keep_log=True)
    n = traj.dimension
    rows = hamiltonian(system, State(traj.times, traj.states[:, :n],
                                     traj.states[:, n:]))
    points = [hamiltonian(system, State(tau, row[:n], row[n:]))
              for tau, row in zip(traj.times, traj.states)]
    # the per-row formula the vectorized pass replaced
    reference = [0.5 * (row[n:] @ system.metric.value(row[:n]) @ row[n:])
                 + system.inv_eps ** 2 * system.potential.eval(row[:n])
                 for row in traj.states]
    assert np.all(rows == np.array(points))
    assert np.all(rows == np.array(reference))
    assert np.all(rows == traj.energies)


def test_integrate_rejects_negative_potential():
    u = ScalarField.parse("x1", 1)
    system = LagrangianSystem(MetricSpec.identity(1), u, None)
    with pytest.raises(DomainError, match="potential is negative"):
        integrate(system, State(0, [0.5], [-1.0]), 1.0)


def test_integrate_straight_line():
    system = LagrangianSystem(E3, ZERO3, None, epsilon=None)
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 1.0)
    assert traj.grid_states[-1, :3] == pytest.approx([1, 0, 0], abs=1e-10)
    assert traj.energy_drift < 1e-12


def test_integrate_unstable_closed_form():
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=0.1)
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 1.0)
    for i, tau in enumerate(traj.grid_times):
        assert traj.grid_states[i, :3] == pytest.approx(
            [tau, 0, 0], abs=1e-8)


def test_integrate_stable_circle():
    """Physical-variable magnetic circle of radius epsilon."""
    eps = 0.05
    system = LagrangianSystem(E3, U_PLANE, MU_X, epsilon=None)
    traj = integrate(system, State(0, np.zeros(3), [eps, 0, 0]), 30.0,
                     tol=Tolerances(max_step=0.1), keep_log=True)
    dist = np.sqrt((traj.states[:, :3] ** 2).sum(axis=1))
    assert dist.max() <= 2 * eps + 1e-8
    # x(t) = eps sin t, y(t) = eps (cos t - 1)
    i = np.argmin(np.abs(traj.grid_times - math.pi / 2))
    t = traj.grid_times[i]
    assert traj.grid_states[i, :3] == pytest.approx(
        [eps * math.sin(t), eps * (math.cos(t) - 1), 0], abs=1e-8)


def test_energy_drift_monitor_raises(monkeypatch):
    monkeypatch.setattr(dynamics, "ENERGY_DRIFT_GATE", 1e-14)
    system = LagrangianSystem(E3, U_PLANE, None, epsilon=0.01)
    with pytest.raises(EnergyDriftExceeded):
        integrate(system, State(0, [0, 0, 0.005], [0, 1, 0]), 1.0,
                  tol=Tolerances(abs=1e-3, rel=1e-3, max_step=0.01))


def test_time_symmetry_mechanical():
    u = ScalarField.parse("(x1^2 - x2^2*x3)^2", 3)
    system = LagrangianSystem(E3, u, None, epsilon=1.0)
    start = np.array([1.0, 1.0, 1.0])
    v0 = np.array([1.0, 1.0, 0.0])
    fwd = integrate(system, State(0, start, v0), 0.5)
    end = fwd.grid_states[-1]
    back = integrate(system, State(0, end[:3], -end[3:]), 0.5)
    final = back.grid_states[-1]
    assert np.linalg.norm(final[:3] - start) < 1e-6
    assert np.linalg.norm(final[3:] + v0) < 1e-6


def test_lemma1_bounds_pass_and_fail():
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=0.1)
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 1.0)
    verdict = check_lemma1_bounds(traj, 1.0)
    assert verdict.passed
    assert verdict.speed_margin <= 1e-10
    # corrupted speeds must flag
    traj.max_speed *= 1.1
    assert not check_lemma1_bounds(traj, 1.0).passed


def test_step_cap_applied_for_rescaled_systems():
    eps = 0.02
    system = LagrangianSystem(E3, U_PLANE, None, epsilon=eps)
    # off the valley x3 = 0 the force acts from the first step, and the
    # default cap, eps, holds on every step
    traj = integrate(system, State(0, [0, 0, 0.001], [1, 0, 0]), 0.1)
    dt = np.diff(traj.times)
    assert dt[dt > 0].max() <= eps + 1e-12
    # on the valley an explicit max_step caps every step
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 0.1,
                     tol=Tolerances(max_step=eps / 10))
    dt = np.diff(traj.times)
    assert dt[dt > 0].max() <= eps / 10 + 1e-12


def test_convergence_order_in_step_size(monkeypatch):
    """Error against the closed-form circle scales like h^7 or better, the
    order of the dense output, at steps whose error is above rounding."""
    monkeypatch.setattr(dynamics, "ENERGY_DRIFT_GATE", np.inf)
    eps = 0.1
    system = LagrangianSystem(E3, U_PLANE, MU_X, epsilon=None)
    errors = []
    steps = [0.8, 0.4, 0.2]
    for h in steps:
        traj = integrate(
            system, State(0, np.zeros(3), [eps, 0, 0]), 6.0,
            tol=Tolerances(abs=1e2, rel=1e2, max_step=h))
        t = traj.grid_times
        exact = np.stack([eps * np.sin(t), eps * (np.cos(t) - 1),
                          np.zeros_like(t)], axis=1)
        errors.append(np.max(np.abs(traj.grid_states[:, :3] - exact)))
    slopes = [
        math.log(a / b) / math.log(ha / hb)
        for (a, ha), (b, hb) in zip(zip(errors, steps),
                                    list(zip(errors, steps))[1:])
    ]
    assert min(slopes) >= 7.0


def test_csv_export_columns(tmp_path):
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=0.1)
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 0.2,
                     keep_log=True)
    path = tmp_path / "run.csv"
    with open(path, "w") as fh:
        traj.to_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,x1,x2,x3,v1,v2,v3,H,U,pathlen"
    assert len(lines) == len(traj.times) + 1


def test_el_residual_flat_adapted():
    """In coordinates already adapted to f = x1 the residual is tiny."""
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=1.0)
    traj = integrate(system, State(0, np.zeros(3), [1.0, 0.2, 0.3]), 1.0)
    residuals = el_residual_adapted(system, traj)
    assert np.max(np.abs(residuals)) < 1e-5


def _curved_magnetic_system():
    g = MetricSpec.from_sources(3, CRITERION_10)
    u = ScalarField.parse("x1^2", 3)
    mu = OneForm.from_sources(["0", "x1", "x1*x2/2"])
    return LagrangianSystem(g, u, mu, epsilon=1.0)


def test_el_residual_curved_adapted():
    system = _curved_magnetic_system()
    traj = integrate(system, State(0, np.zeros(3), [0.5, 0.3, 0.1]), 1.0)
    residuals = el_residual_adapted(system, traj)
    assert np.max(np.abs(residuals)) < 1e-5


def test_path_length_straight_line():
    system = LagrangianSystem(E3, ZERO3, None, epsilon=None)
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 1.0,
                     keep_log=True)
    assert traj.path_length[-1] == pytest.approx(1.0, abs=1e-9)
    assert traj.path_length[0] == pytest.approx(1.0, abs=1e-9)


# --- the compiled equations of motion against the el_acceleration oracle --

_OFFSETS = st.lists(st.floats(-2, 2), min_size=6, max_size=6)
# log-uniform over [1e-150, 1e3], where -1/eps^2 is still finite
_LOG_EPSILONS = st.floats(-150.0, 3.0).map(lambda k: 10.0 ** k)


def _reference_motion(system, y):
    """(v, a) from the el_acceleration oracle, or the class and message it
    raises."""
    n = len(y) // 2
    try:
        acc = oracles.el_acceleration(system, State(0.0, y[:n], y[n:]))
    except (DomainError, NonFiniteResult) as exc:
        return None, (type(exc), str(exc))
    return tuple(y[n:]) + tuple(acc.tolist()), None


def _compiled_motion(system, y):
    motion = compile_motion(system)
    try:
        return motion(tuple(y), system), None
    except (DomainError, NonFiniteResult) as exc:
        return None, (type(exc), str(exc))


def _assert_motion_equal(got, want):
    """Every entry agrees to the bit: the oracle's ``_contraction`` sums
    the force in the kernel's order. An entry that overflows, as where
    dU/eps^2 does, is the same inf or nan in both."""
    assert np.array_equal(got, want, equal_nan=True), (got, want)


@pytest.mark.parametrize("name", [p.name for p in harness.corpus()])
@given(offset=_OFFSETS, eps=st.one_of(
    st.sampled_from([1.0, 0.1, 1e-2, 1e-3, None]), _LOG_EPSILONS))
@settings(max_examples=60, deadline=None)
def test_compiled_motion_matches_reference(name, offset, eps, count_calls):
    problem = harness.corpus_entry(name)
    n = problem.dimension
    y = np.concatenate([problem.center, np.zeros(n)]) + offset[:2 * n]
    with count_calls(dynamics, "_curved_stage") as fallbacks:
        system = problem.system(epsilon=eps)
        assert compile_motion(system) is not dynamics._curved_stage
        got, _ = _compiled_motion(system, y)
    assert not fallbacks  # the kernel's own code gave the state
    want, error = _reference_motion(system, y)
    assert error is None
    _assert_motion_equal(got, want)


def test_one_motion_kernel_serves_every_epsilon(count_calls):
    """-1/eps^2 and 1/eps are inputs of the motion kernel, not constants
    folded into it: every eps of a problem shares one kernel and one
    register program, so a warm run-all builds one motion kernel per entry
    (24 with eps folded in) and at most 46 generated functions (62)."""
    problem = harness.corpus_entry("stable-magnetic-plane")
    assert len(problem.epsilons) == 3
    (kernel,) = {compile_motion(problem.system(epsilon=eps))
                 for eps in problem.epsilons}
    assert kernel.program[3] == 2  # its inputs, -1/eps^2 and 1/eps
    harness.run_all(seed=42)
    with count_calls(expr, "_define") as defined, \
            count_calls(dynamics, "_motion_kernel") as built:
        harness.run_all(seed=42)
    assert len(built) == len(harness.corpus()) == 8
    assert len(defined) <= 46


@pytest.mark.parametrize("side", ["compiled", "no_compiler"])
def test_compiled_motion_keeps_no_epsilon_between_runs(side, request):
    """stable-magnetic-plane at eps A, then B, then A again, on one
    problem and so one motion kernel and register program: each run has
    the bits of its sweep alone in a fresh process, so no eps's inputs
    stay in the registers of another's run."""
    request.getfixturevalue(side)
    problem = harness.corpus_entry("stable-magnetic-plane")
    a, b = problem.epsilons[:2]
    problem.epsilons = (a, b, a)
    report = harness.run_epsilon_sweep(problem, with_certification=False)
    alone = {}
    for eps in (a, b):  # PATH is the side's, so is the fresh process's
        result = subprocess.run(
            [sys.executable, "-m", "instab.cli", "sweep",
             "stable-magnetic-plane", "--eps", repr(eps)],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stdout + result.stderr
        (alone[eps],) = json.loads(result.stdout)["runs"]
    for run in report.runs:
        assert run.status == "ok"
        assert json.loads(json.dumps(run.to_dict())) == alone[run.epsilon]


_PARTIAL_FIELDS = [
    ("ln(x1)^2 + x2^2", ["0", "x3 / (x1 - x2)", "sqrt(x2)"]),
    ("sqrt(x1 * x2) + x3^2", ["x2 / x3", "0", "ln(x1 + x3)"]),
    ("x3^2 / (x1 - x3) + exp(x2)", None),
    # F_12 = 1 - 1 from equal constant partials, not structural zeros
    ("x3^2", ["x2", "x1", "0"]),
]


@pytest.mark.parametrize("potential, form", _PARTIAL_FIELDS)
@given(y=st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, 800.0]),
                            st.floats(-3, 3)), min_size=6, max_size=6),
       eps=st.one_of(st.sampled_from([1.0, 0.1, 1e-3, None]), _LOG_EPSILONS))
@example(y=[2.3353543293436346e-301, 1.0, 0.0, 0.0, 0.0, 0.0],
         eps=1e-3)  # dU/eps^2 overflows where ln(x1)^2's dU does not
# with the second pair, the gyroscopic sum of a_1 cancels two terms of 3e59
@example(y=[1.0, 1.0, 3.33e-60, 0.0, 1.0, 3.33e-60], eps=1.0)
@settings(max_examples=200, deadline=None)
def test_compiled_motion_raises_like_reference(potential, form, y, eps,
                                               count_calls):
    magnetic = None if form is None else OneForm.from_sources(form)
    system = LagrangianSystem(E3, ScalarField.parse(potential, 3), magnetic,
                              epsilon=eps)
    want, want_error = _reference_motion(system, y)
    with count_calls(dynamics, "_curved_stage") as fallbacks:
        got, got_error = _compiled_motion(system, y)
    assert got_error == want_error
    assert not fallbacks  # the kernel raises its fields' errors itself
    if want is not None:
        _assert_motion_equal(got, want)


def test_motion_kernel_subtracts_no_structural_zero(monkeypatch):
    """corollary1-unstable-magnetic's F_ab has entries with one partial a
    structural zero; its motion kernel computes them without x - 0.0."""
    problem = harness.corpus_entry("corollary1-unstable-magnetic")
    sources, define = [], expr.define_scalar

    def capture(name, src, **names):
        sources.append(src)
        return define(name, src, **names)

    monkeypatch.setattr(expr, "define_scalar", capture)
    compile_motion(problem.system(epsilon=0.01))
    (source,) = sources
    assert "_kernel" in source and "- 0.0)" not in source


# --- el_acceleration against numpy and the oracle -------------------------

_ACCELERATION_METRICS = {
    "criterion 10": CRITERION_10,
    "curved": [["1 + x2^2", "x1*x2/2", "0"],
               ["x1*x2/2", "2 + x1^2", "0"],
               ["0", "0", "1 + (x1 + x2)^2/4"]],
    # not positive definite for x1 <= -1, nor where 1 - x3^2 / (1 + x1)
    # reaches 0
    "turns singular": [["1 + x1", "x1*x2/4", "0"],
                       ["x1*x2/4", "1", "x3"],
                       ["0", "x3", "1"]],
    "euclidean": None,
}
_ACCELERATION_FORMS = {
    "none": None,
    "curved problem": ["0", "x3", "0"],
    "mixed": ["x2*x3", "sin(x1) + x3^2", "exp(x1*x2)/2"],
}
_NEAR_MINUS_ONE = st.one_of(st.floats(-2, 2), st.sampled_from([-1.0, 1.0]),
                            st.floats(-1e-9, 1e-9).map(lambda d: d - 1.0))


def _numpy_acceleration(system, state):
    """The acceleration as numpy contracted it before the contraction was
    generated, and the sum of the magnitudes of the terms summed into it."""
    x, v = state.x, state.v
    e = system.inv_eps
    _, du = system.potential.value_and_grad(x)
    force = -(e * e) * du
    force_scale = np.abs(force)
    if system.magnetic is not None:
        f_tensor = magnetic_tensor(system.magnetic, x)
        force = force - e * (f_tensor.T @ v)
        force_scale = force_scale + e * (np.abs(f_tensor).T @ np.abs(v))
    if system.metric.euclidean:
        return force, force_scale
    ginv = system.metric.inverse(x)
    gamma = system.metric.christoffel(x)
    return (ginv.dot(force) - gamma.dot(v).dot(v),
            np.abs(ginv).dot(force_scale)
            + np.abs(gamma).dot(np.abs(v)).dot(np.abs(v)))


def _raised(fn, *args):
    """(fn(*args), None), or (None, the class and message it raises)."""
    try:
        return fn(*args), None
    except (DomainError, NonFiniteResult, SingularMetric) as exc:
        return None, (type(exc), str(exc))


@given(metric=st.sampled_from(sorted(_ACCELERATION_METRICS)),
       form=st.sampled_from(sorted(_ACCELERATION_FORMS)),
       potential=st.sampled_from(["x3^2", "x1^2 + ln(1 + x2^2) + x3^4"]),
       x=st.tuples(_NEAR_MINUS_ONE, st.floats(-2, 2), _NEAR_MINUS_ONE),
       v=st.tuples(*[st.floats(-3, 3)] * 3),
       eps=st.sampled_from([1.0, 0.1, 0.01, None]))
# not positive definite: SingularMetric from inverse, in both
@example(metric="turns singular", form="mixed", potential="x3^2",
         x=(-1.5, 0.0, 0.0), v=(1.0, 0.0, 0.0), eps=1.0)
@settings(max_examples=300, deadline=None)
def test_el_acceleration_matches_numpy_contraction(metric, form, potential,
                                                   x, v, eps):
    sources = _ACCELERATION_METRICS[metric]
    system = LagrangianSystem(
        MetricSpec(3) if sources is None
        else MetricSpec.from_sources(3, sources),
        ScalarField.parse(potential, 3),
        None if _ACCELERATION_FORMS[form] is None
        else OneForm.from_sources(_ACCELERATION_FORMS[form]),
        epsilon=eps)
    state = State(0.0, x, v)
    want, want_error = _raised(_numpy_acceleration, system, state)
    got, got_error = _raised(el_acceleration, system, state)
    assert got_error == want_error
    if want_error is None:
        acc, scale = want
        assert np.all(np.abs(got - acc) <= 1e-12 * scale), (got, acc)


@given(metric=st.sampled_from(sorted(_ACCELERATION_METRICS)),
       x1=st.floats(1e-300, 1e-290), eps=st.sampled_from([1e-2, 1e-3, 1e-4]))
@example(metric="euclidean", x1=2.3e-301, eps=1e-3)
# the draws seldom overflow on a curved metric; these do, through g^-1
@example(metric="criterion 10", x1=2.3e-301, eps=1e-3)
@example(metric="curved", x1=2.3e-301, eps=1e-3)
@example(metric="turns singular", x1=2.3e-301, eps=1e-3)
@settings(max_examples=50, deadline=None)
def test_el_acceleration_is_finite_or_names_the_state(metric, x1, eps):
    """ln(x1)^2's dU is finite for x1 down to 1e-305, but 1/eps^2 takes it
    past the largest float; the acceleration is then not returned as inf
    but raised, naming the state (x, v)."""
    sources = _ACCELERATION_METRICS[metric]
    system = LagrangianSystem(
        MetricSpec(3) if sources is None
        else MetricSpec.from_sources(3, sources),
        ScalarField.parse("ln(x1)^2 + x3^2", 3), None, epsilon=eps)
    state = State(0.0, [x1, 0.0, 0.0], [0.0, 1.0, 0.0])
    acc, error = _raised(el_acceleration, system, state)
    if error is None:
        assert np.isfinite(acc).all()
    else:
        assert error == (NonFiniteResult, (
            "the acceleration is not finite at point "
            f"({x1!r}, 0.0, 0.0, 0.0, 1.0, 0.0)"))


_CURVED_METRICS = sorted(name for name, sources in
                         _ACCELERATION_METRICS.items() if sources is not None)
_ORACLE_FORMS = list(dict.fromkeys(
    None if form is None else tuple(form) for form in itertools.chain(
        _ACCELERATION_FORMS.values(),
        (form for _, form in _PARTIAL_FIELDS))))
_ORACLE_POTENTIALS = ["x3^2", "x1^2 + ln(1 + x2^2) + x3^4"] + [
    potential for potential, _ in _PARTIAL_FIELDS]


@given(metric=st.sampled_from(_CURVED_METRICS),
       form=st.sampled_from(_ORACLE_FORMS),
       potential=st.sampled_from(_ORACLE_POTENTIALS),
       x=st.tuples(_NEAR_MINUS_ONE, st.floats(-2, 2), _NEAR_MINUS_ONE),
       v=st.tuples(*[st.floats(-3, 3)] * 3),
       eps=st.one_of(st.sampled_from([1.0, 0.1, 1e-3, None]),
                     _LOG_EPSILONS))
# U is undefined and g not positive definite: U's DomainError, as the
# oracle raises it, not the metric's SingularMetric
@example(metric="turns singular", form=None, potential="ln(x1)^2 + x2^2",
         x=(-1.5, 0.0, 0.0), v=(1.0, 0.0, 0.0), eps=1.0)
@settings(max_examples=300, deadline=None)
def test_curved_el_acceleration_matches_oracle(metric, form, potential, x,
                                               v, eps):
    """On a curved metric the motion kernel, fed g^-1 and Gamma, has the
    oracle's bits, and raises the oracle's error class and message."""
    system = LagrangianSystem(
        MetricSpec.from_sources(3, _ACCELERATION_METRICS[metric]),
        ScalarField.parse(potential, 3),
        None if form is None else OneForm.from_sources(list(form)),
        epsilon=eps)
    state = State(0.0, x, v)
    want, want_error = _raised(oracles.el_acceleration, system, state)
    got, got_error = _raised(el_acceleration, system, state)
    assert got_error == want_error
    if want_error is None:
        assert np.array_equal(got, want), (got, want)


def _program_outputs(program, y, inputs):
    """The register ``program``'s outputs at the state ``y``, with its
    ``inputs``, from one row of ``program_rows``, or None where the program
    bails."""
    m = len(y)
    registers = program[1].copy()
    registers[m:m + len(inputs)] = inputs
    dy, declined = np.empty(m), np.ones(1, dtype=np.int_)
    native._call(native.library().program_rows, program, m, registers,
                 np.array(y, dtype=float), m, 1, dy, declined)
    return None if declined[0] else tuple(dy.tolist())


_STATES = st.tuples(_NEAR_MINUS_ONE, st.floats(-2, 2), _NEAR_MINUS_ONE,
                    *[st.floats(-3, 3)] * 3)


@given(metric=st.sampled_from(_CURVED_METRICS),
       form=st.sampled_from(sorted(_ACCELERATION_FORMS)),
       potential=st.sampled_from(["x3^2", "x1^2 + ln(1 + x2^2) + x3^4",
                                  "ln(x1)^2 + x3^2"]),
       states=st.lists(_STATES, min_size=1, max_size=4),
       eps=st.one_of(st.sampled_from([1.0, 0.1, 1e-3, None]),
                     _LOG_EPSILONS))
# not positive definite; the first pivot, then the last, just under
# PIVOT_FLOOR; the last within PIVOT_SLACK above it, where the reference
# decides and gives the factors
@example(metric="turns singular", form="none", potential="x3^2",
         states=[(-1.5, 0.0, 0.0, 1.0, 0.0, 0.0),
                 (-1.0 + 9e-13, 0.0, 0.0, 1.0, 0.0, 0.0),
                 (0.0, 0.0, 1.0 - 4e-13, 0.0, 1.0, 1.0),
                 (0.0, 0.0, 1.0 - 5.02e-13, 0.0, 1.0, 1.0)], eps=0.1)
# the acceleration overflows through g^-1; U is undefined
@example(metric="criterion 10", form="curved problem",
         potential="ln(x1)^2 + x3^2",
         states=[(2.3e-301, 0.0, 0.0, 0.0, 1.0, 0.0),
                 (-0.5, 0.0, 0.0, 0.0, 1.0, 0.0)], eps=1e-3)
@settings(max_examples=150, deadline=None)
def test_chained_curved_program_has_the_curved_stages_bits(
        metric, form, potential, states, eps, compiled, count_calls):
    """The metric's factor program chained into the curved motion
    program gives the bits of the Python stage that ``compile_motion``
    returns, and bails at just the states where that stage raises or the
    factor kernel's reference decides: each bail is one of those."""
    with count_calls(geometry, "_reference_factors") as decided:
        system = LagrangianSystem(
            MetricSpec.from_sources(3, _ACCELERATION_METRICS[metric]),
            ScalarField.parse(potential, 3),
            None if _ACCELERATION_FORMS[form] is None
            else OneForm.from_sources(_ACCELERATION_FORMS[form]),
            epsilon=eps)
        f = compile_motion(system)
        assert f.program[3] == 2  # (-1/eps^2, 1/eps) alone
        bails, python = [], []
        for y in states:
            before = len(decided)
            got = _program_outputs(f.program, y, system.inputs)
            want, error = _raised(f, y, system)
            bails.append(got is None)
            python.append(error is not None or len(decided) > before)
            if got is not None:
                assert np.array(got).tobytes() == np.array(want).tobytes()
    assert bails == python, (bails, python)


def test_el_acceleration_runs_the_motion_kernel(count_calls):
    """el_acceleration generates no code of its own: on a Euclidean metric
    it gives the values of the kernel ``compile_motion`` returns, and one
    curved kernel per potential and one-form serves every curved metric
    and eps."""
    potential = ScalarField.parse("x3^2 + x1*x2", 3)
    state = State(0.0, [0.3, -0.2, 0.5], [1.0, -1.0, 0.5])
    y = tuple(state.x) + tuple(state.v)
    flat = LagrangianSystem(E3, potential, MU_Z, epsilon=0.1)
    kernel = compile_motion(flat)
    with count_calls(expr, "_define") as defined:
        acc = el_acceleration(flat, state)
    assert not defined
    assert acc.tolist() == list(kernel(y, flat)[3:])
    with count_calls(dynamics, "_motion_kernel") as built:
        for name in ("criterion 10", "curved"):
            metric = MetricSpec.from_sources(3, _ACCELERATION_METRICS[name])
            for eps in (1.0, 0.1, 1e-3, None):
                el_acceleration(LagrangianSystem(metric, potential, MU_Z,
                                                 epsilon=eps), state)
    assert len(built) == 1


# --- the DOP853 stepper against scipy's --------------------------------------

def _scipy_dop853(system, initial, horizon, tol, max_step):
    """Both branches as scipy's solve_ivp(method="DOP853") integrates them."""
    n = len(initial.x)

    def rhs(tau, y):
        acc = el_acceleration(system, State(tau, y[:n], y[n:]))
        return np.concatenate([y[n:], acc])

    y0 = np.concatenate([initial.x, initial.v])
    return [solve_ivp(rhs, (0.0, end), y0, method="DOP853", rtol=tol.rel,
                      atol=tol.abs, max_step=max_step, dense_output=True)
            for end in (horizon, -horizon)]


def _corpus_case(name, eps, hard_cap=False):
    """The entry's run at ``eps``, with the default cap, eps, or, if
    ``hard_cap``, the same cap as an explicit ``max_step``."""
    problem = harness.corpus_entry(name)
    _df, grad, _cap_sq = problem.gradient_data()
    tol = Tolerances(max_step=eps) if hard_cap else Tolerances()
    return (problem.system(epsilon=eps), State(0.0, problem.center, grad),
            problem.horizon, tol, eps)


def _circle_case(max_step):
    system = LagrangianSystem(E3, U_PLANE, MU_X, epsilon=None)
    tol = Tolerances() if max_step is None else Tolerances(max_step=max_step)
    return (system, State(0.0, np.zeros(3), [0.05, 0.0, 0.01]), 30.0, tol,
            math.inf if max_step is None else max_step)


# mechanical-plane starts on its valley, where the default cap waits for a
# force that never comes; scipy's max_step is a hard cap. Each case's bound
# on the drift of the step times from scipy's, as a fraction of T, is
# 1e-9 but where a run was measured to drift further (see below):
# stable-magnetic-plane at 0.1 by 1.2e-9, the unscaled circle by 4.0e-8.
@pytest.mark.parametrize("case, drift", [
    (_corpus_case("mechanical-plane", 0.1, hard_cap=True), 1e-9),
    (_corpus_case("mechanical-plane", 0.01, hard_cap=True), 1e-9),
    (_corpus_case("stable-magnetic-plane", 0.1), 5e-9),
    (_corpus_case("stable-magnetic-plane", 0.01), 1e-9),
    (_circle_case(None), 1e-7),  # unscaled: no cap
    (_circle_case(0.1), 1e-9),  # the Tolerances(max_step=...) override
], ids=["mechanical-0.1", "mechanical-0.01", "stable-magnetic-0.1",
        "stable-magnetic-0.01", "unscaled", "unscaled-max-step"])
def test_stepper_matches_scipy_dop853(case, drift):
    system, initial, horizon, tol, max_step = case
    traj = integrate(system, initial, horizon, tol=tol)
    fwd, bwd = _scipy_dop853(system, initial, horizon, tol, max_step)
    steps = traj.stats["steps"]
    assert steps == len(fwd.t) + len(bwd.t) - 2
    grid = traj.grid_times
    neg = grid < 0
    # scipy spends 2 evaluations on each branch's start, 12 on each try and
    # 3 on the interpolant of each step; the run on those of the steps that
    # reach a grid time alone
    reached = _interpolated_steps(fwd.t, grid[~neg]) \
        + _interpolated_steps(bwd.t, grid[neg])
    assert traj.stats["nfev"] == fwd.nfev + bwd.nfev - 3 * (steps - reached)
    assert 12 * (steps + traj.stats["rejected"]) + 4 + 3 * reached \
        == traj.stats["nfev"]
    states = np.concatenate([bwd.sol(grid[neg]).T, fwd.sol(grid[~neg]).T])
    assert np.max(np.abs(traj.grid_states - states)) <= 1e-12
    # The embedded error estimate cancels its stages, so a last-digit
    # difference in a stage sum (scipy's BLAS dot against float sums) moves
    # the next step. DOP853's estimate cancels to some 1e-11 of its stages
    # on a run's first steps, whose error is far below the tolerance, and
    # can move the step after one by up to ~3e-6 of itself; the times of
    # the two cases named above drift that far.
    times = np.concatenate([bwd.t[::-1], fwd.t])
    assert np.max(np.abs(traj.times - times)) <= drift * horizon


def _dense_table(row, size):
    table = np.zeros(size)
    table[list(row)] = list(row.values())
    return table


def test_dop853_constants_are_scipys():
    """The tableau, the error weights and the interpolant's D are the
    floats of scipy's dop853_coefficients.py; the equations are
    autonomous, so its nodes C only check that each row sums to its C."""
    assert len(dynamics._A) == dop853_coefficients.N_STAGES_EXTENDED - 1
    for s, row in enumerate(dynamics._A, start=1):
        assert np.array_equal(_dense_table(row, s),
                              dop853_coefficients.A[s, :s]), s
        assert math.fsum(row.values()) \
            == pytest.approx(dop853_coefficients.C[s], abs=1e-14), s
    for name, size in (("B", dop853_coefficients.N_STAGES),
                       ("E3", dop853_coefficients.N_STAGES + 1),
                       ("E5", dop853_coefficients.N_STAGES + 1)):
        assert np.array_equal(_dense_table(getattr(dynamics, f"_{name}"),
                                           size),
                              getattr(dop853_coefficients, name)), name
    assert len(dynamics._D) == dop853_coefficients.INTERPOLATOR_POWER - 3
    for r, row in enumerate(dynamics._D):
        assert np.array_equal(
            _dense_table(row, dop853_coefficients.N_STAGES_EXTENDED),
            dop853_coefficients.D[r]), r


@given(name=st.sampled_from(["stable-magnetic-plane", "kolibri",
                             "corollary1-unstable-magnetic"]),
       offset=_OFFSETS, eps=st.sampled_from([0.1, 0.01, 1e-3]),
       scale=st.floats(1e-3, 0.1), backward=st.booleans(),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@example(name="kolibri", offset=[2.0, 0.0, 2.0, 0.0, 0.0, 0.0], eps=0.1,
         scale=0.0625, backward=False, fractions=[1.0])
@settings(max_examples=60, deadline=None)
def test_grid_states_match_scipy_dense_output(name, offset, eps, scale,
                                              backward, fractions):
    """On one step of scipy's DOP853 of length up to eps/10, the 7th-order
    grid states made from that step's thirteen stages are those of scipy's
    Dop853DenseOutput, within 1e-13 of the largest entry: the extra
    stages and the interpolant's sums differ from scipy's dot products in
    last bits alone.

    The step itself is held to scipy's by
    ``test_stepper_matches_scipy_dop853``. Its stages are not fed from our
    own step, since on a steep state (the ``@example``: stages 24 times
    the state, tableau entries up to 43) last-bit differences in the stage
    sums move the state itself by 1.3e-13 of it.
    """
    problem = harness.corpus_entry(name)
    n = problem.dimension
    system = problem.system(epsilon=eps)
    f = compile_motion(system)
    y = tuple((np.concatenate([problem.center, np.ones(n)])
               + offset[:2 * n]).tolist())
    h = (-scale if backward else scale) * eps
    solver = DOP853(lambda _t, z: np.array(f(tuple(z), system)), 0.0,
                    np.array(y), h, rtol=1e3, atol=1e3, first_step=abs(h))
    solver.step()
    assert solver.t == h  # one accepted step over the same interval
    times = np.array(fractions) * h
    want = solver.dense_output()(times).T

    stages = tuple(map(tuple, solver.K[:13].tolist()))
    got = np.array(dynamics._interpolant(len(y))(
        f, system, 0.0, y, tuple(solver.y.tolist()), h, stages,
        times.tolist()))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# sha256 of the generated source of the scalar step and of the interpolant
# over six floats, the state of a sweep in three dimensions
_STEP_SOURCES = {
    "_stepper":
        "abcfcebb22d6f5d7be8b1aac2a320f20a52c96770935d96d11dd71852a94a5ca",
    "_interpolant":
        "4235f178361faadcf92d01ab16e58d4f828bdd1fa89319a1473c20ea92d58e0a",
}


def test_scalar_step_source_is_unchanged():
    """The scalar step and interpolant generate the code pinned here; the
    batched step is held to the scalar one's bits by
    ``test_batched_step_has_the_scalar_steps_bits``."""
    sources = []
    define = dynamics.define_scalar

    def captured(name, src, **names):
        sources.append(src)
        return define(name, src, **names)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "define_scalar", captured)
        for name, digest in _STEP_SOURCES.items():
            getattr(dynamics, name).__wrapped__(6)
            assert hashlib.sha256(sources[-1].encode()).hexdigest() == digest


def _interpolated_steps(times, grid):
    """How many of a branch's steps, ``times`` from tau = 0, reach one of
    the ``grid`` times first."""
    direction = math.copysign(1.0, times[-1])
    return len(np.unique(np.searchsorted(direction * times[1:],
                                         direction * grid)))


def test_step_size_underflow_keeps_scipy_message():
    system, initial, horizon, _tol, _cap = _corpus_case("mechanical-plane",
                                                        0.1)
    tol = Tolerances(max_step=1e-323)  # below 10 ulp of tau = 0
    with pytest.raises(StepSizeUnderflow) as raised:
        integrate(system, initial, horizon, tol=tol)
    fwd, _bwd = _scipy_dop853(system, initial, horizon, tol, tol.max_step)
    assert not fwd.success
    assert str(raised.value) == fwd.message


def test_tolerances_reject_non_positive_max_step():
    with pytest.raises(ValueError, match="max_step"):
        Tolerances(max_step=0.0)


@pytest.mark.parametrize("kind", ["abs", "rel"])
def test_tolerances_reject_non_finite_values(kind):
    with pytest.raises(ValueError, match="finite"):
        Tolerances(**{kind: math.inf})


# --- the step log in float64 blocks ----------------------------------------

def _long_case():
    """A gyrating run of 5,000 capped steps a branch: over two blocks of
    4,096 rows and ten of 512."""
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=0.01)
    return system, State(0, [0, 0, 0.005], [1, 0.5, 0]), 1.0, \
        Tolerances(max_step=2e-4)


# CI's problem with ln, sqrt, cos and division in U and the one-form
TRANSCENDENTAL = {
    "name": "transcendental", "dimension": 2,
    "potential": "ln(1 + x2^2) + x2^2 / (2 + cos(x1)) + sqrt(1 + x2^4) - 1",
    "f": "x1 + cos(x2) / (1 + x1^2)",
    "magnetic": ["0", "x1 * sqrt(1 + x2^2) / (2 + cos(x2))"],
    "center": [0.0, 0.0], "T": 1.0, "epsilons": [0.1, 0.01],
    "expected": "unstable"}
# criterion 10's metric with perfbench's CURVED_PROBLEM fields
CURVED_PROBLEM = {
    "name": "curved-metric", "dimension": 3, "metric": CRITERION_10,
    "potential": "x3^2", "magnetic": ["0", "x3", "0"], "f": "x1 + x2/2",
    "center": [0.0, 0.0, 0.0], "T": 1.0, "epsilons": [0.1, 0.01],
    "expected": "unstable"}


def _problem_case(data, eps):
    problem = harness.load_problem(dict(data))
    _df, grad, _cap_sq = problem.gradient_data()
    return (problem.system(epsilon=eps), State(0.0, problem.center, grad),
            problem.horizon, Tolerances())


class _JoinedLog:
    """A log for ``_solve_branch`` that keeps every row of the branch, for
    one pass over the joined log."""

    def __init__(self, grid):
        self.grid, self.rows = grid, []

    def seal(self, rows, last=False):
        self.rows.append(rows.copy())

    @property
    def times(self):
        return np.concatenate(self.rows)[:, 0].tolist()

    @property
    def states(self):
        return np.concatenate(self.rows)[:, 1:].tolist()


def _joined_integrate(system, initial, horizon, tol):
    """``integrate`` as one pass over the joined step log: both branches'
    rows concatenated, then U and g(v, v) over all rows, the first bad row
    of U, each branch's arc length from tau = 0 by np.cumsum in step order,
    the drift's peak by np.argmax, and the grid states as the branches
    write them. The reference for the block-wise reduction; it gives the
    run's numbers by name."""
    n = len(initial.x)
    gated = tol.max_step is None and system.epsilon is not None
    if tol.max_step is not None:
        max_step = tol.max_step
    elif gated:
        max_step = system.epsilon
    else:
        max_step = math.inf
    f = compile_motion(system)
    y0 = tuple(np.concatenate([initial.x, initial.v]).tolist())
    grid = np.linspace(-horizon, horizon, dynamics.GRID_POINTS)
    fwd, bwd = (dynamics._solve_branch(f, system, y0, end, tol, max_step,
                                       _JoinedLog(branch_grid), gated)
                for end, branch_grid in ((horizon, grid[grid >= 0]),
                                         (-horizon, grid[grid < 0][::-1])))
    times = np.array(bwd.times[::-1] + fwd.times)
    states = np.array(bwd.states[::-1] + fwd.states)
    origin = len(bwd.times) - 1  # the backward branch's tau = 0
    energies, potentials, speeds = dynamics._energy_rows(
        system, states[:, :n], states[:, n:])
    bad = dynamics._bad_rows(potentials)
    if bad.any():
        raise dynamics._potential_error(system, states[np.argmax(bad), :n])
    speeds = np.sqrt(np.maximum(speeds, 0.0))
    dt = np.diff(times)
    # the arc length along each branch from its tau = 0, in step order
    backward, forward = (
        np.concatenate([[0.0], np.cumsum(
            0.5 * (s[:-1] + s[1:]) * np.abs(np.diff(t)))])
        for t, s in ((times[origin::-1], speeds[origin::-1]),
                     (times[origin + 1:], speeds[origin + 1:])))
    unclipped = [d.min() for d in (dt[1:origin], dt[origin + 1:-1]) if len(d)]
    h0 = energies[origin]
    stats = {
        "nfev": fwd.nfev + bwd.nfev, "steps": len(times) - 2,
        "rejected": fwd.rejected + bwd.rejected,
        "min_step": float(min(unclipped)) if unclipped else None,
        "capped_steps": int(np.count_nonzero(
            np.abs(dt - max_step) <= max_step * dynamics.CAP_RELATIVE))
        if max_step < math.inf else 0,
        "drift_peak_tau": float(times[np.argmax(np.abs(energies - h0))])}
    return {
        "times": times, "states": states, "energies": energies,
        "path_length": np.concatenate([backward[::-1], forward]),
        "grid_states": np.concatenate([bwd.grid_states[::-1],
                                       fwd.grid_states]),
        "stats": stats,
        "energy_drift": float((energies.max() - energies.min())
                              / max(1.0, abs(h0))),
        "max_speed": float(speeds.max()),
        "max_potential": float(potentials.max())}


SUMMARY = ("stats", "energy_drift", "max_speed", "max_potential")


@pytest.mark.parametrize("case", [
    _long_case(),
    _problem_case(TRANSCENDENTAL, 0.01),
    _problem_case(CURVED_PROBLEM, 0.1),
], ids=["long", "transcendental", "criterion-10"])
def test_block_reduction_matches_joined_pass(case, monkeypatch):
    system, initial, horizon, tol = case
    want = _joined_integrate(system, initial, horizon, tol)
    for rows in (1, 7, 512, 4096):
        monkeypatch.setattr(dynamics, "BLOCK_ROWS", rows)
        got = integrate(system, initial, horizon, tol=tol, keep_log=True)
        for name in ("times", "states", "energies", "path_length",
                     "grid_states"):
            assert getattr(got, name).tobytes() == want[name].tobytes(), \
                (rows, name)
        for name in SUMMARY:
            assert getattr(got, name) == want[name], (rows, name)


def test_long_case_spans_several_default_blocks():
    system, initial, horizon, tol = _long_case()
    steps = integrate(system, initial, horizon, tol=tol).stats["steps"]
    assert steps > 4 * dynamics.BLOCK_ROWS


def _summary(system, initial, horizon, tol, keep_log):
    """The run's reduced numbers and grid states as exact values, or the
    class and message of its error."""
    try:
        got = integrate(system, initial, horizon, tol=tol, keep_log=keep_log)
    except InstabError as exc:
        return type(exc), str(exc)
    return ([getattr(got, name) for name in SUMMARY],
            got.grid_states.tobytes(), got.times.tobytes())


@pytest.mark.parametrize("name, eps", [
    *((problem.name, eps) for problem in harness.corpus()
      for eps in (0.1, 0.01, 0.001)),
    ("curved", 0.1), ("curved", 0.01)])
def test_keeping_the_log_changes_no_number(name, eps):
    case = (_problem_case(CURVED_PROBLEM, eps) if name == "curved"
            else _corpus_case(name, eps)[:4])
    assert _summary(*case, keep_log=False) == _summary(*case, keep_log=True)


def test_a_run_without_its_log_names_keep_log():
    system, initial, horizon, tol = _problem_case(TRANSCENDENTAL, 0.1)
    traj = integrate(system, initial, horizon, tol=tol)
    assert len(traj.times) == traj.stats["steps"] + 2
    for name in ("states", "energies", "path_length"):
        with pytest.raises(ValueError, match="keep_log=True"):
            getattr(traj, name)
    out = io.StringIO()
    with pytest.raises(ValueError, match="keep_log=True"):
        traj.to_csv(out)
    assert out.getvalue() == ""


def _mirrored_run():
    """U = x1^2 from rest at x1 = 0.5: the run mirrors itself in tau to the
    bit, x(-tau) = x(tau) and v(-tau) = -v(tau)."""
    system = LagrangianSystem(MetricSpec.identity(1),
                              ScalarField.parse("x1^2", 1), None,
                              epsilon=0.1)
    return system, State(0, [0.5], [0.0]), Tolerances()


def test_path_length_of_a_mirrored_run_reads_the_same_reversed():
    """Each branch sums its arc length from tau = 0 in step order, so the
    mirrored branches give the same sums."""
    system, initial, tol = _mirrored_run()
    path = integrate(system, initial, 1.0, tol=tol,
                     keep_log=True).path_length
    assert path.tobytes() == path[::-1].tobytes()


def test_csv_reads_each_spilled_block_once(monkeypatch, count_calls):
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=0.1)
    monkeypatch.setattr(dynamics, "BLOCK_ROWS", 7)
    traj = integrate(system, State(0, [0, 0, 0.01], [1, 0.5, 0]), 1.0,
                     keep_log=True)
    with count_calls(dynamics._Spill, "read") as reads:
        traj.to_csv(io.StringIO())
    assert sorted(offset for _spill, offset, _rows in reads) \
        == sorted(traj.log[1])
    assert len(traj.blocks) > 4


def test_drift_peak_ties_go_to_the_smallest_tau(monkeypatch):
    """In the mirrored run each largest |E - E(0)| is reached at -tau and
    tau; the peak is the first in increasing tau, the one the backward
    branch produces last."""
    system, initial, tol = _mirrored_run()
    want = _joined_integrate(system, initial, 1.0, tol)
    energies, times = want["energies"], want["times"]
    deviation = np.abs(energies - energies[times == 0.0][0])
    ties = times[deviation == deviation.max()]
    assert ties.min() == -ties.max() < 0  # a tie across the branches
    for rows in (1, 7, 512):
        monkeypatch.setattr(dynamics, "BLOCK_ROWS", rows)
        got = integrate(system, initial, 1.0, tol=tol)
        assert got.stats["drift_peak_tau"] == ties.min(), rows


@pytest.mark.parametrize("start", [0.5, 0.0], ids=["forward", "both"])
def test_block_reduction_raises_at_the_joined_pass_row(start, monkeypatch):
    """U = x1 turns negative at tau = 0.414 of 1 from x1 = 0.5, a third of
    the way along the log; from x1 = 0 at rest it is negative on both
    branches but at tau = 0. The error names the smallest-tau bad row, as
    the joined pass does."""
    system = LagrangianSystem(MetricSpec.identity(1),
                              ScalarField.parse("x1", 1), None)
    initial = State(0, [start], [-1.0 if start else 0.0])
    tol = Tolerances(max_step=1e-3)
    with pytest.raises(DomainError) as want:
        _joined_integrate(system, initial, 1.0, tol)
    assert "potential is negative" in str(want.value)
    for rows in (1, 7, 512, 4096):
        monkeypatch.setattr(dynamics, "BLOCK_ROWS", rows)
        with pytest.raises(DomainError) as got:
            integrate(system, initial, 1.0, tol=tol)
        assert str(got.value) == str(want.value), rows


@pytest.mark.parametrize("keep_log", [False, True])
def test_run_peak_grows_by_its_step_times_alone(keep_log):
    """integrate's tracemalloc peak grows by at most the 8 bytes a step of
    its kept times, plus 256 KB, from T = 0.25 to T = 1: no array holds a
    state, energy or interpolant per step; a kept log goes to a file."""
    system, initial, _horizon, tol, _cap = _corpus_case(
        "stable-magnetic-plane", 1e-3)
    # CPython 3.11 finds a traced allocation's line by scanning its code's
    # line table, long in generated code, unless a profile function has
    # seen that code and built its line array: warm up under a no-op one
    sys.setprofile(lambda *_: None)
    try:
        integrate(system, initial, 0.01, tol=tol, keep_log=keep_log)
    finally:
        sys.setprofile(None)
    peaks, steps = {}, {}
    for horizon in (0.25, 1.0):
        tracemalloc.start()
        try:
            trajectory = integrate(system, initial, horizon, tol=tol,
                                   keep_log=keep_log)
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps[horizon] = trajectory.stats["steps"]
    assert steps[1.0] > 3 * steps[0.25]
    assert peaks[1.0] - peaks[0.25] \
        <= 8 * (steps[1.0] - steps[0.25]) + 256 * 1024, (peaks, steps)


def _one_shot_csv(trajectory, system):
    """The CSV rendered from one table of every row at once."""
    n = trajectory.dimension
    header = (["tau"] + [f"x{i+1}" for i in range(n)]
              + [f"v{i+1}" for i in range(n)] + ["H", "U", "pathlen"])
    potentials = system.potential.vectorized()(trajectory.states[:, :n])[0]
    table = np.column_stack([trajectory.times, trajectory.states,
                             trajectory.energies, potentials,
                             trajectory.path_length])
    return ",".join(header) + "\n" + "".join(
        ",".join(map(repr, cells)) + "\n" for cells in table.tolist())


def test_csv_streams_the_one_shot_rows(monkeypatch):
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=0.1)
    monkeypatch.setattr(dynamics, "BLOCK_ROWS", 7)
    traj = integrate(system, State(0, [0, 0, 0.01], [1, 0.5, 0]), 1.0,
                     keep_log=True)
    assert len(traj.times) > 2 * 7 and len(traj.times) % 7
    out = io.StringIO()
    traj.to_csv(out)
    assert out.getvalue() == _one_shot_csv(traj, system)


def test_step_counters_on_capped_corpus_runs():
    # under an explicit max_step of eps, unstable-magnetic-plane at
    # eps = 0.01 runs every step at the cap, T / cap = 100 a branch, the
    # last ones included
    system, initial, horizon, tol, cap = _corpus_case(
        "unstable-magnetic-plane", 0.01, hard_cap=True)
    assert horizon == 1.0
    stats = integrate(system, initial, horizon, tol=tol).stats
    assert stats["steps"] == stats["capped_steps"] == 200
    # tau + cap - tau is the cap but for rounding at |tau| near 1
    assert stats["min_step"] == pytest.approx(cap, abs=2 * math.ulp(1.0))
    # mechanical-plane at eps = 0.1 starts below the cap on each branch
    system, initial, horizon, tol, cap = _corpus_case("mechanical-plane",
                                                      0.1, hard_cap=True)
    traj = integrate(system, initial, horizon, tol=tol, keep_log=True)
    assert (traj.stats["steps"], traj.stats["capped_steps"]) == (22, 18)
    assert traj.stats["min_step"] == 0.035369950591696814
    sizes = np.abs(np.diff(traj.times))
    assert traj.stats["capped_steps"] \
        == np.count_nonzero(np.abs(sizes - cap) <= cap * 1e-9)
    zero = np.flatnonzero(traj.times == 0.0)[0]
    energy = traj.energies
    assert traj.stats["drift_peak_tau"] \
        == traj.times[np.argmax(np.abs(energy - energy[zero]))]


@pytest.mark.parametrize("name", ["mechanical-plane",
                                  "unstable-magnetic-plane", "crossing-axes"])
def test_valley_runs_are_exact_in_few_steps(corpus_sweeps, name):
    """These entries escape along their valley of U, a straight line with
    f = tau, and no stage meets a force: the default cap never applies."""
    for run in corpus_sweeps[name].runs:
        traj = run.trajectory
        assert len(run.f_curve) == dynamics.GRID_POINTS
        assert np.max(np.abs(run.f_curve - traj.grid_times)) <= 1e-15
        assert traj.stats["steps"] <= 16
        assert traj.energy_drift == 0.0


@pytest.mark.parametrize("name, center", [
    ("crossing-axes", [0.0, 0.1]),  # x1^2 x2^2 pulls from the first stage
    ("stable-magnetic-plane", None),
    ("kolibri", None),
])
def test_runs_live_from_the_first_step_keep_the_hard_cap_bits(name, center):
    problem = harness.corpus_entry(name)
    for eps in problem.epsilons:
        system, initial, horizon, _tol, cap = _corpus_case(name, eps)
        if center is not None:
            initial = State(0.0, center, initial.v)
        got = integrate(system, initial, horizon)
        want = integrate(system, initial, horizon,
                         tol=Tolerances(max_step=cap))
        assert got.stats == want.stats, eps
        assert got.times.tobytes() == want.times.tobytes(), eps
        assert got.grid_states.tobytes() == want.grid_states.tobytes(), eps


def test_first_live_try_above_the_cap_is_retried_at_the_cap():
    """dU/dx1 = 100 x1^99 underflows to 0.0 for x1 below about 5e-4, so
    the branch leaves the origin uncapped; its second try, at ten times
    the cap, meets the force and is retried at the cap."""
    eps = 1e-4
    system = LagrangianSystem(MetricSpec.identity(2),
                              ScalarField.parse("x2^2 + x1^100", 2), None,
                              epsilon=eps)
    initial = State(0.0, [0.0, 0.0], [1.0, 0.0])
    got = integrate(system, initial, 1.0)
    want = integrate(system, initial, 1.0, tol=Tolerances(max_step=eps))
    assert got.times.tobytes() == want.times.tobytes()
    assert got.grid_states.tobytes() == want.grid_states.tobytes()
    assert (got.stats["rejected"], want.stats["rejected"]) == (2, 0)
    assert (got.stats["nfev"], want.stats["nfev"]) == (241_591, 241_567)
    # the steps are shorter than the grid spacing, so each grid time is
    # reached by a step of its own, which alone runs the interpolant
    assert 12 * (got.stats["steps"] + got.stats["rejected"]) + 4 \
        + 3 * dynamics.GRID_POINTS == got.stats["nfev"]
    assert np.abs(np.diff(got.times)).max() \
        <= eps * (1 + dynamics.CAP_RELATIVE)


def test_uncapped_run_counts_no_capped_steps():
    system = LagrangianSystem(E3, ZERO3, None, epsilon=None)
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 1.0)
    assert traj.stats["capped_steps"] == 0


def test_non_finite_stage_names_the_step_it_began_at():
    """dU/eps^2 is finite at x1 = 2.3e-301 for ln(x1)^2, but the first
    step's stage sums overflow; the error names where that step began."""
    u = ScalarField.parse("ln(x1)^2", 1)
    system = LagrangianSystem(MetricSpec.identity(1), u, None, epsilon=0.01)
    with pytest.raises(NonFiniteResult) as raised:
        integrate(system, State(0, [2.3e-301], [0.0]), 1.0)
    assert str(raised.value).endswith(
        "; the step first went non-finite at tau = 0.0, "
        "state (2.3e-301, 0.0)")


def _wall(y, _arg):
    """y' = 1 up to y = 1/2, and an infinite slope past it."""
    return (1.0,) if y[0] <= 0.5 else (math.inf,)


def test_non_finite_error_estimate_is_named_by_the_error_that_ends():
    with pytest.raises(StepSizeUnderflow) as raised:
        dynamics._solve_branch(_wall, None, (0.0,), 1.0, Tolerances(),
                               math.inf)
    message = str(raised.value)
    assert message.startswith(dynamics.TOO_SMALL_STEP.rstrip("."))
    tau, state = re.fullmatch(
        r".*; the step first went non-finite at tau = (\S+), "
        r"state \((\S+)\)", message).groups()
    assert 0.0 < float(state) <= 0.5
    assert float(tau) == pytest.approx(float(state), abs=1e-12)


def test_non_finite_right_hand_side_at_the_start_raises():
    with pytest.raises(NonFiniteResult, match=r"not finite at tau = 0\.0, "
                       r"state \(0\.75\)"):
        dynamics._solve_branch(_wall, None, (0.75,), 1.0, Tolerances(),
                               math.inf)


# --- the compiled loop against the Python stepper --------------------------

class _BlockLog:
    """A branch's log that keeps a copy of each block it seals and whether
    it ended the branch."""

    def __init__(self, grid):
        self.grid, self.blocks = grid, []

    def seal(self, rows, last=False):
        self.blocks.append((rows.tobytes(), last))


def _logged(solve):
    """``solve(log)``'s sealed blocks, grid states, rejected tries and nfev,
    or the class and message of the error it raises."""
    try:
        log = solve(_BlockLog)
    except InstabError as exc:
        return type(exc), str(exc)
    return log.blocks, log.grid_states.tobytes(), log.rejected, log.nfev


def _branches(system, initial, horizon, tol):
    """``_logged`` of each branch of ``integrate``'s run."""
    gated = tol.max_step is None and system.epsilon is not None
    max_step = tol.max_step or (system.epsilon if gated else math.inf)
    f = compile_motion(system)
    y0 = tuple(np.concatenate([initial.x, initial.v]).tolist())
    grid = np.linspace(-horizon, horizon, dynamics.GRID_POINTS)
    return [_logged(lambda log: dynamics._solve_branch(
                f, system, y0, end, tol, max_step, log(branch_grid), gated))
            for end, branch_grid in ((horizon, grid[grid >= 0]),
                                     (-horizon, grid[grid < 0][::-1]))]


# corpus entries, CI's transcendental problem and one with x1^17 and x1^18,
# integer powers that take float pow, the second at negative bases
_LOOP_CASES = {
    **{name: name for name, _data in harness._CORPUS_DATA},
    "transcendental": TRANSCENDENTAL,
    "power 18": {"dimension": 2, "potential": "x2^2 + (x1 - 0.5)^18",
                 "magnetic": ["0", "x1"], "f": "x1", "center": [0.5, 0.0],
                 "T": 1.0, "epsilons": [0.1]},
}


def _loop_case(name, eps):
    """(system, initial, horizon, tol) of ``_LOOP_CASES``' entry at eps."""
    data = _LOOP_CASES[name]
    if isinstance(data, str):
        return _corpus_case(data, eps)[:4]
    return _problem_case(data, eps)


@given(name=st.sampled_from(sorted(_LOOP_CASES)),
       eps=st.sampled_from([0.1, 0.01, 1e-3]),
       offset=st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6),
       t=st.floats(-1.0, 1.0), scale=st.floats(1e-3, 1.0),
       backward=st.booleans(),
       fractions=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                          min_size=1, max_size=8))
@example(name="transcendental", eps=0.1, offset=[0.01] * 6, t=0.0, scale=1.0,
         backward=True, fractions=[0.0, 0.5, 1.0])
@settings(max_examples=60, deadline=None)
def test_interpolant_has_the_oracles_bits(name, eps, offset, t, scale,
                                          backward, fractions):
    """The states that ``_interpolant`` gives at one to eight grid times of
    a forward or backward step, from x = 0 to x = 1, have the bits of the
    numpy pass over the step's sixteen stages (``oracles._grid_states``),
    its three extra stages made apart (``oracles.extra_stages``). The
    compiled loop writes the states that the Python stepper does
    (``test_compiled_loop_has_the_python_steppers_bits``)."""
    system, initial, _horizon, tol = _loop_case(name, eps)
    n = len(initial.x)
    y = tuple((np.concatenate([initial.x, initial.v])
               + offset[:2 * n]).tolist())
    f, m = compile_motion(system), 2 * n
    t_new = t + (-scale if backward else scale) * eps
    h = t_new - t
    y_new, _k13, _error, stages = dynamics._stepper(m)(
        f, system, y, f(y, system), h, tol.rel, tol.abs)
    times = [t_new if a == 1.0 else t + a * h for a in fractions]
    got = dynamics._interpolant(m)(f, system, t, y, y_new, h, stages, times)
    want = oracles._grid_states(np.array([[
        t, t_new, len(times), *y, *y_new,
        *itertools.chain(*stages, *oracles.extra_stages(f, system, y, h,
                                                        stages))]]),
        np.array(times))
    assert np.array(got).tobytes() == want.tobytes()


@given(name=st.sampled_from(sorted(_LOOP_CASES)),
       eps=st.sampled_from([0.1, 0.01, 1e-3]),
       offset=st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6),
       scale=st.floats(0.02, 0.5), rows=st.sampled_from([7, 512]))
@example(name="power 18", eps=0.01, offset=[0.0] * 6, scale=0.5, rows=7)
@example(name="transcendental", eps=1e-3, offset=[0.0] * 6, scale=0.5,
         rows=7)
@settings(max_examples=30, deadline=None)
def test_compiled_loop_has_the_python_steppers_bits(name, eps, offset, scale,
                                                    rows, compiled,
                                                    python_only):
    """Each branch lent to the loop seals the blocks, and writes the grid
    states, rejected tries and nfev, of one stepped in Python alone, or
    raises its class and message."""
    system, initial, horizon, tol = _loop_case(name, eps)
    n = len(initial.x)
    initial = State(0.0, initial.x + offset[:n], initial.v + offset[n:2 * n])
    case = (system, initial, scale * horizon, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "BLOCK_ROWS", rows)
        got = _branches(*case)
        with python_only():
            assert got == _branches(*case)


def _guarded_oscillator(bound):
    """x'' = -x in a kernel whose guard requires bound < x + 2 < inf: below
    it the kernel hands the point to a Python function, where the loop
    declines the try, and the Python stepper makes it."""
    x = expr.Var(0)
    return expr.compile_kernel(
        [ScalarField.parse("x1^2", 1)], 1,
        [expr.Var(1), expr.Bin("*", expr.Num(-1.0), x)],
        decide=lambda p, _arg: (p[1], -p[0]),
        guards=[(expr.Bin("+", x, expr.Num(2.0)), bound)],
        label=dynamics.ACCELERATION, program=native.program)


@given(x=st.floats(-1.0, 1.0), v=st.floats(-1.0, 1.0),
       horizon=st.floats(-6.0, 6.0).filter(lambda t: abs(t) > 0.1),
       bound=st.floats(1.0, 2.0), rows=st.sampled_from([1, 7, 512]))
@example(x=1.0, v=0.0, horizon=4.0, bound=1.1, rows=7)
@example(x=-1.0, v=0.0, horizon=1.0, bound=1.1, rows=7)  # from the guard on
@settings(max_examples=30, deadline=None)
def test_a_declined_try_is_stepped_in_python_and_the_loop_goes_on(
        x, v, horizon, bound, rows, compiled, python_only, python_steps):
    """Where the loop declines a try mid-branch and the Python stepper
    makes it, the branch goes back to the loop and ends on the blocks, grid
    states, rejected tries and nfev of one stepped in Python alone; Python
    makes
    just the declined steps, the rows of both steppers sharing blocks."""
    f = _guarded_oscillator(bound)
    grid = np.linspace(0.0, horizon, 33)

    def solve(log):
        return dynamics._solve_branch(f, None, (x, v), horizon, Tolerances(),
                                      math.inf, log(grid))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "BLOCK_ROWS", rows)
        with python_steps() as python:
            got = _logged(solve)
        with python_only():
            assert got == _logged(solve)
    assert python.each_declined_step
    if (x, v, horizon, bound) == (1.0, 0.0, 4.0, 1.1):
        # x = cos(tau) is below -0.9 for tau in (2.7, 3.6)
        assert python.steps
        assert len(python.tries) < got[-1] / dynamics.STAGE_EVALUATIONS / 3


_FAILING_RUNS = {  # (U, form, x, v, eps, T, what the run raises)
    # 1e300 x1^8 asks for steps near 1e-38: the branch spends its budget
    "stiff wall": ("x3^2 + 1e300*x1^8", ["0", "x3", "0"], [0, 0, 0],
                   [1, 0, 0], 0.1, 0.5, IntegrationError),
    # pushed past x1 = -1, where sqrt(1 + x1) is undefined
    "U undefined": ("x2^2 + sqrt(1 + x1) - 1", None, [0, 0], [-1, 0], 0.1,
                    1.0, DomainError),
    # the acceleration, 100 * 2e306, overflows at the start
    "not finite at y0": ("x2^2 + 1e306*x1^2", None, [1, 0], [0, 0], 0.1,
                         1.0, NonFiniteResult),
}


# the Python tries and the loop's declines of each run in _FAILING_RUNS
_FAILING_TRIES = {"stiff wall": (0, 1), "U undefined": (1, 1),
                  "not finite at y0": (0, 0)}


@pytest.mark.parametrize("name", sorted(_FAILING_RUNS))
def test_compiled_loop_raises_what_python_raises(name, compiled, python_steps,
                                                 request):
    """Where the Python stepper raises, the run lent to the loop raises the
    same class and message as one without a compiler, and Python makes
    only the steps the loop declines: none on the stiff wall, whose last
    decline is the try past its budget."""
    potential, form, x, v, eps, horizon, error = _FAILING_RUNS[name]
    n = len(x)
    system = LagrangianSystem(
        MetricSpec.identity(n), ScalarField.parse(potential, n),
        form and OneForm.from_sources(form), epsilon=eps)
    case = (system, State(0.0, x, v), horizon, Tolerances())
    with python_steps() as python:
        got = _summary(*case, keep_log=False)
    assert got[0] is error
    assert python.only_declined
    assert (len(python.tries), len(python.steps)) == _FAILING_TRIES[name]
    request.getfixturevalue("no_compiler")
    assert _summary(*case, keep_log=False) == got


def test_compiled_loop_stops_where_a_tested_field_value_overflows(
        compiled, python_only, python_steps):
    """y'' = 1 from rest: U = 1e307 x1^2, which the kernel computes and
    tests but no output reads, overflows past x1 = 4.3, where its gradient
    is still finite; the loop, which tests the same symbols once it has
    set them, declines the try there, and the Python stepper makes it and
    raises its own error."""
    u = ScalarField.parse("1e307 * x1^2", 1)
    f = expr.compile_kernel([u], 1, [expr.Var(1), expr.Num(1.0)],
                            label=dynamics.ACCELERATION,
                            program=native.program)
    args = (f, None, (0.0, 0.0), 4.0, Tolerances(), math.inf)
    with python_only(), pytest.raises(NonFiniteResult) as want:
        dynamics._solve_branch(*args, _BlockLog(np.linspace(0, 4, 5)))
    with python_steps() as python, pytest.raises(NonFiniteResult) as got:
        dynamics._solve_branch(*args, _BlockLog(np.linspace(0, 4, 5)))
    assert "is not finite at point" in str(got.value)
    assert str(got.value) == str(want.value)
    assert python.only_declined
    assert len(python.tries) == len(python.steps) == 1


def test_corpus_run_all_makes_no_python_try(compiled, python_steps):
    """The loop steps every corpus sweep branch: Python makes no try in
    ``run_all``."""
    with python_steps() as python:
        harness.run_all(seed=42)
    assert python.tries == python.steps == []


def test_corpus_run_all_builds_no_python_stepper(compiled):
    """The loop makes every try of run-all, and the Python stepper, made
    at a branch's first Python try, is never built."""
    dynamics._stepper.cache_clear()
    harness.run_all(seed=42)
    assert dynamics._stepper.cache_info().currsize == 0


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_curved_sweep_makes_no_python_try(eps, compiled, python_steps,
                                          request):
    """The loop steps each branch of a curved run from its start, over the
    chained program, with the numbers, grid states and step times of the
    run stepped in Python alone."""
    case = _problem_case(CURVED_PROBLEM, eps)
    with python_steps() as python:
        got = _summary(*case, keep_log=False)
    assert python.tries == python.steps == []
    assert got[0][0]["steps"] > 0
    request.getfixturevalue("no_compiler")
    assert _summary(*case, keep_log=False) == got


def test_curved_run_into_a_singular_metric_raises_what_python_raises(
        compiled, python_steps, request):
    """A straight line toward x1 = -1, where g_33 = 1 + x1 stops being
    positive: the loop declines the try whose stage fails the pivot guard,
    and the Python stepper makes it and raises SingularMetric, as it does
    without a compiler."""
    metric = MetricSpec.from_sources(3, [["1", "0", "0"], ["0", "1", "0"],
                                         ["0", "0", "1 + x1"]])
    system = LagrangianSystem(metric, U_PLANE, None, epsilon=0.1)
    case = (system, State(0.0, [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]), 3.0,
            Tolerances())
    with python_steps() as python:
        got = _summary(*case, keep_log=False)
    assert got[0] is SingularMetric, got
    assert python.only_declined and len(python.steps) == 1
    request.getfixturevalue("no_compiler")
    assert _summary(*case, keep_log=False) == got


@pytest.mark.parametrize("eps", [1e300, 1e-300])
def test_sweep_at_an_overflowing_eps_fails_alike_without_a_compiler(
        eps, compiled, request):
    problem = harness.corpus_entry("mechanical-plane")
    problem.epsilons = (eps,)
    report = harness.run_epsilon_sweep(problem, with_certification=False)
    (run,) = report.runs
    assert run.status == "failed" and "overflows at epsilon" in run.error
    request.getfixturevalue("no_compiler")
    again = harness.run_epsilon_sweep(problem, with_certification=False)
    assert again.to_dict() == report.to_dict()


def test_a_source_that_does_not_build_leaves_python_to_step(monkeypatch):
    monkeypatch.setattr(native, "source", lambda: "#error no loop here\n")
    monkeypatch.setattr(native, "library",
                        functools.cache(native.library.__wrapped__))
    assert native.library() is None
    system, initial, horizon, tol = _problem_case(TRANSCENDENTAL, 0.1)
    assert integrate(system, initial, horizon, tol=tol).stats["steps"] > 0
