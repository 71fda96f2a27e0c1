"""Integrator and monitor checks against closed-form solutions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from instab import dynamics, harness
from instab.dynamics import (
    LagrangianSystem,
    State,
    Tolerances,
    check_lemma1_bounds,
    compile_motion,
    el_acceleration,
    el_residual_adapted,
    hamiltonian,
    integrate,
)
from instab.errors import (
    DomainError,
    EnergyDriftExceeded,
    NonFiniteResult,
    StepSizeUnderflow,
)
from instab.expr import ScalarField
from instab.geometry import MetricSpec, OneForm

E3 = MetricSpec.identity(3)
U_PLANE = ScalarField.parse("x3^2", 3)
MU_X = OneForm.from_sources(["0", "x1", "0"])
MU_Z = OneForm.from_sources(["0", "x3", "0"])
ZERO3 = ScalarField.parse("0", 3)


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
    traj = integrate(system, State(0, np.zeros(3), [0.5, 0.3, 0.1]), 1.0)
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
                     tol=Tolerances(max_step=0.1))
    dist = np.sqrt((traj.states[:, :3] ** 2).sum(axis=1))
    assert dist.max() <= 2 * eps + 1e-8
    # x(t) = eps sin t, y(t) = eps (cos t - 1)
    i = np.argmin(np.abs(traj.grid_times - math.pi / 2))
    t = traj.grid_times[i]
    assert traj.grid_states[i, :3] == pytest.approx(
        [eps * math.sin(t), eps * (math.cos(t) - 1), 0], abs=1e-8)


def test_energy_drift_monitor_raises():
    system = LagrangianSystem(E3, U_PLANE, None, epsilon=0.01)
    with pytest.raises(EnergyDriftExceeded):
        integrate(system, State(0, [0, 0, 0.005], [0, 1, 0]), 1.0,
                  tol=Tolerances(abs=1e-3, rel=1e-3, max_step=0.01,
                                 energy_drift=1e-14))


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
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 0.1)
    dt = np.diff(traj.times)
    assert dt[dt > 0].max() <= eps / 10 + 1e-12


def test_convergence_order_in_step_size():
    """Error against the closed-form circle scales like h^4 or better."""
    eps = 0.1
    system = LagrangianSystem(E3, U_PLANE, MU_X, epsilon=None)
    errors = []
    steps = [0.2, 0.1, 0.05]
    for h in steps:
        traj = integrate(
            system, State(0, np.zeros(3), [eps, 0, 0]), 6.0,
            tol=Tolerances(abs=1e2, rel=1e2, max_step=h,
                           energy_drift=np.inf))
        t = traj.grid_times
        exact = np.stack([eps * np.sin(t), eps * (np.cos(t) - 1),
                          np.zeros_like(t)], axis=1)
        errors.append(np.max(np.abs(traj.grid_states[:, :3] - exact)))
    slopes = [
        math.log(a / b) / math.log(ha / hb)
        for (a, ha), (b, hb) in zip(zip(errors, steps),
                                    list(zip(errors, steps))[1:])
    ]
    assert min(slopes) >= 4.0


def test_csv_export_columns(tmp_path):
    system = LagrangianSystem(E3, U_PLANE, MU_Z, epsilon=0.1)
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 0.2)
    path = tmp_path / "run.csv"
    with open(path, "w") as fh:
        traj.to_csv(fh, system)
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
    g = MetricSpec.from_sources(
        3, [["1", "0", "0"],
            ["0", "1 + x1^2/4", "x1/4"],
            ["0", "x1/4", "1 + (x2 + x3)^2/8"]])
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
    traj = integrate(system, State(0, np.zeros(3), [1, 0, 0]), 1.0)
    assert traj.path_length[-1] == pytest.approx(1.0, abs=1e-9)
    assert traj.path_length[0] == pytest.approx(1.0, abs=1e-9)


# --- the compiled equations of motion against el_acceleration -------------

_OFFSETS = st.lists(st.floats(-2, 2), min_size=6, max_size=6)


def _reference_motion(system, y):
    """(v, a) from el_acceleration, or the class and message it raises."""
    n = len(y) // 2
    try:
        acc = el_acceleration(system, State(0.0, y[:n], y[n:]))
    except (DomainError, NonFiniteResult) as exc:
        return None, (type(exc), str(exc))
    return tuple(y[n:]) + tuple(acc.tolist()), None


def _compiled_motion(system, y):
    motion = compile_motion(system)
    try:
        return motion(tuple(y), system), None
    except (DomainError, NonFiniteResult) as exc:
        return None, (type(exc), str(exc))


def _assert_motion_close(got, want):
    """Finite entries agree within 1e-12 of the largest; an entry that
    overflows, as where dU/eps^2 does, is the same inf or nan in both."""
    got, want = np.array(got), np.array(want)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True), \
        (got, want)
    scale = np.max(np.abs(want[finite]), initial=0.0)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale), \
        (got, want)


@pytest.mark.parametrize("name", [p.name for p in harness.corpus()])
@given(offset=_OFFSETS, eps=st.sampled_from([1.0, 0.1, 1e-2, 1e-3, None]))
@settings(max_examples=60, deadline=None)
def test_compiled_motion_matches_reference(name, offset, eps, count_calls):
    problem = harness.corpus_entry(name)
    n = problem.dimension
    y = np.concatenate([problem.center, np.zeros(n)]) + offset[:2 * n]
    with count_calls(dynamics, "_reference_stage") as fallbacks:
        system = problem.system(epsilon=eps)
        assert compile_motion(system) is not dynamics._reference_stage
        got, _ = _compiled_motion(system, y)
    assert not fallbacks  # the kernel's own code gave the state
    want, error = _reference_motion(system, y)
    assert error is None
    _assert_motion_close(got, want)


def test_motion_kernels_are_per_epsilon():
    problem = harness.corpus_entry("stable-magnetic-plane")
    kernels = {eps: compile_motion(problem.system(epsilon=eps))
               for eps in problem.epsilons}
    assert len(set(kernels.values())) == len(problem.epsilons) == 3
    for eps, kernel in kernels.items():
        assert compile_motion(problem.system(epsilon=eps)) is kernel


_PARTIAL_FIELDS = [
    ("ln(x1)^2 + x2^2", ["0", "x3 / (x1 - x2)", "sqrt(x2)"]),
    ("sqrt(x1 * x2) + x3^2", ["x2 / x3", "0", "ln(x1 + x3)"]),
    ("x3^2 / (x1 - x3) + exp(x2)", None),
]


@pytest.mark.parametrize("potential, form", _PARTIAL_FIELDS)
@given(y=st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, 800.0]),
                            st.floats(-3, 3)), min_size=6, max_size=6),
       eps=st.sampled_from([1.0, 0.1, 1e-3]))
@example(y=[2.3353543293436346e-301, 1.0, 0.0, 0.0, 0.0, 0.0],
         eps=1e-3)  # dU/eps^2 overflows where ln(x1)^2's dU does not
@settings(max_examples=200, deadline=None)
def test_compiled_motion_raises_like_reference(potential, form, y, eps,
                                               count_calls):
    magnetic = None if form is None else OneForm.from_sources(form)
    system = LagrangianSystem(E3, ScalarField.parse(potential, 3), magnetic,
                              epsilon=eps)
    want, want_error = _reference_motion(system, y)
    with count_calls(dynamics, "_reference_stage") as fallbacks:
        got, got_error = _compiled_motion(system, y)
    assert got_error == want_error
    assert bool(fallbacks) == (want_error is not None)
    if want is not None:
        _assert_motion_close(got, want)


# --- the Dormand-Prince stepper against scipy's RK45 -----------------------

def _scipy_rk45(system, initial, horizon, tol, max_step):
    """Both branches as scipy's solve_ivp(method="RK45") integrates them."""
    n = len(initial.x)

    def rhs(tau, y):
        acc = el_acceleration(system, State(tau, y[:n], y[n:]))
        return np.concatenate([y[n:], acc])

    y0 = np.concatenate([initial.x, initial.v])
    return [solve_ivp(rhs, (0.0, end), y0, method="RK45", rtol=tol.rel,
                      atol=tol.abs, max_step=max_step, dense_output=True)
            for end in (horizon, -horizon)]


def _corpus_case(name, eps):
    problem = harness.corpus_entry(name)
    _df, grad, _cap_sq = problem.gradient_data()
    return (problem.system(epsilon=eps), State(0.0, problem.center, grad),
            problem.horizon, Tolerances(), eps / 10)


def _circle_case(max_step):
    system = LagrangianSystem(E3, U_PLANE, MU_X, epsilon=None)
    tol = Tolerances() if max_step is None else Tolerances(max_step=max_step)
    return (system, State(0.0, np.zeros(3), [0.05, 0.0, 0.01]), 30.0, tol,
            math.inf if max_step is None else max_step)


@pytest.mark.parametrize("case", [
    _corpus_case("mechanical-plane", 0.1),
    _corpus_case("mechanical-plane", 0.01),
    _corpus_case("stable-magnetic-plane", 0.1),
    _corpus_case("stable-magnetic-plane", 0.01),
    _circle_case(None),  # unscaled: no cap
    _circle_case(0.1),  # the Tolerances(max_step=...) override
], ids=["mechanical-0.1", "mechanical-0.01", "stable-magnetic-0.1",
        "stable-magnetic-0.01", "unscaled", "unscaled-max-step"])
def test_stepper_matches_scipy_rk45(case):
    system, initial, horizon, tol, max_step = case
    traj = integrate(system, initial, horizon, tol=tol)
    fwd, bwd = _scipy_rk45(system, initial, horizon, tol, max_step)
    assert traj.stats["steps"] == len(fwd.t) + len(bwd.t) - 2
    assert traj.stats["nfev"] == fwd.nfev + bwd.nfev
    # scipy spends 2 evaluations on each branch's start, 6 on each try
    assert 6 * (traj.stats["steps"] + traj.stats["rejected"]) + 4 \
        == traj.stats["nfev"]
    grid = traj.grid_times
    neg = grid < 0
    states = np.concatenate([bwd.sol(grid[neg]).T, fwd.sol(grid[~neg]).T])
    assert np.max(np.abs(traj.grid_states - states)) <= 1e-12
    # The embedded error estimate cancels its stages, so a last-digit
    # difference in a stage sum (scipy's BLAS dot against float sums) moves
    # the next step by up to ~1e-10 of itself; the times drift that far.
    times = np.concatenate([bwd.t[::-1], fwd.t])
    assert np.max(np.abs(traj.times - times)) <= 1e-9 * horizon


def test_step_size_underflow_keeps_scipy_message():
    system, initial, horizon, _tol, _cap = _corpus_case("mechanical-plane",
                                                        0.1)
    tol = Tolerances(max_step=1e-323)  # below 10 ulp of tau = 0
    with pytest.raises(StepSizeUnderflow) as raised:
        integrate(system, initial, horizon, tol=tol)
    fwd, _bwd = _scipy_rk45(system, initial, horizon, tol, tol.max_step)
    assert not fwd.success
    assert str(raised.value) == fwd.message


def test_tolerances_reject_non_positive_max_step():
    with pytest.raises(ValueError, match="max_step"):
        Tolerances(max_step=0.0)


@pytest.mark.parametrize("kind", ["abs", "rel"])
def test_tolerances_reject_non_finite_values(kind):
    with pytest.raises(ValueError, match="finite"):
        Tolerances(**{kind: math.inf})
