"""Riemannian point computations against hand and finite-difference oracles."""

import contextlib
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instab import expr, geometry, harness, native
from instab.dynamics import LagrangianSystem, State, el_acceleration
from instab.errors import DomainError, NonFiniteResult, SingularMetric
from instab.expr import ScalarField
from instab.geometry import (
    GRADIENT_FLOOR,
    MetricSpec,
    OneForm,
    contracted_form_norm,
    gradient_rows,
    guard_cancellation,
    magnetic_tensor,
    normalized_gradient,
    normalized_gradient_jacobian,
    riemannian_gradient,
    two_form_norm,
)
from oracles import eval_dual, grad_dual

POLAR_STYLE = [["1", "0"], ["0", "x1^2"]]
CRITERION_10 = [
    ["1", "0", "0"],
    ["0", "1 + x1^2/4", "x1/4"],
    ["0", "x1/4", "1 + (x2 + x3)^2/8"],
]
CURVED = [
    ["1 + x2^2", "x1*x2/2", "0"],
    ["x1*x2/2", "2 + x1^2", "0"],
    ["0", "0", "1 + (x1 + x2)^2/4"],
]
# Not positive definite for x1 <= -1 (first pivot 1 + x1), and where the
# last pivot 1 - x3^2 / d_1 reaches 0 (cancellation in its subtraction).
TURNS_SINGULAR = [
    ["1 + x1", "x1*x2/4", "0"],
    ["x1*x2/4", "1", "x3"],
    ["0", "x3", "1"],
]
# Positive definite on |x| <= 2, with entries that call libm.
TRANSCENDENTAL = [
    ["1 + sin(x1)^2/4", "x1*x2/8", "0"],
    ["x1*x2/8", "exp(x2^2/8)", "0"],
    ["0", "0", "sqrt(1 + x3^2)"],
]


def test_riemannian_gradient_euclidean():
    g = MetricSpec.identity(3)
    f = ScalarField.parse("x1", 3)
    assert riemannian_gradient(g, f, [0.3, -1, 2]) == pytest.approx([1, 0, 0])


def test_riemannian_gradient_constant_field():
    g = MetricSpec.identity(2)
    f = ScalarField.parse("5", 2)
    assert np.all(riemannian_gradient(g, f, [1, 1]) == 0)


def test_riemannian_gradient_diagonal_metric():
    g = MetricSpec.from_sources(2, [["4", "0"], ["0", "1"]])
    f = ScalarField.parse("x1", 2)
    assert riemannian_gradient(g, f, [0.7, 0.2]) == pytest.approx([0.25, 0])


def test_gradient_duality_identity():
    g = MetricSpec.from_sources(3, CURVED)
    f = ScalarField.parse("x1^2*x2 + sin(x3)", 3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rng.uniform(-1, 1, 3)
        w = rng.normal(size=3)
        grad = riemannian_gradient(g, f, p)
        assert float(f.grad(p) @ w) == pytest.approx(
            g.inner(p, grad, w), abs=1e-8)


def test_inverse_is_inverse():
    g = MetricSpec.from_sources(3, CURVED)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.uniform(-1, 1, 3)
        product = g.value(p) @ g.inverse(p)
        assert np.max(np.abs(product - np.eye(3))) < 1e-10


def test_singular_metric_rejected():
    g = MetricSpec.from_sources(2, [["x1", "0"], ["0", "1"]])
    with pytest.raises(SingularMetric):
        g.inverse([0.0, 0.0])
    assert np.all(np.isfinite(g.christoffel([0.5, 0.0])))
    with pytest.raises(SingularMetric, match=r"at point \(-1\.0, 0\.0\)"):
        g.christoffel([-1.0, 0.0])


def test_normalized_gradient_jacobian_on_curved_metric():
    """DX, with its D(G^-1) term, against central differences of X."""
    metric = MetricSpec.from_sources(3, CRITERION_10)
    f = ScalarField.parse("x1 + x2/2 + x1*x3^2 + sin(x2*x3)", 3)
    rng = np.random.default_rng(4)
    h = 1e-6

    def vec(p):
        return normalized_gradient(metric, f, p, GRADIENT_FLOOR)

    for _ in range(20):
        p = rng.uniform(-0.8, 0.8, 3)
        x_vec, dx_vec = normalized_gradient_jacobian(metric, f, p,
                                                     GRADIENT_FLOOR)
        assert x_vec.tobytes() == vec(p).tobytes()
        for c, e in enumerate(np.eye(3) * h):
            central = (vec(p + e) - vec(p - e)) / (2 * h)
            assert dx_vec[:, c] == pytest.approx(central, rel=1e-6, abs=1e-6)


# x1 - ln(x3)/2 and its partials and Hessian are finite there, but w_c =
# 2 grad f · H e_c overflows
OVERFLOWING_DX = ("x1 - ln(x3)/2", [0.0, 0.0, 7e-104])


@pytest.mark.parametrize("sources", [None, CRITERION_10])
def test_normalized_gradient_jacobian_raises_where_a_term_overflows(sources):
    metric = MetricSpec(3) if sources is None \
        else MetricSpec.from_sources(3, sources)
    source, point = OVERFLOWING_DX
    f = ScalarField.parse(source, 3)
    f.hessian(point)  # finite: the overflow is in DX's own terms
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and numpy warns of none of it
        with pytest.raises(NonFiniteResult) as err:
            normalized_gradient_jacobian(metric, f, point, GRADIENT_FLOOR)
    assert str(err.value) == (
        f"Jacobian of the normalized gradient of field {source!r} is not "
        f"finite at point (0.0, 0.0, 7e-104)")


def _reference(metric, point):
    """g, g^-1 and Gamma from per-entry dual numbers and scipy's cho_solve."""
    n = metric.dimension
    g = np.empty((n, n))
    dg = np.empty((n, n, n))  # dg[c, a, b] = d_c g_ab
    for a in range(n):
        for b in range(n):
            g[a, b] = eval_dual(metric.entry(a, b), point)
            dg[:, a, b] = grad_dual(metric.entry(a, b), point)
    ginv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(g, lower=True),
                                  np.eye(n))
    gamma = np.zeros((n, n, n))
    for a, m, k, b in np.ndindex(n, n, n, n):
        gamma[a, m, k] += 0.5 * ginv[a, b] * (dg[k, b, m] + dg[m, b, k]
                                              - dg[b, m, k])
    return g, ginv, gamma


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("sources", [CRITERION_10, CURVED])
def test_compiled_metric_matches_reference(sources):
    metric = MetricSpec.from_sources(3, sources)
    rng = np.random.default_rng(5)
    for _ in range(10):
        p, q = rng.uniform(-1, 1, (2, 3))
        for point in (p, q, p):  # each point replaces the memoized one
            g, ginv, gamma = _reference(metric, point)
            assert _close(metric.value(point), g)
            assert _close(metric.inverse(point), ginv)
            assert _close(metric.christoffel(point), gamma)
    ginv = metric.inverse(p)
    assert not ginv.flags.writeable
    with pytest.raises(ValueError):
        ginv[0, 0] = 0.0


def _reference_metric(sources):
    """A metric whose every point takes the numpy path: compile_fields,
    then Cholesky and inverse in numpy, then the numpy Christoffel."""
    metric = MetricSpec.from_sources(3, sources)
    metric.factors = geometry._reference_factors
    return metric


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except SingularMetric as exc:
        return None, exc


# Generated factors against the numpy path within 1e-12 relative times the
# condition number of g: of the largest entry for g^-1, and of the sum of
# the magnitudes of the summed terms for Gamma and the acceleration. Below
# the normal range each rounding is a whole subnormal step, while such a
# bound underflows to 0, so those two take a floor of a few steps; it
# leaves the bound unchanged in the normal range.
_FACTOR_REL = 1e-12
_FACTOR_FLOOR = 4 * np.finfo(float).smallest_subnormal
_METRICS = {"criterion 10 (perfbench's CURVED_PROBLEM)": CRITERION_10,
            "curved": CURVED, "turns singular": TURNS_SINGULAR}
_NEAR_ONE = st.one_of(st.floats(-2, 2), st.sampled_from([-1.0, 1.0]),
                      st.floats(-1e-9, 1e-9).map(lambda d: d - 1.0))


@given(st.sampled_from(sorted(_METRICS)),
       st.tuples(_NEAR_ONE, st.floats(-2, 2), _NEAR_ONE),
       st.tuples(*[st.floats(-3, 3)] * 3),
       st.sampled_from([1.0, 0.1, 0.01]))
# not positive definite: numpy's Cholesky fails
@example("turns singular", (-1.5, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0)
# first pivot 9e-13, just under PIVOT_FLOOR: numpy's pivot test fails
@example("turns singular", (-1.0 + 9e-13, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0)
# last pivot 1 - x3^2 just under the floor, reached by cancellation
@example("turns singular", (0.0, 0.0, 1.0 - 4e-13), (0.0, 1.0, 1.0), 0.1)
# x3 subnormal: Gamma's terms underflow, and one rounding is a whole step
@example("turns singular", (1.2578125, 1.650390625, 2.2250738585e-313),
         (0.0, 0.0, 0.0), 1.0)
@settings(max_examples=300, deadline=None)
def test_generated_factors_match_numpy_path(count_calls, name, point,
                                           velocity, epsilon):
    sources = _METRICS[name]
    reference = _reference_metric(sources)
    with count_calls(geometry, "_reference_factors") as fallbacks:
        metric = MetricSpec.from_sources(3, sources)
        ginv, error = _outcome(metric.inverse, point)
    ginv_ref, error_ref = _outcome(reference.inverse, point)
    assert np.array_equal(metric.value(point), reference.value(point))
    if error_ref is not None:
        assert fallbacks and type(error) is SingularMetric
        assert str(error) == str(error_ref)
        with pytest.raises(SingularMetric, match=re.escape(str(error_ref))):
            metric.christoffel(point)
        return
    if name != "turns singular":
        assert not fallbacks  # positive definite everywhere
    assert error is None
    g = reference.value(point)
    bound = _FACTOR_REL * np.linalg.cond(g)
    assert np.max(np.abs(ginv - ginv_ref)) <= bound * np.max(np.abs(ginv_ref))

    dg = reference._partials(point)
    braces = (np.transpose(dg, (1, 2, 0)) + np.transpose(dg, (1, 0, 2))
              - dg)
    gamma_terms = 0.5 * np.einsum("ab,bmn->amn", np.abs(ginv_ref),
                                  np.abs(braces))
    gamma_ref = reference.christoffel(point)
    assert np.all(np.abs(metric.christoffel(point) - gamma_ref)
                  <= np.maximum(bound * gamma_terms, _FACTOR_FLOOR))

    potential = ScalarField.parse("x3^2", 3)
    form = OneForm.from_sources(["0", "x3", "0"])
    state = State(0.0, point, velocity)
    acc = el_acceleration(LagrangianSystem(metric, potential, form,
                                           epsilon), state)
    acc_ref = el_acceleration(LagrangianSystem(reference, potential, form,
                                               epsilon), state)
    force = -potential.grad(point) / epsilon ** 2 \
        - magnetic_tensor(form, point).T @ state.v / epsilon
    v = np.abs(state.v)
    scale = np.abs(ginv_ref) @ np.abs(force) + gamma_terms @ v @ v
    assert np.all(np.abs(acc - acc_ref)
                  <= np.maximum(bound * scale, _FACTOR_FLOOR))


_ROW_METRICS = {**_METRICS, "transcendental": TRANSCENDENTAL}


@pytest.mark.parametrize("loop", ["compiled", "python"])
@given(name=st.sampled_from(sorted(_ROW_METRICS)), points=st.lists(
    st.tuples(_NEAR_ONE, st.floats(-2, 2), _NEAR_ONE), min_size=1,
    max_size=6))
# pivots under the floor, just under it, just above it, and within its
# slack: the point-wise path decides each, and the compiled pass declines
@example(name="turns singular", points=[
    (-1.5, 0.0, 0.0), (-1.0 + 9e-13, 0.0, 0.0), (-1.0 + 2e-12, 0.5, 0.0),
    (0.0, 0.0, 1.0 - 4e-13), (0.0, 0.0, 1.0 - 5e-13), (0.5, -0.5, 0.5)])
@settings(max_examples=100, deadline=None)
def test_metric_rows_have_the_point_wise_bits(count_calls, python_only, loop,
                                              name, points):
    """MetricSpec.rows gives ``value``'s and ``inverse``'s bits at each
    point, nan where ``inverse`` raises; its compiled pass declines exactly
    the points where the factor kernel decides, and every point without
    the loop."""
    points = np.array(points)
    with count_calls(geometry, "_reference_factors") as decided:
        metric = MetricSpec.from_sources(3, _ROW_METRICS[name])
        decides = []
        for x in points:
            before = len(decided)
            metric.factors(x.tolist(), metric)
            decides.append(len(decided) > before)
    with python_only() if loop == "python" else contextlib.nullcontext():
        compiled = native.library() is not None
        g, g_declined, g_failed = metric.rows(points, ["g"])
        ginv, declined, failed = metric.rows(points, ["ginv"],
                                             skip=SingularMetric)
        both_g, both_ginv, *masks = metric.rows(points, ["g", "ginv"],
                                                skip=SingularMetric)
    assert declined.tolist() == g_declined.tolist() == (
        decides if compiled else [True] * len(points))
    assert not g_failed.any() and declined[failed].all()
    for k, x in enumerate(points):
        assert np.array_equal(g[k], metric.value(x))
        want, error = _outcome(metric.inverse, x)
        assert failed[k] == (error is not None)
        if error is None:
            assert np.array_equal(ginv[k], want)
        else:
            assert np.isnan(ginv[k]).all()
    assert [m.tolist() for m in masks] == [declined.tolist(),
                                            failed.tolist()]
    assert np.array_equal(both_g[~failed], g[~failed])
    assert np.isnan(both_g[failed]).all()
    assert np.array_equal(both_ginv, ginv, equal_nan=True)


def _gradient_rows_outputs():
    """``gradient_rows`` on a grid around the origin, f undefined for x2 <
    -1, on three curved metrics, one singular for x1 <= -1."""
    axis = np.linspace(-1.75, 1.75, 8)
    points = np.stack(np.meshgrid(axis, axis, axis[::2]), -1).reshape(-1, 3)
    f = ScalarField.parse("x1 + sqrt(x2 + 1) + x3^2", 3)
    return [gradient_rows(MetricSpec.from_sources(3, sources), f, points,
                          floor) for sources in (CRITERION_10, TURNS_SINGULAR,
                                                 TRANSCENDENTAL)
            for floor in (None, 0.5)]


@pytest.fixture(scope="module")
def compiled_gradient_rows(compiled):
    return _gradient_rows_outputs()


def test_gradient_rows_keep_their_bits_without_a_compiler(
        compiled_gradient_rows, no_compiler):
    outputs = _gradient_rows_outputs()
    for got, want in zip(outputs, compiled_gradient_rows, strict=True):
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)
    bad = [out[3] for out in outputs]  # nan f, a singular g, a low gradient
    assert all(mask.any() and not mask.all() for mask in bad)


def test_a_curved_sweep_takes_its_shells_inverses_in_one_pass(compiled,
                                                               count_calls):
    """One repetition of perfbench's curved-sweep: g^-1 at the shell points
    comes from the compiled row pass, not from MetricSpec.inverse at each
    point (1,307 calls without it)."""
    problem = harness.load_problem(dict(
        name="curved-metric", dimension=3, metric=CRITERION_10,
        potential="x3^2", magnetic=["0", "x3", "0"], f="x1 + x2/2",
        center=[0.0, 0.0, 0.0], T=1.0, epsilons=[0.1, 0.01],
        expected="unstable"))
    with count_calls(MetricSpec, "inverse") as calls:
        harness.detect_escape(harness.run_epsilon_sweep(problem, seed=1))
    assert len(calls) <= 20


def test_metric_entry_domain_error_names_entry_and_point():
    g = MetricSpec.from_sources(2, [["1", "0"], ["0", "2 + ln(x1)"]])
    for call in (g.value, g.inverse, g.christoffel):
        with pytest.raises(DomainError, match=r"'2 \+ ln\(x1\)' at point "
                                              r"\(-1\.0, 1\.0\)"):
            call([-1.0, 1.0])


def test_christoffel_euclidean_zero():
    g = MetricSpec.identity(3)
    assert np.all(g.christoffel([0.2, 3, -1]) == 0)


def test_euclidean_arrays_are_shared_and_read_only():
    g = MetricSpec.identity(3)
    eye = g.value([0.2, 3, -1])
    assert np.all(eye == np.eye(3))
    assert g.inverse([1, 2, 3]) is eye and g.value([0, 0, 0]) is eye
    assert g.christoffel([1, 2, 3]) is g.christoffel([0, 0, 0])
    for array in (eye, g.christoffel([1, 2, 3])):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 2.0


def test_christoffel_polar_style():
    g = MetricSpec.from_sources(2, POLAR_STYLE)
    gamma = g.christoffel([2.0, 0.7])
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -2.0
    expected[1, 0, 1] = expected[1, 1, 0] = 0.5
    assert gamma == pytest.approx(expected, abs=1e-12)


def test_christoffel_symmetry_and_fd_oracle():
    g = MetricSpec.from_sources(3, CURVED)
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(5):
        p = rng.uniform(-0.8, 0.8, 3)
        gamma = g.christoffel(p)
        assert np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1)))) == 0.0
        # finite-difference assembly of the same formula
        dg = np.zeros((3, 3, 3))
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            dg[c] = (g.value(p + e) - g.value(p - e)) / (2 * h)
        ginv = g.inverse(p)
        ref = np.zeros((3, 3, 3))
        for a in range(3):
            for m in range(3):
                for n in range(3):
                    ref[a, m, n] = 0.5 * sum(
                        ginv[a, b] * (dg[n, b, m] + dg[m, b, n] - dg[b, m, n])
                        for b in range(3))
        assert np.max(np.abs(gamma - ref)) < 1e-6


def test_metric_compatibility():
    g = MetricSpec.from_sources(3, CURVED)
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(5):
        p = rng.uniform(-0.8, 0.8, 3)
        gamma = g.christoffel(p)
        gv = g.value(p)
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            lhs = (g.value(p + e) - g.value(p - e)) / (2 * h)
            rhs = (np.einsum("db,da->ab", gv, gamma[:, :, c])
                   + np.einsum("ad,db->ab", gv, gamma[:, :, c]))
            assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_magnetic_tensor_planar_forms():
    mu_x = OneForm.from_sources(["0", "x1", "0"])
    f_x = magnetic_tensor(mu_x, [0.5, 1, 2])
    assert f_x[0, 1] == 1.0 and f_x[1, 0] == -1.0
    assert np.count_nonzero(f_x) == 2

    mu_z = OneForm.from_sources(["0", "x3", "0"])
    f_z = magnetic_tensor(mu_z, [0.5, 1, 2])
    assert f_z[2, 1] == 1.0 and f_z[1, 2] == -1.0
    assert np.count_nonzero(f_z) == 2


def test_magnetic_tensor_equals_component_assembly():
    mu = OneForm.from_sources(["x2*x3", "sin(x1) + x3^2", "exp(x1*x2)/2"])
    rng = np.random.default_rng(6)
    for point in rng.uniform(-1, 1, (20, 3)):
        jac = np.empty((3, 3))  # jac[a, b] = d_a mu_b, one field at a time
        for b, comp in enumerate(mu.components):
            jac[:, b] = comp.grad(point)
        assert magnetic_tensor(mu, point).tobytes() == (jac - jac.T).tobytes()


def test_closed_form_has_zero_tensor():
    # the differential of a gradient one-form vanishes
    f = ScalarField.parse("x1^2*x2 + cos(x3)", 3)
    comps = ["2*x1*x2", "x1^2", "-sin(x3)"]
    mu = OneForm.from_sources(comps)
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        assert np.max(np.abs(magnetic_tensor(mu, p))) < 1e-10
    del f


def test_magnetic_tensor_antisymmetric_exactly():
    mu = OneForm.from_sources(["x2*x3", "sin(x1)", "x1^2"])
    t = magnetic_tensor(mu, [0.3, 0.7, -0.2])
    assert np.all(t == -t.T)


def test_magnetic_tensor_linearity():
    a = OneForm.from_sources(["0", "x1", "0"])
    b = OneForm.from_sources(["x2", "0", "x1*x2"])
    total = OneForm.from_sources(["0 + x2", "x1 + 0", "0 + x1*x2"])
    p = [0.4, -0.6, 1.1]
    assert magnetic_tensor(total, p) == pytest.approx(
        magnetic_tensor(a, p) + magnetic_tensor(b, p), abs=1e-14)


def test_contracted_form_norm_cases():
    ginv = MetricSpec.identity(3).inverse([0, 0, 0])
    e1 = np.array([[1.0, 0, 0]])
    f_z = magnetic_tensor(OneForm.from_sources(["0", "x3", "0"]), [0, 0, 0])
    assert contracted_form_norm(ginv, f_z[None], e1)[0] == 0.0
    f_x = magnetic_tensor(OneForm.from_sources(["0", "x1", "0"]), [0, 0, 0])
    assert contracted_form_norm(ginv, f_x[None], e1)[0] == pytest.approx(1.0)
    assert contracted_form_norm(ginv, f_x[None], np.zeros((1, 3)))[0] == 0.0


def test_contracted_form_norm_zeroes_cancellation_noise():
    # c_3 = 0.1 * 3 + 0.3 * (-1) vanishes exactly, but not in floats
    ginv = MetricSpec.identity(3).inverse([0, 0, 0])
    mu = OneForm.from_sources(["0", "0", "3*x1 - x2"])
    v = np.array([0.1, 0.3, 0.0])
    f_tensor = magnetic_tensor(mu, [0, 0, 0])
    assert (v @ f_tensor)[2] != 0.0
    assert contracted_form_norm(ginv, f_tensor[None], v[None])[0] == 0.0


def test_guard_cancellation_keeps_an_overflowed_sum():
    """A sum that overflows, with its scale, is not noise of a zero: it
    stays inf, where |inf| <= NOISE_RELATIVE * inf would zero it."""
    inf = np.array([np.inf])
    assert guard_cancellation(inf, inf).tolist() == [np.inf]
    assert guard_cancellation(-inf, inf).tolist() == [-np.inf]
    assert guard_cancellation(np.array([1e-20]), np.array([1.0])).tolist() \
        == [0.0]


def test_contracted_form_norm_of_an_overflowed_covector_is_inf():
    """A covector with an infinite entry has an infinite norm under a
    positive-definite g^-1, also where the products take inf * 0; one with
    a nan entry stays nan, and a finite row keeps its bits."""
    tensor = np.array([[0.0, 1e308], [-1e308, 0.0]])
    vectors = np.array([[0.0, 4.0], [4.0, 4.0], [np.nan, 4.0],
                        [1e-300, 2e-300]])
    tensors = np.broadcast_to(tensor, (4, 2, 2))
    for inverse in (np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])):
        norms = contracted_form_norm(inverse, tensors, vectors)
        assert norms[:2].tolist() == [np.inf, np.inf]
        assert np.isnan(norms[2])
        covector = vectors[3] @ tensor
        assert norms[3] == np.sqrt(covector @ inverse @ covector)


def test_two_form_norm_unit_planar():
    ginv = MetricSpec.identity(3).inverse([0, 0, 0])
    mu = OneForm.from_sources(["0", "x1", "0"])  # tensor has F_12 = 1
    f_tensor = magnetic_tensor(mu, [0, 0, 0])
    assert two_form_norm(ginv, f_tensor[None])[0] == pytest.approx(1.0)


def test_form_norms_row_by_row_on_curved_metric(rng):
    """Each row is the norm at its own point, with that point's inverse,
    bit for bit as the product taken at that point alone."""
    metric = MetricSpec.from_sources(3, CRITERION_10)
    mu = OneForm.from_sources(["x2*x3", "x1^2", "x1 - x3^3"])
    points = rng.uniform(-1, 1, size=(20, 3))
    vectors = rng.normal(size=(20, 3))
    inverse = np.array([metric.inverse(x) for x in points])
    tensors = np.array([magnetic_tensor(mu, x) for x in points])
    contracted = contracted_form_norm(inverse, tensors, vectors)
    full = two_form_norm(inverse, tensors)
    for k, x in enumerate(points):
        ginv, f_tensor, v = metric.inverse(x), tensors[k], vectors[k]
        covector = v @ f_tensor  # no term cancels at these points
        assert contracted[k] == np.sqrt(covector @ ginv @ covector)
        raised = ginv @ f_tensor @ ginv
        assert full[k] == np.sqrt(0.5 * np.sum(f_tensor * raised))


def test_factor_kernel_computes_nothing_on_numbers_alone():
    """Criterion 10's metric kernel folds its constants, such as sqrt(1.0),
    (1.0 / 4.0) and (1.0 - 1e-14), and decides checks such as 1.0 < 0.0
    when it is made: every assignment and every check of its code reads a
    coordinate or a temporary."""
    sources = []
    define = expr.define_scalar

    def captured(name, src, **names):
        sources.append(src)
        return define(name, src, **names)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "define_scalar", captured)
        MetricSpec.from_sources(3, CRITERION_10).inverse([0.1, 0.2, 0.3])
    (kernel,) = sources
    lines = re.findall(r"^ *(?:t\d+ = (.*)|if (.*): raise .*)$", kernel, re.M)
    assert len(lines) > 20
    for assigned, tested in lines:
        assert re.search(r"\bt\d+\b|p\[", assigned or tested), lines


def test_dimension_cap():
    with pytest.raises(ValueError):
        MetricSpec.identity(17)
