"""Adapted charts: flows, defining identities, metric block structure."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from instab import charts, dynamics, expr, harness, native
from instab.charts import (
    FLOW_GRADIENT_FLOOR,
    FLOW_TOL,
    AdaptedChart,
    BaseSurfaceMap,
    build_chart,
    build_multi_chart,
    compile_flow,
    flow_normalized_gradient,
    injectivity_probe,
    pullback_metric_block_check,
)
from instab.errors import (
    DomainError,
    GradientTooSmall,
    IdentityViolation,
    InstabError,
    OrderDependence,
)
from instab.expr import ScalarField
from instab.geometry import (
    MetricSpec,
    normalized_gradient,
    normalized_gradient_jacobian,
)

E3 = MetricSpec.identity(3)
F_PARAB = ScalarField.parse("x1 + x3^2", 3)


def _psi_parab():
    # y -> (-y2^2, y1, y2) lies on the zero set of x1 + x3^2
    return BaseSurfaceMap(
        [ScalarField.parse(s, 2) for s in ("-x2^2", "x1", "x2")],
        [(-0.5, 0.5), (-0.5, 0.5)],
    )


def test_flow_constant_gradient():
    f = ScalarField.parse("x1", 3)
    out = flow_normalized_gradient(E3, f, [0.0, 3.0, 1.0], 0.7)
    assert out == pytest.approx([0.7, 3.0, 1.0], abs=1e-10)
    assert np.all(flow_normalized_gradient(E3, f, [1.0, 2.0, 3.0], 0.0)
                  == [1.0, 2.0, 3.0])


def test_flow_level_additivity():
    start = np.array([-0.25, 0.3, 0.5])  # on the zero set of F_PARAB
    for t in (0.1, -0.2, 0.35):
        out = flow_normalized_gradient(E3, F_PARAB, start, t)
        assert F_PARAB.eval(out) == pytest.approx(t, abs=1e-8)


def test_flow_group_property():
    rng = np.random.default_rng(0)
    start = np.array([-0.25, 0.3, 0.5])
    for _ in range(5):
        s, t = rng.uniform(-0.3, 0.3, 2)
        one = flow_normalized_gradient(
            E3, F_PARAB, flow_normalized_gradient(E3, F_PARAB, start, t), s)
        two = flow_normalized_gradient(E3, F_PARAB, start, s + t)
        assert np.max(np.abs(one - two)) < 1e-7


def test_flow_stops_on_vanishing_gradient():
    f = ScalarField.parse("x1^2", 1)
    with pytest.raises(GradientTooSmall):
        flow_normalized_gradient(MetricSpec.identity(1), f, [0.1], -1.0)


def test_chart_trivial_height_function():
    f = ScalarField.parse("x3", 3)
    psi = BaseSurfaceMap(
        [ScalarField.parse(s, 2) for s in ("x1", "x2", "0")],
        [(-1, 1), (-1, 1)],
    )
    chart = build_chart(E3, f, psi, (-0.5, 0.5), grid_count=3)
    assert chart.point([0.3, 0.2, -0.4]) == pytest.approx(
        [0.2, -0.4, 0.3], abs=1e-9)
    # zero flow time reduces to the base map
    assert chart.point([0.0, 0.1, 0.7]) == pytest.approx(
        [0.1, 0.7, 0.0], abs=1e-12)


def test_chart_rejects_bad_base_map():
    bad_psi = BaseSurfaceMap(
        [ScalarField.parse(s, 2) for s in ("x1", "x2", "x1")],
        [(-0.5, 0.5), (-0.5, 0.5)],
    )
    with pytest.raises(IdentityViolation) as info:
        build_chart(E3, F_PARAB, bad_psi, (-0.3, 0.3), grid_count=3)
    # f(psi(y)) = y1 + y1^2, off the zero set first at the first grid node
    assert str(info.value) == \
        "base map leaves the zero level set: |f| = -2.500e-01"
    assert info.value.point == (-0.5, -0.5)
    assert info.value.residual == -0.25


def test_chart_level_identity_error_names_its_node():
    # grad(x2 (1 + x1^2)) is not orthogonal to grad(x1 + x3^2), so flow 2,
    # which runs first, moves F_1 off zero
    fields = [F_PARAB, ScalarField.parse("x2*(1 + x1^2)", 3)]
    psi = BaseSurfaceMap(
        [ScalarField.parse(s, 1) for s in ("-x1^2", "0", "x1")], [(0.6, 1.4)])
    with pytest.raises(IdentityViolation) as info:
        build_multi_chart(E3, fields, psi, [(-0.25, 0.25)] * 2, grid_count=3)
    assert str(info.value) == "F_1(Psi(r, y)) - r_1 = -1.555e-02"
    assert info.value.point == (-0.25, -0.25, 0.6)
    assert info.value.residual == pytest.approx(-0.0155492878, rel=1e-6)


def test_chart_additivity_error_names_its_start(monkeypatch):
    # shift the points that flow 2 moves in the additivity check, the only
    # flow call with a scalar time, 0.05 * 2, by 1e-3 along x2
    flow = charts.flow_normalized_gradient

    def shifted(metric, fld, start, t, counters=None):
        end = flow(metric, fld, start, t, counters)
        return end + [0.0, 1e-3, 0.0] if np.ndim(t) == 0 and t == 0.1 else end
    monkeypatch.setattr(charts, "flow_normalized_gradient", shifted)
    evaluated = []
    scalar_eval = ScalarField.eval
    monkeypatch.setattr(ScalarField, "eval", lambda fld, point: (
        evaluated.append(tuple(point)) or scalar_eval(fld, point)))
    fields = [ScalarField.parse("x1", 3), ScalarField.parse("x2", 3)]
    psi = BaseSurfaceMap([ScalarField.parse(s, 1) for s in ("0", "0", "x1")],
                         [(-1, 1)])
    with pytest.raises(IdentityViolation) as info:
        build_multi_chart(E3, fields, psi, [(-0.5, 0.5)] * 2, grid_count=3)
    assert str(info.value) == "flow additivity broken for (i=1, j=1): 1.000e-03"
    assert info.value.point == pytest.approx((-0.5, -0.5, -1.0))
    assert info.value.residual == pytest.approx(1e-3)
    # F_j at the start, then at the moved point, for (i, j) in order
    assert evaluated[::2] == [info.value.point] * 4
    assert len(evaluated) == 8 and info.value.point not in evaluated[1::2]


def test_parabolic_chart_identities():
    chart = build_chart(E3, F_PARAB, _psi_parab(), (-0.3, 0.3),
                        grid_count=5)
    for coords in chart.grid(5):
        assert abs(F_PARAB.eval(chart.point(coords)) - coords[0]) <= 1e-8


def test_parabolic_chart_block_structure():
    chart = build_chart(E3, F_PARAB, _psi_parab(), (-0.3, 0.3),
                        grid_count=5)
    report = pullback_metric_block_check(chart, grid_count=5)
    assert report.passed
    assert report.max_mixed <= 1e-6
    assert report.max_condition < 1e3


def test_level_value_depends_only_on_first_coordinate():
    chart = build_chart(E3, F_PARAB, _psi_parab(), (-0.3, 0.3),
                        grid_count=3)
    h = 1e-4
    for coords in chart.grid(3):
        for j in (1, 2):
            up = coords.copy()
            dn = coords.copy()
            up[j] += h
            dn[j] -= h
            d = (F_PARAB.eval(chart.point(up))
                 - F_PARAB.eval(chart.point(dn))) / (2 * h)
            assert abs(d) <= 1e-6


def test_multi_chart_trivial_linear():
    fields = [ScalarField.parse("x1", 3), ScalarField.parse("x2", 3)]
    psi = BaseSurfaceMap(
        [ScalarField.parse(s, 1) for s in ("0", "0", "x1")],
        [(-1, 1)],
    )
    chart = build_multi_chart(E3, fields, psi,
                              [(-0.5, 0.5), (-0.5, 0.5)], grid_count=3)
    assert chart.point([0.2, -0.3, 0.6]) == pytest.approx(
        [0.2, -0.3, 0.6], abs=1e-9)


def _corollary_chart(grid_count=3):
    fields = [F_PARAB, ScalarField.parse("x2", 3)]
    psi = BaseSurfaceMap(
        [ScalarField.parse(s, 1) for s in ("-x1^2", "0", "x1")],
        [(-0.4, 0.4)],
    )
    return build_multi_chart(E3, fields, psi,
                             [(-0.25, 0.25), (-0.25, 0.25)],
                             grid_count=grid_count)


def test_multi_chart_level_identities():
    chart = _corollary_chart()
    fields = chart.fields
    for coords in chart.grid(3):
        p = chart.point(coords)
        assert abs(fields[0].eval(p) - coords[0]) <= 1e-8
        assert abs(fields[1].eval(p) - coords[1]) <= 1e-8


def test_multi_chart_order_swap_agrees():
    chart = _corollary_chart()
    for coords in chart.grid(3):
        forward = chart.point(coords)
        swapped = chart.point(coords, order=[1, 0])
        assert np.max(np.abs(forward - swapped)) <= 1e-7


def test_multi_chart_block_diagonal():
    chart = _corollary_chart()
    report = pullback_metric_block_check(chart, grid_count=3)
    assert report.passed
    assert report.max_off_block <= 1e-6


def test_multi_chart_detects_non_commuting_flows():
    fields = [ScalarField.parse("x1 + x3^2", 3),
              ScalarField.parse("x2 + x1*x3", 3)]
    psi = BaseSurfaceMap(
        [ScalarField.parse(s, 1) for s in ("-x1^2", "x1^3*x1", "x1")],
        [(-0.4, 0.4)],
    )
    with pytest.raises((OrderDependence, IdentityViolation)):
        build_multi_chart(E3, fields, psi,
                          [(-0.3, 0.3), (-0.3, 0.3)], grid_count=3)


def test_injectivity_probe_clean_and_collision():
    chart = build_chart(E3, F_PARAB, _psi_parab(), (-0.3, 0.3),
                        grid_count=3)
    assert injectivity_probe(chart, grid_count=3) == []

    folded = BaseSurfaceMap(
        [ScalarField.parse(s, 2) for s in ("-x2^2", "x1^2", "x2")],
        [(-0.5, 0.5), (-0.5, 0.5)],
    )
    chart2 = AdaptedChart(E3, [F_PARAB], folded, [(-0.3, 0.3)])
    assert injectivity_probe(chart2, grid_count=3) != []


def test_jacobian_matches_flow_direction():
    chart = build_chart(E3, F_PARAB, _psi_parab(), (-0.3, 0.3),
                        grid_count=3)
    coords = np.array([0.1, 0.2, -0.1])
    jac = chart.jacobian(coords)
    p = chart.point(coords)
    df = F_PARAB.grad(p)
    expected = df / float(df @ df)
    assert jac[:, 0] == pytest.approx(expected, abs=1e-7)


@pytest.mark.parametrize("entry", ["corollary1-unstable-magnetic",
                                   "corollary1-mechanical"])
def test_corollary_charts_block_structure_to_rounding(entry):
    chart, _fields, _pullback = harness.build_problem_chart(
        harness.corpus_entry(entry))
    report = pullback_metric_block_check(chart, grid_count=5)
    assert report.max_mixed <= 1e-12


# --- the in-repo flow solve against scipy's DOP853 -------------------------

def _scipy_flow(metric, fld, start, t, jac=None):
    """A flow, and ``jac`` carried by J' = DX·J, as scipy's DOP853 solves it
    over the reference field."""
    n = len(start)
    if jac is None:
        def rhs(_t, y):
            return normalized_gradient(metric, fld, y, FLOW_GRADIENT_FLOOR)
        y0 = np.asarray(start, dtype=float)
    else:
        def rhs(_t, y):
            vec, dvec = normalized_gradient_jacobian(
                metric, fld, y[:n], FLOW_GRADIENT_FLOOR)
            return np.concatenate([vec, (dvec @ y[n:].reshape(n, -1)).ravel()])
        y0 = np.concatenate([start, jac.ravel()])
    if t == 0.0:
        return y0
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=FLOW_TOL,
                    atol=FLOW_TOL)
    assert sol.success
    return sol.y[:, -1]


def _scipy_point_and_jacobian(chart, coords):
    k = chart.k
    x = chart.psi(coords[k:])
    jac = np.hstack([np.zeros((len(x), k)), chart.psi.jacobian(coords[k:])])
    for i in reversed(range(k)):
        fld = chart.fields[i]
        end = _scipy_flow(chart.metric, fld, x, coords[i], jac[:, i + 1:])
        x = end[:len(x)]
        jac[:, i + 1:] = end[len(x):].reshape(len(x), -1)
        jac[:, i] = normalized_gradient(chart.metric, fld, x,
                                        FLOW_GRADIENT_FLOOR)
    return x, jac


@pytest.mark.parametrize("entry", ["corollary1-unstable-magnetic",
                                   "corollary1-mechanical"])
def test_corollary_charts_match_scipy_dop853(entry, count_calls):
    with count_calls(charts, "_reference_flow") as fallbacks, \
            count_calls(charts, "_reference_jacobian_flow") as jac_fallbacks:
        chart, _fields, _pullback = harness.build_problem_chart(
            harness.corpus_entry(entry))
        got = [(chart.point(c), chart.jacobian(c)) for c in chart.grid(5)]
    assert not fallbacks and not jac_fallbacks  # the kernels gave every X
    for coords, (point, jac) in zip(chart.grid(5), got):
        want_point, want_jac = _scipy_point_and_jacobian(chart, coords)
        assert np.max(np.abs(point - want_point)) <= 1e-12
        assert np.max(np.abs(jac - want_jac)) <= 1e-12


# --- the generated flow field against the reference ------------------------

LEVEL_FIELDS = sorted(
    {(p.f.source, p.dimension) for p in harness.corpus()}
    | {(source, p.dimension) for p in harness.corpus() if p.chart
       for source in p.chart["fields"]})


def _outcome(call):
    try:
        return call(), None
    except InstabError as exc:
        return None, (type(exc), str(exc))


def _reference_flow(metric, fld, x, jac):
    if jac is None:
        return normalized_gradient(metric, fld, x, FLOW_GRADIENT_FLOOR), None
    vec, dvec = normalized_gradient_jacobian(metric, fld, x,
                                             FLOW_GRADIENT_FLOOR)
    return vec, dvec @ jac


def _assert_relative(got, want):
    """Finite entries agree within 1e-12 of the largest; an entry that
    overflows, as where DX does, is the same inf or nan in both."""
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    scale = np.max(np.abs(want[finite]), initial=0.0)
    assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) \
        <= 1e-12 * scale


@given(field=st.sampled_from(LEVEL_FIELDS),
       point=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       scale=st.sampled_from([1.0, 1e-6, 1e-8, 1e-9, 0.0]),
       columns=st.integers(0, 2),
       carried=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
@example(field=("x1^2 + 3*x2^2/2 + x3^2/2", 3), point=[0.5, -0.3, 0.2],
         scale=1e-9, columns=2, carried=[1.0] * 6)
@example(field=("(x1^2 + x2^2)/2", 3), point=[0.3, 0.4, 1.0], scale=0.0,
         columns=0, carried=[0.0] * 6)
@example(field=("x1 - ln(x3)/2", 3), point=[0.0, 0.0, 6.935272022050353e-98],
         scale=1e-6, columns=1, carried=[0.0] * 6)  # DX overflows
@example(field=("(x1^2 + x2^2)/2", 3), point=[1.0000000002, 0.0, 0.0],
         scale=1e-8, columns=0, carried=[0.0] * 6)  # s just above the floor
@settings(max_examples=300, deadline=None)
def test_generated_flow_field_matches_reference(field, point, scale, columns,
                                                carried, count_calls,
                                                python_steps, python_only):
    """The kernel against the reference; where the loop builds, a one-row
    solve by it declines the row exactly where the single solve hands a
    point to the reference or raises, the start among them, and else ends
    on that solve's bits. The single solve, which lends the row to the
    loop after its start and each step it makes, ends on the bits or
    raises the error of one without the loop, and Python makes only the
    steps the loop declines."""
    source, n = field
    fld = ScalarField.parse(source, n)
    metric = MetricSpec.identity(n)
    x = np.array(point[:n]) * scale
    jac = np.array(carried[:n * columns]).reshape(n, columns) \
        if columns else None
    y = tuple(x.tolist()) + tuple(carried[:n * columns])
    reference = "_reference_jacobian_flow" if columns else "_reference_flow"
    with count_calls(charts, reference) as handed:
        kernel = compile_flow(metric, fld, columns)
        got, got_error = _outcome(lambda: np.array(kernel(y, (metric, fld))))
        fallbacks = list(handed)
        with python_steps() as python:
            single, single_error = _outcome(lambda: _single_solve(
                metric, fld, np.array(y), 0.05))
    if native.library() is not None:
        end, short = native.solve_rows(kernel, np.array([y]), [
            dynamics._parameters(0.05, math.inf, charts._FLOW_TOLERANCES)])
        assert short.tolist() == [bool(handed or single_error)]
        if not short[0]:
            assert end.tobytes() == single.tobytes()
        with python_only():
            alone, alone_error = _outcome(lambda: _single_solve(
                metric, fld, np.array(y), 0.05))
        assert single_error == alone_error
        if alone_error is None:
            assert single.tobytes() == alone.tobytes()
            assert python.each_declined_step
        assert python.only_declined
    want, want_error = _outcome(lambda: _reference_flow(metric, fld, x, jac))
    # where DX overflows, the kernel hands the point to the reference,
    # which raises
    assert got_error == want_error
    grad, grad_error = _outcome(lambda: fld.grad(x))
    if grad_error is None and math.hypot(*grad) < FLOW_GRADIENT_FLOOR:
        assert want_error[0] is GradientTooSmall
    if want_error is not None:
        return
    # the kernel decides by itself but at or within rounding of the floor
    near_floor = grad @ grad <= FLOW_GRADIENT_FLOOR ** 2 * (1.0 + 1e-9)
    assert near_floor or not fallbacks
    vec, carried_jac = want
    _assert_relative(got[:n], vec)
    if columns:
        _assert_relative(got[n:], carried_jac.ravel())


# sha256 of the generated source of each corollary level field's flow
# kernel, by column count, with its constants and structural zeros
# folded: x2's |df|^2 is the number 1.0, so its guard is decided when the
# kernel is made, and its outputs are numbers, which take no test.
_FLOW_SOURCES = {
    ("x1 + x3^2", 0):
        "fcecf4b8f9e681437e66d09ef99a4390996f5da8fe5a56e2168bd1bf9736407b",
    ("x1 + x3^2", 1):
        "d8f3467f542b6f76ddef56ba6e5b42a88f8963d5932707e5daa04d1e507bb804",
    ("x1 + x3^2", 2):
        "0e2f80f4de87662e3c3f023c66791b1cd49bc7c6f7e4d793675f297785563513",
    ("x2", 0):
        "862447de24292b4863aae3e008f973ff8d91271da4315ee3cdf76a5c1b75bd7d",
    ("x2", 1):
        "de544394af373fdf503919517a90290dcfc577327cae4e3f9fb1366d08222648",
    ("x2", 2):
        "1a6bf49cde21d401826a3444854158933b759d39dc7927b3dfdc4c61eab25910",
}


def test_flow_kernel_source_is_unchanged():
    """The corollary charts' flow kernels generate the code pinned here,
    with a guard where |df|^2 varies and a test of the outputs that vary,
    which hands the point to the reference."""
    sources = []
    define = expr.define_scalar

    def captured(name, src, **names):
        sources.append(src)
        return define(name, src, **names)

    fields = {str(s) for entry in ("corollary1-unstable-magnetic",
                                   "corollary1-mechanical")
              for s in harness.corpus_entry(entry).chart["fields"]}
    assert fields == {"x1 + x3^2", "x2"}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "define_scalar", captured)
        for (source, columns), digest in _FLOW_SOURCES.items():
            compile_flow(E3, ScalarField.parse(source, 3), columns)
            assert ("below guard" in sources[-1]) == (source != "x2")
            assert ("return decide(p, arg)" in sources[-1].split("except")[0]
                    ) == (source != "x2")
            assert hashlib.sha256(sources[-1].encode()).hexdigest() == digest


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("source", ["x1 + x3^2", "x2"])
def test_flow_kernels_multiply_by_no_structural_zero(source, columns):
    """DX and DX·J fold structural zeros, so no line of a Jacobian flow
    kernel multiplies by a literal 0.0, and x2's, whose DX is identically
    0, reads no entry of J."""
    sources = []
    define = expr.define_scalar

    def captured(name, src, **names):
        sources.append(src)
        return define(name, src, **names)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "define_scalar", captured)
        compile_flow(E3, ScalarField.parse(source, 3), columns)
    lines = [line.strip() for line in sources[-1].splitlines()]
    for line in lines:
        if line.startswith("t"):  # an assignment; the tests compare with 0.0
            assert "(0.0 *" not in line and "* 0.0)" not in line, line
    if source == "x2":
        assert not any(f"p[{k}]" in sources[-1] for k in range(3, 9))
        outputs = ["0.0", "1.0", "0.0"] + ["0.0"] * (3 * columns)
        assert lines[-1] == f"return ({', '.join(outputs)},)"


# --- batched flow solves against single ones --------------------------------

# the level fields above and CI's transcendental one
BATCH_FIELDS = LEVEL_FIELDS + [("x1 + cos(x2) / (1 + x1^2)", 2)]
_ROW = st.tuples(
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    st.sampled_from([1.0, 1e-6, 1e-8, 1e-9, 0.0]),
    st.sampled_from([0.0, 0.05, -0.05, 0.3, -0.3]) | st.floats(-0.3, 0.3),
    st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
_FULL_BATCH = 48  # moving rows of a batch that one call steps


def _single_solve(metric, fld, row, t):
    """One row's flow as a single solve, the path of a one-point chart."""
    if t == 0.0:
        return row
    columns = len(row) // fld.dimension - 1
    return np.array(dynamics._solve_branch(
        compile_flow(metric, fld, columns), (metric, fld),
        tuple(row.tolist()), t, charts._FLOW_TOLERANCES, math.inf))


def _assert_batch_matches_single_solves(field, columns, rows):
    """A batch of flow solves gives each row's single solve bit for bit,
    and where one of them raises, the first such row's error."""
    source, n = field
    fld = ScalarField.parse(source, n)
    metric = MetricSpec.identity(n)
    start = np.array([np.concatenate([np.array(p[:n]) * scale,
                                      carried[:n * columns]])
                      for p, scale, _t, carried in rows])
    t = np.array([row[2] for row in rows])
    want, want_error = _outcome(lambda: np.array([
        _single_solve(metric, fld, row, time) for row, time in zip(start, t)]))
    got, got_error = _outcome(lambda: charts.solve_ivp(metric, fld, start, t))
    assert got_error == want_error
    if want_error is None:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stepper", ["compiled", "no_compiler"])
@given(field=st.sampled_from(BATCH_FIELDS), columns=st.integers(0, 2),
       rows=st.lists(_ROW, min_size=2, max_size=6),
       repeat=st.booleans())
@example(field=("x1 - ln(x3)/2", 3), columns=1, repeat=False, rows=[
    ([0.5, 0.0, 0.4], 1.0, 0.2, [1.0] * 6),
    ([0.0, 0.0, 6.935272022050353e-98], 1.0, 0.1, [0.0] * 6),
])  # DX overflows in the second row: the reference raises
@example(field=("(x1^2 + x2^2)/2", 3), columns=2, repeat=True, rows=[
    ([1.0, 0.0, 0.0], 1e-8, 0.3, [1.0] * 6),  # s at the floor: the reference
    ([0.6, -0.8, 0.5], 1.0, -0.3, [0.5] * 6),
    ([0.6, -0.8, 0.5], 1.0, 0.0, [0.5] * 6),
])
@settings(max_examples=100, deadline=None)
def test_batched_solve_matches_single_solves(field, columns, rows, repeat,
                                             stepper, request):
    """A batch of flow solves gives each row's single solve bit for bit,
    on every level field, transcendental ones too, stepped by the compiled
    loop or without a compiler; where one of them raises, the first such
    row's error. The stepper's fixture holds for every example."""
    request.getfixturevalue(stepper)
    _assert_batch_matches_single_solves(
        field, columns, rows + rows[:1] if repeat else rows)


@given(field=st.sampled_from(BATCH_FIELDS), columns=st.integers(0, 2),
       rows=st.lists(_ROW, min_size=1, max_size=6))
@example(field=("x1 - ln(x3)/2", 3), columns=1, rows=[
    ([0.5, 0.0, 0.4], 1.0, 0.2, [1.0] * 6),
    ([0.0, 0.0, 6.935272022050353e-98], 1.0, 0.1, [0.0] * 6),
])  # DX overflows in the second row: the reference raises
@example(field=("x1 - ln(x3)/2", 3), columns=1, rows=[
    ([0.5, 0.0, 0.4], 1.0, 0.2, [1.0] * 6),
    ([0.5, 0.0, 0.4], 1.0, -0.3, [1.0] * 6),
    ([0.0, 0.0, 6.935272022050353e-98], 1.0, 0.1, [0.0] * 6),
])  # and in every third moving row of the batch
@example(field=("(x1^2 + x2^2)/2", 3), columns=2, rows=[
    ([1.0, 0.0, 0.0], 1e-8, 0.3, [1.0] * 6),  # s at the floor: the reference
    ([0.6, -0.8, 0.5], 1.0, -0.3, [0.5] * 6),
    ([0.6, -0.8, 0.5], 1.0, 0.0, [0.5] * 6),
    ([1.0, 0.0, 0.0], 1e-8, 0.3, [1.0] * 6),
])
@settings(max_examples=100, deadline=None)
def test_batched_solve_of_a_full_batch_matches_single_solves(field, columns,
                                                             rows, compiled):
    """``test_batched_solve_matches_single_solves`` for a batch of many
    rows in one call of the compiled loop: the drawn rows, then their
    moving ones repeated until _FULL_BATCH rows move."""
    moving = [row for row in rows if row[2] != 0.0]
    _assert_batch_matches_single_solves(field, columns, rows + (
        moving * _FULL_BATCH)[:_FULL_BATCH - len(moving)])


@pytest.mark.parametrize("stepper", ["compiled", "no_compiler"])
@pytest.mark.parametrize("failing", [0, 5])
def test_batched_solve_stops_at_a_row_whose_single_solve_raises(
        failing, stepper, count_calls, request):
    """The rows the compiled loop stops short on, here the one where ln's
    argument is negative, and without a compiler every row, are solved
    alone in row order; the first that raises ends the batch with its
    error, that of the per-row loop."""
    request.getfixturevalue(stepper)
    fld = ScalarField.parse("x1 - ln(x3)/2", 3)
    start = np.tile([0.5, 0.0, 0.4], (_FULL_BATCH, 1))
    start[failing, 2] = -1.0  # ln of a negative: the kernel decides there
    t = np.full(len(start), 0.3)
    _none, want = _outcome(lambda: [_single_solve(E3, fld, row, 0.3)
                                    for row in start])
    with count_calls(dynamics, "_solve_branch") as singles:
        _none, got = _outcome(lambda: charts.solve_ivp(E3, fld, start, t))
    assert want is not None and got == want
    alone = [failing] if stepper == "compiled" else range(failing + 1)
    assert [y for _f, _arg, y, *_rest in singles] == [
        tuple(start[r].tolist()) for r in alone]


_BASE_SOURCES = ["x1", "-x2^2", "x1*x2 - 3", "(x1 + x2)^3/7",
                 "x2/(1 + x1^2)", "0"]


@given(sources=st.lists(st.sampled_from(_BASE_SOURCES), min_size=1,
                        max_size=4),
       points=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                       min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_base_map_rows_have_the_per_point_bits(sources, points):
    """On polynomial components the row pass gives each point's values and
    partials bit for bit."""
    psi = BaseSurfaceMap([ScalarField.parse(s, 2) for s in sources],
                         [(-1.0, 1.0)] * 2)
    y = np.array(points)
    values, jacobians, bad = psi.rows(y)
    assert not bad.any()
    assert values.tobytes() == np.array([psi(p) for p in y]).tobytes()
    assert jacobians.tobytes() == np.array(
        [psi.jacobian(p) for p in y]).tobytes()


def test_base_map_rows_raise_the_per_point_error_where_undefined():
    """Where a component is undefined, the row is nan, and the chart, its
    Jacobian and the base-map check raise the error of the point."""
    psi = BaseSurfaceMap(
        [ScalarField.parse(s, 2) for s in
         ("-x2^2", "x1", "x2 * (x1 + 0.5) / (x1 + 0.5)")],
        [(-0.5, 0.5), (-0.5, 0.5)])
    y = np.array([[0.1, 0.2], [-0.5, 0.3], [-0.5, 0.1]])
    assert psi.rows(y)[2].tolist() == [False, True, True]
    with pytest.raises(DomainError) as point_error:
        psi(y[1])
    chart = AdaptedChart(E3, [F_PARAB], psi, [(-0.3, 0.3)])
    coords = np.hstack([np.full((3, 1), 0.1), y])
    for call in (chart.point, chart.jacobian):
        with pytest.raises(DomainError) as raised:
            call(coords)
        assert str(raised.value) == str(point_error.value)
    with pytest.raises(DomainError) as raised:
        build_chart(E3, F_PARAB, psi, (-0.3, 0.3), grid_count=3)
    with pytest.raises(DomainError) as first_error:
        psi([-0.5, -0.5])  # the grid's first node
    assert str(raised.value) == str(first_error.value)


@pytest.mark.parametrize("entry", ["corollary1-unstable-magnetic",
                                   "corollary1-mechanical"])
def test_corpus_chart_batches_solve_no_row_alone(entry, compiled,
                                                 count_calls, python_steps):
    """Each grid check flows its points in batches, at most one call per
    flow for the identity grid, the swapped corners, the additivity flows
    and the block check's Jacobians; on the corpus charts the compiled
    loop steps every row, none is solved alone, and Python makes no
    try."""
    with count_calls(dynamics, "_solve_branch") as singles, \
            count_calls(charts, "solve_ivp") as batches, \
            python_steps() as python:
        chart, _fields, _pullback = harness.build_problem_chart(
            harness.corpus_entry(entry))
        pullback_metric_block_check(chart, grid_count=5)
        injectivity_probe(chart, grid_count=5)
    assert not singles and not python.tries
    assert len(batches) <= 4 * chart.k
