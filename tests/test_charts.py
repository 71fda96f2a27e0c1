"""Adapted charts: flows, defining identities, metric block structure."""

import numpy as np
import pytest

from instab import harness
from instab.charts import (
    AdaptedChart,
    BaseSurfaceMap,
    build_chart,
    build_multi_chart,
    flow_normalized_gradient,
    injectivity_probe,
    pullback_metric_block_check,
)
from instab.errors import GradientTooSmall, IdentityViolation, OrderDependence
from instab.expr import ScalarField
from instab.geometry import MetricSpec

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
    with pytest.raises(IdentityViolation):
        build_chart(E3, F_PARAB, bad_psi, (-0.3, 0.3), grid_count=3)


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
