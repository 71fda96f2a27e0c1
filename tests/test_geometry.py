"""Riemannian point computations against hand and finite-difference oracles."""

import numpy as np
import pytest

from instab.errors import SingularMetric
from instab.expr import ScalarField
from instab.geometry import (
    MetricSpec,
    OneForm,
    contracted_form_norm,
    magnetic_tensor,
    riemannian_gradient,
    two_form_norm,
)

POLAR_STYLE = [["1", "0"], ["0", "x1^2"]]
CURVED = [
    ["1 + x2^2", "x1*x2/2", "0"],
    ["x1*x2/2", "2 + x1^2", "0"],
    ["0", "0", "1 + (x1 + x2)^2/4"],
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
    with pytest.raises(SingularMetric):
        g.check_positive_definite([-1.0, 0.0])


def test_christoffel_euclidean_zero():
    g = MetricSpec.identity(3)
    assert np.all(g.christoffel([0.2, 3, -1]) == 0)


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
    g = MetricSpec.identity(3)
    e1 = np.array([1.0, 0, 0])
    mu_z = OneForm.from_sources(["0", "x3", "0"])
    assert contracted_form_norm(g, mu_z, e1, [0, 0, 0]) == 0.0
    mu_x = OneForm.from_sources(["0", "x1", "0"])
    assert contracted_form_norm(g, mu_x, e1, [0, 0, 0]) == pytest.approx(1.0)
    assert contracted_form_norm(g, mu_x, np.zeros(3), [0, 0, 0]) == 0.0


def test_two_form_norm_unit_planar():
    g = MetricSpec.identity(3)
    mu = OneForm.from_sources(["0", "x1", "0"])  # tensor has F_12 = 1
    assert two_form_norm(g, mu, [0, 0, 0]) == pytest.approx(1.0)


def test_dimension_cap():
    with pytest.raises(ValueError):
        MetricSpec.identity(17)
