"""Expression language: parsing, printing, dual arithmetic, codegen."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instab.errors import (
    DimensionExceeded,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
)
from instab.expr import (
    Bin,
    CallableField,
    Dual,
    Num,
    ScalarField,
    Var,
    parse,
    to_source,
)


def test_parse_polynomial_structure():
    tree = parse("x1^2 - x2^2*x3", 3)
    assert isinstance(tree, Bin) and tree.op == "-"
    assert isinstance(tree.rhs, Bin) and tree.rhs.op == "*"


def test_identity_eval():
    f = ScalarField.parse("x1", 1)
    assert f.eval([5.0]) == 5.0


def test_value_and_gradient_hand_case():
    f = ScalarField.parse("2*(x1+x2)^3", 2)
    v, g = f.value_and_grad([1.0, 1.0])
    assert v == pytest.approx(16.0)
    assert g == pytest.approx([24.0, 24.0])


def test_eval_examples():
    assert ScalarField.parse("x3^2", 3).eval([1, 2, 3]) == 9.0
    assert ScalarField.parse("0", 3).eval([0.3, 0.1, 4]) == 0.0
    kolibri = ScalarField.parse("(x1^2*x3^2 + x1^3 - x2^2)^2", 3)
    assert kolibri.eval([1, 1, 1]) == 1.0


def test_gradient_examples():
    assert ScalarField.parse("x3^2", 3).grad([0, 0, 0.5]) \
        == pytest.approx([0, 0, 1])
    assert np.all(ScalarField.parse("7", 3).grad([1, 2, 3]) == 0.0)
    whitney = ScalarField.parse("(x1^2 - x2^2*x3)^2", 3)
    assert whitney.grad([1, 1, 1]) == pytest.approx([0, 0, 0])


def test_precedence():
    assert parse("x1-x2-x3", 3) == parse("(x1-x2)-x3", 3)
    assert parse("x1^x2^x3", 3) == parse("x1^(x2^x3)", 3)
    assert parse("-x1^2", 1) == parse("-(x1^2)", 1)
    assert parse("x1+x2*x3", 3) == parse("x1+(x2*x3)", 3)


def test_round_trip_stability():
    sources = [
        "x1^2 - x2^2*x3",
        "-(x1 + x2)/x3^2",
        "sin(x1)*cos(x2) + exp(-x3)",
        "sqrt(x1^2 + 1) - ln(x2 + 2)",
        "2*(x1+x2)^3/(1 + x3^2)",
        "x1^2^3",
    ]
    for src in sources:
        tree = parse(src, 3)
        assert parse(to_source(tree), 3) == tree


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + * x2", 2)
    assert err.value.line == 1
    assert err.value.column == 6


def test_unknown_identifier_and_dimension():
    with pytest.raises(UnknownIdentifier):
        parse("x1 + tan(x2)", 2)
    with pytest.raises(DimensionExceeded):
        parse("x4", 3)
    with pytest.raises(UnknownIdentifier):
        parse("y1", 3)


def test_domain_errors():
    with pytest.raises(DomainError):
        ScalarField.parse("1/x1", 1).eval([0.0])
    with pytest.raises(DomainError):
        ScalarField.parse("ln(x1)", 1).eval([-1.0])
    with pytest.raises(DomainError):
        ScalarField.parse("sqrt(x1)", 1).eval([-0.5])
    with pytest.raises(DomainError):
        ScalarField.parse("x1^0.5", 1).eval([-2.0])


def test_dual_leibniz():
    a = Dual(3.0, (1.0, 0.0))
    b = Dual(4.0, (0.0, 1.0))
    prod = a * b
    assert prod.val == 12.0
    assert prod.eps == (4.0, 3.0)


def test_nested_duals_second_derivative():
    # d^2/dx^2 of x^3 at 2 is 12
    x = Dual(Dual(2.0, (1.0,)), (Dual(1.0, (0.0,)),))
    y = x * x * x
    assert y.eps[0].eps[0] == pytest.approx(12.0)


_SOURCES = [
    "(x1^2 - x2^2*x3)^2",
    "(x1^2*x3^2 + x1^3 - x2^2)^2",
    "sin(x1*x2) + cos(x3)^2",
    "exp(x1/2) * (1 + x2^2)",
    "sqrt(1 + x1^2 + x2^2) + x3/(2 + cos(x1))",
    "ln(2 + x1^2) - x2*x3",
]


@pytest.mark.parametrize("source", _SOURCES)
def test_gradient_matches_finite_differences(source):
    rng = np.random.default_rng(11)
    f = ScalarField.parse(source, 3)
    h = 1e-6
    for _ in range(170):  # ~1000 pairs across the parameterization
        p = rng.uniform(-1.5, 1.5, 3)
        grad = f.grad(p)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (f.eval(p + e) - f.eval(p - e)) / (2 * h)
            scale = max(1.0, abs(fd))
            assert abs(grad[j] - fd) / scale < 1e-6


@pytest.mark.parametrize("source", _SOURCES)
def test_fast_path_matches_dual_reference(source):
    rng = np.random.default_rng(3)
    f = ScalarField.parse(source, 3)
    for _ in range(50):
        p = rng.uniform(-1.5, 1.5, 3)
        assert f.eval(p) == pytest.approx(f.eval_dual(p), abs=1e-13)
        assert f.grad(p) == pytest.approx(f.grad_dual(p), abs=1e-12)


def test_vectorized_matches_scalar():
    f = ScalarField.parse("sqrt(1 + x1^2) * cos(x2)", 2)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, (64, 2))
    bulk = f.vectorized()(pts)
    for row, value in zip(pts, bulk):
        assert value == pytest.approx(f.eval(row))


def test_vectorized_nan_on_domain_error():
    f = ScalarField.parse("ln(x1)", 1)
    out = f.vectorized()(np.array([[1.0], [-1.0]]))
    assert out[0] == 0.0
    assert math.isnan(out[1])


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_arbitrary_input(source):
    try:
        parse(source, 3)
    except (ExprSyntaxError, UnknownIdentifier, DimensionExceeded):
        pass


@given(st.integers(0, 8), st.floats(-3, 3, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_integer_powers_match_math_pow(k, x):
    f = ScalarField.parse(f"x1^{k}", 1)
    assert f.eval([x]) == pytest.approx(float(x) ** k, rel=1e-12, abs=1e-12)


def test_negative_exponent_routes_through_exp_ln():
    f = ScalarField.parse("x1^(-2)", 1)
    assert f.eval([2.0]) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        f.eval([-2.0])


def test_callable_field_duck_type():
    base = ScalarField.parse("x1^2 + x2", 2)
    shifted = CallableField(2, lambda c: base._call(c) + 1, label="shifted")
    assert shifted.eval([2.0, 1.0]) == 6.0
    assert shifted.grad([2.0, 1.0]) == pytest.approx([4.0, 1.0])


def test_num_var_equality():
    assert Num(2.0) == Num(2.0)
    assert Var(0) != Var(1)
