"""Expression language: parsing, dual arithmetic, codegen."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instab.errors import (
    DimensionExceeded,
    DomainError,
    ExprSyntaxError,
    NonFiniteResult,
    UnknownIdentifier,
)
from instab.expr import (
    Bin,
    CallableField,
    Dual,
    Num,
    ScalarField,
    Var,
    _value_of,
    compile_fields,
    derivative,
    eval_expr,
    parse,
    substitute,
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


def test_dimension_exceeded_names_its_position():
    with pytest.raises(DimensionExceeded) as err:
        parse("x1 +\n  x3", 2)
    assert (err.value.line, err.value.column) == (2, 3)
    assert str(err.value) == ("variable x3 exceeds declared dimension 2 "
                              "at 2:3")


def test_field_code_is_cached_under_one_key_each():
    f = ScalarField.parse("x1^2 * x2", 2)
    f.value_and_grad([1.0, 2.0])
    f.hessian([1.0, 2.0])
    vec = f.vectorized()
    assert set(f.compiled) == {"value_grad", "hessian", "vectorized"}
    assert f.vectorized() is vec


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


def test_negative_exponent_is_an_integer_power():
    f = ScalarField.parse("x1^(-2)", 1)
    assert f.eval([2.0]) == pytest.approx(0.25)
    assert f.eval([-2.0]) == pytest.approx(0.25)


def test_callable_field_duck_type():
    base = ScalarField.parse("x1^2 + x2", 2)
    shifted = CallableField(2, lambda c: base._call(c) + 1, label="shifted")
    assert shifted.eval([2.0, 1.0]) == 6.0
    assert shifted.grad([2.0, 1.0]) == pytest.approx([4.0, 1.0])


def test_num_var_equality():
    assert Num(2.0) == Num(2.0)
    assert Var(0) != Var(1)


@pytest.mark.parametrize("outer, inner, composed", [
    ("x1*x2 + 1", ["x1 + x2", "sin(x1)"], "(x1 + x2)*sin(x1) + 1"),
    ("x1^2 - ln(x2)", ["x2", "x1*x2"], "x2^2 - ln(x1*x2)"),
    ("exp(x2)^x1", ["x1", "x2^-3"], "exp(x2^-3)^x1"),
    ("x1*x2", ["0", "x1"], "0"),
    ("x2*x1 + x1", ["1", "x2"], "x2 + 1"),
    ("x1 - x2", ["0", "x2"], "-x2"),
])
def test_substitute_composes(outer, inner, composed):
    inner_asts = [parse(src, 2) for src in inner]
    out = substitute(parse(outer, 2), inner_asts)
    assert out == parse(composed, 2)
    point = [0.7, 1.3]
    assert eval_expr(out, point) == pytest.approx(
        eval_expr(parse(outer, 2), [eval_expr(e, point) for e in inner_asts]),
        rel=1e-15)
    # substituting twice is substituting the composite once
    again = [parse("x2", 2), parse("x1 + 2", 2)]
    assert substitute(out, again) == substitute(
        parse(outer, 2), [substitute(e, again) for e in inner_asts])


# --- the three backends agree -----------------------------------------------


@pytest.mark.parametrize("source, x, value", [
    ("x1^-2", -2.0, 0.25),
    ("x1^-2", 2.0, 0.25),
    ("x1^(1+1)", -2.0, 4.0),
    ("x1^(3-5)", -2.0, 0.25),
    ("x1^17", -1.0, -1.0),
])
def test_constant_exponents_are_integer_powers(source, x, value):
    f = ScalarField.parse(source, 1)
    assert f.eval([x]) == value
    assert f.eval_dual([x]) == value
    assert f.vectorized()(np.array([[x]]))[0] == value


def test_large_integer_power_uses_power_rule():
    assert ScalarField.parse("x1^17", 1).grad_dual([-1.0]) == [17.0]
    assert ScalarField.parse("x1^17", 1).grad([-1.0]) == [17.0]


@pytest.mark.parametrize("k", [16, 17, 18, -17])
def test_power_gradient_bits_match_dual_reference(k):
    f = ScalarField.parse(f"x1^{k}", 1)
    rng = np.random.default_rng(k + 100)
    xs = rng.uniform(0.2, 1.5, 2000) * rng.choice([-1.0, 1.0], 2000)
    for x in xs:
        assert f.value_and_grad([x])[1].tobytes() \
            == f.grad_dual([x]).tobytes(), x


@pytest.mark.parametrize("source, x", [
    ("x1^0.5", 0.0),
    ("x1^0.5", -1.0),
    ("ln(x1)^0", -1.0),
    ("x1^(1/0)", 2.0),
    ("1/(x1 - x1)", 1.0),
    ("((cos(x1))^-14)^-20", 1.5),
    ("x1 + 2^2000", 1.0),
])
def test_vectorized_nan_where_scalar_raises(source, x):
    f = ScalarField.parse(source, 1)
    with pytest.raises((DomainError, NonFiniteResult)):
        f.value_and_grad([x])
    with pytest.raises((DomainError, NonFiniteResult)):
        f.eval_dual([x])
    assert math.isnan(f.vectorized()(np.array([[x]]))[0])


def test_overflowing_literal_is_non_finite():
    f = ScalarField.parse("x1 * 1e999", 1)
    with pytest.raises(NonFiniteResult):
        f.value_and_grad([1.0])
    assert f.vectorized()(np.array([[1.0]]))[0] == math.inf


_REL = 1e-12
_NUMBERS = st.sampled_from(["0", "1", "2", "3", "0.5", "1.5", "1e-3"])
_EXPONENTS = st.one_of(
    st.integers(-40, 40).map(str),
    st.tuples(st.integers(-3, 5), st.sampled_from("+-*/"),
              st.integers(-3, 5)).map(lambda t: "({} {} {})".format(*t)),
    st.sampled_from(["0.5", "-0.5", "1.5", "(1/3)", "-2.25"]),
)


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children)
        .map(lambda t: "({} {} {})".format(*t)),
        children.map("(-{})".format),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "sqrt"]),
                  children).map(lambda t: "{}({})".format(*t)),
        st.tuples(children, st.one_of(_EXPONENTS, children))
        .map(lambda t: "({})^({})".format(*t)),
    )


_EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from(["x1", "x2"]), _NUMBERS), _extend,
    max_leaves=10)
_COORDS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1.5, -2.0]),
                    st.floats(-3, 3))


def _defined(fn, *args):
    """fn(*args), or None where it raises DomainError or NonFiniteResult."""
    try:
        return fn(*args)
    except (DomainError, NonFiniteResult):
        return None


def _close(a, b):
    return abs(a - b) <= _REL * max(abs(a), abs(b))


def _outcome(fn, *args):
    """(fn(*args), None), or (None, the DomainError or NonFiniteResult)."""
    try:
        return fn(*args), None
    except (DomainError, NonFiniteResult) as exc:
        return None, exc


def _bits(value, grad):
    return np.array([value, *grad]).tobytes()


def _dual_hessian(f, point):
    """hess[a, c] = ∂_c ∂_a f from nested duals, one seed per coordinate."""
    n = len(point)
    seeds = [tuple(float(j == k) for k in range(n)) for j in range(n)]
    coords = [Dual(Dual(float(x), seed), [Dual(e, (0.0,) * n) for e in seed])
              for x, seed in zip(point, seeds)]
    try:
        out = f._call(coords)
    except ZeroDivisionError:  # a quotient rule's squared divisor
        return None
    if not isinstance(out, Dual):
        return np.zeros((n, n))
    hess = np.array([[_value_of(e.eps[c]) if isinstance(e, Dual) else 0.0
                      for c in range(n)] for e in out.eps])
    return hess if np.all(np.isfinite(hess)) else None


def _check_derivatives(f, points):
    """Derivative ASTs against the dual reference, to first and second order.

    Where the dual gradient is defined, each derivative AST is defined and
    gives it; where the nested duals give second derivatives, its compiled
    gradient gives them too.
    """
    partials = [ScalarField(2, derivative(f.body, a), f"d{a + 1}")
                for a in range(2)]
    for point in points:
        grad = _defined(f.grad_dual, point)
        if grad is None:
            continue
        hess = _defined(_dual_hessian, f, point)
        for a, part in enumerate(partials):
            assert _close(part.eval_dual(point), grad[a])
            if hess is not None:
                fast = _defined(part.value_and_grad, point)
                assert fast is not None
                assert _close(fast[0], grad[a])
                assert all(map(_close, fast[1], hess[a]))


@given(st.lists(_EXPRESSIONS, min_size=1, max_size=3),
       st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=4))
# the gradient keeps a sqrt's check at 0 that an outer zeroth power drops
@example(["(-(sqrt(x1))^(0))"], [(0.0, 0.0)])
# the quotient rule's squared divisor underflows; a literal 0 is no zero
@example(["(0 / x2)"], [(0.0, 6.774893096905552e-256)])
# ... also where an outer zeroth power drops the quotient rule
@example(["(-((x1)^((0 - 1)))^(0))"], [(7.537836242473134e-296, 0.0)])
# a negated literal under a power
@example(["(-((-1))^(18))"], [(0.0, 0.0)])
@settings(max_examples=1000, deadline=None)
def test_backends_agree(sources, points):
    fields = [ScalarField.parse(source, 2) for source in sources]
    for f in fields:
        bulk = f.vectorized()(np.array(points))
        for point, vec_value in zip(points, bulk):
            value = _defined(f.eval_dual, point)
            grad = _defined(f.grad_dual, point)
            fast = _defined(f.value_and_grad, point)
            assert (value is None) == (not math.isfinite(vec_value))
            assert (fast is None) == (value is None or grad is None)
            if value is not None:
                assert _close(vec_value, value)
            if fast is not None:
                assert _close(fast[0], value)
                assert all(map(_close, fast[1], grad))
        _check_derivatives(f, points)

    # compiled together, each field gives its own bits and its own errors
    group = compile_fields(fields, 2)
    for point in points:
        alone = [_outcome(f.value_and_grad, point) for f in fields]
        together, error = _outcome(group, point)
        first = next((exc for _, exc in alone if exc is not None), None)
        assert (error is None) == (first is None)
        if error is not None:
            assert (type(error), str(error)) == (type(first), str(first))
            continue
        values, jac = together
        for (own, _), value, row in zip(alone, values, jac):
            assert _bits(value, row) == _bits(*own)
