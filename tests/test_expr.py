"""Expression language: parsing, dual arithmetic, codegen."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instab import expr, harness
from instab.errors import (
    DimensionExceeded,
    DomainError,
    ExprSyntaxError,
    NonFiniteResult,
    UnknownIdentifier,
)
from instab.expr import (
    FUNCTIONS,
    Bin,
    CallableField,
    Dual,
    IntPow,
    Num,
    ScalarField,
    Var,
    _value_of,
    compile_fields,
    compile_kernel,
    derivative,
    parse,
    substitute,
)
from instab.geometry import OneForm, magnetic_tensor, magnetic_tensor_rows
from oracles import (
    call,
    eval_dual,
    eval_expr,
    eval_numpy,
    fields_in_order,
    grad_dual,
    grad_numpy,
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
        assert f.eval(p) == pytest.approx(eval_dual(f, p), abs=1e-13)
        assert f.grad(p) == pytest.approx(grad_dual(f, p), abs=1e-12)


def test_vectorized_matches_scalar():
    f = ScalarField.parse("sqrt(1 + x1^2) * cos(x2)", 2)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, (64, 2))
    bulk, grads = f.vectorized()(pts)
    assert bulk.shape == (64,) and grads.shape == (64, 2)
    for row, value, grad in zip(pts, bulk, grads):
        assert value == pytest.approx(f.eval(row))
        assert grad == pytest.approx(f.grad(row))


def test_vectorized_nan_on_domain_error():
    f = ScalarField.parse("ln(x1)", 1)
    out, grads = f.vectorized()(np.array([[1.0], [-1.0]]))
    assert out[0] == 0.0 and grads[0, 0] == 1.0
    assert math.isnan(out[1]) and math.isnan(grads[1, 0])


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
    shifted = CallableField(2, lambda c: call(base, c) + 1,
                            label="shifted")
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
    assert eval_dual(f, [x]) == value
    assert f.vectorized()(np.array([[x]]))[0][0] == value


def _walker_folded_power(base, exponent):
    """The constant-exponent fold, with the exponent's value from the
    dual-number walker."""
    try:
        k = float(eval_expr(exponent, ()))
    except (DomainError, NonFiniteResult):
        k = math.nan
    if k.is_integer():
        return IntPow(base, int(k))
    return Bin("^", base, Num(k if math.isfinite(k) else math.nan))


_CONSTANTS = st.recursive(
    st.one_of(st.sampled_from(["0", "1", "2", "3", "0.5", "8", "40", "1000",
                               "1e10", "1e308", "5e-324"]),
              st.floats(0, 1e6, allow_nan=False).map(repr)),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children)
        .map(lambda t: "({} {} {})".format(*t)),
        children.map("(-{})".format),
        st.tuples(st.sampled_from(FUNCTIONS), children)
        .map(lambda t: "{}({})".format(*t))),
    max_leaves=8)


@given(_CONSTANTS)
@example("1/0")
@example("ln(0)")
@example("exp(1000)")
@example("sin(1e308*10)")
@example("(-8)^(1/3)")
@example("(1e10)^40")
@settings(max_examples=500, deadline=None)
def test_constant_exponent_folds_as_the_walker_would(exponent):
    """A variable-free exponent folds to the power that the walker's value
    of it gives, nan where the walker raises, at every nesting level."""
    source = f"x1^({exponent})"
    folded = parse(source, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "_constant_power", _walker_folded_power)
        walked = parse(source, 1)
    assert folded == walked
    assert repr(folded) == repr(walked)  # -0.0 apart from 0.0


def test_large_integer_power_uses_power_rule():
    assert grad_dual(ScalarField.parse("x1^17", 1), [-1.0]) == [17.0]
    assert ScalarField.parse("x1^17", 1).grad([-1.0]) == [17.0]


@pytest.mark.parametrize("k", [16, 17, 18, -17])
def test_power_gradient_bits_match_dual_reference(k):
    f = ScalarField.parse(f"x1^{k}", 1)
    rng = np.random.default_rng(k + 100)
    xs = rng.uniform(0.2, 1.5, 2000) * rng.choice([-1.0, 1.0], 2000)
    for x in xs:
        assert f.value_and_grad([x])[1].tobytes() \
            == grad_dual(f, [x]).tobytes(), x


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
        eval_dual(f, [x])
    values, grads = f.vectorized()(np.array([[x]]))
    assert math.isnan(values[0]) and np.isnan(grads).all()


def test_overflowing_literal_is_non_finite():
    """An overflowing literal makes the field non-finite everywhere, so its
    numpy row is nan, not the infinite value."""
    f = ScalarField.parse("x1 * 1e999", 1)
    with pytest.raises(NonFiniteResult):
        f.value_and_grad([1.0])
    values, grads = f.vectorized()(np.array([[1.0]]))
    assert math.isnan(values[0]) and np.isnan(grads).all()


def test_numpy_gradient_is_one_generated_function(monkeypatch):
    """One numpy function per field gives its values, all its partials and
    its nan rows, whatever the dimension and however many guards it has."""
    define, names = expr._define, []

    def counted(name, src, namespace):
        names.append(name)
        return define(name, src, namespace)

    monkeypatch.setattr(expr, "_define", counted)
    for source, n in [("x1", 1), ("sqrt(x1) / x2 + ln(x3)", 3),
                      ("(x1^2*x3^2 + x1^3 - x2^2)^2", 3), ("7", 16)]:
        ScalarField.parse(source, n).vectorized()
        assert names == ["_vec"]
        names.clear()


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


def _dual_hessian(f, point):
    """hess[a, c] = ∂_c ∂_a f from nested duals, one seed per coordinate."""
    n = len(point)
    seeds = [tuple(float(j == k) for k in range(n)) for j in range(n)]
    coords = [Dual(Dual(float(x), seed), [Dual(e, (0.0,) * n) for e in seed])
              for x, seed in zip(point, seeds)]
    try:
        out = call(f, coords)
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
    partials = [ScalarField(f.dimension, derivative(f.body, a), f"d{a + 1}")
                for a in range(f.dimension)]
    for point in points:
        grad = _defined(grad_dual, f, point)
        if grad is None:
            continue
        hess = _defined(_dual_hessian, f, point)
        for a, part in enumerate(partials):
            assert _close(eval_dual(part, point), grad[a])
            if hess is not None:
                fast = _defined(part.value_and_grad, point)
                assert fast is not None
                assert _close(fast[0], grad[a])
                assert all(map(_close, fast[1], hess[a]))


def _copied_column(node, points):
    """A value column as a value-only numpy function would make it: the
    numpy emitter's lines, nan where a check holds, then broadcast and
    copied."""
    em = expr._Emitter(numpy=True)
    value = em.emit(node)
    tests = [f"({line.test})" for line in em.lines
             if isinstance(line, expr._Check)]
    ns = {**expr._NUMPY_NAMESPACE, "p": points.T}
    with np.errstate(all="ignore"):
        try:
            for line in em.lines:
                if isinstance(line, str):
                    exec(line, ns)
            column = eval(f"np.where({' | '.join(tests) or 'False'}, nan, "
                          f"{value})", ns)
        except (ZeroDivisionError, OverflowError):
            column = np.nan
    return np.broadcast_to(column, (len(points),)).astype(float)


@given(_EXPRESSIONS, st.lists(st.tuples(_COORDS, _COORDS), min_size=1,
                              max_size=4))
@example("x1", [(1.0, 2.0), (3.0, 4.0)])  # a view of the points
@example("2", [(0.0, 0.0)])  # a number
@example("(x1 / x2)", [(1.0, 0.0)])  # a nan row where a check holds
@settings(max_examples=300, deadline=None)
def test_numpy_columns_are_fresh_and_keep_their_bits(source, points):
    """A field's numpy function returns columns of a fresh float array,
    which never shares memory with the points or with another call's, and
    has the bits of the values computed: in a row that is not nan, the
    value and each partial have those of their own value-only column."""
    points = np.array(points)
    f = ScalarField.parse(source, 2)
    nodes = [f.body] + [derivative(f.body, a) for a in range(2)]
    oracle = np.stack([_copied_column(node, points) for node in nodes], 1)
    values, grads = out = f.vectorized()(points)
    again = f.vectorized()(points)
    assert values.dtype == grads.dtype == float
    assert values.shape == (len(points),) and grads.shape == (len(points), 2)
    defined = ~np.isnan(values)
    assert np.isnan(grads[~defined]).all()
    assert values[defined].tobytes() == oracle[defined, 0].tobytes()
    assert grads[defined].tobytes() == oracle[defined, 1:].tobytes()
    for array in out:
        assert not np.shares_memory(array, points)
        assert not any(np.shares_memory(array, other) for other in again)


_CORPUS_FIELDS = [(fld.source, fld.dimension) for problem in harness.corpus()
                  for fld in (problem.potential, problem.f)]


@given(st.one_of(
           st.tuples(st.lists(_EXPRESSIONS, min_size=1, max_size=3),
                     st.just(2)),
           st.sampled_from(_CORPUS_FIELDS).map(lambda f: ([f[0]], f[1]))),
       st.lists(st.tuples(_COORDS, _COORDS, _COORDS), min_size=1,
                max_size=4))
# the gradient keeps a sqrt's check at 0 that an outer zeroth power drops
@example((["(-(sqrt(x1))^(0))"], 2), [(0.0, 0.0)])
# the quotient rule's squared divisor underflows; a literal 0 is no zero
@example((["(0 / x2)"], 2), [(0.0, 6.774893096905552e-256)])
# ... also where an outer zeroth power drops the quotient rule
@example((["(-((x1)^((0 - 1)))^(0))"], 2), [(7.537836242473134e-296, 0.0)])
# a negated literal under a power
@example((["(-((-1))^(18))"], 2), [(0.0, 0.0)])
# cancellations that magnify the last bit in which numpy's exp may differ
# from math's
@example((["(1 + (-(x2)^(x2)))"], 2), [(0.0, 1.192092896e-07)])
@example((["(x1 - (3)^(x2))"], 2), [(1.0, -1e-12)])
# the value overflows where no check holds and the partial is finite
@example((["((x1 + 1e308) + 1e308)"], 2), [(0.0, 0.0)])
# undefined values and gradients, and constants that fold to nan or overflow
@example((["x1^0.5"], 1), [(0.0,), (-1.0,)])
@example((["ln(x1)^0"], 1), [(-1.0,)])
@example((["x1^(1/0)"], 1), [(2.0,)])
@example((["1/(x1 - x1)"], 1), [(1.0,)])
@example((["((cos(x1))^-14)^-20"], 1), [(1.5,)])
@example((["x1 + 2^2000"], 1), [(1.0,)])
@example((["x1 * 1e999"], 1), [(1.0,)])  # an overflowing literal
# one generated function whatever the dimension and the guards
@example((["x1"], 1), [(0.5,)])
@example((["sqrt(x1) / x2 + ln(x3)"], 3), [(1.0, 2.0, 3.0), (0.0, 1.0, 1.0)])
@example((["(x1^2*x3^2 + x1^3 - x2^2)^2"], 3), [(1.0, -1.0, 0.5)])
@example((["7"], 16), [(0.25,) * 16])
@settings(max_examples=1000, deadline=None)
def test_backends_agree(fields, points):
    """The backends agree on every expression, in value and in where it is
    defined. value_and_grad raises exactly where the dual reference's value
    or gradient does, and elsewhere agrees with them. A field's one numpy
    function gives a row that is nan exactly where
    value_and_grad raises, and elsewhere its value and gradient to the same
    tolerance; they are held to the walker over numpy's exp and log, since
    numpy's may round a last bit unlike math's."""
    sources, n = fields
    points = np.array(points, dtype=float)[:, :n]
    fields = [ScalarField.parse(source, n) for source in sources]
    for f in fields:
        values, grads = f.vectorized()(points)
        for point, vec_value, vec_grad in zip(points.tolist(), values, grads):
            value = _defined(eval_dual, f, point)
            grad = _defined(grad_dual, f, point)
            fast = _defined(f.value_and_grad, point)
            assert (fast is None) == (value is None or grad is None)
            assert (fast is None) == math.isnan(vec_value) \
                == np.isnan(vec_grad).all()
            if fast is not None:
                assert _close(fast[0], value)
                assert all(map(_close, fast[1], grad))
                assert _close(vec_value, eval_numpy(f, point))
                assert all(map(_close, vec_grad, grad_numpy(f, point)))
        _check_derivatives(f, points.tolist())

    # compiled together, each field gives its own bits and its own errors
    group = compile_fields(fields, n)
    for point in points.tolist():
        _assert_like_fields_in_order(group, fields, point)


@given(st.lists(_EXPRESSIONS, min_size=2, max_size=2),
       st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=4))
@example(["x2", "ln(x1)"], [(-1.0, 0.5)])  # ln of non-positive
@example(["sqrt(x2) * x1", "x1"], [(1.0, 0.0)])  # sqrt's slope at 0
@example(["x2 / x1", "x1"], [(0.0, 1.0)])  # division by zero
# F_12 = 1 - 1 from equal constant partials; F_13, F_23 structural zeros
@example(["x2", "x1", "0"], [(0.5, -2.0, 3.0), (0.0, -0.0, 0.0)])
@settings(max_examples=500, deadline=None)
def test_magnetic_tensor_has_the_bits_of_the_field_jacobian(sources, points):
    """The generated F is jac.T - jac bit for bit: at a point, from the
    components' own value_and_grad, raising where they do with the first
    one's class and message; in numpy rows, from their numpy gradients, a
    row nan exactly where one of them raises."""
    n = len(sources)
    form = OneForm(n, [ScalarField.parse(source, n) for source in sources])
    points = np.array(points)
    rows, bad = magnetic_tensor_rows(form, points)
    columns = np.stack([fld.vectorized()(points)[1]
                        for fld in form.components], axis=1)
    for point, row, row_bad, jac in zip(points, rows, bad, columns):
        tensor, error = _outcome(magnetic_tensor, form, point)
        together, want = _outcome(fields_in_order, form.components, point)
        assert row_bad == (want is not None) == np.isnan(row).all()
        if want is not None:
            assert (type(error), str(error)) == (type(want), str(want))
            continue
        jac_own = np.array(together[n:]).reshape(n, n)  # [b, a] = ∂_a A_b
        with np.errstate(all="ignore"):
            assert row.tobytes() == (jac.T - jac).tobytes()
            assert tensor.tobytes() == (jac_own.T - jac_own).tobytes()


def _described(exc):
    return None if exc is None else (type(exc), str(exc))


def _assert_like_fields_in_order(kernel, fields, point):
    """``kernel`` at ``point`` has the bits of the fields' own evaluations
    in order, after a "decided" mark, or raises the first one's error with
    its class and message; returns whether it was decided."""
    want, want_error = _outcome(fields_in_order, fields, point)
    got, got_error = _outcome(kernel, list(point), fields)
    assert _described(got_error) == _described(want_error)
    decided = got is not None and got[0] == "decided"
    if want is not None:
        assert np.array(got[decided:]).tobytes() == np.array(want).tobytes()
    return decided


def _decided(p, fields):
    """A kernel's ``decide``: the oracle's outcome, marked."""
    return ("decided",) + fields_in_order(fields, p)


_KERNEL_EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from(["x1", "x2"]), _NUMBERS,
              st.sampled_from(["800", "1e308"])), _extend, max_leaves=8)
_KERNEL_COORDS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 800.0, 1e308, -1e308]),
    st.floats(-3, 3))


@given(st.lists(_KERNEL_EXPRESSIONS, min_size=1, max_size=4),
       st.lists(st.tuples(_KERNEL_COORDS, _KERNEL_COORDS), min_size=1,
                max_size=3),
       st.booleans())
# field 1's partial is inf where field 2 fails a domain check first
@example(["((1e308 * x1) * 10)", "ln(x2)"], [(0.0, -1.0)], False)
# finite values whose sum, the kernel's one finiteness test, overflows
@example(["x1", "x2"], [(1e308, 1e308)], False)
# the guard fails: the kernel hands the point to decide
@example(["(x1 - 1)"], [(0.5, 0.0)], True)
@settings(max_examples=300, deadline=None)
def test_kernel_raises_its_fields_own_errors(sources, points, guarded):
    """A kernel of k fields gives the bits of the fields' own
    value_and_grad or raises the first one's error, with its class and
    message; with a guard on the first field's value, it returns what
    ``decide`` gives exactly where the fields are defined and the guard
    fails."""
    fields = [ScalarField.parse(source, 2) for source in sources]
    bodies = [fld.body for fld in fields]
    kernel = compile_kernel(
        fields, 2, bodies + [derivative(b, a) for b in bodies for a in (0, 1)],
        _decided if guarded else None,
        [(bodies[0], 0.0)] if guarded else ())
    for point in points:
        decided = _assert_like_fields_in_order(kernel, fields, point)
        want = _defined(fields_in_order, fields, point)
        assert decided == (guarded and want is not None
                           and not 0.0 < want[0] < math.inf)


# Arguments at which numpy's exp and log may round unlike math's.
@pytest.mark.parametrize("function, argument", [
    ("exp", 4.808353387762301), ("ln", 1.1193326821548077)])
def test_each_backend_folds_constants_with_its_own_functions(function,
                                                              argument):
    """A folded constant has the bits that its backend computed for it
    before folding: math's function in the scalar code, numpy's in the
    numpy code."""
    f = ScalarField.parse(f"x1 * {function}({argument!r})", 1)
    scalar = {"exp": math.exp, "ln": math.log}[function](argument)
    bulk = {"exp": np.exp, "ln": np.log}[function](np.array([argument]))
    assert f.eval([1.0]) == scalar
    assert f.vectorized()(np.array([[1.0]]))[0][0] == bulk[0]


@pytest.mark.parametrize("x", [-1.0, 0.0, 3.0])
@pytest.mark.parametrize("source, error, message", [
    ("ln(0 - 1) + x1", DomainError, "ln of non-positive in field {!r} at"),
    # exp(1000) overflows though the zeroth power drops its value
    ("exp(1000)^0 + x1", NonFiniteResult, "field {!r} is not finite at")])
def test_field_undefined_everywhere_raises_at_every_point(x, source, error,
                                                          message):
    """A constant that is undefined is not folded: the field raises as it
    did, and its numpy value and gradient are nan."""
    f = ScalarField.parse(source, 1)
    with pytest.raises(error) as err:
        f.value_and_grad([x])
    assert str(err.value) == f"{message.format(source)} point ({x!r})"
    values, grads = f.vectorized()(np.array([[x]]))
    assert np.isnan(values).all() and np.isnan(grads).all()
