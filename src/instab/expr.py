"""Arithmetic expression language: parser, derivatives and backends.

Scalar quantities (potentials, candidate functions, metric entries, one-form
components) are entered as text in the variables x1..xn and parsed once into
an AST. One code generator evaluates it, in two renderings: a float
value+gradient function, and one numpy function per field for bulk
sampling, which gives its values and gradients together. It emits values
only, each common subexpression once, and computes an operation on numbers
alone once, as it emits it, with the rendering's own functions; a gradient
is the values of ``derivative`` ASTs, the one set of derivative rules,
which also gives second derivatives. Both renderings run the same value
operations in the same order and share one rule of where a field is
defined: where its value+gradient function does not raise, so a numpy row
is nan exactly where that function raises. The tests hold both to a walker
over plain floats or vector-forward dual numbers.

Only this module writes field code. Other modules state their formulas as
ASTs over fields' ``derivative`` ASTs, built with ``fold`` and ``total``,
which fold literal zeros and ones away, and ``compile_kernel``, the one
kernel compiler, turns them into a function that raises its fields' own
errors: a field's value+gradient and Hessian, a one-form's field strength,
the equations of motion on every metric, and the chart flows and a curved
metric's factorization, which hand a point where their code fails to a
function that decides it. ``compile_vectorized_kernel`` is its numpy twin.

Grammar (EBNF, also documented in the README):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;          (* right associative *)
    atom    = number | variable | function , "(" , expr , ")"
            | "(" , expr , ")" ;
    variable = "x" , digit , { digit } ;
    function = "sin" | "cos" | "exp" | "ln" | "sqrt" ;

The parser folds an exponent without variables to its value, computed by
the generated scalar code: an integral one makes an integer power
(``x1^-2``, ``x1^(1+1)``), defined at negative bases too; any other makes a
real power ``exp(b * ln(a))``, defined for positive bases only. An
exponent that is undefined or overflows folds to nan.

Only smooth primitives are provided; non-smooth ones (abs, max) would break
the derivative guarantees the rest of the toolkit relies on.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionExceeded,
    DomainError,
    ExprSyntaxError,
    NonFiniteResult,
    UnknownIdentifier,
    format_point,
)

MAX_DIMENSION = 16
FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")

# Integer powers up to this exponent unroll to repeated multiplication;
# larger ones use float pow for the value and the power rule for the slope.
_UNROLL_POW = 16


# --- AST -------------------------------------------------------------------

def _node_class(cls):
    """A frozen dataclass that hashes its subtree once, not per lookup.

    Derivative trees share deep subtrees, and the emitter's memo hashes
    every node it meets.
    """
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def cached_hash(node):
        if "_hash" not in node.__dict__:
            node.__dict__["_hash"] = structural(node)
        return node.__dict__["_hash"]

    cls.__hash__ = cached_hash
    return cls


@_node_class
class Num:
    value: float


@_node_class
class Var:
    index: int  # zero-based; prints as x{index+1}


@_node_class
class Bin:
    op: str  # + - * / ^ (a ^ with a variable or non-integral exponent)
    lhs: "Expr"
    rhs: "Expr"


@_node_class
class IntPow:
    base: "Expr"
    k: int


@_node_class
class Neg:
    arg: "Expr"


@_node_class
class Fun:
    name: str
    arg: "Expr"


Expr = Num | Var | Bin | IntPow | Neg | Fun


# --- tokenizer / parser ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>\S)"
)


def _line_col(source, offset):
    line = source.count("\n", 0, offset) + 1
    nl = source.rfind("\n", 0, offset)
    return line, offset - (nl + 1) + 1


def _tokenize(source):
    """(kind, text, line, column) per token, in one scan of ``source``."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}",
                                  *_line_col(source, m.start()))
        if kind != "space":
            tokens.append((kind, text, *_line_col(source, m.start())))
    return tokens + [("eof", "", *_line_col(source, len(source)))]


_VAR_RE = re.compile(r"^x([0-9]+)$")


def _has_var(node, zeroth=True) -> bool:
    """Whether a variable occurs in ``node``.

    With ``zeroth`` false, whether one occurs outside the base of a
    zeroth power: whether some partial derivative of ``node`` is not a
    structural zero, as where the dual reference carries a dual.
    """
    if isinstance(node, (Num, Var)):
        return isinstance(node, Var)
    if isinstance(node, Bin):
        return _has_var(node.lhs, zeroth) or _has_var(node.rhs, zeroth)
    if isinstance(node, IntPow):
        return (zeroth or node.k != 0) and _has_var(node.base, zeroth)
    return _has_var(node.arg, zeroth)


def _constant_power(base, exponent):
    """``base ^ exponent`` with a variable-free exponent decided once.

    The exponent's value is that of the generated scalar code every field
    runs, which the emitter folds; where that code raises, the exponent is
    nan.
    """
    em = _Emitter()
    value = em.emit(exponent)  # a number unless code is left to raise
    k = math.nan if em.lines else float(value)
    if k.is_integer():
        return IntPow(base, int(k))
    return Bin("^", base, Num(k if math.isfinite(k) else math.nan))


class _Parser:
    def __init__(self, tokens, dimension):
        self.tokens = tokens
        self.i = 0
        self.n = dimension

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self):
        kind, text, line, col = self.peek()
        shown = text if kind != "eof" else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", line, col)

    def expect_op(self, op):
        kind, text, _, _ = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        self.error()

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "eof":
            self.error()
        return node

    def _chain(self, ops, operand):
        """Left-associative operands joined by operators from ``ops``."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = Bin(self.advance()[1], node, operand())
        return node

    def expr(self):
        return self._chain("+-", self.term)

    def term(self):
        return self._chain("*/", self.unary)

    def unary(self):
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _, _ = self.peek()
        if not (kind == "op" and text == "^"):
            return base
        self.advance()
        exponent = self.unary()
        if _has_var(exponent):
            return Bin("^", base, exponent)
        return _constant_power(base, exponent)

    def atom(self):
        kind, text, line, col = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            m = _VAR_RE.match(text)
            if m:
                index = int(m.group(1))
                if index < 1 or index > self.n:
                    raise DimensionExceeded(index, self.n, line, col)
                return Var(index - 1)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Fun(text, arg)
            raise UnknownIdentifier(text, line, col)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        self.error()


def parse(source: str, dimension: int) -> Expr:
    """Parse ``source`` into an AST over variables x1..x{dimension}."""
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
    return _Parser(_tokenize(source), dimension).parse()


# --- derivatives and substitution on the AST --------------------------------

_ZERO_NODE, _ONE_NODE = Num(0.0), Num(1.0)


def _node(op, a, b, zero=None):
    """``a op b``, folding ``zero`` and ones.

    Derivatives fold only their structural zero, None; substitution folds
    literal zeros too.
    """
    if op in "+-" and zero in (a, b):
        return a if b == zero else b if op == "+" else Neg(b)
    if op in "*/" and a == zero or op == "*" and b == zero:
        return zero
    if op == "*" and _ONE_NODE in (a, b):
        return b if a == _ONE_NODE else a
    return Bin(op, a, b)


fold = functools.partial(_node, zero=_ZERO_NODE)  # folds literal 0s and 1s


def total(terms) -> Expr:
    """``terms[0] + terms[1] + ...`` left to right by ``fold``; 0 for none."""
    return functools.reduce(functools.partial(fold, "+"), terms, _ZERO_NODE)


def substitute(node: Expr, exprs) -> Expr:
    """``node`` with each variable x_{j+1} replaced by ``exprs[j]``."""
    if isinstance(node, Var):
        return exprs[node.index]
    if isinstance(node, Bin):
        return fold(node.op, substitute(node.lhs, exprs),
                    substitute(node.rhs, exprs))
    if isinstance(node, Neg):
        return fold("-", _ZERO_NODE, substitute(node.arg, exprs))
    if isinstance(node, IntPow):
        return IntPow(substitute(node.base, exprs), node.k)
    if isinstance(node, Fun):
        return Fun(node.name, substitute(node.arg, exprs))
    return node


def _real_power(a, b):
    """``a ^ b`` as ``exp(ln(a) * b)``, the node its value and slope share."""
    return Fun("exp", Bin("*", Fun("ln", a), b))


def derivative(node: Expr, i: int) -> Expr:
    """The partial derivative of ``node`` in x_{i+1}, as an AST.

    These are the toolkit's derivative rules, and its only ones: the
    generated gradient is the values of these ASTs, and compiling them
    again gives second derivatives. Each rule computes what the dual
    reference does, in its order. A partial that no variable reaches is a
    structural zero and folds away wherever it meets another node, where
    the dual reference computes with a 0.0; a literal 0 is a number like
    any other.
    """
    def d(node):
        if isinstance(node, (Num, Var)):
            return _ONE_NODE if node == Var(i) else None
        if isinstance(node, Neg):
            return _node("-", None, d(node.arg))
        if isinstance(node, Fun):
            a = node.arg
            if node.name == "ln":
                return _node("/", d(a), a)
            slope = {"sin": Fun("cos", a), "cos": Neg(Fun("sin", a)),
                     "exp": node, "sqrt": Bin("/", Num(0.5), node)}
            return _node("*", d(a), slope[node.name])
        if isinstance(node, IntPow):
            a, k = node.base, node.k
            if k < 0:
                return d(Bin("/", _ONE_NODE, IntPow(a, -k)))
            da = d(a)
            if k > _UNROLL_POW:  # power rule
                return _node("*", _node("*", Num(float(k)), IntPow(a, k - 1)),
                             da)
            out = None
            for j in range(k):  # as unrolled: a^(j+1) = a^j * a
                out = _node("+", _node("*", out, a),
                            _node("*", IntPow(a, j), da))
            return out
        a, b = node.lhs, node.rhs
        if node.op == "^":
            return d(_real_power(a, b))
        da, db = d(a), d(b)
        if node.op in "+-":
            return _node(node.op, da, db)
        if node.op == "*":
            return _node("+", _node("*", da, b), _node("*", a, db))
        if not _has_var(b, zeroth=False):
            return _node("/", da, b)
        return _node("/", _node("-", _node("*", da, b), _node("*", a, db)),
                     Bin("*", b, b))

    return d(node) or _ZERO_NODE


# --- code generation (values; gradients are derivative ASTs) ---------------

@dataclass(frozen=True)
class _Check:
    """Where ``test`` holds, the operation emitted next to it is undefined."""

    test: str
    message: str | None  # None: float arithmetic raises there by itself


def _literal(symbol):
    """Whether a symbol is a number, not a temporary, point or input."""
    return symbol[0] not in "tpq"


# Checked before the function: the test on its argument, and the message.
_FUN_DOMAIN = {"ln": ("{} <= 0.0", "ln of non-positive"),
               "sqrt": ("{} < 0.0", "sqrt of negative"),
               "sin": ("isinf({})", None), "cos": ("isinf({})", None)}


class _Emitter:
    """Straight-line code for the values of expressions.

    ``lines`` holds assignments and domain checks in evaluation order, each
    distinct subexpression and check once. The scalar rendering raises
    DomainError at a check; the numpy rendering (``numpy``) gives nan where
    any holds. With ``ops``, it also lists each line it emits as (form,
    operand symbols, target symbol or None for a check), for another
    rendering (``native``). An operation or a check on numbers alone is
    done here, by the rendering's own functions: the operation's value is
    a number, and the check is kept only where it holds. An operation whose
    code raises is kept, to raise where it did. With ``guards`` set, while
    the values to be differentiated are emitted, it also checks where their
    derivative is undefined in the dual reference, even where an outer rule
    (a zeroth power) drops that derivative: at a sqrt of a varying argument
    that is 0, and at a varying divisor whose square, the quotient rule's,
    underflows to 0.
    """

    def __init__(self, guards=False, numpy=False, ops=False):
        self.guards = guards
        self.numpy = numpy
        self.ops = [] if ops else None
        self.lines = []
        self.memo = {}
        self.tests = set()
        self.point = math.inf  # Var(i) from here on reads input q{i - point}

    def _run(self, code):
        with np.errstate(all="ignore"):
            return eval(code, dict(  # noqa: S307 - our own code
                _NUMPY_NAMESPACE if self.numpy else _SCALAR_NAMESPACE))

    def temp(self, form, *operands):
        """The symbol of ``form`` of the symbols ``operands``."""
        code = form.format(*operands)
        if all(map(_literal, operands)):
            try:
                return repr(float(self._run(code)))
            except (ArithmeticError, ValueError):
                pass
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {code}")
        if self.ops is not None:
            self.ops.append((form, operands, name))
        return name

    def check(self, form, message, *operands):
        """Check ``form`` of the symbols ``operands``."""
        if message is None and not self.numpy:
            return  # the scalar rendering's arithmetic raises by itself
        test = form.format(*operands)
        if all(map(_literal, operands)) and not self._run(test):
            return
        if test not in self.tests:
            self.tests.add(test)
            self.lines.append(_Check(test, message))
            if self.ops is not None:
                self.ops.append((form, operands, None))

    def emit(self, node):
        """The symbol that holds the value of ``node``."""
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            j = node.index - self.point
            return f"p[{node.index}]" if j < 0 else f"q{j}"
        symbol = self.memo.get(node)
        if symbol is None:
            symbol = self.memo[node] = self._value(node)
        return symbol

    def _value(self, node):
        if isinstance(node, Neg):
            v = self.emit(node.arg)
            return self.temp("-{}", v)
        if isinstance(node, Fun):
            v = self.emit(node.arg)
            if node.name in _FUN_DOMAIN:
                self.check(*_FUN_DOMAIN[node.name], v)
            out = self.temp(node.name + "({})", v)
            if node.name == "exp":
                self.check("isinf({}) & ~isinf({})", None, out, v)
            if (node.name == "sqrt" and self.guards
                    and _has_var(node.arg, zeroth=False)):
                self.check("{} == 0.0", "sqrt derivative at zero", out)
            return out
        if isinstance(node, IntPow):
            a, k = node.base, node.k
            va = self.emit(a)  # the base's checks hold at every k
            if k < 0:
                return self.emit(Bin("/", _ONE_NODE, IntPow(a, -k)))
            if k == 0:
                return "1.0"
            if k <= _UNROLL_POW:
                return self.emit(Bin("*", IntPow(a, k - 1), a))
            out = self.temp("({}) ** {}", va, repr(float(k)))
            self.check("isinf({}) & ~isinf({})", None, out, va)
            return out
        va, vb = self.emit(node.lhs), self.emit(node.rhs)
        if node.op == "^":
            self.check("{} <= 0.0", "real power of non-positive base", va)
            return self.emit(_real_power(node.lhs, node.rhs))
        if node.op == "*" and "1.0" in (va, vb):
            return vb if va == "1.0" else va
        b = node.rhs
        if node.op == "/" and not (isinstance(b, Num) and b.value != 0.0):
            self.check("{} == 0.0", "division by zero", vb)
        if node.op == "/" and self.guards and _has_var(b, zeroth=False):
            square = self.emit(Bin("*", b, b))
            self.check("{} == 0.0", "division by zero", square)
        return self.temp(f"({{}} {node.op} {{}})", va, vb)


_SCALAR_NAMESPACE = {
    "ln": math.log, "sqrt": math.sqrt, "exp": math.exp,
    "sin": math.sin, "cos": math.cos, "isfinite": math.isfinite,
    "DomainError": DomainError, "nan": math.nan, "inf": math.inf,
}

_NUMPY_NAMESPACE = {
    "ln": np.log, "sqrt": np.sqrt, "exp": np.exp, "sin": np.sin,
    "cos": np.cos, "isinf": np.isinf, "isfinite": np.isfinite,
    "nan": np.nan, "inf": np.inf, "np": np,
}


def _define(name, src, namespace):
    ns = dict(namespace)
    exec(src, ns)  # noqa: S102 - generated from our own AST only
    return ns[name]


def define_scalar(name, src, **names):
    """The function ``name`` of generated source over plain floats.

    The source sees the scalar functions of the generated field code and
    ``names``.
    """
    return _define(name, src, {**_SCALAR_NAMESPACE, **names})


def _fields_code(nodes, n, numpy=False, ops=False):
    """The emitter of the values of k nodes, with the dual reference's
    guards, then of their n partials each, and the symbols of those values
    that a finiteness test reads, the distinct ones not finite numbers.

    A partial is the value of its ``derivative`` AST. Sharing one emitter,
    the nodes compute a common subexpression once, and each value and
    partial is bit-identical to that of the node alone.
    """
    em = _Emitter(guards=True, numpy=numpy, ops=ops)
    values = [em.emit(node) for node in nodes]
    em.guards = False  # the derivative ASTs are not differentiated here
    values += [em.emit(derivative(node, i)) for node in nodes
               for i in range(n)]
    return em, [s for s in dict.fromkeys(values)
                if not (_literal(s) and math.isfinite(float(s)))]


def _scalar_body(lines, indent):
    """The lines as scalar code that raises DomainError at a check;
    ``pass`` for no lines."""
    return "".join(
        f"{indent}{line}\n" if isinstance(line, str)
        else f"{indent}if {line.test}: raise DomainError({line.message!r})\n"
        for line in lines) or f"{indent}pass\n"


def _first_error(fields, exc, point):
    """The first of ``fields``' own errors at ``point``; for one field,
    ``exc``, what its code raised, named with the field and the point."""
    if len(fields) > 1:
        for fld in fields:
            fld.value_and_grad(point)
    label = fields[0].label
    if isinstance(exc, DomainError):
        return DomainError(f"{exc} in {label} at point {format_point(point)}")
    return _not_finite(label, point)


def compile_kernel(fields, n: int, outputs, decide=None, guards=(),
                   label=None, program=None, inputs=0):
    """Generate ``kernel(p, arg)``, the values of ``outputs`` at the point p.

    The one compiler of field kernels: its code computes the values and
    partials of the ``fields`` (``ScalarField``s over p[:n]), then the
    output ASTs, which share those symbols where they contain the fields'
    ``derivative`` ASTs; ``Var(i)`` reads p[i]. Where a field's value or
    partial is undefined or not finite, it raises the first such field's
    own error, as its ``value_and_grad`` does. With ``decide``, it returns
    ``decide(p, arg)`` instead, also where one of ``guards`` fails: each
    (node, bound) requires bound < node < inf, tested in order before the
    code that follows, which may divide by or take the root of its node.
    The outputs take no checks unless the kernel has a ``label``: then it
    tests the outputs it computes once, as it tests the fields, and where
    one is not finite it returns ``decide(p, arg)``, or without ``decide``
    raises NonFiniteResult naming the label and p. Kernels whose outputs
    are what a caller computes with, not what it returns, go without: the
    metric factors feed the curved motion kernel, which tests the
    acceleration once and names the state (x, v), not x alone, and
    ``compile_fields``'s outputs are the fields' tested values and
    partials. A right-hand side, whose point has as many entries as it has
    outputs, may read ``inputs`` more: Var(len(outputs) + j) reads
    ``arg.inputs[j]``, which no error names. With ``program``, the kernel
    keeps ``program(ops, symbols, tested, inputs)`` as its ``program``:
    the same walk rendered once more (``native.program``, for the motion
    and flow kernels the C loop steps) from its ``_Emitter`` ops, the
    guards' checks among them, its output symbols and the symbols it
    tests for finiteness.
    """
    em, checked = _fields_code([fld.body for fld in fields], n,
                               ops=program is not None)
    em.point = len(outputs) if inputs else math.inf
    if checked:  # one test of them all, unless their sum overflows
        em.lines.append(_finite_test(checked, "raise OverflowError"))
    head = len(em.lines)
    for node, bound in guards:
        value = em.emit(node)
        em.check("not {} < {} < inf", "below guard", repr(bound), value)
    symbols = [em.emit(node) for node in outputs]
    computed = [s for s in dict.fromkeys(symbols) if s not in checked
                and not s.startswith("p[")
                and not (_literal(s) and math.isfinite(float(s)))]
    if label is not None and computed:
        em.lines.append(_finite_test(
            computed, "return decide(p, arg)" if decide else
            f"raise not_finite({label!r}, p)"))
    split = len(em.lines) if decide else head  # the code the try covers
    cold = ("return decide(p, arg)" if decide else
            f"raise first_error(fields, exc, p[:{n}]) from exc")
    src = ("def _kernel(p, arg):\n"
           + (f"    {''.join(f'q{j}, ' for j in range(inputs))}= arg.inputs\n"
              if inputs else "")
           + f"    try:\n{_scalar_body(em.lines[:split], '        ')}"
           "    except (DomainError, ArithmeticError, ValueError) as exc:\n"
           f"        {cold}\n{_scalar_body(em.lines[split:], '    ')}"
           f"    return ({', '.join(symbols)},)\n")
    kernel = define_scalar("_kernel", src, decide=decide, fields=fields,
                           first_error=_first_error, not_finite=_not_finite)
    if program is not None:
        kernel.program = program(em.ops, symbols, checked + (
            computed if label is not None else []), inputs)
    return kernel


def _finite_test(symbols, action):
    """A line that runs ``action`` where one of ``symbols`` is not finite:
    one product of their sum, and a test of each only where that sum is not
    finite."""
    return (f"if ({' + '.join(symbols)}) * 0.0 != 0.0 and not "
            f"all(map(isfinite, ({', '.join(symbols)},))): {action}")


def compile_vectorized_kernel(nodes, n: int, outputs):
    """The numpy twin of ``compile_kernel``: ``f(points)``, the values of
    ``outputs`` at each of an (m, n) array of points, a fresh (m, k) float
    array, over the fields ``nodes``. A row is nan exactly where one of
    those fields' ``value_and_grad`` raises, every row where float
    arithmetic on constants raises. numpy's floating-point warnings are off
    inside."""
    em, checked = _fields_code(nodes, n, numpy=True)
    em.check(" | ".join("~isfinite({})" for _ in checked) or "False", None,
             *checked)
    out = [em.emit(node) for node in outputs]
    tests = [f"({line.test})" for line in em.lines
             if isinstance(line, _Check)]
    lines = [line for line in em.lines if isinstance(line, str)] + [
        f"out[:, {a}] = {symbol}" for a, symbol in enumerate(out)]
    if tests:
        lines.append(f"out[{' | '.join(tests)}] = nan")
    src = ("def _vec(points):\n"
           "    points = np.asarray(points, dtype=float)\n"
           "    p = points.T\n"
           f"    out = np.empty((len(points), {len(out)}))\n"
           "    with np.errstate(all='ignore'):\n"
           "        try:\n"
           + "".join(f"            {line}\n" for line in lines) +
           "        except (ZeroDivisionError, OverflowError):\n"
           "            out[...] = nan\n"
           "    return out\n")
    return _define("_vec", src, _NUMPY_NAMESPACE)


def _vectorized_field(body, n):
    """``f(points) -> (values, gradients)`` over an (m, n) array of points:
    the (m,) first column and the (m, n) rest of one
    ``compile_vectorized_kernel`` function of the field's value and
    partials."""
    kernel = compile_vectorized_kernel(
        [body], n, [body] + [derivative(body, a) for a in range(n)])

    def values_and_gradients(points):
        out = kernel(points)
        return out[:, 0], out[:, 1:]
    return values_and_gradients


# --- scalar fields ---------------------------------------------------------

def _coords(point):
    """A point's coordinates as plain floats, as the generated code takes."""
    return np.asarray(point, dtype=float).tolist()


def _not_finite(label, point):
    return NonFiniteResult(f"{label} is not finite at point "
                           f"{format_point(point)}")


def compile_fields(fields, n):
    """``kernel(p, arg) -> (v_1..v_k, d_1/dx_1..d_k/dx_n)`` for k fields:
    ``compile_kernel`` of their values, then their partials. For one field
    this is its ``value_and_grad``; for several, each value and partial is
    bit-identical to the field's own, and the call raises exactly where one
    of the fields does, with the first such field's own error."""
    bodies = [fld.body for fld in fields]
    return compile_kernel(fields, n, bodies + [
        derivative(body, i) for body in bodies for i in range(n)])


def partial_fields(fld):
    """The partial derivatives of ``fld`` as fields, d/dx{a}(source)."""
    return [ScalarField(fld.dimension, derivative(fld.body, a),
                        f"d/dx{a + 1}({fld.source})")
            for a in range(fld.dimension)]


class ScalarField:
    """A differentiable map from n coordinates to a real number."""

    def __init__(self, dimension: int, body: Expr, source: str):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        self.dimension = dimension
        self.body = body
        self.source = source
        self.label = f"field {source!r}"
        self.compiled = {}  # see ``code``

    @classmethod
    def parse(cls, source: str, dimension: int) -> "ScalarField":
        return cls(dimension, parse(source, dimension), source)

    def __repr__(self):
        return f"ScalarField({self.source!r}, n={self.dimension})"

    def code(self, key, build, *args):
        """The field's generated code under ``key``, made once by
        ``build(*args)``: its value+gradient (``value_grad``), numpy
        (``vectorized``) and Hessian (``hessian``) functions, and the motion
        and flow kernels of which it is the first field."""
        code = self.compiled.get(key)
        if code is None:
            code = self.compiled[key] = build(*args)
        return code

    def _kernel(self):
        return self.compiled.get("value_grad") or self.code(
            "value_grad", compile_fields, [self], self.dimension)

    def value_and_grad(self, point):
        """(value, gradient) from the field's own kernel; errors name the
        field and the point: DomainError at a failed domain check,
        NonFiniteResult where float arithmetic overflows or a result is not
        finite."""
        out = self._kernel()(_coords(point), None)
        return out[0], np.array(out[1:])

    def values(self, rows):
        """``eval`` at each of ``rows``, lists of floats, in order, from
        the same kernel: the same bits, and the first error it raises."""
        kernel = self._kernel()
        return [kernel(row, None)[0] for row in rows]

    def eval(self, point) -> float:
        v, _ = self.value_and_grad(point)
        return v

    __call__ = eval

    def grad(self, point) -> np.ndarray:
        _, d = self.value_and_grad(point)
        return d

    def hessian(self, point) -> np.ndarray:
        """hess[a, c] = ∂_c ∂_a f from one call over the derivative ASTs."""
        n = self.dimension
        kernel = self.compiled.get("hessian") or self.code(
            "hessian", compile_fields, partial_fields(self), n)
        return np.array(kernel(_coords(point), None)[n:]).reshape(n, n)

    def vectorized(self):
        """The field's one numpy function, ``f(points) -> (values,
        gradients)`` over an (m, n) array of points, from one pass; a row
        is nan exactly where ``value_and_grad`` raises."""
        return self.code("vectorized", _vectorized_field, self.body,
                         self.dimension)


# --- dual numbers, for CallableField ---------------------------------------

class Dual:
    """Vector-forward dual number: a value plus one partial per seed.

    Both the value and the partials may themselves be duals, which is how
    second derivatives are obtained when they are needed. Only
    ``CallableField`` evaluates duals in the package, and the tests' dual
    reference walks expressions with them; ``Dual``, ``_value_of``,
    ``_dual_gradient`` and ``_dual_value`` go with ``CallableField``
    (ROADMAP.md, item 1).
    """

    __slots__ = ("val", "eps")

    def __init__(self, val, eps):
        self.val = val
        self.eps = tuple(eps)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val,
                        tuple(a + b for a, b in zip(self.eps, other.eps)))
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.eps))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val * other.val,
                tuple(a * other.val + self.val * b
                      for a, b in zip(self.eps, other.eps)),
            )
        return Dual(self.val * other, tuple(a * other for a in self.eps))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv2 = other.val * other.val
            return Dual(
                self.val / other.val,
                tuple((a * other.val - self.val * b) / inv2
                      for a, b in zip(self.eps, other.eps)),
            )
        return Dual(self.val / other, tuple(a / other for a in self.eps))

    def __rtruediv__(self, other):
        inv2 = self.val * self.val
        return Dual(other / self.val,
                    tuple(-other * b / inv2 for b in self.eps))


def _value_of(x):
    while isinstance(x, Dual):
        x = x.val
    return x


def _dual_gradient(fn, n, point, label) -> np.ndarray:
    """Gradient of ``fn`` at ``point`` from one pass seeded per coordinate."""
    coords = [
        Dual(float(point[j]),
             tuple(1.0 if j == k else 0.0 for k in range(n)))
        for j in range(n)
    ]
    try:
        out = fn(coords)
    except ZeroDivisionError as exc:  # a quotient rule's squared divisor
        raise _not_finite(label, point) from exc
    if not isinstance(out, Dual):
        return np.zeros(n)
    vals = np.array([_value_of(e) for e in out.eps], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise _not_finite(label, point)
    return vals


def _dual_value(fn, point, label) -> float:
    v = _value_of(fn([float(c) for c in point]))
    if not math.isfinite(v):
        raise _not_finite(label, point)
    return v


class CallableField:
    """Scalar field backed by a Python function over floats or duals.

    ``fn`` must use only arithmetic both support; the value and gradient
    come from the dual reference.
    """

    def __init__(self, dimension, fn, label="<callable>"):
        self.dimension = dimension
        self._fn = fn
        self.source = label

    def eval(self, point) -> float:
        return _dual_value(self._fn, point, self.source)

    def grad(self, point) -> np.ndarray:
        return _dual_gradient(self._fn, self.dimension, point, self.source)
