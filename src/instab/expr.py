"""Arithmetic expression language: parser, derivatives and backends.

Scalar quantities (potentials, candidate functions, metric entries, one-form
components) are entered as text in the variables x1..xn and parsed once into
an AST. Three backends evaluate it: the reference walker ``eval_expr`` over
plain floats or vector-forward dual numbers (one derivative seed per
coordinate, nestable for second order), a generated float value+gradient
function, and a generated numpy value function for bulk sampling. The code
generator emits values only, each common subexpression once; a gradient is
the values of ``derivative`` ASTs, the one set of derivative rules, which
also gives second derivatives. Both generated functions run the same value
operations in the same order; where the scalar function raises, the numpy
one gives a non-finite value. Duals are only the tests' reference.

Only this module writes field code. Other modules state their formulas as
ASTs over fields' ``derivative`` ASTs, and ``compile_kernel``, the one
kernel compiler, turns them into a function with a reference to fall back
on: the equations of motion, the chart flow fields and ``compile_fields``
(metric entries, one-form Jacobians, Hessians) all come from it.

Grammar (EBNF, also documented in the README):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;          (* right associative *)
    atom    = number | variable | function , "(" , expr , ")"
            | "(" , expr , ")" ;
    variable = "x" , digit , { digit } ;
    function = "sin" | "cos" | "exp" | "ln" | "sqrt" ;

The parser folds an exponent without variables to its value: an integral one
makes an integer power (``x1^-2``, ``x1^(1+1)``), defined at negative bases
too; any other makes a real power ``exp(b * ln(a))``, defined for positive
bases only.
An exponent that is undefined or overflows folds to nan.

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


def _has_var(node, zero_powers=True) -> bool:
    """Whether a variable occurs in ``node``.

    With ``zero_powers`` false, whether one occurs outside the base of a
    zeroth power: whether some partial derivative of ``node`` is not a
    structural zero, as where the dual reference carries a dual.
    """
    if isinstance(node, (Num, Var)):
        return isinstance(node, Var)
    if isinstance(node, Bin):
        return (_has_var(node.lhs, zero_powers)
                or _has_var(node.rhs, zero_powers))
    if isinstance(node, IntPow):
        return (zero_powers or node.k != 0) and _has_var(node.base,
                                                          zero_powers)
    return _has_var(node.arg, zero_powers)


def _folded_power(base, exponent):
    """``base ^ exponent`` with a variable-free exponent decided once."""
    try:
        k = float(eval_expr(exponent, ()))
    except (DomainError, NonFiniteResult):
        k = math.nan
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

    def error(self, expected):
        kind, text, line, col = self.peek()
        shown = text if kind != "eof" else "end of input"
        raise ExprSyntaxError(
            f"unexpected {shown!r}", line, col, expected=expected
        )

    def expect_op(self, op):
        kind, text, _, _ = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        self.error((op,))

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "eof":
            self.error(("end of input",))
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
        return _folded_power(base, exponent)

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
        self.error(("number", "variable", "function", "("))


def parse(source: str, dimension: int) -> Expr:
    """Parse ``source`` into an AST over variables x1..x{dimension}."""
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
    return _Parser(_tokenize(source), dimension).parse()


# --- dual numbers ----------------------------------------------------------

class Dual:
    """Vector-forward dual number: a value plus one partial per seed.

    Both the value and the partials may themselves be duals, which is how
    second derivatives are obtained when they are needed.
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


def _lift(fn, dfn):
    def apply(x):
        if isinstance(x, Dual):
            v = apply(x.val)
            d = dfn(x.val)
            return Dual(v, tuple(d * e for e in x.eps))
        try:
            return fn(x)
        except (OverflowError, ValueError) as exc:  # overflow, sin/cos of inf
            raise NonFiniteResult(str(exc)) from exc
    return apply


def _sqrt_raw(x):
    if isinstance(x, Dual):
        v = _sqrt_raw(x.val)
        if _value_of(v) == 0.0:
            raise DomainError("sqrt derivative at zero")
        half = 0.5 / v
        return Dual(v, tuple(half * e for e in x.eps))
    if x < 0.0:
        raise DomainError("sqrt of negative value")
    return math.sqrt(x)


def _ln_raw(x):
    if isinstance(x, Dual):
        v = _ln_raw(x.val)
        return Dual(v, tuple(e / x.val for e in x.eps))
    if x <= 0.0:
        raise DomainError("ln of non-positive value")
    return math.log(x)


_sin = _lift(math.sin, lambda v: _cos(v))
_cos = _lift(math.cos, lambda v: -_sin(v))
_exp = _lift(math.exp, lambda v: _exp(v))

_FUN_EVAL = {"sin": _sin, "cos": _cos, "exp": _exp, "ln": _ln_raw,
             "sqrt": _sqrt_raw}


def _divide(a, b):
    if _value_of(b) == 0.0:
        raise DomainError("division by zero")
    return a / b


def _ipow(base, k):
    """base**k for an integer k, generic over floats and nested duals."""
    if k < 0:
        return _divide(1.0, _ipow(base, -k))
    if k == 0:
        return 1.0
    if k <= _UNROLL_POW:
        out = base
        for _ in range(k - 1):
            out = out * base
        return out
    if isinstance(base, Dual):  # power rule
        slope = float(k) * _ipow(base.val, k - 1)
        return Dual(_ipow(base.val, k), tuple(slope * e for e in base.eps))
    try:
        return base ** k
    except OverflowError as exc:
        raise NonFiniteResult(str(exc)) from exc


def eval_expr(node: Expr, coords):
    """Evaluate over floats or duals (the reference semantics)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return coords[node.index]
    if isinstance(node, Neg):
        return -eval_expr(node.arg, coords)
    if isinstance(node, Fun):
        return _FUN_EVAL[node.name](eval_expr(node.arg, coords))
    if isinstance(node, IntPow):
        return _ipow(eval_expr(node.base, coords), node.k)
    a = eval_expr(node.lhs, coords)
    b = eval_expr(node.rhs, coords)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return _divide(a, b)
    return _exp(_ln_raw(a) * b)  # real power


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


def substitute(node: Expr, exprs) -> Expr:
    """``node`` with each variable x_{j+1} replaced by ``exprs[j]``."""
    if isinstance(node, Var):
        return exprs[node.index]
    if isinstance(node, Bin):
        return _node(node.op, substitute(node.lhs, exprs),
                     substitute(node.rhs, exprs), _ZERO_NODE)
    if isinstance(node, Neg):
        return _node("-", _ZERO_NODE, substitute(node.arg, exprs),
                     _ZERO_NODE)
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
        if not _has_var(b, zero_powers=False):
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


# Checked before the function: the test on its argument, and the message.
_FUN_DOMAIN = {"ln": ("{} <= 0.0", "ln of non-positive"),
               "sqrt": ("{} < 0.0", "sqrt of negative"),
               "sin": ("isinf({})", None), "cos": ("isinf({})", None)}


class _Emitter:
    """Straight-line code for the values of expressions.

    ``lines`` holds assignments and domain checks in evaluation order, each
    distinct subexpression and check once. The scalar rendering raises
    DomainError at a check; the numpy rendering gives nan where any holds.
    With ``guards`` set, while the values to be differentiated are emitted,
    it also checks where their derivative is undefined in the dual
    reference, even where an outer rule (a zeroth power) drops that
    derivative: at a sqrt of a varying argument that is 0, and at a varying
    divisor whose square, the quotient rule's, underflows to 0.
    """

    def __init__(self, guards):
        self.guards = guards
        self.lines = []
        self.memo = {}
        self.tests = set()

    def temp(self, code):
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {code}")
        return name

    def check(self, test, message=None):
        if test not in self.tests:
            self.tests.add(test)
            self.lines.append(_Check(test, message))

    def emit(self, node):
        """The symbol that holds the value of ``node``."""
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            return f"p[{node.index}]"
        symbol = self.memo.get(node)
        if symbol is None:
            symbol = self.memo[node] = self._value(node)
        return symbol

    def _value(self, node):
        if isinstance(node, Neg):
            return self.temp(f"-{self.emit(node.arg)}")
        if isinstance(node, Fun):
            v = self.emit(node.arg)
            if node.name in _FUN_DOMAIN:
                test, message = _FUN_DOMAIN[node.name]
                self.check(test.format(v), message)
            out = self.temp(f"{node.name}({v})")
            if node.name == "exp":
                self.check(f"isinf({out}) & ~isinf({v})")
            if (node.name == "sqrt" and self.guards
                    and _has_var(node.arg, zero_powers=False)):
                self.check(f"{out} == 0.0", "sqrt derivative at zero")
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
            out = self.temp(f"{va} ** {float(k)!r}")
            self.check(f"isinf({out}) & ~isinf({va})")
            return out
        va, vb = self.emit(node.lhs), self.emit(node.rhs)
        if node.op == "^":
            self.check(f"{va} <= 0.0", "real power of non-positive base")
            return self.emit(_real_power(node.lhs, node.rhs))
        if node.op == "*" and "1.0" in (va, vb):
            return vb if va == "1.0" else va
        b = node.rhs
        if node.op == "/" and not (isinstance(b, Num) and b.value != 0.0):
            self.check(f"{vb} == 0.0", "division by zero")
        if node.op == "/" and self.guards and _has_var(b, zero_powers=False):
            square = self.emit(Bin("*", b, b))
            self.check(f"{square} == 0.0", "division by zero")
        return self.temp(f"({va} {node.op} {vb})")


_SCALAR_NAMESPACE = {
    "ln": math.log, "sqrt": math.sqrt, "exp": math.exp,
    "sin": math.sin, "cos": math.cos, "DomainError": DomainError,
    "nan": math.nan, "inf": math.inf,
}

_NUMPY_NAMESPACE = {
    "ln": np.log, "sqrt": np.sqrt, "exp": np.exp, "sin": np.sin,
    "cos": np.cos, "isinf": np.isinf, "nan": np.nan, "inf": np.inf,
    "np": np,
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


def _fields_code(nodes, n):
    """The emitter of the values of k nodes, with the dual reference's
    guards, then of their n partials each, and those values' symbols.

    A partial is the value of its ``derivative`` AST. Sharing one emitter,
    the nodes compute a common subexpression once, and each value and
    partial is bit-identical to that of the node alone.
    """
    em = _Emitter(guards=True)
    values = [em.emit(node) for node in nodes]
    em.guards = False  # the derivative ASTs are not differentiated here
    grads = [em.emit(derivative(node, i)) for node in nodes for i in range(n)]
    return em, values + grads


def _scalar_body(em, indent):
    """The lines as scalar code that raises DomainError at a check."""
    return "".join(
        f"{indent}{line}\n" if isinstance(line, str)
        else f"{indent}if {line.test}: raise DomainError({line.message!r})\n"
        for line in em.lines if isinstance(line, str) or line.message)


def _is_number(symbol):
    try:
        return math.isfinite(float(symbol))
    except ValueError:
        return False


def compile_value_grad(nodes, n: int):
    """Generate ``f(point) -> (v_1..v_k, d_1/dx_1..d_k/dx_n)`` for k nodes,
    which raises where a check or float arithmetic fails."""
    em, symbols = _fields_code(nodes, n)
    src = (f"def _fields(p):\n{_scalar_body(em, '    ')}"
           f"    return ({', '.join(symbols)},)\n")
    return define_scalar("_fields", src)


def compile_kernel(nodes, n: int, outputs, reference, guard=None):
    """Generate ``kernel(p, arg)``, the values of ``outputs`` at the point p.

    The one compiler of field kernels: its code computes the values and
    partials of the field ASTs ``nodes`` as ``compile_value_grad`` does,
    then the output ASTs, which share those symbols where they contain the
    fields' ``derivative`` ASTs; ``Var(i)`` reads p[i]. ``guard`` = (node,
    bound) requires bound < node < inf. Where a check or the guard fails,
    float arithmetic raises, or a field's value or partial is not finite,
    it returns ``reference(p, arg)``. An output that overflows is left as
    it is, as the reference leaves it.
    """
    em, symbols = _fields_code(nodes, n)
    checked = " + ".join(dict.fromkeys(s for s in symbols
                                       if not _is_number(s)))
    em.check(f"({checked or '0.0'}) * 0.0 != 0.0", "not finite")
    if guard is not None:
        node, bound = guard
        em.check(f"not {bound!r} < {em.emit(node)} < inf", "below guard")
    out = [em.emit(node) for node in outputs]
    src = ("def _kernel(p, arg):\n"
           f"    try:\n{_scalar_body(em, '        ')}"
           "    except (DomainError, ArithmeticError, ValueError):\n"
           "        return reference(p, arg)\n"
           f"    return ({', '.join(out)},)\n")
    return define_scalar("_kernel", src, reference=reference)


def sum_nodes(terms) -> Expr:
    """``terms[0] + terms[1] + ...`` summed left to right; 0 for none."""
    return functools.reduce(functools.partial(Bin, "+"), terms) \
        if terms else Num(0.0)


def compile_vectorized(node: Expr):
    """Generate ``f(points) -> values`` over an (m, n) array of points.

    The values are non-finite exactly where the scalar value raises: nan at
    a failed check, and everywhere when float arithmetic on constants
    raises. numpy's floating-point warnings are off inside.
    """
    em = _Emitter(guards=False)
    v = em.emit(node)
    body = "".join(f"        {line}\n" for line in em.lines
                   if isinstance(line, str)) or "        pass\n"
    tests = [f"({line.test})" for line in em.lines
             if isinstance(line, _Check)]
    if tests:
        v = f"np.where({' | '.join(tests)}, nan, {v})"
    src = ("def _vec(points):\n"
           "    p = points.T\n"
           f"    try:\n{body}"
           "    except (ZeroDivisionError, OverflowError):\n"
           "        return np.full(points.shape[0], nan)\n"
           f"    return np.broadcast_to({v}, (points.shape[0],))"
           ".astype(float)\n")
    vec = _define("_vec", src, _NUMPY_NAMESPACE)

    def values(points):
        with np.errstate(all="ignore"):
            return vec(np.asarray(points, dtype=float))

    return values


# --- scalar fields ---------------------------------------------------------

def _coords(point):
    """A point's coordinates as plain floats, as the generated code takes."""
    return np.asarray(point, dtype=float).tolist()


def _not_finite(label, point):
    return NonFiniteResult(f"{label} is not finite at point "
                           f"{format_point(point)}")


def _fields_reference(p, fields):
    """Values, then gradients, from each field's own ``value_and_grad``."""
    out = [fld.value_and_grad(p) for fld in fields]
    return (tuple(value for value, _ in out)
            + tuple(d for _, grad in out for d in grad.tolist()))


def compile_fields(fields, n):
    """One generated call for k fields: ``point -> (values (k,), jac (k, n))``.

    Each value and gradient row is bit-identical to the field's own
    ``value_and_grad``, the kernel's reference, and the call raises exactly
    where one of the fields does, with that field's own error.
    """
    bodies = [fld.body for fld in fields]
    kernel = compile_kernel(
        bodies, n, bodies + [derivative(body, i) for body in bodies
                             for i in range(n)], _fields_reference)
    k = len(fields)

    def evaluate(point):
        out = np.array(kernel(_coords(point), fields))
        return out[:k], out[k:].reshape(k, n)

    return evaluate


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


def _compile_hessian(fld):
    """``compile_fields`` over the partials of ``fld``, as fields."""
    n = fld.dimension
    return compile_fields([ScalarField(n, derivative(fld.body, a),
                                       f"d/dx{a + 1}({fld.source})")
                           for a in range(n)], n)


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

    def _call(self, coords):
        return eval_expr(self.body, coords)

    def code(self, key, build, *args):
        """The field's generated code under ``key``, made once by
        ``build(*args)``: its value+gradient, numpy and Hessian functions,
        and the motion and flow kernels of which it is the first field."""
        code = self.compiled.get(key)
        if code is None:
            code = self.compiled[key] = build(*args)
        return code

    def value_and_grad(self, point):
        """(value, gradient); errors name the field and the point:
        DomainError at a failed domain check, NonFiniteResult where float
        arithmetic overflows or a result is not finite."""
        fast = self.compiled.get("value_grad") or self.code(
            "value_grad", compile_value_grad, [self.body], self.dimension)
        coords = _coords(point)
        try:
            out = fast(coords)
        except DomainError as exc:
            raise DomainError(f"{exc} in {self.label} at point "
                              f"{format_point(coords)}") from exc
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise _not_finite(self.label, coords) from exc
        if not all(map(math.isfinite, out)):
            raise _not_finite(self.label, coords)
        return out[0], np.array(out[1:])

    def eval(self, point) -> float:
        v, _ = self.value_and_grad(point)
        return v

    __call__ = eval

    def grad(self, point) -> np.ndarray:
        _, d = self.value_and_grad(point)
        return d

    def hessian(self, point) -> np.ndarray:
        """hess[a, c] = ∂_c ∂_a f from one call over the derivative ASTs."""
        return self.code("hessian", _compile_hessian, self)(point)[1]

    def grad_dual(self, point) -> np.ndarray:
        """Gradient via the dual-number reference path."""
        return _dual_gradient(self._call, self.dimension, point, self.label)

    def eval_dual(self, point) -> float:
        return _dual_value(self._call, point, self.label)

    def vectorized(self):
        """Bulk values over an (m, n) array; non-finite where undefined."""
        return self.code("vectorized", compile_vectorized, self.body)


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
