"""Arithmetic expression language: parser, derivatives and backends.

Scalar quantities (potentials, candidate functions, metric entries, one-form
components) are entered as text in the variables x1..xn and parsed once into
an AST. Three backends evaluate it: the reference walker ``eval_expr`` over
plain floats or vector-forward dual numbers (one derivative seed per
coordinate, nestable for second order), a generated float value+gradient
function, and a generated numpy value function for bulk sampling. One code
generator writes both generated functions, so they run the same operations
in the same order; where the scalar function raises, the numpy one gives a
non-finite value. Duals are only the tests' reference; second derivatives
and composite fields are ASTs from ``derivative`` and ``substitute``.

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

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # zero-based; prints as x{index+1}


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^ (a ^ with a variable or non-integral exponent)
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class IntPow:
    base: "Expr"
    k: int


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Fun:
    name: str
    arg: "Expr"


Expr = Num | Var | Bin | IntPow | Neg | Fun


# --- tokenizer / parser ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _line_col(source, offset):
    line = source.count("\n", 0, offset) + 1
    nl = source.rfind("\n", 0, offset)
    return line, offset - (nl + 1) + 1


def _tokenize(source):
    tokens = []
    pos = 0
    while True:
        stripped = source[pos:].lstrip()
        if not stripped:
            break
        here = len(source) - len(stripped)
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.start(m.lastgroup) != here:
            line, col = _line_col(source, here)
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", line, col
            )
        kind = m.lastgroup
        line, col = _line_col(source, m.start(kind))
        tokens.append((kind, m.group(kind), line, col))
        pos = m.end()
    line, col = _line_col(source, len(source))
    tokens.append(("eof", "", line, col))
    return tokens


_VAR_RE = re.compile(r"^x([0-9]+)$")


def _has_var(node) -> bool:
    if isinstance(node, (Num, Var)):
        return isinstance(node, Var)
    if isinstance(node, Bin):
        return _has_var(node.lhs) or _has_var(node.rhs)
    return _has_var(node.base if isinstance(node, IntPow) else node.arg)


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

    def expr(self):
        node = self.term()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.unary())
            else:
                return node

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


def _node(op, a, b):
    """``a op b``, folding zeros and ones as the emitter folds its own."""
    if op in "+-" and _ZERO_NODE in (a, b):
        return a if b == _ZERO_NODE else b if op == "+" else Neg(b)
    if op in "*/" and a == _ZERO_NODE or op == "*" and b == _ZERO_NODE:
        return _ZERO_NODE
    if op == "*" and _ONE_NODE in (a, b):
        return b if a == _ONE_NODE else a
    return Bin(op, a, b)


def substitute(node: Expr, exprs) -> Expr:
    """``node`` with each variable x_{j+1} replaced by ``exprs[j]``."""
    if isinstance(node, Var):
        return exprs[node.index]
    if isinstance(node, Bin):
        return _node(node.op, substitute(node.lhs, exprs),
                     substitute(node.rhs, exprs))
    if isinstance(node, Neg):
        return _node("-", _ZERO_NODE, substitute(node.arg, exprs))
    if isinstance(node, IntPow):
        return IntPow(substitute(node.base, exprs), node.k)
    if isinstance(node, Fun):
        return Fun(node.name, substitute(node.arg, exprs))
    return node


def derivative(node: Expr, i: int) -> Expr:
    """The partial derivative of ``node`` in x_{i+1}, as an AST.

    Each rule is the emitter's (for powers above 16, the dual reference's),
    so a derivative computes what the generated gradient does; compiling it
    again gives second derivatives.
    """
    if isinstance(node, (Num, Var)):
        return _ONE_NODE if node == Var(i) else _ZERO_NODE
    if isinstance(node, Neg):
        return _node("-", _ZERO_NODE, derivative(node.arg, i))
    if isinstance(node, Fun):
        a = node.arg
        if node.name == "ln":
            return _node("/", derivative(a, i), a)
        slope = {"sin": Fun("cos", a), "cos": Neg(Fun("sin", a)),
                 "exp": node, "sqrt": Bin("/", Num(0.5), node)}
        return _node("*", derivative(a, i), slope[node.name])
    if isinstance(node, IntPow):
        a, k = node.base, node.k
        if k < 0:
            return derivative(Bin("/", _ONE_NODE, IntPow(a, -k)), i)
        if k > _UNROLL_POW:  # power rule
            return _node("*", _node("*", Num(float(k)), IntPow(a, k - 1)),
                         derivative(a, i))
        return (derivative(Bin("*", IntPow(a, k - 1), a), i)  # as unrolled
                if k else _ZERO_NODE)
    a, b = node.lhs, node.rhs
    if node.op == "^":
        return derivative(Fun("exp", Bin("*", Fun("ln", a), b)), i)
    da, db = derivative(a, i), derivative(b, i)
    if node.op in "+-":
        return _node(node.op, da, db)
    if node.op == "*":
        return _node("+", _node("*", da, b), _node("*", a, db))
    if not _has_var(b):
        return _node("/", da, b)
    return _node("/", _node("-", _node("*", da, b), _node("*", a, db)),
                 Bin("*", b, b))


# --- code generation (scalar value + gradient, numpy value) ----------------

# A derivative that is structurally zero, where the dual reference carries a
# plain float. The literal "0.0" is a number and multiplies like one.
_ZERO = "0"
_ONE = "1.0"


@dataclass(frozen=True)
class _Assign:
    code: str
    derivative: bool  # only the gradient reads it


@dataclass(frozen=True)
class _Check:
    """Where ``test`` holds, the operation emitted next to it is undefined."""

    test: str
    message: str | None  # None: float arithmetic raises there by itself
    derivative: bool = False  # only the gradient is undefined there


class _Emitter:
    """Straight-line code for an expression's value and gradient.

    ``lines`` holds assignments and domain checks in evaluation order. The
    scalar rendering raises DomainError at a check; the numpy rendering
    drops the gradient and gives nan where any value check holds.
    """

    def __init__(self, n):
        self.n = n
        self.lines = []
        self.counter = 0

    def temp(self, code, derivative=False):
        name = f"t{self.counter}"
        self.counter += 1
        self.lines.append(_Assign(f"{name} = {code}", derivative))
        return name

    def check(self, test, message=None, derivative=False):
        self.lines.append(_Check(test, message, derivative))

    @staticmethod
    def add(a, b):
        if a == _ZERO:
            return b
        if b == _ZERO:
            return a
        return f"({a} + {b})"

    @staticmethod
    def sub(a, b):
        if b == _ZERO:
            return a
        if a == _ZERO:
            return f"(-{b})"
        return f"({a} - {b})"

    @staticmethod
    def mul(a, b):
        if a == _ZERO or b == _ZERO:
            return _ZERO
        if a == _ONE:
            return b
        if b == _ONE:
            return a
        return f"({a} * {b})"

    @staticmethod
    def div(a, b):
        return _ZERO if a == _ZERO else f"({a} / {b})"

    def emit(self, node):
        """Return (value symbol, derivative expression per coordinate)."""
        if isinstance(node, Num):
            return repr(node.value), [_ZERO] * self.n
        if isinstance(node, Var):
            d = [_ZERO] * self.n
            d[node.index] = _ONE
            return f"p[{node.index}]", d
        if isinstance(node, Neg):
            v, d = self.emit(node.arg)
            return self.temp(f"-{v}"), [self.sub(_ZERO, x) for x in d]
        if isinstance(node, Fun):
            return self._fun(node.name, *self.emit(node.arg))
        if isinstance(node, IntPow):
            return self._ipow(*self.emit(node.base), node.k)
        va, da = self.emit(node.lhs)
        vb, db = self.emit(node.rhs)
        if node.op == "+":
            return (self.temp(self.add(va, vb)),
                    [self.add(x, y) for x, y in zip(da, db)])
        if node.op == "-":
            return (self.temp(self.sub(va, vb)),
                    [self.sub(x, y) for x, y in zip(da, db)])
        if node.op == "*":
            return self._mul(va, da, vb, db)
        if node.op == "/":
            literal = isinstance(node.rhs, Num) and node.rhs.value != 0.0
            return self._div(va, da, vb, db, check=not literal)
        # real power a^b = exp(ln(a) * b)
        ln_a = self._fun("ln", va, da, "real power of non-positive base")
        return self._fun("exp", *self._mul(*ln_a, vb, db))

    def _mul(self, va, da, vb, db):
        return self.temp(self.mul(va, vb)), [
            self.add(self.mul(x, vb), self.mul(va, y)) for x, y in zip(da, db)]

    def _div(self, va, da, vb, db, check=True):
        if check:
            self.check(f"{vb} == 0.0", "division by zero")
        out = self.temp(f"({va} / {vb})")
        if all(y == _ZERO for y in db):
            return out, [self.div(x, vb) for x in da]
        return out, [
            _ZERO if x == _ZERO and y == _ZERO
            else f"(({self.sub(self.mul(x, vb), self.mul(va, y))}) "
                 f"/ ({vb} * {vb}))"
            for x, y in zip(da, db)
        ]

    def _fun(self, name, v, d, domain="ln of non-positive"):
        if name == "ln":
            self.check(f"{v} <= 0.0", domain)
            return self.temp(f"log({v})"), [self.div(x, v) for x in d]
        if name == "sqrt":
            self.check(f"{v} < 0.0", "sqrt of negative")
            out = self.temp(f"sqrt({v})")
            if any(x != _ZERO for x in d):
                self.check(f"{out} == 0.0", "sqrt derivative at zero",
                           derivative=True)
            return out, [self.mul(x, f"(0.5 / {out})") for x in d]
        if name == "exp":
            out = self.temp(f"exp({v})")
            self.check(f"isinf({out}) & ~isinf({v})")
            return out, [self.mul(x, out) for x in d]
        self.check(f"isinf({v})")
        out = self.temp(f"{name}({v})")
        slope = self.temp(f"cos({v})" if name == "sin" else f"-sin({v})",
                          derivative=True)
        return out, [self.mul(x, slope) for x in d]

    def _ipow(self, va, da, k):
        if k == 0:
            return _ONE, [_ZERO] * self.n
        if k < 0:
            return self._div(_ONE, [_ZERO] * self.n, *self._ipow(va, da, -k))
        if k <= _UNROLL_POW:
            v, d = va, da
            for _ in range(k - 1):
                d = [self.add(self.mul(x, va), self.mul(v, y))
                     for x, y in zip(d, da)]
                v = self.temp(self.mul(v, va))
            return v, d
        v = self.temp(f"{va} ** {float(k)!r}")
        self.check(f"isinf({v}) & ~isinf({va})")
        pw = self.temp(f"{va} ** {float(k - 1)!r}", derivative=True)
        return v, [self.mul(f"({float(k)!r} * {pw})", x) for x in da]


def _generate(nodes, n):
    """Emitted lines, value symbols and gradient symbols of ``nodes``.

    The nodes share one emitter and one temp counter, but each emits the
    same lines it would alone, so its value and gradient are bit-identical
    to those of the node compiled by itself.
    """
    em = _Emitter(n)
    values, grads = [], []
    for node in nodes:
        v, d = em.emit(node)
        values.append(v)
        grads += ["0.0" if x == _ZERO
                  else x if x == _ONE or x.startswith("t")
                  else em.temp(x, derivative=True) for x in d]
    return em.lines, values, grads


_SCALAR_NAMESPACE = {
    "log": math.log, "sqrt": math.sqrt, "exp": math.exp,
    "sin": math.sin, "cos": math.cos, "DomainError": DomainError,
    "nan": math.nan, "inf": math.inf,
}

_NUMPY_NAMESPACE = {
    "log": np.log, "sqrt": np.sqrt, "exp": np.exp, "sin": np.sin,
    "cos": np.cos, "isinf": np.isinf, "nan": np.nan, "inf": np.inf,
    "np": np,
}


def _define(name, src, namespace):
    ns = dict(namespace)
    exec(src, ns)  # noqa: S102 - generated from our own AST only
    return ns[name]


def compile_value_grad(nodes, n: int):
    """Generate ``f(point) -> (v_1..v_k, d_1/dx_1..d_k/dx_n)`` for k nodes.

    The flat tuple holds the k values, then each node's n partials in turn.
    Raises DomainError at a failed check. Float overflow raises
    OverflowError, and sin or cos of an infinity ValueError.
    """
    lines, values, grads = _generate(nodes, n)
    body = ""
    for line in lines:
        if isinstance(line, _Assign):
            body += f"    {line.code}\n"
        elif line.message is not None:
            body += (f"    if {line.test}: "
                     f"raise DomainError({line.message!r})\n")
    src = f"def _fields(p):\n{body}    return ({', '.join(values + grads)},)\n"
    return _define("_fields", src, _SCALAR_NAMESPACE)


def compile_vectorized(node: Expr, n: int):
    """Generate ``f(points) -> values`` over an (m, n) numpy array.

    The values are non-finite exactly where the scalar function raises:
    nan at a failed value check, and everywhere when float arithmetic on
    constants raises. Run it under ``np.errstate(all="ignore")``.
    """
    lines, (v,), _ = _generate([node], n)
    body = "".join(f"        {line.code}\n" for line in lines
                   if isinstance(line, _Assign) and not line.derivative)
    body = body or "        pass\n"
    tests = [f"({line.test})" for line in lines
             if isinstance(line, _Check) and not line.derivative]
    if tests:
        v = f"np.where({' | '.join(tests)}, nan, {v})"
    src = ("def _vec(points):\n"
           "    p = points.T\n"
           f"    try:\n{body}"
           "    except (ZeroDivisionError, OverflowError):\n"
           "        return np.full(points.shape[0], nan)\n"
           f"    return np.broadcast_to({v}, (points.shape[0],))"
           ".astype(float)\n")
    return _define("_vec", src, _NUMPY_NAMESPACE)


# --- scalar fields ---------------------------------------------------------

def _coords(point):
    """A point's coordinates as plain floats, as the generated code takes."""
    return np.asarray(point, dtype=float).tolist()


def _not_finite(label, point):
    return NonFiniteResult(f"{label} is not finite at point "
                           f"{format_point(point)}")


def _evaluated(fn, coords, label):
    """``fn(coords)`` as a tuple of finite floats.

    Errors name ``label`` and the point: DomainError at a failed domain
    check, NonFiniteResult where float arithmetic overflows or a result is
    not finite.
    """
    try:
        out = fn(coords)
    except DomainError as exc:
        raise DomainError(f"{exc} in {label} at point "
                          f"{format_point(coords)}") from exc
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise _not_finite(label, coords) from exc
    if not all(map(math.isfinite, out)):
        raise _not_finite(label, coords)
    return out


def compile_fields(fields, n):
    """One generated call for k fields: ``point -> (values (k,), jac (k, n))``.

    Each value and gradient row is bit-identical to the field's own
    ``value_and_grad``, and the call raises exactly where one of the fields
    does, with that field's own error.
    """
    fn = compile_value_grad([fld.body for fld in fields], n)
    k = len(fields)
    label = "fields " + ", ".join(repr(fld.source) for fld in fields)

    def evaluate(point):
        coords = _coords(point)
        try:
            out = np.array(_evaluated(fn, coords, label))
        except (DomainError, NonFiniteResult):
            for fld in fields:  # the first field that fails names the error
                fld.value_and_grad(coords)
            raise
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


class ScalarField:
    """A differentiable map from n coordinates to a real number."""

    def __init__(self, dimension: int, body: Expr, source: str):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        self.dimension = dimension
        self.body = body
        self.source = source
        self.label = f"field {source!r}"
        self._fast = None
        self._vec = None
        self._hessian = None

    @classmethod
    def parse(cls, source: str, dimension: int) -> "ScalarField":
        return cls(dimension, parse(source, dimension), source)

    def __repr__(self):
        return f"ScalarField({self.source!r}, n={self.dimension})"

    def _call(self, coords):
        return eval_expr(self.body, coords)

    def value_and_grad(self, point):
        if self._fast is None:
            self._fast = compile_value_grad([self.body], self.dimension)
        out = _evaluated(self._fast, _coords(point), self.label)
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
        if self._hessian is None:
            n = self.dimension
            self._hessian = compile_fields(
                [ScalarField(n, derivative(self.body, a),
                             f"d/dx{a + 1}({self.source})")
                 for a in range(n)], n)
        return self._hessian(point)[1]

    def grad_dual(self, point) -> np.ndarray:
        """Gradient via the dual-number reference path."""
        return _dual_gradient(self._call, self.dimension, point, self.label)

    def eval_dual(self, point) -> float:
        return _dual_value(self._call, point, self.label)

    def vectorized(self):
        """Bulk values over an (m, n) array; non-finite where undefined."""
        if self._vec is None:
            vec = compile_vectorized(self.body, self.dimension)

            def safe(points):
                with np.errstate(all="ignore"):
                    return vec(np.asarray(points, dtype=float))

            self._vec = safe
        return self._vec


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
