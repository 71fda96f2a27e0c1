"""Arithmetic expression language evaluated over dual numbers.

Scalar quantities (potentials, candidate functions, metric entries, one-form
components) are entered as text in the variables x1..xn, parsed once into an
AST and then evaluated either with plain floats, with vector-forward dual
numbers (one derivative seed per coordinate, nestable for second order), with
a generated fast float value+gradient function, or with a numpy-vectorized
value function for bulk sampling.

Grammar (EBNF, also documented in the README):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;          (* right associative *)
    atom    = number | variable | function , "(" , expr , ")"
            | "(" , expr , ")" ;
    variable = "x" , digit , { digit } ;
    function = "sin" | "cos" | "exp" | "ln" | "sqrt" ;

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
)

MAX_DIMENSION = 16
FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")

# Integer exponents up to this bound unroll to repeated multiplication; larger
# ones fall back to float pow (value) and the power rule (derivative).
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
    op: str  # + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Fun:
    name: str
    arg: "Expr"


Expr = Num | Var | Bin | Neg | Fun


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_source(node: Expr) -> str:
    """Print an AST so that re-parsing yields a structurally identical tree."""

    def go(n, parent_prec, right_side):
        if isinstance(n, Num):
            if n.value < 0:  # never produced by the parser, but be safe
                return f"({n.value!r})"
            return repr(n.value)
        if isinstance(n, Var):
            return f"x{n.index + 1}"
        if isinstance(n, Fun):
            return f"{n.name}({go(n.arg, 0, False)})"
        if isinstance(n, Neg):
            inner = go(n.arg, _PRECEDENCE["neg"], False)
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        prec = _PRECEDENCE[n.op]
        if n.op == "^":
            lhs = go(n.lhs, prec + 1, False)  # left operand binds atoms only
            rhs = go(n.rhs, prec, False)      # right associative
        else:
            lhs = go(n.lhs, prec, False)
            rhs = go(n.rhs, prec + 1, True)
        text = f"{lhs} {n.op} {rhs}"
        need = parent_prec > prec or (right_side and parent_prec == prec)
        return f"({text})" if need else text

    return go(node, 0, False)


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
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

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
            if _value_of(other.val) == 0.0:
                raise DomainError("division by zero")
            inv2 = other.val * other.val
            return Dual(
                self.val / other.val,
                tuple((a * other.val - self.val * b) / inv2
                      for a, b in zip(self.eps, other.eps)),
            )
        if _value_of(other) == 0.0:
            raise DomainError("division by zero")
        return Dual(self.val / other, tuple(a / other for a in self.eps))

    def __rtruediv__(self, other):
        if _value_of(self.val) == 0.0:
            raise DomainError("division by zero")
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
        except OverflowError as exc:
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


def _ipow(base, k):
    """base**k by repeated multiplication for small |k| (generic over duals)."""
    if k == 0:
        return 1.0
    neg = k < 0
    k = abs(k)
    if k <= _UNROLL_POW:
        out = base
        for _ in range(k - 1):
            out = out * base
    else:
        out = _exp(_ln_raw(base) * float(k)) if isinstance(base, Dual) \
            else base ** k
    if neg:
        return 1.0 / out
    return out


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
    a = eval_expr(node.lhs, coords)
    if node.op == "^":
        if isinstance(node.rhs, Num) and float(node.rhs.value).is_integer():
            return _ipow(a, int(node.rhs.value))
        b = eval_expr(node.rhs, coords)
        return _exp(_ln_raw(a) * b)
    b = eval_expr(node.rhs, coords)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        if isinstance(b, Dual) or isinstance(a, Dual):
            return a / b
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    raise AssertionError(node.op)


# --- code generation (fast float value + gradient) -------------------------

class _Emitter:
    def __init__(self, n):
        self.n = n
        self.lines = []
        self.counter = 0

    def temp(self, expr_text):
        name = f"t{self.counter}"
        self.counter += 1
        self.lines.append(f"{name} = {expr_text}")
        return name

    @staticmethod
    def add(a, b):
        if a == "0.0":
            return b
        if b == "0.0":
            return a
        return f"({a} + {b})"

    @staticmethod
    def sub(a, b):
        if b == "0.0":
            return a
        if a == "0.0":
            return f"(-{b})"
        return f"({a} - {b})"

    @staticmethod
    def mul(a, b):
        if a == "0.0" or b == "0.0":
            return "0.0"
        if a == "1.0":
            return b
        if b == "1.0":
            return a
        return f"({a} * {b})"

    def emit(self, node):
        """Return (value symbol, derivative expression per coordinate)."""
        zero = ["0.0"] * self.n
        if isinstance(node, Num):
            return repr(node.value), list(zero)
        if isinstance(node, Var):
            d = list(zero)
            d[node.index] = "1.0"
            return f"p[{node.index}]", d
        if isinstance(node, Neg):
            v, d = self.emit(node.arg)
            return self.temp(f"-{v}"), [self.sub("0.0", x) if x != "0.0"
                                        else "0.0" for x in d]
        if isinstance(node, Fun):
            v, d = self.emit(node.arg)
            name = node.name
            if name == "ln":
                self.lines.append(
                    f"if {v} <= 0.0: raise DomainError('ln of non-positive')")
                out = self.temp(f"log({v})")
                dd = [self.mul(x, f"(1.0 / {v})") for x in d]
            elif name == "sqrt":
                self.lines.append(
                    f"if {v} < 0.0: raise DomainError('sqrt of negative')")
                out = self.temp(f"sqrt({v})")
                if any(x != "0.0" for x in d):
                    self.lines.append(
                        f"if {out} == 0.0: "
                        "raise DomainError('sqrt derivative at zero')")
                dd = [self.mul(x, f"(0.5 / {out})") for x in d]
            elif name == "exp":
                out = self.temp(f"exp({v})")
                dd = [self.mul(x, out) for x in d]
            elif name == "sin":
                out = self.temp(f"sin({v})")
                c = self.temp(f"cos({v})")
                dd = [self.mul(x, c) for x in d]
            else:  # cos
                out = self.temp(f"cos({v})")
                s = self.temp(f"-sin({v})")
                dd = [self.mul(x, s) for x in d]
            return out, dd
        # binary
        if node.op == "^" and isinstance(node.rhs, Num) \
                and float(node.rhs.value).is_integer():
            return self._emit_ipow(node.lhs, int(node.rhs.value))
        va, da = self.emit(node.lhs)
        if node.op == "^":
            vb, db = self.emit(node.rhs)
            self.lines.append(
                f"if {va} <= 0.0: "
                "raise DomainError('real power of non-positive base')")
            ln_a = self.temp(f"log({va})")
            out = self.temp(f"exp({self.mul(vb, ln_a)})")
            # derivative of a^b is a^b * (b' ln a + b a'/a)
            dd = [
                self.mul(out, self.add(self.mul(xb, ln_a),
                                       f"({self.mul(vb, xa)} / {va})"
                                       if xa != "0.0" else "0.0"))
                for xa, xb in zip(da, db)
            ]
            return out, dd
        vb, db = self.emit(node.rhs)
        if node.op == "+":
            return (self.temp(self.add(va, vb)),
                    [self.add(x, y) for x, y in zip(da, db)])
        if node.op == "-":
            return (self.temp(self.sub(va, vb)),
                    [self.sub(x, y) for x, y in zip(da, db)])
        if node.op == "*":
            out = self.temp(self.mul(va, vb))
            return out, [self.add(self.mul(x, vb), self.mul(va, y))
                         for x, y in zip(da, db)]
        # division
        self.lines.append(
            f"if {vb} == 0.0: raise DomainError('division by zero')")
        out = self.temp(f"({va} / {vb})")
        dd = [
            "0.0" if x == "0.0" and y == "0.0"
            else f"(({self.sub(self.mul(x, vb), self.mul(va, y))}) "
                 f"/ ({vb} * {vb}))"
            for x, y in zip(da, db)
        ]
        return out, dd

    def _emit_ipow(self, base_node, k):
        va, da = self.emit(base_node)
        if k == 0:
            return "1.0", ["0.0"] * self.n
        neg = k < 0
        k = abs(k)
        if k <= _UNROLL_POW:
            v = va
            dd = list(da)
            for _ in range(k - 1):
                dd = [self.add(self.mul(x, va), self.mul(v, y))
                      for x, y in zip(dd, da)]
                v = self.temp(self.mul(v, va))
        else:
            v = self.temp(f"{va} ** {k}")
            pw = self.temp(f"{va} ** {k - 1}")
            dd = [self.mul(f"({k}.0 * {pw})", x) for x in da]
        if neg:
            self.lines.append(
                f"if {v} == 0.0: raise DomainError('division by zero')")
            inv = self.temp(f"(1.0 / {v})")
            dd = [self.mul(f"(-{inv} * {inv})", x) if x != "0.0" else "0.0"
                  for x in dd]
            return inv, dd
        # materialize derivative expressions so they are not recomputed
        return v, dd


_GEN_NAMESPACE = {
    "log": math.log, "sqrt": math.sqrt, "exp": math.exp,
    "sin": math.sin, "cos": math.cos, "DomainError": DomainError,
}


def compile_value_grad(node: Expr, n: int):
    """Generate a fast ``f(point) -> (value, (d1..dn))`` for float points."""
    em = _Emitter(n)
    v, d = em.emit(node)
    dsyms = [em.temp(x) if x not in ("0.0", "1.0") and not x.startswith("t")
             else x for x in d]
    body = "\n    ".join(em.lines) or "pass"
    grads = ", ".join(dsyms) + ("," if n == 1 else "")
    src = f"def _field(p):\n    {body}\n    return {v}, ({grads})\n"
    ns = dict(_GEN_NAMESPACE)
    exec(src, ns)  # noqa: S102 - generated from our own AST only
    return ns["_field"]


_NP_FUNS = {"sin": "np.sin", "cos": "np.cos", "exp": "np.exp",
            "ln": "np.log", "sqrt": "np.sqrt"}


def compile_vectorized(node: Expr, n: int):
    """Generate ``f(points) -> values`` over an (m, n) numpy array.

    No domain checking: invalid points yield nan/inf and are filtered by the
    caller.
    """
    counter = [0]
    lines = []

    def temp(text):
        name = f"t{counter[0]}"
        counter[0] += 1
        lines.append(f"{name} = {text}")
        return name

    def go(nd):
        if isinstance(nd, Num):
            return repr(nd.value)
        if isinstance(nd, Var):
            return f"p[:, {nd.index}]"
        if isinstance(nd, Neg):
            return temp(f"-{go(nd.arg)}")
        if isinstance(nd, Fun):
            return temp(f"{_NP_FUNS[nd.name]}({go(nd.arg)})")
        a = go(nd.lhs)
        if nd.op == "^":
            if isinstance(nd.rhs, Num) and float(nd.rhs.value).is_integer():
                k = int(nd.rhs.value)
                if k == 0:
                    return "1.0"
                out = a
                if abs(k) <= _UNROLL_POW:
                    for _ in range(abs(k) - 1):
                        out = temp(f"{out} * {a}")
                else:
                    out = temp(f"{a} ** {abs(k)}")
                return temp(f"1.0 / {out}") if k < 0 else out
            b = go(nd.rhs)
            return temp(f"np.exp({b} * np.log({a}))")
        b = go(nd.rhs)
        return temp(f"({a} {nd.op} {b})")

    v = go(node)
    body = "\n    ".join(lines) or "pass"
    src = (f"def _vec(p):\n    {body}\n"
           f"    return np.broadcast_to({v}, (p.shape[0],)).astype(float)\n")
    ns = {"np": np}
    exec(src, ns)  # noqa: S102
    return ns["_vec"]


# --- scalar fields ---------------------------------------------------------

def _dual_gradient(fn, n, point) -> np.ndarray:
    """Gradient of ``fn`` at ``point`` from one pass seeded per coordinate."""
    coords = [
        Dual(float(point[j]),
             tuple(1.0 if j == k else 0.0 for k in range(n)))
        for j in range(n)
    ]
    out = fn(coords)
    if not isinstance(out, Dual):
        return np.zeros(n)
    vals = np.array([_value_of(e) for e in out.eps], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteResult(f"at point {tuple(point)}")
    return vals


class ScalarField:
    """A differentiable map from n coordinates to a real number."""

    def __init__(self, dimension: int, body: Expr, source: str | None = None):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        self.dimension = dimension
        self.body = body
        self.source = source if source is not None else to_source(body)
        self._fast = None
        self._vec = None

    @classmethod
    def parse(cls, source: str, dimension: int) -> "ScalarField":
        return cls(dimension, parse(source, dimension), source)

    def __repr__(self):
        return f"ScalarField({self.source!r}, n={self.dimension})"

    # generic evaluation entry point, overridable by composite fields
    def _call(self, coords):
        return eval_expr(self.body, coords)

    def _fast_fn(self):
        if self._fast is None:
            self._fast = compile_value_grad(self.body, self.dimension)
        return self._fast

    def value_and_grad(self, point):
        v, d = self._fast_fn()(tuple(point))
        if not math.isfinite(v) or not all(map(math.isfinite, d)):
            raise NonFiniteResult(f"at point {tuple(point)}")
        return v, np.array(d, dtype=float)

    def eval(self, point) -> float:
        v, _ = self.value_and_grad(point)
        return v

    __call__ = eval

    def grad(self, point) -> np.ndarray:
        _, d = self.value_and_grad(point)
        return d

    def grad_dual(self, point) -> np.ndarray:
        """Gradient via the dual-number reference path."""
        return _dual_gradient(self._call, self.dimension, point)

    def eval_dual(self, point) -> float:
        out = self._call([float(c) for c in point])
        v = _value_of(out)
        if not math.isfinite(v):
            raise NonFiniteResult(f"at point {tuple(point)}")
        return v

    def vectorized(self):
        """Bulk value evaluation over an (m, n) array; nan where undefined."""
        if self._vec is None:
            vec = compile_vectorized(self.body, self.dimension)

            def safe(points):
                with np.errstate(all="ignore"):
                    return vec(np.asarray(points, dtype=float))

            self._vec = safe
        return self._vec


class CallableField:
    """Duck-typed scalar field backed by a generic evaluation function.

    ``fn`` must accept a sequence of floats or duals and use only arithmetic
    supported by both (this is how composite fields such as pullback one-form
    components stay differentiable).
    """

    def __init__(self, dimension, fn, label="<callable>"):
        self.dimension = dimension
        self._fn = fn
        self.source = label

    def __repr__(self):
        return f"CallableField({self.source!r}, n={self.dimension})"

    def _call(self, coords):
        return self._fn(coords)

    def eval(self, point) -> float:
        out = self._fn([float(c) for c in point])
        v = _value_of(out)
        if not math.isfinite(v):
            raise NonFiniteResult(f"at point {tuple(point)}")
        return v

    __call__ = eval

    def grad(self, point) -> np.ndarray:
        return _dual_gradient(self._fn, self.dimension, point)

    def value_and_grad(self, point):
        return self.eval(point), self.grad(point)

    def vectorized(self):
        def loop(points):
            points = np.asarray(points, dtype=float)
            out = np.empty(points.shape[0])
            for i, row in enumerate(points):
                try:
                    out[i] = self.eval(row)
                except (DomainError, NonFiniteResult):
                    out[i] = np.nan
            return out

        return loop

