"""Sweep branches, chart flows, certification shells' Newton steps and a
curved metric's factors at many points in C, with the bits of the Python
stepper, the numpy loop and the scalar kernel.

One fixed C source holds ``dynamics._solve_branch``'s try loop: the DOP853
tableau, emitted from ``dynamics._A`` and summed in ``_stepper``'s order,
scipy's controller, the gated cap, the ``nextafter`` minimum step, the try
budget, the grid times and the interpolant's states there, its D rows
emitted from ``dynamics._D`` and summed in ``_interpolant``'s order, and
for flow rows Hairer's starting step in ``_initial_step``'s order. Its
right-hand side interprets a register program (``program``), a motion or
flow kernel's ``expr`` walk rendered once more, on the libm that Python's
``math`` calls; on a curved metric the metric's factor program runs first
(``chain``). ``lend`` lends it a branch's state, which it steps on into
``_solve_branch``'s rows and grid states; ``solve_rows`` starts and steps
all of a chart's flow rows, uncapped and with no grid times, in one call. A
check, guard or finiteness test of the Python kernel, a zero divisor, a
libm result, norm or error estimate that is not finite, an underflow or a
spent budget makes the loop decline: a row at its start, which ``dynamics``
solves alone, or a try, handing back the state as the Python try loop holds
it at the top of that try; ``dynamics`` makes that step, which raises or
goes on. ``newton`` runs ``certify._project``'s Newton steps over a
numpy-exact program of U's value and gradient, declining a start where it
bails, for the numpy loop. ``program_rows`` runs a program once at each of
many points, writing only the outputs it picks and declining a point where
it bails, for the kernel's own call there: ``MetricSpec.rows`` takes g and
g^-1 at a shell's points from the factor program so.

The C entry points, each over the one interpreter ``rhs``, and the
functions here that call them: ``dop853_branch`` (``lend``),
``dop853_rows`` (``solve_rows``), ``newton_rows`` (``newton``) and
``program_rows`` (of the same name).

``library`` loads the built source from a per-user cache, where ``cc``
from PATH builds it the first time; None where that fails, and every
branch steps in Python.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import shutil
from tempfile import TemporaryDirectory

import numpy as np

from .expr import _literal

COMPILE = ("-std=c99", "-O1", "-ffp-contract=off", "-fPIC", "-shared")
# the register program's operations, by the form of their emitted line
_OPS = {"({} + {})": 0, "({} - {})": 1, "({} * {})": 2, "({} / {})": 3,
        "-{}": 4, "({}) ** {}": 5, "sqrt({})": 6, "exp({})": 7, "ln({})": 8,
        "sin({})": 9, "cos({})": 10,  # the last six call libm
        "{} <= 0.0": 11, "{} < 0.0": 12, "{} == 0.0": 13,  # bails
        "not {} < {} < inf": 14}

_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <string.h>
#if FLT_EVAL_METHOD != 0
#error "every double operation must round to double"
#endif

typedef struct { const int *code, *out; long n, nout, m; double *r; long in; }
    rhs_t;

/* dy = f(y), the m outputs of the register program over the in floats y,
   whose out[m:] the Python kernel tests for finiteness; 1 where that kernel
   may raise */
static int rhs(const rhs_t *f, const double *y, double *dy)
{
    const int *c = f->code, *end = c + 4 * f->n;
    double *r = f->r, v, tested = 0.0;
    long i;
    memcpy(r, y, f->in * sizeof *y);
    for (; c < end; c += 4) {
        double a = r[c[2]], b = r[c[3]];
        switch (c[0]) {
        case 0: v = a + b; break;
        case 1: v = a - b; break;
        case 2: v = a * b; break;
        case 3: if (b == 0.0) return 1; v = a / b; break;
        case 4: v = -a; break;
        case 5: /* as CPython's float ** takes an integral exponent */
            v = pow(a < 0.0 ? -a : a, b);
            if (a < 0.0 && fmod(b, 2.0) != 0.0) v = -v;
            break;
        case 6: v = sqrt(a); break;
        case 7: v = exp(a); break;
        case 8: v = log(a); break;
        case 9: v = sin(a); break;
        case 10: v = cos(a); break;
        case 11: if (a <= 0.0) return 1; continue;
        case 12: if (a < 0.0) return 1; continue;
        case 13: if (a == 0.0) return 1; continue;
        default: if (!(a < b && b < INFINITY)) return 1; continue;
        }
        if (c[0] >= 5 && !isfinite(v)) return 1;
        r[c[1]] = v;
    }
    for (i = 0; i < f->m; i++) dy[i] = r[f->out[i]];
    for (; i < f->nout; i++)  /* x * 0.0 is nan just where x is not finite */
        tested += r[f->out[i]] * 0.0;
    return tested != 0.0;
}

#define K(s) (k + (s) * m)

/* K(s) = f(z), z = y + (row s of the tableau's sum of K) * h; 1 on a bail */
static int stage(const rhs_t *f, const double *y, double h, double *k,
                 double *z, int s)
{
    long i, m = f->m;
    switch (s) {
@STAGES@
    }
    return rhs(f, z, K(s));
}

/* k1 = f(y) and Hairer's starting step h_abs, as _initial_step takes them,
   with z and k2 for scratch; 1 where f bails or k1 or a norm is not
   finite. par as dop853_branch's. */
static int start(const rhs_t *f, const double *par, const double *y,
                 double *k1, double *h_abs, double *z, double *k2)
{
    long i, m = f->m;
    double d0 = 0.0, d1 = 0.0, d2 = 0.0, h0, h1, root = pow(m, 0.5);
    double span = fabs(par[0]);
    if (rhs(f, y, k1)) return 1;
    for (i = 0; i < m; i++) {
        double s = par[3] + fabs(y[i]) * par[2], a = y[i] / s, b = k1[i] / s;
        if (!isfinite(k1[i])) return 1;
        d0 += a * a;
        d1 += b * b;
    }
    d0 = sqrt(d0) / root;
    d1 = sqrt(d1) / root;
    h0 = d0 < 1e-5 || d1 < 1e-5 ? 1e-6 : 0.01 * d0 / d1;
    if (span < h0) h0 = span;
    for (i = 0; i < m; i++) z[i] = y[i] + h0 * par[5] * k1[i];
    if (rhs(f, z, k2)) return 1;
    for (i = 0; i < m; i++) {
        double s = par[3] + fabs(y[i]) * par[2], c = (k2[i] - k1[i]) / s;
        d2 += c * c;
    }
    d2 = sqrt(d2) / root / h0;
    if (!isfinite(d0 + d1 + d2)) return 1;
    if (d1 <= 1e-15 && d2 <= 1e-15) h1 = h0 * 1e-3 > 1e-6 ? h0 * 1e-3 : 1e-6;
    else h1 = pow(0.01 / (d2 > d1 ? d2 : d1), 0.125);
    *h_abs = 100 * h0;  /* the least of four, as Python's min takes it */
    if (h1 < *h_abs) *h_abs = h1;
    if (span < *h_abs) *h_abs = span;
    if (par[1] < *h_abs) *h_abs = par[1];
    return 0;
}

enum { TRIES, REJECTED, INTERPOLATED, LIVE, NEXT, RETRIED, ROWS };

/* Steps st = (t, y, K(0), h_abs) on to par[0] = t_end: 0 there, 1 at the
   top of a step with nrows rows filled, -1 at the top of a try that the
   Python stepper must make, st and cnt as its try loop holds them there;
   a try's counts and h_abs are written once it is decided. par = (t_end,
   max_step, rtol, atol, budget, direction); cnt as the enum above, ROWS
   the rows filled so far. Each accepted step goes to rows as (t, y) where
   nrows is not 0, and one that reaches grid times writes its 7th-order
   interpolant there to their rows of states, each m floats, summed as
   dynamics._interpolant sums it. */
long dop853_branch(const int *code, long size, double *r, const int *out,
                   long nout, long m, double *st, long *cnt, const double *par,
                   const double *grid, long ngrid, double *rows,
                   long nrows, double *states, double *k)
{
    rhs_t f = {code, out, size, nout, m, r, m};
    double *t = st, *y = st + 1, *k1 = y + m, *h_abs = k1 + m;
    double *z = K(16), *yn = z + m, t_end = par[0], cap = par[1];
    double dir = par[5];
    long i, j, s, end, live;
    while (dir * (*t - t_end) < 0) {
        double min_step = 10 * fabs(nextafter(*t, dir * INFINITY) - *t);
        double t_new, h, err, e5, e3, factor;
        if (nrows && cnt[ROWS] == nrows) return 1;
        cnt[RETRIED] = 0;
        if (cnt[LIVE] && *h_abs > cap) *h_abs = cap;
        else if (*h_abs < min_step) *h_abs = min_step;
        for (;;) {
            if (*h_abs < min_step || cnt[TRIES] >= par[4]) return -1;
            t_new = *t + *h_abs * dir;
            if (dir * (t_new - t_end) > 0) t_new = t_end;
            h = t_new - *t;
            memcpy(K(0), k1, m * sizeof *k);
            for (s = 1; s <= 12; s++)  /* z is y_new at s = 12 */
                if (stage(&f, y, h, k, s == 12 ? yn : z, s)) return -1;
            for (i = 0, e5 = e3 = 0.0; i < m; i++) {
                double a = fabs(y[i]), b = fabs(yn[i]);
                double scale = par[3] + (a > b ? a : b) * par[2];
                double p = (@E5@) / scale, q = (@E3@) / scale;
                e5 += p * p;
                e3 += q * q;
            }
            err = e5 + 0.01 * e3;
            err = err != 0.0 ? fabs(h) * e5 / sqrt(err * m) : 0.0;
            for (s = 0, live = cnt[LIVE]; s < 13 && !live; s++)
                for (i = m / 2; i < m; i++) live |= K(s)[i] != 0.0;
            factor = @SAFETY@ * pow(err, @EXPONENT@);
            if (!cnt[LIVE] && live && fabs(h) > cap) *h_abs = cap;
            else if (err < 1) break;
            else if (!isfinite(err)) return -1;
            else {
                *h_abs = fabs(h) * (factor > @MIN_FACTOR@ ? factor
                                                          : @MIN_FACTOR@);
                cnt[RETRIED] = 1;
            }
            cnt[TRIES]++;
            cnt[REJECTED]++;
            cnt[LIVE] = live;
        }
        for (end = cnt[NEXT]; end < ngrid && dir * grid[end] <= dir * t_new;)
            end++;
        if (end > cnt[NEXT]) {  /* the interpolant's three extra stages */
            for (s = 13; s <= 15; s++)
                if (stage(&f, y, h, k, z, s)) return -1;
            for (i = 0; i < m; i++) {  /* its rows, then each state */
                double d0 = yn[i] - y[i], d1 = h * K(0)[i] - d0;
                double d2 = 2.0 * d0 - h * (K(12)[i] + K(0)[i]);
                double d3 = h * (@D0@), d4 = h * (@D1@);
                double d5 = h * (@D2@), d6 = h * (@D3@);
                for (j = cnt[NEXT]; j < end; j++) {
                    double x = (grid[j] - *t) / h, w = 1.0 - x;
                    states[j * m + i] = (((((((0.0 + d6) * x + d5) * w + d4)
                        * x + d3) * w + d2) * x + d1) * w + d0) * x + y[i];
                }
            }
            cnt[INTERPOLATED]++;
            cnt[NEXT] = end;
        }
        if (err == 0 || factor > @MAX_FACTOR@) factor = @MAX_FACTOR@;
        *h_abs = fabs(h) * (cnt[RETRIED] && !(factor < 1.0) ? 1.0 : factor);
        cnt[TRIES]++;
        cnt[LIVE] = live;
        *t = t_new;
        memcpy(y, yn, m * sizeof *y);
        memcpy(k1, K(12), m * sizeof *k);
        if (nrows) {
            rows[cnt[ROWS] * (1 + m)] = *t;
            memcpy(rows + cnt[ROWS]++ * (1 + m) + 1, y, m * sizeof *y);
        }
    }
    return 0;
}

/* certify._project's Newton steps x <- x - (U - t) / |grad U|^2 grad U of
   n rows x, each m - 1 floats and one the program does not read, whose
   outputs are U and grad U: a row stops where U - t is not finite or
   |U - t| <= tol t, or after steps updates, with u its U there; declined
   is 1 where the program bails, and x is then part-way. */
void newton_rows(const int *code, long size, double *r, const int *out,
                 long nout, long m, double *x, const double *t, long n,
                 long steps, double tol, double *u, long *declined,
                 double *dy)
{
    rhs_t f = {code, out, size, nout, m, r, m};
    long i, j, s;
    for (j = 0; j < n; j++, x += m) {
        for (s = 0; !(declined[j] = rhs(&f, x, dy)); s++) {
            double miss = dy[0] - t[j], dot = 0.0;
            if (s == steps || !(isfinite(miss) && fabs(miss) > tol * t[j]))
                break;
            for (i = 1; i < m; i++) dot += dy[i] * dy[i];  /* a left fold */
            for (i = 1; i < m; i++) x[i - 1] -= miss / dot * dy[i];
        }
        u[j] = dy[0];
    }
}

/* The register program at each of n rows x, each of in floats: a row's m
   outputs to its row of y, each m floats, and declined 1 where rhs bails,
   that row of y then written in part or not at all. */
void program_rows(const int *code, long size, double *r, const int *out,
                  long nout, long m, const double *x, long in, long n,
                  double *y, long *declined)
{
    rhs_t f = {code, out, size, nout, m, r, in};
    long j;
    for (j = 0; j < n; j++)
        declined[j] = rhs(&f, x + j * in, y + j * m);
}

/* Each of n rows' states st, (0, y, room for K(0) and h_abs), started and
   stepped by dop853_branch with its par, uncapped and with no grid times
   or rows: a row's y becomes its state at t_end, and status its loop's 0,
   or -1 where the Python stepper must decide. */
void dop853_rows(const int *code, long size, double *r, const int *out,
                 long nout, long m, double *st, const double *par, long n,
                 long *status, double *k)
{
    rhs_t f = {code, out, size, nout, m, r, m};
    long j;
    for (j = 0; j < n; j++, st += 2 + 2 * m, par += 6) {
        long cnt[] = {0, 0, 0, 1, 0, 0, 0};  /* live: no cap waits */
        status[j] = start(&f, par, st + 1, st + 1 + m, st + 1 + 2 * m, k,
                          k + m)
            ? -1 : dop853_branch(code, size, r, out, nout, m, st, cnt, par,
                                 NULL, 0, NULL, 0, NULL, k);
    }
}
"""


def _sum(row):
    """sum_j c_j K(j)[i] over a tableau row, in order, as C."""
    return " + ".join(f"K({j})[i] * {c!r}" for j, c in row.items())


def source():
    """The C source, with ``dynamics``' tableau and controller constants;
    row 12 of the tableau, the weights, gives y_new (h c = c h in
    floats)."""
    from . import dynamics as d

    stages = "".join(
        f"    case {s}: for (i = 0; i < m; i++) z[i] = y[i] + ({_sum(row)})"
        " * h; break;\n" for s, row in enumerate(d._A, start=1))
    values = {"STAGES": stages, "E5": _sum(d._E5), "E3": _sum(d._E3),
              "SAFETY": d.SAFETY, "MIN_FACTOR": d.MIN_FACTOR,
              "MAX_FACTOR": d.MAX_FACTOR, "EXPONENT": d.ERROR_EXPONENT,
              **{f"D{r}": _sum(row) for r, row in enumerate(d._D)}}
    text = _SOURCE
    for key, value in values.items():
        text = text.replace(f"@{key}@", str(value).rstrip("\n"))
    return text


@functools.cache
def library():
    """The compiled loops, ``dop853_branch``, ``dop853_rows``,
    ``newton_rows`` and ``program_rows``, loaded once per process from
    ``instab`` in ``$XDG_CACHE_HOME`` or ``~/.cache``, named by the CRC-32
    and Adler-32 of the source, the real path, size and mtime of ``cc`` and
    ``COMPILE``; built there where missing, unloadable or writable by
    others, else in a temporary directory; None where no ``cc`` is on PATH
    or all fails."""
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    import subprocess  # only where a branch may be stepped in C
    import zlib

    run = functools.partial(subprocess.run, check=True, capture_output=True,
                            timeout=60)
    try:
        real = os.path.realpath(compiler)
        status = os.stat(real)
    except OSError:
        return None
    key = repr((source(), real, status.st_size, status.st_mtime_ns,
                COMPILE)).encode()
    name = f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.expanduser("~/.cache"), "instab")
    for home, build in ((cache, False), (cache, True), (None, True))[
            0 if os.path.isabs(cache) else 2:]:
        try:
            with contextlib.ExitStack() as stack:
                home = home or stack.enter_context(TemporaryDirectory())
                obj = os.path.join(home, f"dop853-{name}.so")
                if build:  # in a directory of its own, then moved on
                    os.makedirs(home, exist_ok=True)
                    built = os.path.join(stack.enter_context(
                        TemporaryDirectory(dir=home)), "dop853.so")
                    run([compiler, *COMPILE, "-o", built, "-x", "c", "-",
                         "-lm"], input=source().encode())
                    os.chmod(built, 0o755)
                    os.replace(built, obj)
                status = os.stat(obj)  # loaded only if no other may write it
                if status.st_uid == os.getuid() and not status.st_mode & 0o022:
                    lib = ctypes.CDLL(obj)
                    (lib.dop853_branch, lib.dop853_rows, lib.newton_rows,
                     lib.program_rows)
                    break
        except (OSError, AttributeError, subprocess.SubprocessError):
            continue  # a full or unwritable cache fails the build too
    else:
        return None
    pointer, size = ctypes.c_void_p, ctypes.c_long
    program = [pointer, size, pointer, pointer, size, size, pointer]
    lib.dop853_branch.argtypes = program + [pointer, pointer, pointer, size,
                                            pointer, size, pointer, pointer]
    lib.dop853_branch.restype = size
    lib.dop853_rows.argtypes = program + [pointer, size, pointer, pointer]
    lib.dop853_rows.restype = None
    lib.newton_rows.argtypes = program + [pointer, size, size,
                                          ctypes.c_double] + [pointer] * 3
    lib.newton_rows.restype = None
    lib.program_rows.argtypes = program + [size, size, pointer, pointer]
    lib.program_rows.restype = None
    return lib


def program(ops, symbols, tested, inputs):
    """``compile_kernel``'s walk as a register program over as many p[i]
    as outputs, then its ``inputs`` q{j}, from its ``_Emitter`` ``ops``,
    output ``symbols`` and the symbols it tests for finiteness: rows of
    (operation, target, a, b) register indices, the registers, p and q
    first, with the numbers in place, the registers of the outputs, then
    of the tested symbols, ``inputs``, and whether it is numpy-exact: made
    of operations whose numpy rendering rounds as C does, none that calls
    libm but sqrt; None where an op has no operation here."""
    registers = {f"p[{i}]": i for i in range(len(symbols))}
    registers.update({f"q{j}": len(symbols) + j for j in range(inputs)})

    def register(symbol):
        return registers.setdefault(symbol, len(registers))

    code = []
    for form, operands, target in ops:
        if form not in _OPS:
            return None
        a, b = [register(s) for s in operands] + [0] * (2 - len(operands))
        code.append((_OPS[form], 0 if target is None else register(target),
                     a, b))
    out = np.array([register(s) for s in [*symbols, *tested]], dtype=np.intc)
    values = np.array([float(s) if _literal(s) else 0.0 for s in registers])
    exact = all(op not in (5, 7, 8, 9, 10) for op, *_ in code)
    return (np.array(code, dtype=np.intc).reshape(-1, 4), values, out, inputs,
            exact)


def chain(factors, motion, n):
    """The metric's factor program ``factors``, then the curved motion
    program ``motion``, as one over 2n floats and (-1/eps^2, 1/eps): the
    factors' registers follow, their p[:n] read x, and the motion's other
    inputs read their g^-1 and Gamma; each op keeps its operands and
    order, and each test stays. None where either is None."""
    if factors is None or motion is None:
        return None
    f_code, f_values, f_out, _, f_exact = factors
    m_code, m_values, m_out, inputs, m_exact = motion
    half = n * n + n ** 3  # the outputs of g and dg, then of g^-1 and Gamma
    f_map = np.arange(len(f_values)) + len(m_values)
    f_map[:n] = range(n)
    m_map = np.arange(len(m_values))
    m_map[2 * n + 2:2 * n + inputs] = f_map[f_out[half:2 * half]]
    code = np.concatenate([f_code, m_code])
    code[:len(f_code), 1:] = f_map[f_code[:, 1:]]
    code[len(f_code):, 1:] = m_map[m_code[:, 1:]]
    out = np.concatenate([m_map[m_out], f_map[f_out[2 * half:]]])
    return (code, np.concatenate([m_values, f_values]), out.astype(np.intc),
            2, f_exact and m_exact)


def _call(function, program, m, registers, *buffers):
    """``function`` of a register ``program`` over states of m floats, in
    ``registers``, a copy of its own, then ``buffers``, each array by the
    address of its data."""
    code, _, out, *_ = program
    args = (code, len(code), registers, out, len(out), m, *buffers)
    return function(*[a.ctypes.data if isinstance(a, np.ndarray) else a
                      for a in args])


def lend(f, arg, m, par, grid, rows, states):
    """``dop853_branch`` over ``f``'s register program for a branch of m
    floats, with its ``par`` and ``grid``, a list of times, filling its
    ``rows`` and writing its ``states`` at the grid times, and
    ``arg.inputs`` if it reads any: ``run(t, y, k1, h_abs, tries, rejected,
    interpolated, live, next, retried, filled)`` lends the loop a state of
    ``dynamics._solve_branch``'s and returns the loop's status, then that
    state as the loop leaves it; None where ``f`` has no register program or
    the loop is not built."""
    lib = getattr(f, "program", None) and library()
    if not lib:
        return None
    _, values, _, inputs, _ = f.program
    registers = values.copy()  # the branch's, its inputs written once
    registers[m:m + inputs] = arg.inputs if inputs else ()
    state, counts = np.empty(2 + 2 * m), np.empty(7, dtype=np.int_)
    buffers = (state, counts, np.array(par), np.array(grid), len(grid),
               rows, len(rows), states, np.empty(18 * m))

    def run(t, y, k1, h_abs, *count):
        state[:] = (t, *y, *k1, h_abs)
        counts[:] = count
        status = _call(lib.dop853_branch, f.program, m, registers, *buffers)
        t, *values, h_abs = state.tolist()
        return (status, t, tuple(values[:m]), tuple(values[m:]), h_abs,
                *counts.tolist())
    return run


def solve_rows(f, y0, params):
    """The end states of ``dynamics._solve_branch(f, arg, row, t, tol,
    inf)`` for each row of ``y0``, (N, m), with its ``lend`` par in
    ``params``, started and stepped by the compiled loop in one call, and
    the mask of the rows it declines, which ``_solve_branch`` solves: every
    row where ``f`` has no register program or the loop is not built."""
    lib = getattr(f, "program", None) and library()
    n, m = y0.shape
    if not lib:
        return y0.copy(), np.ones(n, dtype=bool)
    states = np.zeros((n, 2 + 2 * m))  # t, y, K(0), h_abs
    states[:, 1:1 + m] = y0
    status = np.empty(n, dtype=np.int_)
    _call(lib.dop853_rows, f.program, m, f.program[1].copy(), states,
          np.array(params), n, status, np.empty(18 * m))
    return states[:, 1:1 + m], status < 0


def newton(fld, points, targets, steps, tol):
    """``certify._project``'s Newton steps of each row of ``points``, (N,
    n), toward U = ``targets`` in one ``newton_rows`` call over the
    register program of U, ``fld``: the rows' end points and U there, and
    the mask of the rows the loop declines. Where that program is not
    numpy-exact or the loop is not built, it declines every row and
    returns ``points`` itself, unstepped and uncopied."""
    u_program = fld.program(program)
    lib = u_program and u_program[4] and library()
    rows, n = points.shape
    if not lib:
        return points, np.empty(rows), np.ones(rows, dtype=bool)
    # a spare p[n]: U's program reads as many p as it has outputs, n + 1
    x = np.pad(np.asarray(points, dtype=float), [(0, 0), (0, 1)])
    u, declined = np.empty(rows), np.ones(rows, dtype=np.int_)
    _call(lib.newton_rows, u_program, n + 1, u_program[1].copy(), x,
          np.ascontiguousarray(targets, dtype=float), rows, steps, tol, u,
          declined, np.empty(n + 1))
    return x[:, :n], u, declined.astype(bool)


def program_rows(f, points, picks, stop):
    """The outputs ``picks``, indices, of ``f``'s register program, whose
    outputs end at ``stop`` in its out and the symbols it tests follow,
    at each row of ``points``, (N, n), from one ``program_rows`` call: an
    (N, len(picks)) array, nan in the rows the loop declines, and their
    mask; every row where ``f`` has no register program or the loop is not
    built."""
    lib = getattr(f, "program", None) and library()
    rows, n = points.shape
    values = np.full((rows, len(picks)), np.nan)
    declined = np.ones(rows, dtype=np.int_)
    if lib:
        code, registers, out, *rest = f.program
        _call(lib.program_rows, (code, registers, np.concatenate(
            [out[picks], out[stop:]]), *rest), len(picks), registers.copy(),
            np.ascontiguousarray(points, dtype=float), n, rows, values,
            declined)
    declined = declined.astype(bool)
    values[declined] = np.nan  # a declined row may be part-written
    return values, declined
