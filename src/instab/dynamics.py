"""Euler-Lagrange dynamics of the (rescaled) magnetic Lagrangian.

The Lagrangian is kinetic energy plus a gyroscopic one-form term minus a
potential; in the rescaled variant the one-form carries a 1/eps factor and
the potential 1/eps^2. The integrator is an in-repo adaptive Dormand-Prince
5(4) pair with scipy RK45's tableau, initial step, RMS error norm and step
controller, and a step cap of eps/10 for rescaled systems, since the
transverse oscillation frequency scales like 1/eps. The cap takes effect
at a branch's first live try, one where some stage's acceleration is
nonzero: on a valley of U, where the rescaled force is exactly zero, there
is no oscillation to resolve, and the straight-line steps grow freely. An
explicit ``Tolerances.max_step`` is a hard cap from the first step. It
steps on plain floats: the stage arithmetic is generated once per state
size, and the quartic dense output is evaluated only at the uniform grid
times. The same stepper solves the chart flows (``charts``), uncapped and
without grid times, keeping only the end state. A branch that spends its
step budget, as against a stiff wall, raises instead of shrinking its
steps without bound. Every run reduces its conserved energy, speed,
potential and step sizes to the energy drift, the largest speed and U and
the step counters; U and g(v, v) are evaluated once per step row. An
untrustworthy energy drift raises instead of being silently accepted.

Each branch gathers its accepted steps in short lists and seals every
BLOCK_ROWS of them into a float64 block, reduced at once (``_BranchLog``)
with the interpolants of the steps that reach grid times, so no state,
energy or interpolant outlives its block, and every number keeps the bits
of one pass over the joined log. A run keeps its step times, 8 bytes per
accepted step; a run made with ``keep_log`` also writes each block's
states, energies, U and speeds to a temporary file, 8 (2n + 4) bytes per
step on disk, read back a block at a time for its path length and CSV.
The counters that read the log, the smallest unclipped step, the steps at
the cap and the tau of the largest energy deviation, go into the run's
``stats``.

On a Euclidean metric the equations of motion are ASTs over dU and the
form's ``field_strength``, compiled by ``expr.compile_kernel`` once per
potential, one-form and epsilon; they raise the fields' own errors. On a
curved metric every stage calls ``el_acceleration``, which reads dU, the
magnetic tensor and the metric from one generated call each: the
metric's call gives g^-1 and the Christoffel symbols together, from a
Cholesky factorization in generated code (see ``geometry``). Straight-line
generated code, one function per dimension, form present and metric
curved (``_contraction``), contracts them into the force and the
acceleration, summing the gyroscopic term in the kernel's order.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import tempfile
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    EnergyDriftExceeded,
    IntegrationError,
    NonFiniteResult,
    StepSizeUnderflow,
    format_point,
)
from .expr import (
    Bin,
    Num,
    Var,
    compile_kernel,
    define_scalar,
    derivative,
    sum_nodes,
)
from .geometry import field_strength, magnetic_tensor

GRID_POINTS = 513  # uniform tau samples over [-T, T], including tau = 0
BLOCK_ROWS = 512  # accepted steps per float64 block of a branch's log
CAP_RELATIVE = 1e-9  # a step within this share of the cap counts as capped
ENERGY_DRIFT_GATE = 1e-6  # criterion 1's bound on the relative energy drift


@dataclass
class LagrangianSystem:
    metric: object
    potential: object
    magnetic: object | None = None
    epsilon: float | None = None  # None marks the unscaled system

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @functools.cached_property
    def inv_eps(self):
        return 1.0 if self.epsilon is None else 1.0 / self.epsilon


@dataclass
class State:
    tau: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("state entries must be finite")


@dataclass
class Tolerances:
    abs: float = 1e-10
    rel: float = 1e-10
    # a hard cap from the first step if set; the eps/10 default waits for
    # the first try with a nonzero acceleration
    max_step: float | None = None

    def __post_init__(self):
        if not (0 < self.abs < math.inf and 0 < self.rel < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be positive")


def el_acceleration(system, state) -> np.ndarray:
    """Coordinate acceleration of the Euler-Lagrange equations.

    a^a = -Gamma^a_{mn} v^m v^n - (1/eps) g^{ab} F_{gb} v^g
          - (1/eps^2) g^{ab} d_b U
    with F_{ab} the magnetic tensor of the one-form, contracted by
    ``_contraction``. The sign of the gyroscopic term is pinned by the
    adapted-coordinate residual test in the test suite.
    """
    x, v = state.x, state.v
    metric = system.metric
    _, du = system.potential.value_and_grad(x)
    f_tensor = ginv = gamma = None
    if system.magnetic is not None:
        f_tensor = magnetic_tensor(system.magnetic, x)
    if not metric.euclidean:
        ginv = metric.inverse(x)
        gamma = metric.christoffel(x)
    contract = _contraction(len(x), f_tensor is not None, ginv is not None)
    return np.array(contract(system.inv_eps, v, du, f_tensor, ginv, gamma))


def _unpacked(symbol, *shape):
    """The names ``symbol`` + index of the entries of an array of
    ``shape``, in row-major order, as an assignment target."""
    return "".join(f"{symbol}{'_'.join(map(str, index))}, "
                   for index in itertools.product(*map(range, shape)))


@functools.cache
def _contraction(n, magnetic, curved):
    """``contract(e, v, du, F, g^-1, Gamma)``, the acceleration as a tuple,
    in straight-line code over n coordinates, with e = 1/eps.

    The force is w_b = -e^2 d_b U - e sum_{a != b} F_ab v^a, the
    gyroscopic sum over a in ``_motion_kernel``'s order; on a curved metric
    the acceleration is sum_b g^ab w_b - sum_m (sum_k Gamma^a_mk v^k) v^m,
    as ``ginv.dot(w) - gamma.dot(v).dot(v)`` arranges it, and else w.
    """
    idx = range(n)
    lines = [f"{_unpacked('v', n)}= v.tolist()",
             f"{_unpacked('du', n)}= du.tolist()",
             "ee = -(e * e)"]
    if magnetic:
        lines.append(f"{_unpacked('f', n, n)}= f.ravel().tolist()")
    for b in idx:
        gyro = " + ".join(f"f{a}_{b} * v{a}" for a in idx if a != b)
        lines.append(f"w{b} = ee * du{b}"
                     + (f" - e * ({gyro})" if magnetic and gyro else ""))
    acc = [f"w{b}" for b in idx]
    if curved:
        lines += [f"{_unpacked('g', n, n)}= ginv.ravel().tolist()",
                  f"{_unpacked('c', n, n, n)}= gamma.ravel().tolist()"]
        acc = []
        for a in idx:
            raised = " + ".join(f"g{a}_{b} * w{b}" for b in idx)
            geodesic = " + ".join(
                "(" + " + ".join(f"c{a}_{m}_{k} * v{k}" for k in idx)
                + f") * v{m}" for m in idx)
            acc.append(f"({raised}) - ({geodesic})")
    src = ("def _contract(e, v, du, f, ginv, gamma):\n"
           + "".join(f"    {line}\n" for line in lines)
           + f"    return ({''.join(f'{term}, ' for term in acc)})\n")
    return define_scalar("_contract", src)


def _energy_rows(system, x, v):
    """(H, U, g(v, v)) over (m, n) rows of positions and velocities, each
    evaluated once, with H = g(v, v)/2 + U/eps^2 the conserved energy (the
    magnetic force does no work). U is nan where its ``value_and_grad``
    raises; see ``_bad_rows``.
    """
    u = system.potential.vectorized()(x)[0]
    vv = system.metric.inner(x, v, v)
    return 0.5 * vv + system.inv_eps ** 2 * u, u, vv


def _bad_rows(u):
    """Where the potential values ``u`` are negative or undefined (nan)."""
    return ~(u >= -1e-12)


def _potential_error(system, point):
    """The DomainError of a point where U is negative; U's own error where
    it is undefined."""
    value = system.potential.eval(point)  # raises where U is undefined
    return DomainError(
        f"potential is negative ({value:.3e}) at {format_point(point)}")


@dataclass
class BoundsVerdict:
    passed: bool
    speed_margin: float
    potential_margin: float


class _Spill:
    """float64 tables of ``width`` columns in an anonymous temporary file,
    appended whole and read back by offset; the file is closed when the
    spill is let go, also by a run that raises."""

    def __init__(self, width):
        self.file, self.width = tempfile.TemporaryFile(), width
        weakref.finalize(self, self.file.close)

    def write(self, table):
        offset = self.file.seek(0, os.SEEK_END)
        self.file.write(table)
        return offset

    def read(self, offset, rows):
        table = np.empty((rows, self.width))
        self.file.seek(offset)
        self.file.readinto(table)
        return table


def _arc_lengths(tables, origin=0.0):
    """The (tau, ..., |v|_g) tables of consecutive blocks in increasing tau,
    each with its speed column replaced by |c - origin|, c the arc length
    from the first row: the trapezoid rule's running sum, each block
    carrying the row before it, so every value has the bits of one pass
    over the joined log."""
    tail = (np.empty(0), np.empty(0), 0.0)  # no row before the first
    for table in tables:
        times, speeds = table[:, 0], table[:, -1]
        t_prev, s_prev, c_prev = tail
        dt = np.diff(np.concatenate([t_prev, times]))
        pairs = np.concatenate([s_prev, speeds])
        seg = 0.5 * (pairs[:-1] + pairs[1:]) * dt
        path = np.cumsum(np.concatenate([[c_prev], seg]))[-len(times):]
        tail = (times[-1:], speeds[-1:].copy(), path[-1])
        table[:, -1] = np.abs(path - origin)
        yield table


@dataclass
class Trajectory:
    """Time-sampled solution on [-T, T] with its monitor logs.

    ``times`` merges both branches' accepted steps in increasing tau order,
    tau = 0 once per branch; ``grid_times``/``grid_states`` are the uniform
    dense-output samples used for cross-run comparisons. The step times are
    kept as ``blocks``, float64 arrays of at most BLOCK_ROWS rows in
    increasing tau; ``times`` joins them on each read. A run made with
    ``keep_log`` also has ``log``: the blocks' (tau, x, v, H, U, |v|_g) rows
    in a temporary file, their offsets in the order of ``blocks``, and the
    number of blocks up to the backward branch's tau = 0. ``states`` (rows
    (x, v) of length 2n), ``energies``, ``path_length`` and ``to_csv`` read
    it back a block at a time. ``stats`` holds the run's ``nfev``,
    ``steps``, ``rejected``, ``min_step`` (the smallest |dtau| over the
    accepted steps but the last of each branch, clipped to land on -T or T;
    None when there is none), ``capped_steps`` (steps within CAP_RELATIVE
    of the step cap) and ``drift_peak_tau`` (the first tau of max
    |E - E(0)|).
    """

    epsilon: float | None
    horizon: float
    blocks: list
    grid_times: np.ndarray
    grid_states: np.ndarray
    energy_drift: float
    max_speed: float
    max_potential: float
    stats: dict = field(default_factory=dict)
    log: tuple | None = None

    @property
    def times(self):
        return np.concatenate(self.blocks)

    def _tables(self, name):
        """The log's blocks in increasing tau as (rows, 2n + 4) tables of
        tau, x, v, H, U and the path length from tau = 0, read one at a
        time; the blocks up to tau = 0 are read twice."""
        if self.log is None:
            raise ValueError(f"the run kept no {name}: integrate it with "
                             "keep_log=True")
        spill, offsets, origin = self.log
        blocks = [(offset, len(times))
                  for offset, times in zip(offsets, self.blocks)]
        for table in _arc_lengths(spill.read(*block)
                                  for block in blocks[:origin]):
            c0 = table[-1, -1]  # the arc length from -T to tau = 0
        return _arc_lengths((spill.read(*block) for block in blocks), c0)

    def _column(self, columns, name):
        return np.concatenate([table[:, columns]
                               for table in self._tables(name)])

    @property
    def states(self):
        return self._column(slice(1, 1 + 2 * self.dimension), "states")

    @property
    def energies(self):
        return self._column(1 + 2 * self.dimension, "energies")

    @property
    def path_length(self):
        """Riemannian arc length accumulated from tau = 0."""
        return self._column(-1, "path length")

    @property
    def dimension(self):
        return self.grid_states.shape[1] // 2

    def to_csv(self, fileobj):
        """One row per accepted step, written block by block."""
        n = self.dimension
        header = (["tau"] + [f"x{i+1}" for i in range(n)]
                  + [f"v{i+1}" for i in range(n)] + ["H", "U", "pathlen"])
        tables = self._tables("CSV rows")
        fileobj.write(",".join(header) + "\n")
        for table in tables:
            fileobj.writelines(",".join(map(repr, cells)) + "\n"
                               for cells in table.tolist())


# --- equations of motion --------------------------------------------------

def _reference_stage(y, system):
    """dy/dtau = (v, a) at the state y = (x, v) from ``el_acceleration``."""
    n = len(y) // 2
    state = State.__new__(State)
    state.tau = None  # the equations are autonomous
    row = np.array(y)
    state.x, state.v = row[:n], row[n:]
    return y[n:] + tuple(el_acceleration(system, state).tolist())


def _motion_kernel(system, fields):
    """a_b = -e^2 d_b U - e sum_a F_ab v^a with e = 1/eps, over U's
    partials and the form's ``field_strength`` without structural zeros."""
    n, e = system.metric.dimension, system.inv_eps
    du = [derivative(system.potential.body, i) for i in range(n)]
    f = [] if system.magnetic is None else field_strength(system.magnetic)
    acc = []
    for b in range(n):
        gyro = [Bin("*", row[b], Var(n + a))
                for a, row in enumerate(f) if row[b] != Num(0.0)]
        term = Bin("*", Num(-(e * e)), du[b])
        acc.append(Bin("-", term, Bin("*", Num(e), sum_nodes(gyro)))
                   if gyro else term)
    return compile_kernel(fields, n, [Var(n + a) for a in range(n)] + acc)


def compile_motion(system):
    """The system's first-order equations as ``f(y, system) -> dy/dtau``.

    ``y`` is the state (x, v) as a tuple of floats, and so is the result.
    On a Euclidean metric it is generated once per potential, one-form and
    epsilon; on a curved metric it wraps ``el_acceleration``.
    """
    if not system.metric.euclidean:
        return _reference_stage
    fields = [system.potential]
    if system.magnetic is not None:
        fields += system.magnetic.components
    key = ("motion", system.epsilon) + tuple(fld.body for fld in fields[1:])
    return system.potential.code(key, _motion_kernel, system, fields)


# --- Dormand-Prince 5(4) --------------------------------------------------

# The Dormand-Prince pair (J. Comput. Appl. Math. 6, 1980) with Shampine's
# quartic dense output (Math. Comp. 46, 1986), in scipy's RK45 arrangement.
_A = ((1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
      -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
SAFETY = 0.9  # times the step the error estimate asks for
MIN_FACTOR = 0.2  # smallest step change after a rejection
MAX_FACTOR = 10.0  # largest step change after an acceptance
ERROR_EXPONENT = -1 / 5  # the embedded 4th-order estimate's error ~ h^5
MIN_RTOL = 100 * np.finfo(float).eps  # smaller relative tolerances are raised
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# A branch may try TRIES_PER_CAPPED_STEP steps per step of its cap over its
# span, and MIN_TRIES whatever its cap, before it gives up: a stiff wall
# would otherwise shrink the steps without bound while the samples pile up.
TRIES_PER_CAPPED_STEP = 100
MIN_TRIES = 20_000


@functools.cache
def _stepper(m):
    """One Dormand-Prince step over a state of m floats, unrolled.

    ``step(f, arg, y, k1, h, rtol, atol)`` takes k1 = f(y, arg) and returns
    the 5th-order state, its derivative, the RMS norm of the embedded error
    scaled by atol + rtol * max(|y|, |y_new|), and the seven stages.
    """
    idx = range(m)

    def combination(coefficients, i):
        return " + ".join(f"k{j + 1}_{i} * {c!r}"
                          for j, c in enumerate(coefficients) if c)

    def unpack(stage):
        return f"    {''.join(f'{stage}_{i}, ' for i in idx)}= {stage}\n"

    src = ("def _step(f, arg, y, k1, h, rtol, atol):\n"
           f"    {''.join(f'y{i}, ' for i in idx)}= y\n" + unpack("k1"))
    for s, row in enumerate(_A, start=2):
        stage = "".join(f"y{i} + ({combination(row, i)}) * h, " for i in idx)
        src += f"    k{s} = f(({stage}), arg)\n" + unpack(f"k{s}")
    src += "".join(f"    n{i} = y{i} + h * ({combination(_B, i)})\n"
                   for i in idx)
    src += (f"    y_new = ({''.join(f'n{i}, ' for i in idx)})\n"
            "    k7 = f(y_new, arg)\n" + unpack("k7"))
    for i in idx:  # max(|y_i|, |n_i|) without calls
        src += (f"    a{i} = y{i} if y{i} > 0.0 else -y{i}\n"
                f"    b{i} = n{i} if n{i} > 0.0 else -n{i}\n"
                f"    e{i} = ({combination(_E, i)}) * h / "
                f"(atol + (a{i} if a{i} > b{i} else b{i}) * rtol)\n")
    src += (f"    error = sqrt({' + '.join(f'e{i} * e{i}' for i in idx)})"
            f" / {m ** 0.5!r}\n"
            "    return y_new, k7, error, (k1, k2, k3, k4, k5, k6, k7)\n")
    return define_scalar("_step", src)


def _initial_step(f, arg, y0, k1, t_end, max_step, rtol, atol):
    """Hairer, Norsett & Wanner's starting step, as scipy's RK45 takes it."""
    def rms(values):
        return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5

    direction = math.copysign(1.0, t_end)
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = rms([y / s for y, s in zip(y0, scale)])
    d1 = rms([k / s for k, s in zip(k1, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end))
    k2 = f(tuple(y + h0 * direction * k for y, k in zip(y0, k1)), arg)
    d2 = rms([(b - a) / s for a, b, s in zip(k1, k2, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, abs(t_end), max_step)


def _dense(steps, times):
    """The grid states from the quartic interpolants of the steps.

    ``steps`` holds (t_old, t_new, y_old, stages, count) for each step that
    reaches ``count`` further grid times, in order.
    """
    t_old, t_new, y_old, stages, counts = zip(*steps)
    index = np.repeat(np.arange(len(steps)), counts)
    start = np.array(t_old)[index]
    h = (np.array(t_new) - np.array(t_old))[index]
    q = np.swapaxes(np.array(stages), 1, 2).dot(_P)[index]  # (m, 4) each
    x = (times - start) / h
    # sum_k q_k x^(k+1) left to right, the same bits for any number of rows
    total, power = 0.0, np.ones_like(x)
    for k in range(4):
        power = power * x
        total = total + q[:, :, k] * power[:, None]
    return h[:, None] * total + np.array(y_old)[index]


class _BranchLog:
    """A branch's step log, reduced one block at a time as the branch seals
    it, so the states, energies and interpolants of a block are let go
    with it.

    ``grid`` holds the grid times in the order the branch passes them. A
    sealed block's rows are put in increasing tau and reduced to the grid
    states its steps reach and to ``peaks``, one (max E, min E, max |v|_g,
    max U, max |E - h0|, first tau of that) per block: every number has the
    bits of one pass over the joined log. ``unclipped`` holds each block's
    smallest step but the branch's last, and ``bad`` the smallest-tau row
    where U is negative or undefined. The step times stay, and with a
    ``spill`` each block's (tau, x, v, H, U, |v|_g) rows go to it, their
    offsets to ``offsets``.
    """

    def __init__(self, system, grid, forward, h0, max_step, spill):
        self.system, self.grid, self.forward = system, grid, forward
        self.h0, self.spill = h0, spill
        # |dt - cap| <= cap * CAP_RELATIVE, and no step reaches an inf cap
        self.low = max_step * (1.0 - CAP_RELATIVE)
        self.high = max_step * (1.0 + CAP_RELATIVE)
        self.times, self.offsets, self.grid_states = [], [], []
        self.peaks, self.unclipped, self.capped = [], [], 0
        self.bad = None
        self.read = 0  # grid times read so far
        self.rejected = self.nfev = 0

    def seal(self, times, states, dense, last=False):
        """Reduce the rows (``times``, ``states``) in step order and the
        ``dense`` steps with them; ``last`` if they end the branch."""
        if dense:
            count = sum(step[-1] for step in dense)
            self.grid_states.append(
                _dense(dense, self.grid[self.read:self.read + count]))
            self.read += count
        if not self.forward:
            times, states = times[::-1], states[::-1]
        times, states = np.array(times), np.array(states)
        n = states.shape[1] // 2
        energies, potentials, speeds = _energy_rows(
            self.system, states[:, :n], states[:, n:])
        np.sqrt(np.maximum(speeds, 0.0, out=speeds), out=speeds)  # |v|_g

        # the steps into the block, the one from the block before included
        if not self.times:
            dt = np.diff(times)
        elif self.forward:
            dt = np.diff(np.concatenate([self.times[-1][-1:], times]))
        else:
            dt = np.diff(np.concatenate([times, self.times[-1][:1]]))
        self.capped += int(np.count_nonzero((dt >= self.low)
                                            & (dt <= self.high)))
        if last:  # the branch's last step, clipped to land on -T or T
            dt = dt[:-1] if self.forward else dt[1:]
        if len(dt):
            self.unclipped.append(dt.min())

        bad = _bad_rows(potentials)
        if bad.any() and (self.bad is None or not self.forward):
            self.bad = states[np.argmax(bad), :n].copy()
        deviation = np.abs(energies - self.h0)
        i = deviation.argmax()
        self.peaks.append((energies.max(), energies.min(), speeds.max(),
                           potentials.max(), deviation[i], times[i]))
        self.times.append(times)
        if self.spill is not None:
            self.offsets.append(self.spill.write(np.column_stack(
                [times, states, energies, potentials, speeds])))


def _where(tau, y):
    return f"at tau = {tau!r}, state {format_point(y)}"


def _naming(message, first_bad):
    """``message``, naming the (tau, state) ``first_bad`` if there is one."""
    if first_bad is None:
        return message
    return (f"{message.rstrip('.')}; the step first went non-finite "
            f"{_where(*first_bad)}")


def _solve_branch(f, arg, y0, t_end, tol, max_step, log=None,
                  gated=False):
    """Adaptive Dormand-Prince steps from tau = 0 to exactly ``t_end``.

    A ``gated`` cap takes effect at the branch's first live try, one where
    a stage has a nonzero acceleration (entries n..2n-1); the branch then
    stays capped. A live try above the cap is retried at the cap and
    counts as rejected. Otherwise ``max_step`` caps every step.

    Each of the ``log``'s grid times is read off the interpolant of the
    first step that reaches it. The accepted steps are sealed into the log
    every BLOCK_ROWS rows, with the steps that reach grid times, and the
    log is returned. Without a log the branch keeps no samples and returns
    its end state alone. A branch that has tried as many steps, accepted
    or rejected, as its budget allows raises IntegrationError. A right-hand side that is not finite at y0
    raises NonFiniteResult; the error that ends a branch after a stage or an
    error estimate went non-finite names the tau and state of the step
    where that first happened.
    """
    direction = math.copysign(1.0, t_end)
    rtol, atol = max(tol.rel, MIN_RTOL), tol.abs
    step = _stepper(len(y0))
    budget = max(MIN_TRIES, TRIES_PER_CAPPED_STEP * abs(t_end) / max_step)
    k1 = f(y0, arg)
    if not all(map(math.isfinite, k1)):
        raise NonFiniteResult(
            f"the right-hand side is not finite {_where(0.0, y0)}")
    nfev, rejected = 2, 0
    t, y = 0.0, y0
    live = not gated  # whether max_step caps the steps yet
    n = len(y0) // 2
    first_bad = None  # (tau, state) of the first non-finite error estimate
    if log is not None:
        block = BLOCK_ROWS
        times, states, dense = [t], [y], []
        marks = (direction * log.grid).tolist()  # in steps' progress
        nxt = 0  # the first grid time not yet read
    try:
        h_abs = _initial_step(f, arg, y0, k1, t_end, max_step, rtol, atol)
        while direction * (t - t_end) < 0:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            if live and h_abs > max_step:
                h_abs = max_step
            elif h_abs < min_step:
                h_abs = min_step
            retried = False
            while True:
                if h_abs < min_step:
                    raise StepSizeUnderflow(
                        _naming(TOO_SMALL_STEP, first_bad))
                if nfev - 2 >= 6 * budget:  # six evaluations per try
                    raise IntegrationError(_naming(
                        f"step budget of {budget:.0f} tries spent at tau = "
                        f"{t!r} of {t_end!r} from {format_point(y0)}",
                        first_bad))
                t_new = t + h_abs * direction
                if direction * (t_new - t_end) > 0:
                    t_new = t_end
                h = t_new - t
                h_abs = abs(h)
                y_new, k7, error, stages = step(f, arg, y, k1, h, rtol, atol)
                nfev += 6
                if not live and any(a != 0.0 for k in stages for a in k[n:]):
                    live = True
                    if h_abs > max_step:
                        h_abs = max_step
                        rejected += 1
                        continue
                if error < 1:
                    factor = MAX_FACTOR if error == 0 else min(
                        MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT)
                    h_abs *= min(1.0, factor) if retried else factor
                    break
                if first_bad is None and not math.isfinite(error):
                    first_bad = (t, y)
                h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
                retried = True
                rejected += 1
            if log is not None:
                end = nxt
                while end < len(marks) and marks[end] <= direction * t_new:
                    end += 1
                if end > nxt:
                    dense.append((t, t_new, y, stages, end - nxt))
                    nxt = end
                if len(times) >= block:  # so the last step seals last
                    log.seal(times, states, dense)
                    times, states, dense = [], [], []
                times.append(t_new)
                states.append(y_new)
            t, y, k1 = t_new, y_new, k7
    except NonFiniteResult as exc:
        raise NonFiniteResult(
            _naming(str(exc), first_bad or (t, y))) from exc
    if log is None:
        return y
    log.seal(times, states, dense, last=True)
    log.rejected, log.nfev = rejected, nfev
    return log


def integrate(system, initial, horizon, tol=None,
              keep_log=False) -> Trajectory:
    """Integrate both time branches over [-T, 0] and [0, T].

    Each branch is an adaptive Dormand-Prince 5(4) solve with scipy RK45's
    initial step, RMS error norm and step controller. A rescaled system's
    steps are capped at eps/10 from the branch's first try with a nonzero
    acceleration; an explicit ``tol.max_step`` caps every step. The run
    keeps its step times, 8 bytes per accepted step in memory; with
    ``keep_log`` also the states, energies, U and speeds, 8 (2n + 4)
    bytes per step in a temporary file.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if math.isinf(system.inv_eps * system.inv_eps):
        raise NonFiniteResult(
            f"1/eps^2 overflows at epsilon = {system.epsilon!r}")
    tol = tol or Tolerances()
    gated = tol.max_step is None and system.epsilon is not None
    if tol.max_step is not None:
        max_step = tol.max_step
    elif gated:
        max_step = system.epsilon / 10.0
    else:
        max_step = math.inf

    f = compile_motion(system)
    y0 = tuple(np.concatenate([initial.x, initial.v]).tolist())
    n = len(y0) // 2
    start = np.array([y0])
    h0 = _energy_rows(system, start[:, :n], start[:, n:])[0][0]  # E(y0)
    grid_times = np.linspace(-horizon, horizon, GRID_POINTS)
    neg = grid_times < 0

    spill = _Spill(2 * n + 4) if keep_log else None

    def branch(end, grid):
        log = _BranchLog(system, grid, end > 0, h0, max_step, spill)
        return _solve_branch(f, system, y0, end, tol, max_step, log, gated)

    fwd = branch(horizon, grid_times[~neg])
    bwd = branch(-horizon, grid_times[neg][::-1])
    if bwd.bad is not None or fwd.bad is not None:
        raise _potential_error(system, bwd.bad if bwd.bad is not None
                               else fwd.bad)
    blocks = bwd.times[::-1] + fwd.times  # in increasing tau
    log = None if spill is None else (
        spill, bwd.offsets[::-1] + fwd.offsets, len(bwd.times))
    peaks = np.array(bwd.peaks[::-1] + fwd.peaks)
    e_max, max_speed, max_potential = peaks[:, [0, 2, 3]].max(axis=0)
    drift = (e_max - peaks[:, 1].min()) / max(1.0, abs(h0))
    unclipped = bwd.unclipped + fwd.unclipped
    stats = {"nfev": fwd.nfev + bwd.nfev,
             "steps": sum(map(len, blocks)) - 2,
             "rejected": fwd.rejected + bwd.rejected,
             "min_step": float(min(unclipped)) if unclipped else None,
             "capped_steps": fwd.capped + bwd.capped,
             "drift_peak_tau": float(peaks[np.argmax(peaks[:, 4]), 5])}
    trajectory = Trajectory(
        epsilon=system.epsilon,
        horizon=horizon,
        blocks=blocks,
        grid_times=grid_times,
        grid_states=np.concatenate(
            [g[::-1] for g in bwd.grid_states[::-1]] + fwd.grid_states),
        energy_drift=float(drift),
        max_speed=float(max_speed),
        max_potential=float(max_potential),
        stats=stats,
        log=log,
    )
    if drift > ENERGY_DRIFT_GATE:
        raise EnergyDriftExceeded(float(drift), ENERGY_DRIFT_GATE)
    return trajectory


def check_lemma1_bounds(trajectory, speed_cap) -> BoundsVerdict:
    """Scan the logs against the conserved-energy confinement bounds."""
    eps = trajectory.epsilon if trajectory.epsilon is not None else 1.0
    try:
        eps_sq = eps ** 2
    except OverflowError:
        raise NonFiniteResult(f"eps^2 overflows at epsilon = {eps!r}")
    speed_margin = trajectory.max_speed - speed_cap
    potential_margin = trajectory.max_potential - eps_sq * speed_cap ** 2 / 2.0
    slack = 1e-8 * (1.0 + speed_cap ** 2)
    return BoundsVerdict(
        passed=bool(speed_margin <= slack and potential_margin <= slack),
        speed_margin=float(speed_margin),
        potential_margin=float(potential_margin),
    )

