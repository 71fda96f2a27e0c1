"""Euler-Lagrange dynamics of the (rescaled) magnetic Lagrangian.

The Lagrangian is kinetic energy plus a gyroscopic one-form term minus a
potential; in the rescaled variant the one-form carries a 1/eps factor and
the potential 1/eps^2. The integrator is an in-repo adaptive DOP853, the
8(5,3) pair of Hairer with its 7th-order dense output, with scipy DOP853's
tableau, initial step, error norm and step controller, and a step cap of
eps for rescaled systems, since the transverse oscillation has period
2 pi eps. The cap takes effect at a branch's first live try, one where
some stage's acceleration is nonzero: on a valley of U, where the
rescaled force is exactly zero, there is no oscillation to resolve, and
the straight-line steps grow freely. An explicit ``Tolerances.max_step``
is a hard cap from the first step. It steps on plain floats: the stage
arithmetic is generated once per state size, and the interpolant's three
extra stages run only for the steps that reach the uniform grid times.
The same stepper solves the chart flows (``charts``), uncapped and
without grid times, keeping only the end state; ``_solve_rows`` hands all
of a check's rows to the compiled loop at once. A branch that spends its
step budget, as against a stiff wall, raises instead of shrinking its
steps without bound. Every run reduces its conserved energy, speed,
potential and step sizes to the energy drift, the largest speed and U and
the step counters; U and g(v, v) are evaluated once per step row. An
untrustworthy energy drift raises instead of being silently accepted.

``_solve_branch`` drives every branch. On a Euclidean run, where a C
compiler builds ``native``'s loop, it lends the branch's state to that
loop after the start, and the loop steps on with the same bits. Where the
Python kernel would raise or decide, or an estimate is not finite, the
loop declines the try and hands the state back; the Python stepper, the
oracle of every decision the loop declines, makes that step and lends
the state again. Curved runs and flows, and runs without a compiler, are
stepped in Python throughout.

Each branch writes its accepted steps' (t, y) rows into a float64 block
and seals every BLOCK_ROWS of them, reduced at once (``_BranchLog``)
with the interpolants of the steps that reach grid times, so no state,
energy or interpolant outlives its block, and every number keeps the bits
of one pass over the joined log. A run keeps its step times, 8 bytes per
accepted step; a run made with ``keep_log`` also writes each block's
CSV rows, with the path length summed along its branch from tau = 0, to a
temporary file, 8 (2n + 4) bytes per step on disk, read back a block at a
time.
The counters that read the log, the smallest unclipped step, the steps at
the cap and the tau of the largest energy deviation, go into the run's
``stats``.

The equations of motion are stated once, as ASTs over dU and the form's
``field_strength`` (``_motion_kernel``), compiled by ``expr.compile_kernel``
once per potential and one-form, eps an input; they raise the fields' own
errors. On a curved metric every stage calls ``el_acceleration``, which
hands g^-1 and the Christoffel symbols, from the metric's one generated
Cholesky call (see ``geometry``), to the curved motion kernel as inputs:
the same force raised by g^-1, less the geodesic term, one kernel for
every metric and eps. The kernel raises NonFiniteResult naming the state
where an acceleration overflows though every field is finite, so a run
names the point instead of rejecting steps there.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import tempfile
import weakref
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import native
from .errors import (
    DomainError,
    EnergyDriftExceeded,
    InstabError,
    IntegrationError,
    NonFiniteResult,
    StepSizeUnderflow,
    format_point,
)
from .expr import (
    Bin,
    Var,
    compile_kernel,
    define_scalar,
    derivative,
    fold,
    total,
)
# nothing here calls magnetic_tensor; perfbench/tracing.py patches it here
from .geometry import field_strength, magnetic_tensor  # noqa: F401

GRID_POINTS = 513  # uniform tau samples over [-T, T], including tau = 0
BLOCK_ROWS = 512  # accepted steps per float64 block of a branch's log
CAP_RELATIVE = 1e-9  # a step within this share of the cap counts as capped
ENERGY_DRIFT_GATE = 1e-6  # criterion 1's bound on the relative energy drift
ACCELERATION = "the acceleration"  # as its NonFiniteResult names it


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

    @functools.cached_property
    def inputs(self):
        """(-1/eps^2, 1/eps), the motion kernel's inputs."""
        return (-(self.inv_eps * self.inv_eps), self.inv_eps)

    @functools.cached_property
    def curved_motion(self):
        """The curved motion kernel of U and the form (``_motion``)."""
        return _motion(self, curved=True)


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
    # a hard cap from the first step if set; the default cap, eps, waits
    # for the first try with a nonzero acceleration
    max_step: float | None = None

    def __post_init__(self):
        if not (0 < self.abs < math.inf and 0 < self.rel < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be positive")


def el_acceleration(system, state) -> np.ndarray:
    """Coordinate acceleration of the Euler-Lagrange equations,
    a^a = -Gamma^a_mn v^m v^n - g^ab (F_gb v^g / eps + d_b U / eps^2), F
    the one-form's magnetic tensor, from the motion kernel: on a Euclidean
    metric ``compile_motion``'s, else the curved one, fed the metric's
    ``inverse`` and ``christoffel``; where those raise, U's error and then
    the form's come first. The sign of the gyroscopic term is pinned by the
    adapted-coordinate residual test in the test suite. Where a term
    overflows though every field is finite, it raises NonFiniteResult
    naming the state (x, v).
    """
    x = state.x.tolist()
    y = x + state.v.tolist()
    if system.metric.euclidean:
        return np.array(compile_motion(system)(y, system)[len(x):])
    try:
        inputs = [*system.inputs, *system.metric.inverse(x).ravel().tolist(),
                  *system.metric.christoffel(x).ravel().tolist()]
    except InstabError:  # U's error, then the form's, before the metric's
        for fld in _fields(system):
            fld.value_and_grad(x)
        raise
    return np.array(system.curved_motion(
        y, SimpleNamespace(inputs=inputs))[len(x):])


def _unpacked(symbol, *shape):
    """The names ``symbol`` + index of the entries of an array of
    ``shape``, in row-major order, as an assignment target."""
    return "".join(f"{symbol}{'_'.join(map(str, index))}, "
                   for index in itertools.product(*map(range, shape)))


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


@dataclass
class Trajectory:
    """Time-sampled solution on [-T, T] with its monitor logs.

    ``times`` merges both branches' accepted steps in increasing tau order,
    tau = 0 once per branch; ``grid_times``/``grid_states`` are the uniform
    dense-output samples used for cross-run comparisons. The step times are
    kept as ``blocks``, float64 arrays of at most BLOCK_ROWS rows in
    increasing tau; ``times`` joins them on each read. A run made with
    ``keep_log`` also has ``log``: the blocks' CSV rows (tau, x, v, H, U,
    path length from tau = 0) in a temporary file, and their offsets in the
    order of ``blocks``. ``states`` (rows (x, v) of length 2n),
    ``energies``, ``path_length`` and ``to_csv`` read it back a block at a
    time, each block once. ``stats`` holds the run's ``nfev``,
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
        time."""
        if self.log is None:
            raise ValueError(f"the run kept no {name}: integrate it with "
                             "keep_log=True")
        spill, offsets = self.log
        return (spill.read(offset, len(times))
                for offset, times in zip(offsets, self.blocks))

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

def _curved_stage(y, system):
    """dy/dtau = (v, a) at the state y = (x, v) from ``el_acceleration``."""
    n = len(y) // 2
    state = State.__new__(State)  # autonomous equations: tau is None
    state.tau, state.x, state.v = None, np.array(y[:n]), np.array(y[n:])
    return y[n:] + tuple(el_acceleration(system, state).tolist())


def _fields(system):
    """The motion kernel's fields: U, then the form's components."""
    return [system.potential] + (
        [] if system.magnetic is None else system.magnetic.components)


def _motion_kernel(fields, form, curved):
    """a_b = ee d_b U - e sum_a F_ab v^a, (ee, e) the inputs, over U's
    partials and the form's ``field_strength`` without structural zeros;
    ``curved``, a^a = sum_b g^ab a_b - sum_m (sum_k Gamma^a_mk v^k) v^m,
    each sum left to right, g^-1 and Gamma the inputs after (ee, e), flat:
    one kernel for every metric, without a register program."""
    n = fields[0].dimension
    ee, e = Var(2 * n), Var(2 * n + 1)
    v = [Var(n + a) for a in range(n)]
    du = [derivative(fields[0].body, i) for i in range(n)]
    f = [] if form is None else field_strength(form)
    # ee d_b U stays unfolded: where d_b U is a structural zero it is
    # -0.0, and a fold would give +0.0
    acc = [fold("-", Bin("*", ee, du[b]), fold("*", e, total(
        fold("*", row[b], v[a]) for a, row in enumerate(f))))
           for b in range(n)]
    if curved:  # the flat acceleration raised by g^-1, less Gamma(v, v)
        g, c = 2 * n + 2, 2 * n + 2 + n * n  # the first of g^-1, of Gamma
        acc = [fold("-", total(fold("*", Var(g + a * n + b), acc[b])
                               for b in range(n)),
                    total(fold("*", total(
                        fold("*", Var(c + (a * n + m) * n + k), v[k])
                        for k in range(n)), v[m]) for m in range(n)))
               for a in range(n)]
    return compile_kernel(
        fields, n, v + acc, label=ACCELERATION,
        program=None if curved else native.program,
        inputs=2 + (n * n + n ** 3 if curved else 0))


def _motion(system, curved=False):
    """The system's motion kernel, made once per potential and one-form:
    every eps shares it, and every curved metric the ``curved`` one."""
    fields = _fields(system)
    key = ("curved motion" if curved else "motion",) + tuple(
        fld.body for fld in fields[1:])
    return system.potential.code(key, _motion_kernel, fields,
                                 system.magnetic, curved)


def compile_motion(system):
    """The system's first-order equations as ``f(y, system) -> dy/dtau``.

    ``y`` is the state (x, v) as a tuple of floats, and so is the result.
    On a Euclidean metric it is the motion kernel, one per potential and
    one-form for every eps, its inputs; else it wraps ``el_acceleration``.
    """
    if not system.metric.euclidean:
        return _curved_stage
    return _motion(system)


# --- DOP853 ----------------------------------------------------------------

# Hairer's DOP853, the 8(5,3) pair with its 7th-order dense output (Hairer,
# Norsett & Wanner, Solving ODEs I, II.5 and II.10), in scipy's arrangement
# and with its values. _A[s - 1] is row s of the extended tableau, sparse:
# stages 1-11 of a step, then the 8th-order weights B (row 12, at which
# f(y_new) is taken), then the interpolant's three extra stages. The
# equations are autonomous, so the nodes C are not needed.
_A = (
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},)
_E3 = {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
       7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
       10: 0.20136540080403034, 11: 0.02265179219836082}
_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
       7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
       10: 0.08192320648511571, 11: -0.022355307863886294}
_D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},)
_B = _A[11]
SAFETY = 0.9  # times the step the error estimate asks for
MIN_FACTOR = 0.2  # smallest step change after a rejection
MAX_FACTOR = 10.0  # largest step change after an acceptance
ERROR_EXPONENT = -1 / 8  # the embedded 7th-order estimate's error ~ h^8
MIN_RTOL = 100 * np.finfo(float).eps  # smaller relative tolerances are raised
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# A branch may try TRIES_PER_CAPPED_STEP steps per step of its cap over its
# span, 100 per tenth of eps on a rescaled branch, and MIN_TRIES whatever
# its cap, before it gives up: a stiff wall would otherwise shrink the
# steps without bound while the samples pile up.
TRIES_PER_CAPPED_STEP = 1000
MIN_TRIES = 20_000
STAGE_EVALUATIONS = 12  # right-hand-side evaluations per try
DENSE_EVALUATIONS = 3  # further ones per step that reaches a grid time


def _combination(coefficients, i):
    """sum_j c_j k(j+1)_i over the nonzero c_j, in order, as source."""
    return " + ".join(f"k{j + 1}_{i} * {c!r}"
                      for j, c in coefficients.items())


def _stage_lines(m, rows, first):
    """Source of the stages k``first``... from the tableau ``rows``, each
    f at y + h * (its combination of the stages before it), unpacked."""
    lines = ""
    for s, row in enumerate(rows, start=first):
        stage = "".join(f"y{i} + ({_combination(row, i)}) * h, "
                        for i in range(m))
        lines += (f"    k{s} = f(({stage}), arg)\n"
                  f"    {_unpacked(f'k{s}_', m)}= k{s}\n")
    return lines


@functools.cache
def _stepper(m):
    """One DOP853 step over a state of m floats, unrolled.

    ``step(f, arg, y, k1, h, rtol, atol)`` takes k1 = f(y, arg) and returns
    the 8th-order state, its derivative, scipy's error norm, and the
    thirteen stages, k13 the derivative. The norm is
    |h| e5 / sqrt((e5 + e3 / 100) m), with e5 and e3 the sums over i of
    the squares of the E5 and E3 combinations of the stages' entries i,
    each divided by atol + rtol * max(|y_i|, |y_new_i|).
    """
    idx = range(m)
    src = ("def _step(f, arg, y, k1, h, rtol, atol):\n"
           f"    {_unpacked('y', m)}= y\n    {_unpacked('k1_', m)}= k1\n"
           + _stage_lines(m, _A[:11], 2))
    src += "".join(f"    n{i} = y{i} + h * ({_combination(_B, i)})\n"
                   for i in idx)
    src += (f"    y_new = ({_unpacked('n', m)})\n"
            "    k13 = f(y_new, arg)\n")
    for i in idx:  # as floats, max(|y_i|, |n_i|) without calls
        src += (f"    a{i} = y{i} if y{i} > 0.0 else -y{i}\n"
                f"    b{i} = n{i} if n{i} > 0.0 else -n{i}\n"
                f"    s{i} = atol + (a{i} if a{i} > b{i} else b{i}) * rtol\n"
                f"    p{i} = ({_combination(_E5, i)}) / s{i}\n"
                f"    q{i} = ({_combination(_E3, i)}) / s{i}\n")
    # where den is 0, so is err5, and so is the error
    src += (f"    err5 = {' + '.join(f'p{i} * p{i}' for i in idx)}\n"
            f"    err3 = {' + '.join(f'q{i} * q{i}' for i in idx)}\n"
            "    den = err5 + 0.01 * err3\n"
            f"    error = abs(h) * err5 / sqrt(den * {m}) if den else 0.0\n"
            "    return y_new, k13, error, "
            f"({''.join(f'k{s}, ' for s in range(1, 14))})\n")
    return define_scalar("_step", src)


def _combined(k, row):
    """sum_j c_j k[j] over a tableau row, left to right, a call per term."""
    return functools.reduce(np.add, (k[j] * c for j, c in row.items()))


@functools.cache
def _extra_stages(m):
    """The three extra stages of a DOP853 step's dense output, unrolled.

    ``extra(f, arg, y, h, stages)`` takes the step's thirteen stages and
    returns k14, k15 and k16; ``_grid_states`` forms the interpolant.
    """
    used = sorted({j for row in _A[12:] for j in row if j < 13})
    src = ("def _extra(f, arg, y, h, stages):\n"
           f"    {_unpacked('y', m)}= y\n"
           f"    {''.join(f'k{s}, ' for s in range(1, 14))}= stages\n"
           + "".join(f"    {_unpacked(f'k{j + 1}_', m)}= k{j + 1}\n"
                     for j in used)
           + _stage_lines(m, _A[12:], 14)
           + "    return k14, k15, k16\n")
    return define_scalar("_extra", src)


def _initial_step(f, arg, y0, k1, t_end, max_step, rtol, atol):
    """Hairer, Norsett & Wanner's starting step, as scipy's DOP853 takes
    it."""
    def rms(values):  # left to right, as C sums; sum() compensates on 3.12+
        squares = functools.reduce(lambda a, v: a + v * v, values, 0.0)
        return math.sqrt(squares) / len(values) ** 0.5

    direction = math.copysign(1.0, t_end)
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = rms([y / s for y, s in zip(y0, scale)])
    d1 = rms([k / s for k, s in zip(k1, scale)])
    if d1 == math.inf:  # h0 would be 0.01 d0 / d1 = 0, and d2 divides by it
        raise NonFiniteResult("the norm of the right-hand side overflows")
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end))
    k2 = f(tuple(y + h0 * direction * k for y, k in zip(y0, k1)), arg)
    d2 = rms([(b - a) / s for a, b, s in zip(k1, k2, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, abs(t_end), max_step)


def _grid_states(dense, times):
    """The grid states from the 7th-order interpolants of the steps.

    ``dense`` holds a row (t_old, t_new, count, y_old, y_new, K0..K15) for
    each step that reaches ``count`` further grid times, in order, with its
    sixteen stages. The interpolant's rows F0..F6 are scipy's, F3..F6 the
    D combinations of the stages summed in D's order; at
    x = (t - t_old)/h the state is
    y_old + x (F0 + (1 - x) (F1 + x (F2 + ... + x F6))), summed as scipy's
    ``Dop853DenseOutput`` sums it. Every operation is elementwise, so a
    state has the same bits however the steps are grouped.
    """
    m = (dense.shape[1] - 3) // 18
    t_old, y_old = dense[:, 0], dense[:, 3:3 + m]
    h = (dense[:, 1] - t_old)[:, None]
    k = dense[:, 3 + 2 * m:].reshape(len(dense), len(_A) + 1, m)
    k = k.transpose(1, 0, 2)  # (stage, step, entry)
    d = dense[:, 3 + m:3 + 2 * m] - y_old
    rows = [d, h * k[0] - d, 2 * d - h * (k[12] + k[0])]
    rows += [h * _combined(k, row) for row in _D]
    index = np.repeat(np.arange(len(dense)), dense[:, 2].astype(int))
    x = ((times - t_old[index]) / h[index, 0])[:, None]
    y = np.zeros((len(index), m))
    for i, row in enumerate(reversed(rows)):
        y += row[index]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old[index]


class _BranchLog:
    """A branch's step log, reduced one block at a time as the branch seals
    it, so the states, energies and interpolants of a block are let go
    with it.

    ``grid`` holds the grid times in the order the branch passes them. A
    sealed block is reduced in step order, from ``tail``, the last tau,
    |v|_g and arc length of the block before: its |dtau| go to ``capped``
    and to ``unclipped``, each block's smallest step but the branch's
    last, and with a ``spill`` to the trapezoid rule's arc length from
    tau = 0. Its rows are then put in increasing tau and reduced to the
    grid states its steps reach, to ``peaks``, one (max E, min E,
    max |v|_g, max U, max |E - h0|, first tau of that) per block, and to
    ``bad``, the smallest-tau row where U is negative or undefined: every
    number has the bits of one pass over the joined log. The step times
    stay, and with a ``spill`` each block's CSV rows (tau, x, v, H, U, arc
    length) go to it, their offsets to ``offsets``.
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
        self.tail = (np.empty(0), np.empty(0), 0.0)  # no row before the first
        self.read = 0  # grid times read so far
        self.rejected = self.nfev = 0

    def seal(self, rows, dense, last=False):
        """Reduce the (t, y) ``rows`` in step order and the ``dense`` steps
        with them, ``_solve_branch``'s buffers; ``last`` if they end the
        branch."""
        if len(dense):
            count = int(dense[:, 2].sum())
            self.grid_states.append(
                _grid_states(dense, self.grid[self.read:self.read + count]))
            self.read += count
        times, states = rows[:, 0].copy(), rows[:, 1:].copy()
        n = states.shape[1] // 2
        energies, potentials, speeds = _energy_rows(
            self.system, states[:, :n], states[:, n:])
        np.sqrt(np.maximum(speeds, 0.0, out=speeds), out=speeds)  # |v|_g

        # |dtau| of the steps into the block, the one from the tail included
        t_prev, s_prev, path = self.tail
        dt = np.abs(np.diff(np.concatenate([t_prev, times])))
        self.capped += int(np.count_nonzero((dt >= self.low)
                                            & (dt <= self.high)))
        unclipped = dt[:-1] if last else dt  # the last lands on -T or T
        if len(unclipped):
            self.unclipped.append(unclipped.min())
        columns = [times, states, energies, potentials]
        if self.spill is not None:  # the trapezoid rule's sum from tau = 0
            pairs = np.concatenate([s_prev, speeds])
            columns.append(np.cumsum(np.concatenate(
                [[path], 0.5 * (pairs[:-1] + pairs[1:]) * dt]))[-len(times):])
            path = columns[-1][-1]
        self.tail = (times[-1:], speeds[-1:].copy(), path)
        if not self.forward:  # the rows in increasing tau from here on
            columns = [column[::-1] for column in columns]
        times, states, energies, potentials = columns[:4]

        bad = _bad_rows(potentials)
        if bad.any() and (self.bad is None or not self.forward):
            self.bad = states[np.argmax(bad), :n].copy()
        deviation = np.abs(energies - self.h0)
        i = deviation.argmax()
        self.peaks.append((energies.max(), energies.min(), speeds.max(),
                           potentials.max(), deviation[i], times[i]))
        self.times.append(times)
        if self.spill is not None:
            self.offsets.append(self.spill.write(np.column_stack(columns)))


def _where(tau, y):
    return f"at tau = {tau!r}, state {format_point(y)}"


def _naming(message, first_bad):
    """``message``, naming the (tau, state) ``first_bad`` if there is one."""
    if first_bad is None:
        return message
    return (f"{message.rstrip('.')}; the step first went non-finite "
            f"{_where(*first_bad)}")


def _parameters(t_end, max_step, tol):
    """A branch's (t_end, max_step, rtol, atol, budget, direction), as the
    compiled loop takes them."""
    return (t_end, max_step, max(tol.rel, MIN_RTOL), tol.abs,
            max(MIN_TRIES, TRIES_PER_CAPPED_STEP * abs(t_end) / max_step),
            math.copysign(1.0, t_end))


def _solve_branch(f, arg, y0, t_end, tol, max_step, log=None,
                  gated=False):
    """Adaptive DOP853 steps from tau = 0 to exactly ``t_end``, with scipy
    DOP853's initial step, error norm and step controller.

    A ``gated`` cap takes effect at the branch's first live try, one where
    a stage has a nonzero acceleration (entries n..2n-1); the branch then
    stays capped. A live try above the cap is retried at the cap and
    counts as rejected. Otherwise ``max_step`` caps every step.

    Where ``f`` has a register program and ``native``'s loop builds, the
    branch's state is lent to that loop after the start and after each
    step made here; the loop steps on with the same bits and hands back
    the state at the top of a try it declines, whose step is made here.
    Elsewhere every step is made here.

    Each of the ``log``'s grid times is read off the 7th-order interpolant
    of the first step that reaches it, whose three extra stages run only
    for such steps. The accepted steps' (t, y) rows are sealed into the
    log every BLOCK_ROWS rows, with the (t, t_new, marks reached, y, y_new,
    stages) rows of the steps that reach grid times, and the log is
    returned. Without a log the branch keeps no samples and returns its
    end state alone. A branch that has tried as many steps, accepted or
    rejected, as its budget allows raises IntegrationError. A right-hand
    side that is not finite at y0 raises NonFiniteResult; the error that
    ends a branch after a stage or an error estimate went non-finite names
    the tau and state of the step where that first happened.
    """
    par = _parameters(t_end, max_step, tol)
    rtol, atol, budget, direction = par[2:]
    m, n = len(y0), len(y0) // 2
    step = _stepper(m)
    k1 = f(y0, arg)
    if not all(map(math.isfinite, k1)):
        raise NonFiniteResult(
            f"the right-hand side is not finite {_where(0.0, y0)}")
    tries = rejected = interpolated = nxt = made = 0  # nxt: next grid mark
    t, y = 0.0, y0
    live = not gated  # whether max_step caps the steps yet
    first_bad = None  # (tau, state) of the first non-finite error estimate
    marks = direction * np.array(() if log is None else log.grid)
    rows = np.empty((BLOCK_ROWS, 1 + m))  # the open block, sealed with a log
    rows[0] = (t, *y)
    filled = 1
    dense = np.empty((min(len(rows), len(marks)), 3 + 18 * m))
    extra = _extra_stages(m)
    run = native.lend(f, arg, m, par, marks, rows, dense)
    try:
        h_abs = _initial_step(f, arg, y0, k1, t_end, max_step, rtol, atol)
        while direction * (t - t_end) < 0:
            if filled == len(rows):
                if log is not None:
                    log.seal(rows, dense[:made])
                filled = made = 0
            retried = False
            if run is not None:
                (status, t, y, k1, h_abs, tries, rejected, interpolated,
                 live, nxt, retried, filled, made) = run(
                    t, y, k1, h_abs, tries, rejected, interpolated, live,
                    nxt, retried, filled, made)
                if status >= 0:  # at t_end, or with the rows full
                    continue
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            if run is None:
                if live and h_abs > max_step:
                    h_abs = max_step
                elif h_abs < min_step:
                    h_abs = min_step
            while True:
                if h_abs < min_step:
                    raise StepSizeUnderflow(
                        _naming(TOO_SMALL_STEP, first_bad))
                if tries >= budget:
                    raise IntegrationError(_naming(
                        f"step budget of {budget:.0f} tries spent at tau = "
                        f"{t!r} of {t_end!r} from {format_point(y0)}",
                        first_bad))
                t_new = t + h_abs * direction
                if direction * (t_new - t_end) > 0:
                    t_new = t_end
                h = t_new - t
                h_abs = abs(h)
                y_new, k13, error, stages = step(f, arg, y, k1, h, rtol, atol)
                tries += 1
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
            end = nxt
            while end < len(marks) and marks[end] <= direction * t_new:
                end += 1
            if end > nxt:
                dense[made] = np.fromiter(itertools.chain(
                    (t, t_new, end - nxt), y, y_new, *stages,
                    *extra(f, arg, y, h, stages)), float, dense.shape[1])
                made += 1
                interpolated += 1
                nxt = end
            rows[filled] = (t_new, *y_new)
            filled += 1
            t, y, k1 = t_new, y_new, k13
    except NonFiniteResult as exc:
        raise NonFiniteResult(
            _naming(str(exc), first_bad or (t, y))) from exc
    if log is None:
        return y
    log.seal(rows[:filled], dense[:made], last=True)
    log.rejected = rejected
    log.nfev = (2 + STAGE_EVALUATIONS * tries
                + DENSE_EVALUATIONS * interpolated)
    return log


def _solve_rows(f, arg, y0, t_end, tol):
    """``_solve_branch(f, arg, row, t, tol, inf)``'s end state, bit for
    bit, for each row of ``y0``, (N, m), and its nonzero t in ``t_end``;
    or the error of the first row whose single solve raises. The compiled
    loop starts and steps all the rows at once (``native.solve_rows``);
    each row it declines, and every row where it has no program or does
    not build, is solved alone by ``_solve_branch``, in row order, which
    lends it to the loop again after the start and each step it makes."""
    out, declined = native.solve_rows(f, y0, [
        _parameters(t, math.inf, tol) for t in t_end.tolist()])
    for r in np.flatnonzero(declined).tolist():
        out[r] = _solve_branch(f, arg, tuple(y0[r].tolist()), float(t_end[r]),
                               tol, math.inf)
    return out


def integrate(system, initial, horizon, tol=None,
              keep_log=False) -> Trajectory:
    """Integrate both time branches over [-T, 0] and [0, T].

    Each branch is an adaptive DOP853 solve with scipy DOP853's initial
    step, error norm and step controller, and its grid states come from
    the 7th-order interpolant. A rescaled system's steps are capped at eps
    from the branch's first try with a nonzero acceleration; an explicit
    ``tol.max_step`` caps every step. ``_solve_branch`` lends a Euclidean
    branch to ``native``'s loop where it builds, and makes in Python the
    steps that loop declines, with the same bits. ``stats["nfev"]`` counts every
    right-hand-side evaluation, the interpolants' included. The run
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
        max_step = system.epsilon
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
        return _solve_branch(f, system, y0, end, tol, max_step, _BranchLog(
            system, grid, end > 0, h0, max_step, spill), gated)

    fwd = branch(horizon, grid_times[~neg])
    bwd = branch(-horizon, grid_times[neg][::-1])
    if bwd.bad is not None or fwd.bad is not None:
        raise _potential_error(system, bwd.bad if bwd.bad is not None
                               else fwd.bad)
    blocks = bwd.times[::-1] + fwd.times  # in increasing tau
    log = None if spill is None else (spill, bwd.offsets[::-1] + fwd.offsets)
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

