"""Euler-Lagrange dynamics of the (rescaled) magnetic Lagrangian.

The Lagrangian is kinetic energy plus a gyroscopic one-form term minus a
potential; in the rescaled variant the one-form carries a 1/eps factor and
the potential 1/eps^2. The integrator is an in-repo adaptive Dormand-Prince
5(4) pair with scipy RK45's tableau, initial step, RMS error norm and step
controller, and a hard step cap of eps/10 for rescaled systems, since the
transverse oscillation frequency scales like 1/eps. It steps on plain
floats: the stage arithmetic is generated once per state size, and the
quartic dense output is evaluated only at the uniform grid times. The same
stepper solves the chart flows (``charts``), uncapped and without grid
times, keeping only the end state. A branch that spends its step budget,
as against a stiff wall, raises instead of shrinking its steps without
bound. Every run records conserved-energy, speed, potential and
path-length logs; the energy log is one vectorized ``hamiltonian`` pass
over all step rows, and the speed and potential logs are read in the same
row-wise way. An untrustworthy energy drift raises instead of being
silently accepted.

On a Euclidean metric the equations of motion are ASTs over the partials
of U and the form, compiled by ``expr.compile_kernel`` once per potential,
one-form and epsilon, with ``el_acceleration`` as the reference. On a
curved metric every stage calls ``el_acceleration``, which reads the
metric and the one-form from one generated function each, and the inverse
metric and the Christoffel symbols from one factorization of the metric
per point (see ``geometry``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    EnergyDriftExceeded,
    IntegrationError,
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
from .geometry import magnetic_tensor

GRID_POINTS = 513  # uniform tau samples over [-T, T], including tau = 0


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
    energy_drift: float = 1e-6
    max_step: float | None = None  # overrides the eps/10 cap if set

    def __post_init__(self):
        if not (0 < self.abs < math.inf and 0 < self.rel < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_step is not None and not self.max_step > 0:
            raise ValueError("max_step must be positive")


def el_acceleration(system, state) -> np.ndarray:
    """Coordinate acceleration of the Euler-Lagrange equations.

    a^a = -Gamma^a_{mn} v^m v^n - (1/eps) g^{ab} F_{gb} v^g
          - (1/eps^2) g^{ab} d_b U
    with F_{ab} the magnetic tensor of the one-form. The sign of the
    gyroscopic term is pinned by the adapted-coordinate residual test in the
    test suite.
    """
    x, v = state.x, state.v
    metric = system.metric
    inv_eps = system.inv_eps
    _, du = system.potential.value_and_grad(x)
    force = -(inv_eps * inv_eps) * du
    if system.magnetic is not None:
        f_tensor = magnetic_tensor(system.magnetic, x)
        force = force - inv_eps * (f_tensor.T @ v)  # -F_{gb} v^g, index b
    if metric.euclidean:
        return force
    ginv = metric.inverse(x)
    gamma = metric.christoffel(x)
    return -np.einsum("amn,m,n->a", gamma, v, v) + ginv @ force


def hamiltonian(system, state):
    """Conserved energy |v|^2_g / 2 + U / eps^2 (magnetic force does no work).

    ``state`` holds one point, giving a float, or (m, n) rows, giving an
    array. The first row where U is undefined or negative raises.
    """
    x, v = np.atleast_2d(state.x), np.atleast_2d(state.v)
    u = system.potential.vectorized()(x)
    bad = ~(u >= -1e-12)  # nan where U is undefined
    if bad.any():
        point = x[np.argmax(bad)]
        value = system.potential.eval(point)  # raises where U is undefined
        raise DomainError(
            f"potential is negative ({value:.3e}) at {format_point(point)}")
    energy = 0.5 * system.metric.inner(x, v, v) + system.inv_eps ** 2 * u
    return float(energy[0]) if state.x.ndim == 1 else energy


@dataclass
class BoundsVerdict:
    passed: bool
    speed_margin: float
    potential_margin: float


@dataclass
class Trajectory:
    """Time-sampled solution on [-T, T] with its monitor logs.

    ``times``/``states`` merge both branches in increasing tau order;
    ``grid_times``/``grid_states`` are the uniform dense-output samples used
    for cross-run comparisons. States are stored as rows (x, v) of length 2n.
    """

    epsilon: float | None
    horizon: float
    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    path_length: np.ndarray  # Riemannian arc length accumulated from tau=0
    grid_times: np.ndarray
    grid_states: np.ndarray
    energy_drift: float
    max_speed: float
    max_potential: float
    stats: dict = field(default_factory=dict)

    @property
    def dimension(self):
        return self.states.shape[1] // 2

    def to_csv(self, fileobj, system):
        n = self.dimension
        header = (["tau"] + [f"x{i+1}" for i in range(n)]
                  + [f"v{i+1}" for i in range(n)] + ["H", "U", "pathlen"])
        fileobj.write(",".join(header) + "\n")
        potentials = system.potential.vectorized()(self.states[:, :n])
        table = np.column_stack([self.times, self.states, self.energies,
                                 potentials, self.path_length])
        fileobj.writelines(",".join(map(repr, cells)) + "\n"
                           for cells in table.tolist())


# --- equations of motion --------------------------------------------------

def _reference_stage(y, system):
    """dy/dtau = (v, a) at the state y = (x, v) from ``el_acceleration``."""
    n = len(y) // 2
    state = State.__new__(State)
    state.tau = None  # the equations are autonomous
    state.x = np.array(y[:n])
    state.v = np.array(y[n:])
    return y[n:] + tuple(el_acceleration(system, state).tolist())


def _motion_kernel(system, fields):
    """a_b = -e^2 d_b U - e sum_a (d_a A_b - d_b A_a) v^a with e = 1/eps,
    without pairs of structural zeros, over U and the form's A_b."""
    n, e = system.metric.dimension, system.inv_eps
    du, *form = [[derivative(fld.body, i) for i in range(n)]
                 for fld in fields]
    zero = Num(0.0)
    acc = []
    for b in range(n):
        gyro = [Bin("*", Bin("-", form[b][a], form[a][b]), Var(n + a))
                for a in range(n) if form and a != b
                and (form[b][a], form[a][b]) != (zero, zero)]
        term = Bin("*", Num(-(e * e)), du[b])
        acc.append(Bin("-", term, Bin("*", Num(e), sum_nodes(gyro)))
                   if gyro else term)
    return compile_kernel([fld.body for fld in fields], n,
                          [Var(n + a) for a in range(n)] + acc,
                          _reference_stage)


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


@dataclass
class _Branch:
    times: list
    states: list
    grid_states: np.ndarray  # at the branch's grid times, in their order
    rejected: int
    nfev: int


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
    powers = np.cumprod(np.tile(x, (4, 1)), axis=0).T
    return h[:, None] * np.einsum("gik,gk->gi", q, powers) \
        + np.array(y_old)[index]


def _solve_branch(f, arg, y0, t_end, tol, max_step, grid=None):
    """Adaptive Dormand-Prince steps from tau = 0 to exactly ``t_end``.

    ``grid`` holds times in the order the branch passes them; each is read
    off the interpolant of the first step that reaches it. Without a grid
    the branch keeps no samples and returns its end state alone. A branch
    that has tried as many steps, accepted or rejected, as its budget allows
    raises IntegrationError.
    """
    direction = math.copysign(1.0, t_end)
    rtol, atol = max(tol.rel, MIN_RTOL), tol.abs
    step = _stepper(len(y0))
    budget = max(MIN_TRIES, TRIES_PER_CAPPED_STEP * abs(t_end) / max_step)
    k1 = f(y0, arg)
    h_abs = _initial_step(f, arg, y0, k1, t_end, max_step, rtol, atol)
    nfev, rejected = 2, 0
    t, y = 0.0, y0
    if grid is not None:
        times, states, dense = [t], [y], []
        marks = (direction * grid).tolist()  # grid times in steps' progress
        nxt = 0  # the first grid time not yet read
    while direction * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        retried = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(TOO_SMALL_STEP)
            if nfev - 2 >= 6 * budget:  # six evaluations per try
                raise IntegrationError(
                    f"step budget of {budget:.0f} tries spent at tau = "
                    f"{t!r} of {t_end!r} from {format_point(y0)}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new, k7, error, stages = step(f, arg, y, k1, h, rtol, atol)
            nfev += 6
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(
                    MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if retried else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            retried = True
            rejected += 1
        if grid is not None:
            end = nxt
            while end < len(marks) and marks[end] <= direction * t_new:
                end += 1
            if end > nxt:
                dense.append((t, t_new, y, stages, end - nxt))
                nxt = end
            times.append(t_new)
            states.append(y_new)
        t, y, k1 = t_new, y_new, k7
    if grid is None:
        return y
    return _Branch(times, states, _dense(dense, grid), rejected, nfev)


def integrate(system, initial, horizon, tol=None) -> Trajectory:
    """Integrate both time branches over [-T, 0] and [0, T].

    Each branch is an adaptive Dormand-Prince 5(4) solve with scipy RK45's
    initial step, RMS error norm and step controller, capped at eps/10 for
    rescaled systems.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    tol = tol or Tolerances()
    n = len(initial.x)

    if tol.max_step is not None:
        max_step = tol.max_step
    elif system.epsilon is not None:
        max_step = system.epsilon / 10.0
    else:
        max_step = math.inf

    f = compile_motion(system)
    y0 = tuple(np.concatenate([initial.x, initial.v]).tolist())
    grid_times = np.linspace(-horizon, horizon, GRID_POINTS)
    neg = grid_times < 0
    fwd = _solve_branch(f, system, y0, horizon, tol, max_step,
                        grid_times[~neg])
    bwd = _solve_branch(f, system, y0, -horizon, tol, max_step,
                        grid_times[neg][::-1])

    # merge step samples in increasing tau (backward branch reversed)
    times = np.array(bwd.times[::-1] + fwd.times)
    states = np.array(bwd.states[::-1] + fwd.states)
    grid_states = np.concatenate([bwd.grid_states[::-1], fwd.grid_states])

    x, v = states[:, :n], states[:, n:]
    energies = hamiltonian(system, State(times, x, v))
    speeds = system.metric.norm(x, v)
    potentials = system.potential.vectorized()(x)

    # Riemannian arc length from tau = 0, trapezoid rule on the speed log
    dt = np.diff(times)
    seg = 0.5 * (speeds[:-1] + speeds[1:]) * dt
    cumulative = np.concatenate([[0.0], np.cumsum(seg)])
    origin = np.searchsorted(times, 0.0)
    origin = min(origin, len(times) - 1)
    path = np.abs(cumulative - cumulative[origin])

    h0 = energies[np.argmin(np.abs(times))]
    drift = (energies.max() - energies.min()) / max(1.0, abs(h0))
    trajectory = Trajectory(
        epsilon=system.epsilon,
        horizon=horizon,
        times=times,
        states=states,
        energies=energies,
        path_length=path,
        grid_times=grid_times,
        grid_states=grid_states,
        energy_drift=float(drift),
        max_speed=float(speeds.max()),
        max_potential=float(potentials.max()),
        stats={
            "nfev": fwd.nfev + bwd.nfev,
            "steps": len(fwd.times) + len(bwd.times) - 2,
            "rejected": fwd.rejected + bwd.rejected,
        },
    )
    if drift > tol.energy_drift:
        raise EnergyDriftExceeded(float(drift), tol.energy_drift)
    return trajectory


def check_lemma1_bounds(trajectory, speed_cap) -> BoundsVerdict:
    """Scan the logs against the conserved-energy confinement bounds."""
    eps = trajectory.epsilon if trajectory.epsilon is not None else 1.0
    speed_margin = trajectory.max_speed - speed_cap
    potential_margin = (trajectory.max_potential
                        - eps ** 2 * speed_cap ** 2 / 2.0)
    slack = 1e-8 * (1.0 + speed_cap ** 2)
    return BoundsVerdict(
        passed=bool(speed_margin <= slack and potential_margin <= slack),
        speed_margin=float(speed_margin),
        potential_margin=float(potential_margin),
    )


def el_residual_adapted(system, trajectory) -> np.ndarray:
    """Residual of the zero-coordinate EL equation in adapted coordinates.

    Assumes the system's own coordinates are adapted (no mixed first-row
    metric terms), so coordinate 0 plays the role of the level coordinate.
    The second derivative comes from divided differences on the uniform
    grid and is compared with the level component of ``el_acceleration``.
    """
    n = trajectory.dimension
    grid = trajectory.grid_times
    h = grid[1] - grid[0]
    z = trajectory.grid_states[:, 0]
    zdd = (z[2:] - 2 * z[1:-1] + z[:-2]) / h ** 2
    acc = np.array([
        el_acceleration(system, State(tau, row[:n], row[n:]))[0]
        for tau, row in zip(grid[1:-1], trajectory.grid_states[1:-1])
    ])
    return zdd - acc
