"""Euler-Lagrange dynamics of the (rescaled) magnetic Lagrangian.

The Lagrangian is kinetic energy plus a gyroscopic one-form term minus a
potential; in the rescaled variant the one-form carries a 1/eps factor and
the potential 1/eps^2. The integrator is an adaptive embedded Runge-Kutta
4(5) pair (scipy's RK45) with a hard step cap of eps/10 for rescaled
systems, since the transverse oscillation frequency scales like 1/eps.
Every run records conserved-energy, speed, potential and path-length logs;
an untrustworthy energy drift raises instead of being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DomainError,
    EnergyDriftExceeded,
    StepSizeUnderflow,
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

    @property
    def inv_eps(self):
        return 1.0 if self.epsilon is None else 1.0 / self.epsilon

    def check_potential(self, value, point):
        if value < -1e-12:
            raise DomainError(
                f"potential is negative ({value:.3e}) at {tuple(point)}"
            )


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
        if self.abs <= 0 or self.rel <= 0:
            raise ValueError("tolerances must be positive")


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


def hamiltonian(system, state) -> float:
    """Conserved energy |v|^2_g / 2 + U / eps^2 (magnetic force does no work)."""
    u = system.potential.eval(state.x)
    system.check_potential(u, state.x)
    kinetic = 0.5 * system.metric.inner(state.x, state.v, state.v)
    return kinetic + system.inv_eps ** 2 * u


@dataclass
class BoundsVerdict:
    passed: bool
    speed_margin: float
    potential_margin: float
    speed_cap: float


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
        for tau, row, energy, plen in zip(
                self.times, self.states, self.energies, self.path_length):
            u = system.potential.eval(row[:n])
            cells = [tau, *row, energy, u, plen]
            fileobj.write(",".join(repr(float(c)) for c in cells) + "\n")


def _solve_branch(rhs, y0, t_end, tol, max_step):
    sol = solve_ivp(
        rhs, (0.0, t_end), y0, method="RK45",
        rtol=tol.rel, atol=tol.abs, max_step=max_step, dense_output=True,
    )
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    return sol


def integrate(system, initial, horizon, tol=None) -> Trajectory:
    """Integrate both time branches over [-T, 0] and [0, T]."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    tol = tol or Tolerances()
    n = len(initial.x)
    metric = system.metric

    def rhs(_t, y):
        state = State.__new__(State)
        state.tau = _t
        state.x = y[:n]
        state.v = y[n:]
        acc = el_acceleration(system, state)
        return np.concatenate([y[n:], acc])

    if tol.max_step is not None:
        max_step = tol.max_step
    elif system.epsilon is not None:
        max_step = system.epsilon / 10.0
    else:
        max_step = np.inf

    y0 = np.concatenate([initial.x, initial.v])
    fwd = _solve_branch(rhs, y0, horizon, tol, max_step)
    bwd = _solve_branch(rhs, y0, -horizon, tol, max_step)

    # merge step samples in increasing tau (backward branch reversed)
    times = np.concatenate([bwd.t[::-1], fwd.t])
    states = np.concatenate([bwd.y.T[::-1], fwd.y.T])

    grid_times = np.linspace(-horizon, horizon, GRID_POINTS)
    grid_states = np.empty((GRID_POINTS, 2 * n))
    neg = grid_times < 0
    grid_states[neg] = bwd.sol(grid_times[neg]).T
    grid_states[~neg] = fwd.sol(grid_times[~neg]).T

    energies = np.empty(len(times))
    speeds = np.empty(len(times))
    potentials = np.empty(len(times))
    for i, row in enumerate(states):
        x, v = row[:n], row[n:]
        u = system.potential.eval(x)
        system.check_potential(u, x)
        potentials[i] = u
        speeds[i] = metric.norm(x, v)
        energies[i] = (0.5 * metric.inner(x, v, v)
                       + system.inv_eps ** 2 * u)

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
            "nfev": int(fwd.nfev + bwd.nfev),
            "steps": int(len(fwd.t) + len(bwd.t) - 2),
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
        speed_cap=float(speed_cap),
    )


def el_residual_adapted(system, trajectory) -> np.ndarray:
    """Residual of the zero-coordinate EL equation in adapted coordinates.

    Assumes the system's own coordinates are adapted (no mixed first-row
    metric terms), so coordinate 0 plays the role of the level coordinate.
    The second derivative comes from divided differences on the uniform
    grid; the remaining five terms are evaluated from the system data.
    """
    n = trajectory.dimension
    grid = trajectory.grid_times
    h = grid[1] - grid[0]
    z = trajectory.grid_states[:, 0]
    zdd = (z[2:] - 2 * z[1:-1] + z[:-2]) / h ** 2
    inv_eps = system.inv_eps
    residuals = np.empty(len(grid) - 2)
    for k in range(1, len(grid) - 1):
        row = trajectory.grid_states[k]
        x, v = row[:n], row[n:]
        gamma = system.metric.christoffel(x)
        ginv = system.metric.inverse(x)
        g00 = ginv[0, 0]
        _, du = system.potential.value_and_grad(x)
        quad = float(np.einsum("mn,m,n->", gamma[0], v, v))
        mag = 0.0
        if system.magnetic is not None:
            f_tensor = magnetic_tensor(system.magnetic, x)
            mag = inv_eps * g00 * float(f_tensor[:, 0] @ v)  # F_{b0} v^b
        residuals[k - 1] = (zdd[k - 1] + quad + mag
                            + inv_eps ** 2 * g00 * du[0])
    return residuals
