"""Reference implementations that the tests hold the package to.

The dual-number walker is the reference semantics of the expression
language: it evaluates an AST over plain floats or vector-forward dual
numbers (``instab.expr.Dual``, one derivative seed per coordinate,
nestable for second order), independently of the generated code. The
fields' own evaluations, in order, are the oracle of the kernels that
compute several fields at once. The per-shell sampler, one projection per
round over one index set, is the oracle of the batched first rounds. The
``el_acceleration`` here, which reads dU, the magnetic tensor, g^-1 and
Gamma from one call each and contracts them in straight-line code of its
own, is the oracle of the motion kernels. The other helpers
compute the conserved energy, check a trajectory against the equations of
motion and the two time parameterizations against each other.
"""

import functools
import math

import numpy as np

from instab import certify
from instab.dynamics import (
    ACCELERATION,
    State,
    Tolerances,
    _bad_rows,
    _energy_rows,
    _potential_error,
    _unpacked,
    integrate,
)
from instab.errors import DomainError, NonFiniteResult
from instab.expr import (
    _UNROLL_POW,
    Dual,
    Fun,
    IntPow,
    Neg,
    Num,
    Var,
    _dual_gradient,
    _dual_value,
    _not_finite,
    _value_of,
    define_scalar,
    derivative,
)
from instab.geometry import magnetic_tensor

# --- the dual-number walker -------------------------------------------------


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


def eval_expr(node, coords, functions=_FUN_EVAL):
    """Evaluate over floats or duals (the reference semantics), with
    ``functions`` the elementary functions by name."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return coords[node.index]
    if isinstance(node, Neg):
        return -eval_expr(node.arg, coords, functions)
    if isinstance(node, Fun):
        return functions[node.name](eval_expr(node.arg, coords, functions))
    if isinstance(node, IntPow):
        return _ipow(eval_expr(node.base, coords, functions), node.k)
    a = eval_expr(node.lhs, coords, functions)
    b = eval_expr(node.rhs, coords, functions)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return _divide(a, b)
    return functions["exp"](functions["ln"](a) * b)  # real power


def call(field, coords):
    """The walker's value of a ``ScalarField`` at floats or duals."""
    return eval_expr(field.body, coords)


def grad_dual(field, point) -> np.ndarray:
    """A field's gradient via the dual-number reference path."""
    return _dual_gradient(lambda coords: call(field, coords),
                          field.dimension, point, field.label)


def eval_dual(field, point) -> float:
    """A field's value via the dual-number reference path."""
    return _dual_value(lambda coords: call(field, coords), point, field.label)


def fields_in_order(fields, point):
    """Each field's own ``value_and_grad`` in order: values, then gradients,
    or the first field's error. The kernels' oracle for several fields."""
    out = [fld.value_and_grad(point) for fld in fields]
    return (tuple(value for value, _ in out)
            + tuple(d for _, grad in out for d in grad.tolist()))


# The numpy backend's elementary functions. Where numpy has its own SIMD
# exp and log (AVX512F), they may round a last bit unlike math's, which
# a cancellation such as 1 - x2^x2 near x2 = 0 magnifies far beyond any
# relative tolerance.
_NUMPY_FUN_EVAL = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
                   "ln": np.log, "sqrt": np.sqrt}


def _walk_numpy(node, point) -> float:
    coords = [np.array([float(x)]) for x in point]
    with np.errstate(all="ignore"):
        value = eval_expr(node, coords, _NUMPY_FUN_EVAL)
    return float(np.broadcast_to(value, (1,))[0])


def eval_numpy(field, point) -> float:
    """A field's value from the walker over one-element numpy arrays and
    numpy's elementary functions, those the vectorized backend calls."""
    return _walk_numpy(field.body, point)


def grad_numpy(field, point) -> list:
    """A field's gradient from the same walker over its ``derivative``
    ASTs, whose values the vectorized backend computes."""
    return [_walk_numpy(derivative(field.body, a), point)
            for a in range(field.dimension)]


# --- certification shells ---------------------------------------------------


def _project(probe, points, targets):
    """Newton steps toward U = t over one index set of the moving points,
    gathered from and scattered back to all of them at each step."""
    u_vec = probe.potential.vectorized()
    points = points.copy()
    values, grads = u_vec(points)
    moving = np.arange(len(points))
    for _ in range(certify._NEWTON_STEPS):
        miss = values[moving] - targets[moving]
        going = np.isfinite(miss) & (np.abs(miss) > certify._NEWTON_TOL
                                     * targets[moving])
        moving, miss, grads = moving[going], miss[going], grads[going]
        if not len(moving):
            break
        with np.errstate(all="ignore"):
            step = (miss / np.einsum("ij,ij->i", grads, grads))[:, None]
            points[moving] -= step * grads
        values[moving], grads = u_vec(points[moving])
    return points, values


def _draw(probe, rng, count, low, high):
    starts = certify._ball_points(probe, rng, count)
    targets = low * (high / low) ** rng.random(count)
    points, values = _project(probe, starts, targets)
    with np.errstate(all="ignore"):
        inside = np.linalg.norm(points - probe.center, axis=1) <= probe.radius
    return points[inside], values[inside]


def sample_shell(probe, delta, shell_index):
    """A shell's (points, attempts, near-locus points) from its own
    generator, one projection per round, and shell 0's near-locus starts
    drawn after its last round."""
    rng = np.random.default_rng([probe.seed, shell_index])
    accepted = []
    kept = attempts = 0
    while kept < probe.samples and attempts < certify.MAX_ATTEMPTS_PER_SHELL:
        points, values = _draw(probe, rng, 2 * probe.samples,
                               delta, 10.0 * delta)
        attempts += 2 * probe.samples
        points = points[(values >= delta) & (values <= 10.0 * delta)]
        if not len(points):
            break
        accepted.append(points)
        kept += len(points)
    near = []
    if shell_index == 0:
        points, values = _draw(probe, rng, certify._NEAR_STARTS,
                               delta / 10.0, delta)
        near = list(points[(values >= 0) & (values < delta)][:32])
    points = np.concatenate(accepted) if accepted \
        else np.empty((0, len(probe.center)))
    return points[:probe.samples], attempts, near


# --- the equations of motion -------------------------------------------------


def el_acceleration(system, state) -> np.ndarray:
    """Coordinate acceleration of the Euler-Lagrange equations.

    a^a = -Gamma^a_{mn} v^m v^n - (1/eps) g^{ab} F_{gb} v^g
          - (1/eps^2) g^{ab} d_b U
    with F_{ab} the magnetic tensor of the one-form, contracted by
    ``_contraction``. The sign of the gyroscopic term is pinned by the
    adapted-coordinate residual test in the test suite. Where a term
    overflows though every field is finite, it raises NonFiniteResult
    naming the state (x, v), as the generated motion kernel does.
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
    acc = contract(*system.inputs, v, du, f_tensor, ginv, gamma)
    if sum(acc) * 0.0 != 0.0 and not all(map(math.isfinite, acc)):
        raise _not_finite(ACCELERATION, [*x, *v])
    return np.array(acc)


@functools.cache
def _contraction(n, magnetic, curved):
    """``contract(ee, e, v, du, F, g^-1, Gamma)``, the acceleration as a
    tuple, in straight-line code over n coordinates, (ee, e) the inputs.

    The force is w_b = ee d_b U - e sum_{a != b} F_ab v^a, the
    gyroscopic sum over a in ``_motion_kernel``'s order; on a curved metric
    the acceleration is sum_b g^ab w_b - sum_m (sum_k Gamma^a_mk v^k) v^m,
    as ``ginv.dot(w) - gamma.dot(v).dot(v)`` arranges it, and else w.
    """
    idx = range(n)
    lines = [f"{_unpacked('v', n)}= v.tolist()",
             f"{_unpacked('du', n)}= du.tolist()"]
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
    src = ("def _contract(ee, e, v, du, f, ginv, gamma):\n"
           + "".join(f"    {line}\n" for line in lines)
           + f"    return ({''.join(f'{term}, ' for term in acc)})\n")
    return define_scalar("_contract", src)


# --- trajectories -----------------------------------------------------------


def hamiltonian(system, state):
    """Conserved energy |v|^2_g / 2 + U / eps^2, as a run's energy log has
    it: ``state`` holds one point, giving a float, or (m, n) rows, giving an
    array. The first row where U is undefined or negative raises.
    """
    x = np.atleast_2d(state.x)
    energy, u, _ = _energy_rows(system, x, np.atleast_2d(state.v))
    bad = _bad_rows(u)
    if bad.any():
        raise _potential_error(system, x[np.argmax(bad)])
    return float(energy[0]) if state.x.ndim == 1 else energy



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


CONSISTENCY_FRACTIONS = (0.25, 0.5, 1.0)  # of T; see physical_consistency


def physical_consistency(problem, epsilon):
    """Spot-check the two time parameterizations against each other.

    The unscaled system started with speed epsilon |grad f(p)| and run to
    physical time tau/epsilon must land where the rescaled run is at tau.
    Returns the worst Euclidean mismatch over CONSISTENCY_FRACTIONS of T.
    """
    tol = Tolerances()
    _df, grad, _cap_sq = problem.gradient_data()
    rescaled = integrate(
        problem.system(epsilon=epsilon),
        State(0.0, problem.center, grad),
        problem.horizon, tol=tol,
    )
    physical = integrate(
        problem.system(epsilon=None),
        State(0.0, problem.center, epsilon * grad),
        problem.horizon / epsilon, tol=tol,
    )
    n = problem.dimension
    grid = rescaled.grid_times
    worst = 0.0
    for frac in CONSISTENCY_FRACTIONS:
        tau = frac * problem.horizon
        i = int(np.argmin(np.abs(grid - tau)))
        a = rescaled.grid_states[i, :n]
        # physical grid rarely hits tau/eps exactly; re-interpolate linearly
        t_phys = grid[i] / epsilon
        b = _interp_state(physical, t_phys, n)
        worst = max(worst, float(np.linalg.norm(a - b)))
    return worst


def _interp_state(trajectory, t, n):
    times = trajectory.grid_times
    k = int(np.clip(np.searchsorted(times, t), 1, len(times) - 1))
    t0, t1 = times[k - 1], times[k]
    w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    row = (1 - w) * trajectory.grid_states[k - 1] + w * trajectory.grid_states[k]
    return row[:n]
