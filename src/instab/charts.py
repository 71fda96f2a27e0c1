"""Adapted coordinate parameterizations built from normalized gradient flows.

A chart transports a parameterization of a zero level set along the flow of
grad(f)/|grad f|^2, so that f becomes the first coordinate and the pulled
back metric loses its mixed first-row terms. The multi-function variant
composes one such flow per component of a map F whose gradients are
orthogonal and whose normalized flows commute.

Chart points are computed lazily by flow integration and memoized on
quantized coordinates. A Jacobian integrates the variational equation
J' = DX·J of each flow next to the flow itself, with DX exact from the
Hessian of the level function, so the only error left is the integrator's.

Every flow solve is one branch of the adaptive DOP853 stepper that
integrates the equations of motion (``dynamics``), at rtol = atol =
FLOW_TOL and with no step cap. On a Euclidean metric the flow field,
X = df/|df|^2 and for a Jacobian flow also DX·J, is ASTs over the level
field's partials, compiled by ``expr.compile_kernel`` once per field,
with its register program; ``normalized_gradient`` or
``normalized_gradient_jacobian`` decides where the kernel's code fails or
an output is not finite, and on a curved metric. Each grid check hands
all its points to the compiled loop in one call (``dynamics._solve_rows``);
a row it declines, where the kernel would decide, underflows or spends
its budget, every row on a curved metric and every row without a compiler
are solved alone. Each row has its single solve's bits.

The base map's values and partials, a Jacobian's level columns and the
checks' field values come from one numpy pass per grid, each row with the
per-point call's bits, on a transcendental base map or field but for its
last ones. A nan row falls back to the per-point call, which raises the
field's own error, and a check runs its scalar code at the points its pass
flags, so it fails where and as it did point by point. Each chart counts
its flow solves and its memo hits, per point.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import native
from .dynamics import Tolerances, _solve_rows
from .errors import (
    IdentityViolation,
    OrderDependence,
    SingularJacobian,
)
from .expr import (Num, Var, compile_kernel, compile_vectorized_kernel,
                   derivative, fold, partial_fields, total)
from .geometry import (
    gradient_rows,
    mend_rows,
    normalized_gradient,
    normalized_gradient_jacobian,
)

FLOW_GRADIENT_FLOOR = 1e-8
FLOW_TOL = 1e-12
_FLOW_TOLERANCES = Tolerances(abs=FLOW_TOL, rel=FLOW_TOL)
_FLOOR_SQ = FLOW_GRADIENT_FLOOR ** 2 * (1.0 + 1e-9)  # the guard on |df|^2
MEMO_QUANTUM = 1e-12
DEFAULT_GRID = 9
IDENTITY_TOL = 1e-8  # residual of a level identity such as F(Psi(r, y)) = r
SWAP_TOL = 1e-7  # change of Psi when the flow order is reversed
BLOCK_TOL = 1e-6  # mixed or off-block entry of the pulled-back metric
MIN_GAP = 1e-10  # closest that two grid nodes' ambient points may be


@dataclass
class BaseSurfaceMap:
    """Map psi from base coordinates into the ambient zero level set."""

    components: list  # n scalar fields over the base coordinates
    box: list  # [(lo, hi)] per base coordinate

    @property
    def ambient_dimension(self):
        return len(self.components)

    def __call__(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.array([c.eval(y) for c in self.components])

    def jacobian(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.array([c.grad(y) for c in self.components])

    @functools.cached_property
    def _numpy(self):
        """The components' values, then their partials, over rows."""
        bodies = [c.body for c in self.components]
        d = self.components[0].dimension
        return compile_vectorized_kernel(bodies, d, bodies + [
            derivative(body, a) for body in bodies for a in range(d)])

    def rows(self, y):
        """psi, (N, n), and d(psi), (N, n, d), at each row of (N, d) base
        coordinates from one numpy pass, and the mask of its nan rows,
        those where ``__call__`` raises a component's own error."""
        out, n = self._numpy(y), len(self.components)
        return (out[:, :n], out[:, n:].reshape(len(y), n, -1),
                np.isnan(out).any(axis=1))


# --- flow fields -------------------------------------------------------------

def _reference_flow(y, arg):
    """X = grad f/|grad f|^2 at the point y from ``normalized_gradient``."""
    metric, fld = arg
    return tuple(normalized_gradient(metric, fld, np.array(y),
                                     FLOW_GRADIENT_FLOOR).tolist())


def _reference_jacobian_flow(y, arg):
    """(X, DX·J) at y = (x, J row by row) from the reference."""
    metric, fld = arg
    n = fld.dimension
    vec, dvec = normalized_gradient_jacobian(
        metric, fld, np.array(y[:n]), FLOW_GRADIENT_FLOOR)
    carried = dvec @ np.array(y[n:]).reshape(n, -1)
    return tuple(vec.tolist()) + tuple(carried.ravel().tolist())


def _flow_kernel(fld, columns, reference):
    """X = df/s with s = sum_b df_b^2, and DX·J = sum_c ((H_ac - X_a w_c)/s)
    J_cj with w_c = 2 sum_b df_b H_bc, with structural zeros folded away
    (``expr.fold``), so an identically zero DX costs no product.

    At or within rounding of FLOW_GRADIENT_FLOOR the reference decides,
    and so it does where an output is not finite, as where DX overflows.
    """
    n = fld.dimension
    partials = partial_fields(fld)
    df = [d.body for d in partials]
    s = total(fold("*", d, d) for d in df)
    out = [fold("/", d, s) for d in df]
    fields = [fld]
    if columns:
        fields += partials
        hess = [[h.body for h in partial_fields(d)] for d in partials]
        w = [fold("*", Num(2.0), total(fold("*", df[b], hess[b][c])
                                       for b in range(n)))
             for c in range(n)]
        dx = [[fold("/", fold("-", hess[a][c], fold("*", out[a], w[c])), s)
               for c in range(n)] for a in range(n)]
        out += [total(fold("*", dx[a][c], Var(n + c * columns + j))
                      for c in range(n))
                for a in range(n) for j in range(columns)]
    return compile_kernel(fields, n, out, reference, guards=[(s, _FLOOR_SQ)],
                          label=f"the flow of {fld.label}",
                          program=native.program)


def compile_flow(metric, fld, columns=0):
    """The flow field of ``fld`` as ``field(y, (metric, fld)) -> dy/dt``.

    ``y`` is a point, followed, for ``columns`` > 0, by an n x columns
    matrix J row by row; the result is X = grad f/|grad f|^2, followed by
    DX·J. On a Euclidean metric it is generated once per field and column
    count; on a curved one it is the reference.
    """
    reference = _reference_jacobian_flow if columns else _reference_flow
    if not metric.euclidean:
        return reference
    return fld.code(("flow", columns), _flow_kernel, fld, columns, reference)


def solve_ivp(metric, fld, start, t):
    """The time-``t[r]`` state of the flow of ``fld`` from each row r of
    ``start``, (N, m): a point, and for m > n a matrix J row by row,
    carried by J' = DX·J. A row with t = 0 is its start; each other is a
    gridless DOP853 branch at rtol = atol = FLOW_TOL with no step cap, all
    of them stepped by the compiled loop in one call where it builds
    (``dynamics._solve_rows``). Every flow solve of a chart comes through
    here.
    """
    columns = start.shape[1] // fld.dimension - 1
    moving = t != 0.0
    end = start.copy()
    end[moving] = _solve_rows(compile_flow(metric, fld, columns),
                              (metric, fld), start[moving], t[moving],
                              _FLOW_TOLERANCES)
    return end


def flow_normalized_gradient(metric, fld, start, t, counters=None):
    """The time-t state of the flow of grad(f)/|grad f|^2 from ``start``,
    or from each row of an (N, m) array, each for its own t or all for one;
    a state is a point, and for m > n a matrix J row by row, carried by
    J' = DX·J (``solve_ivp``). A solve, one for each t != 0, is counted in
    ``counters`` if given; where no row moves, none is made."""
    start = np.asarray(start, dtype=float)
    rows = np.atleast_2d(start)
    t = np.broadcast_to(np.asarray(t, dtype=float), len(rows))
    moving = int(np.count_nonzero(t))
    if counters is not None:
        counters["flow_solves"] += moving
    return (solve_ivp(metric, fld, rows, t) if moving
            else rows.copy()).reshape(start.shape)


class AdaptedChart:
    """Level-set chart Psi(z, y) (single f) or Psi(r, y) (k commuting F_i)."""

    def __init__(self, metric, fields, psi, level_ranges):
        self.metric = metric
        self.fields = list(fields)  # k fields; k == 1 for the single case
        self.psi = psi
        self.level_ranges = [tuple(r) for r in level_ranges]  # k ranges
        self._memo = {}
        # flow solves, and points that solved no flow: memo hits and first
        # points at zero levels, where Psi is the base map
        self.counters = {"flow_solves": 0, "memo_hits": 0}

    @property
    def k(self):
        return len(self.fields)

    def point(self, coords, order=None) -> np.ndarray:
        """Evaluate Psi at chart coordinates (levels..., base...), or at
        each row of an (N, d) array of them, with one batch per flow.

        ``order`` optionally permutes the flow composition (the flows must
        commute, and swapping the order is how that is probed).
        """
        coords = np.asarray(coords, dtype=float)
        rows, k = np.atleast_2d(coords), self.k
        sequence = tuple(range(k) if order is None else order)
        keys = [(tuple(map(round, row)), sequence)
                for row in (rows / MEMO_QUANTUM).tolist()]
        missed = {}  # key -> its first row, for the keys not in the memo
        for r, key in enumerate(keys):
            hit = key in self._memo or key in missed
            self.counters["memo_hits"] += hit or not rows[r, :k].any()
            if not hit:
                missed[key] = r
        if missed:
            first = list(missed.values())
            base = rows[first, k:]
            x, _jac, bad = self.psi.rows(base)
            mend_rows(base, bad, lambda y: (self.psi(y),), (x,))
            # Psi(r, y) = phi^1_{r_1} o ... o phi^k_{r_k} (psi(y)): the
            # highest index flows first.
            for i in reversed(sequence):
                x = flow_normalized_gradient(self.metric, self.fields[i], x,
                                             rows[first, i], self.counters)
            self._memo.update(zip(missed, x))
        points = np.array([self._memo[key] for key in keys])
        return points if coords.ndim > 1 else points[0]

    @np.errstate(all="ignore")  # bad level-column rows, mended below
    def jacobian(self, coords) -> np.ndarray:
        """d(Psi), one column per coordinate, exact but for the integrator;
        at each row of an (N, d) array of coordinates an (N, n, d) array.

        The flows carry the base columns d(psi) by their variational
        equations; level column i is X_i where flow i ends, carried through
        the flows that run after it.
        """
        coords = np.asarray(coords, dtype=float)
        rows, k, n = np.atleast_2d(coords), self.k, self.psi.ambient_dimension
        base = rows[:, k:]
        x, base_jac, bad = self.psi.rows(base)
        mend_rows(base, bad, lambda y: (self.psi(y), self.psi.jacobian(y)),
                  (x, base_jac))
        jac = np.zeros(x.shape + rows.shape[1:])
        jac[:, :, k:] = base_jac
        for i in reversed(range(k)):
            carried = jac[:, :, i + 1:]
            end = flow_normalized_gradient(
                self.metric, self.fields[i],
                np.hstack([x, carried.reshape(len(x), -1)]), rows[:, i],
                self.counters)
            x, carried[...] = end[:, :n], end[:, n:].reshape(carried.shape)
            # level column i: X_i = grad f_i / |grad f_i|^2 at x, a row
            # below the floor or undefined from the scalar call, which raises
            grad, norm_sq, _inverse, bad = gradient_rows(
                self.metric, self.fields[i], x, FLOW_GRADIENT_FLOOR)
            jac[:, :, i] = grad / norm_sq[:, None]
            mend_rows(x, bad, lambda p: (normalized_gradient(
                self.metric, self.fields[i], p, FLOW_GRADIENT_FLOOR),),
                (jac[:, :, i],))
        return jac if coords.ndim > 1 else jac[0]

    def grid(self, count=DEFAULT_GRID):
        """Cartesian sample grid over the level ranges and the base box."""
        return _box_grid(self.level_ranges + list(self.psi.box), count)


def _off(fields, points, expect=0.0):
    """Whether at each of (N, n) ``points`` a field's value is nan or more
    than IDENTITY_TOL off ``expect`` (k x N), from one numpy pass per field.
    A check runs its scalar code at these points alone, in order, so it
    fails where and as it did point by point."""
    values = np.array([fld.vectorized()(points)[0] for fld in fields])
    return ~(abs(values - expect) <= IDENTITY_TOL).all(axis=0)


def _require(points, off, pairs):
    """Evaluate, at each row r of ``points`` that ``off`` flags, the
    (message, residual) pairs ``pairs(r)`` in order, and raise
    IdentityViolation at the first residual above IDENTITY_TOL."""
    for r in np.flatnonzero(off):
        for message, residual in pairs(r):
            if abs(residual) > IDENTITY_TOL:
                raise IdentityViolation(f"{message}{residual:.3e}",
                                        tuple(points[r]), float(residual))


def _box_grid(box, count):
    """Grid of ``count`` points per (lo, hi) interval, one point per row."""
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def build_chart(metric, fld, psi, z_range,
                grid_count=DEFAULT_GRID) -> AdaptedChart:
    """Construct and verify the single-function adapted chart."""
    return build_multi_chart(metric, [fld], psi, [z_range],
                             grid_count=grid_count)


def build_multi_chart(metric, fields, psi, r_box,
                      grid_count=DEFAULT_GRID) -> AdaptedChart:
    """Construct and verify the chart of k commuting flows (k >= 1)."""
    k = len(fields)
    n = psi.ambient_dimension
    if not k < n:
        raise ValueError("need fewer level functions than dimensions")
    base = _box_grid(psi.box, grid_count)
    x, _jac, bad = psi.rows(base)
    _require(base, bad | _off(fields, x), lambda r: (
        ("base map leaves the zero level set: |f| = ", fld.eval(p))
        for p in [psi(base[r])] for fld in fields))
    chart = AdaptedChart(metric, fields, psi, [tuple(r) for r in r_box])

    grid = chart.grid(grid_count)
    points = chart.point(grid)
    _require(grid, _off(fields, points, grid[:, :k].T), lambda r: (
        (f"F_{i + 1}(Psi(r, y)) - r_{i + 1} = ",
         fld.eval(points[r]) - grid[r, i]) for i, fld in enumerate(fields)))

    # commutativity at the numeric level: reversed composition must agree
    corners = chart.grid(3)
    swapped = chart.point(corners, order=list(reversed(range(k))))
    for coords, forward, back in zip(corners, chart.point(corners), swapped):
        gap = float(np.max(np.abs(forward - back)))
        if gap > SWAP_TOL:
            raise OrderDependence(
                f"flow composition order changes Psi by {gap:.3e} "
                f"at {tuple(coords)}"
            )

    # additivity F_j(phi^i(t, x)) = delta_ij t + F_j(x) on sampled flows
    starts = chart.point(corners[:: max(1, len(corners) // 5)])
    moved = [flow_normalized_gradient(metric, fld, starts, 0.05 * (1 + i),
                                      chart.counters)
             for i, fld in enumerate(fields)]
    before = np.array([fld.vectorized()(starts)[0] for fld in fields])
    off = np.any([_off(fields, ends, np.eye(k)[:, [i]] * (0.05 * (1 + i))
                       + before)  # as expect below
                  for i, ends in enumerate(moved)], axis=0)

    def additivity(r):
        for i in range(k):
            for j, fld in enumerate(fields):
                expect = ((0.05 * (1 + i) if i == j else 0.0)
                          + fld.eval(starts[r]))  # f at the start first
                yield (f"flow additivity broken for (i={i}, j={j}): ",
                       fld.eval(moved[i][r]) - expect)
    _require(starts, off, additivity)
    return chart


@dataclass
class BlockReport:
    passed: bool
    max_mixed: float
    max_off_block: float
    max_condition: float
    grid_count: int

    to_dict = asdict


def pullback_metric_block_check(chart,
                                grid_count=DEFAULT_GRID) -> BlockReport:
    """Assemble J^T g J on a grid and check its block structure.

    Single function: the mixed entries g_{0a} must vanish. Multiple
    functions: additionally the upper k x k level block must be diagonal.
    """
    k = chart.k
    grid = chart.grid(grid_count)
    jacobians = chart.jacobian(grid)
    points = chart.point(grid)
    conds = np.linalg.cond(jacobians)
    ill = ~(conds <= 1e12)  # not finite, or above the bound
    count = int(np.argmax(ill)) if ill.any() else len(grid)
    g = np.array([chart.metric.value(p) for p in points[:count]])
    if count < len(grid):
        raise SingularJacobian(
            f"chart Jacobian ill-conditioned ({conds[count]:.3e}) "
            f"at {tuple(grid[count])}"
        )
    pulled = jacobians.transpose(0, 2, 1) @ g @ jacobians
    # a nan row counts for none, as in a running max
    max_mixed = np.fmax.reduce(np.abs(pulled[:, :k, k:]).max(axis=(1, 2)),
                               initial=0.0)
    max_off = 0.0
    if k > 1:
        level_block = pulled[:, :k, :k]
        diagonal = np.zeros_like(level_block)
        diagonal[:, range(k), range(k)] = level_block[:, range(k), range(k)]
        max_off = np.fmax.reduce(
            np.abs(level_block - diagonal).max(axis=(1, 2)), initial=0.0)
    return BlockReport(
        passed=bool(max_mixed <= BLOCK_TOL and max_off <= BLOCK_TOL),
        max_mixed=float(max_mixed),
        max_off_block=float(max_off),
        max_condition=float(np.max(conds, initial=0.0)),
        grid_count=grid_count,
    )


def injectivity_probe(chart, grid_count=DEFAULT_GRID):
    """Distinct grid nodes must map to distinct ambient points."""
    points = chart.point(chart.grid(grid_count))
    diffs = points[:, None, :] - points[None, :, :]
    with np.errstate(over="ignore"):  # an infinite distance is no collision
        dist = np.sqrt((diffs ** 2).sum(axis=2))
    iu = np.triu_indices(len(points), k=1)
    bad = np.nonzero(dist[iu] < MIN_GAP)[0]
    return [(int(iu[0][b]), int(iu[1][b])) for b in bad]
