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

Every flow solve is one branch of the adaptive Dormand-Prince 5(4) stepper
that integrates the equations of motion (``dynamics``), at rtol = atol =
FLOW_TOL and with no step cap. On a Euclidean metric the flow field,
X = df/|df|^2 and for a Jacobian flow also DX·J, is ASTs over the level
field's partials, compiled by ``expr.compile_kernel`` once per field, with
``normalized_gradient`` or ``normalized_gradient_jacobian`` as the
reference; a curved metric always uses the reference. Each chart counts
its flow solves and its memo hits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import Tolerances, _solve_branch
from .errors import (
    IdentityViolation,
    OrderDependence,
    SingularJacobian,
)
from .expr import Bin, Num, Var, compile_kernel, derivative, sum_nodes
from .geometry import normalized_gradient, normalized_gradient_jacobian

FLOW_GRADIENT_FLOOR = 1e-8
FLOW_TOL = 1e-12
_FLOW_TOLERANCES = Tolerances(abs=FLOW_TOL, rel=FLOW_TOL)
_MEMO_QUANTUM = 1e-12
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
    J_cj with w_c = 2 sum_b df_b H_bc, without structural zeros in s and w.

    At or within rounding of FLOW_GRADIENT_FLOOR the reference decides.
    """
    n, zero = fld.dimension, Num(0.0)
    df = [derivative(fld.body, a) for a in range(n)]

    def dot(pairs):
        return sum_nodes([Bin("*", a, b) for a, b in pairs
                          if zero not in (a, b)])

    s = dot(zip(df, df))
    out = [Bin("/", d, s) for d in df]
    nodes = [fld.body]
    if columns:
        nodes += df
        hess = [[derivative(d, c) for c in range(n)] for d in df]
        w = [Bin("*", Num(2.0), dot((df[b], hess[b][c]) for b in range(n)))
             for c in range(n)]
        dx = [[Bin("/", Bin("-", hess[a][c], Bin("*", out[a], w[c])), s)
               for c in range(n)] for a in range(n)]
        out += [sum_nodes([Bin("*", dx[a][c], Var(n + c * columns + j))
                           for c in range(n)])
                for a in range(n) for j in range(columns)]
    floor_sq = FLOW_GRADIENT_FLOOR ** 2 * (1.0 + 1e-9)
    return compile_kernel(nodes, n, out, reference, guard=(s, floor_sq))


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


def solve_ivp(field, arg, start, t):
    """The time-``t`` state of y' = field(y, arg) from ``start``, a tuple.

    One gridless Dormand-Prince branch at rtol = atol = FLOW_TOL with no
    step cap; every flow solve of a chart comes through here.
    """
    return _solve_branch(field, arg, start, t, _FLOW_TOLERANCES, math.inf)


def _solve(field, arg, start, t, counters):
    if t == 0.0:
        return start
    if counters is not None:
        counters["flow_solves"] += 1
    return solve_ivp(field, arg, start, t)


def flow_normalized_gradient(metric, fld, start, t, counters=None):
    """The time-t point of the flow of grad(f)/|grad f|^2 from ``start``.

    A solve, one for each t != 0, is counted in ``counters`` if given.
    """
    start = tuple(np.asarray(start, dtype=float).tolist())
    return np.array(_solve(compile_flow(metric, fld), (metric, fld), start,
                           t, counters))


def _flow_with_jacobian(metric, fld, start, jac, t, counters):
    """The time-t point of the flow and ``jac`` carried along by J' = DX·J."""
    n, m = jac.shape
    state = tuple(start.tolist()) + tuple(jac.ravel().tolist())
    end = np.array(_solve(compile_flow(metric, fld, m), (metric, fld), state,
                          t, counters))
    return end[:n], end[n:].reshape(n, m)


class AdaptedChart:
    """Level-set chart Psi(z, y) (single f) or Psi(r, y) (k commuting F_i)."""

    def __init__(self, metric, fields, psi, level_ranges):
        self.metric = metric
        self.fields = list(fields)  # k fields; k == 1 for the single case
        self.psi = psi
        self.level_ranges = [tuple(r) for r in level_ranges]  # k ranges
        self._memo = {}
        # flow solves, and point calls that solved no flow: memo hits and
        # first calls at zero levels, where Psi is the base map
        self.counters = {"flow_solves": 0, "memo_hits": 0}

    @property
    def k(self):
        return len(self.fields)

    def point(self, coords, order=None) -> np.ndarray:
        """Evaluate Psi at chart coordinates (levels..., base...).

        ``order`` optionally permutes the flow composition (the flows must
        commute, and swapping the order is how that is probed).
        """
        coords = np.asarray(coords, dtype=float)
        sequence = tuple(range(self.k) if order is None else order)
        key = (tuple(int(round(c / _MEMO_QUANTUM)) for c in coords),
               sequence)
        hit = self._memo.get(key)
        levels = coords[:self.k]
        if hit is not None or not levels.any():
            self.counters["memo_hits"] += 1
        if hit is not None:
            return hit.copy()
        x = self.psi(coords[self.k:])
        # Psi(r, y) = phi^1_{r_1} o ... o phi^k_{r_k} (psi(y)): the highest
        # index flows first.
        for i in reversed(sequence):
            x = flow_normalized_gradient(self.metric, self.fields[i], x,
                                         float(levels[i]), self.counters)
        self._memo[key] = x.copy()
        return x

    def jacobian(self, coords) -> np.ndarray:
        """d(Psi), one column per coordinate, exact but for the integrator.

        The flows carry the base columns d(psi) by their variational
        equations; level column i is X_i where flow i ends, carried through
        the flows that run after it.
        """
        coords = np.asarray(coords, dtype=float)
        k = self.k
        x = self.psi(coords[k:])
        jac = np.hstack([np.zeros((len(x), k)), self.psi.jacobian(coords[k:])])
        for i in reversed(range(k)):
            x, jac[:, i + 1:] = _flow_with_jacobian(
                self.metric, self.fields[i], x, jac[:, i + 1:],
                float(coords[i]), self.counters)
            jac[:, i] = normalized_gradient(
                self.metric, self.fields[i], x, FLOW_GRADIENT_FLOOR)
        return jac

    def grid(self, count=DEFAULT_GRID):
        """Cartesian sample grid over the level ranges and the base box."""
        return _box_grid(self.level_ranges + list(self.psi.box), count)


def _box_grid(box, count):
    """Grid of ``count`` points per (lo, hi) interval, one point per row."""
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _check_base_map(fields, psi, count=DEFAULT_GRID):
    for y in _box_grid(psi.box, count):
        p = psi(y)
        for fld in fields:
            value = fld.eval(p)
            if abs(value) > IDENTITY_TOL:
                raise IdentityViolation(
                    f"base map leaves the zero level set: |f| = {value:.3e}",
                    point=tuple(y), residual=float(value),
                )


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
    _check_base_map(fields, psi, count=grid_count)
    chart = AdaptedChart(metric, fields, psi, [tuple(r) for r in r_box])

    for coords in chart.grid(grid_count):
        p = chart.point(coords)
        for i, fld in enumerate(fields):
            residual = fld.eval(p) - coords[i]
            if abs(residual) > IDENTITY_TOL:
                raise IdentityViolation(
                    f"F_{i + 1}(Psi(r, y)) - r_{i + 1} = {residual:.3e}",
                    point=tuple(coords), residual=float(residual),
                )

    # commutativity at the numeric level: reversed composition must agree
    corners = chart.grid(3)
    for coords in corners:
        forward = chart.point(coords)
        swapped = chart.point(coords, order=list(reversed(range(k))))
        gap = float(np.max(np.abs(forward - swapped)))
        if gap > SWAP_TOL:
            raise OrderDependence(
                f"flow composition order changes Psi by {gap:.3e} "
                f"at {tuple(coords)}"
            )

    # additivity F_j(phi^i(t, x)) = delta_ij t + F_j(x) on sampled flows
    for coords in corners[:: max(1, len(corners) // 5)]:
        x = chart.point(coords)
        for i in range(k):
            t = 0.05 * (1 + i)
            moved = flow_normalized_gradient(metric, fields[i], x, t,
                                             chart.counters)
            for j, fld in enumerate(fields):
                expect = (t if i == j else 0.0) + fld.eval(x)
                residual = fld.eval(moved) - expect
                if abs(residual) > IDENTITY_TOL:
                    raise IdentityViolation(
                        f"flow additivity broken for (i={i}, j={j}): "
                        f"{residual:.3e}",
                        point=tuple(x), residual=float(residual),
                    )
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
    max_mixed = 0.0
    max_off = 0.0
    max_cond = 0.0
    for coords in chart.grid(grid_count):
        jac = chart.jacobian(coords)
        cond = float(np.linalg.cond(jac))
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularJacobian(
                f"chart Jacobian ill-conditioned ({cond:.3e}) "
                f"at {tuple(coords)}"
            )
        ambient = chart.point(coords)
        g = chart.metric.value(ambient)
        pulled = jac.T @ g @ jac
        mixed = float(np.max(np.abs(pulled[:k, k:])))
        off = 0.0
        if k > 1:
            level_block = pulled[:k, :k]
            off = float(np.max(np.abs(
                level_block - np.diag(np.diag(level_block)))))
        max_mixed = max(max_mixed, mixed)
        max_off = max(max_off, off)
        max_cond = max(max_cond, cond)
    return BlockReport(
        passed=bool(max_mixed <= BLOCK_TOL and max_off <= BLOCK_TOL),
        max_mixed=max_mixed,
        max_off_block=max_off,
        max_condition=max_cond,
        grid_count=grid_count,
    )


def injectivity_probe(chart, grid_count=DEFAULT_GRID):
    """Distinct grid nodes must map to distinct ambient points."""
    points = np.array([chart.point(c) for c in chart.grid(grid_count)])
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    iu = np.triu_indices(len(points), k=1)
    bad = np.nonzero(dist[iu] < MIN_GAP)[0]
    return [(int(iu[0][b]), int(iu[1][b])) for b in bad]
