"""Adapted coordinate parameterizations built from normalized gradient flows.

A chart transports a parameterization of a zero level set along the flow of
grad(f)/|grad f|^2, so that f becomes the first coordinate and the pulled
back metric loses its mixed first-row terms. The multi-function variant
composes one such flow per component of a map F whose gradients are
orthogonal and whose normalized flows commute.

Chart points are computed lazily by flow integration and memoized on
quantized coordinates; Jacobians use fourth-order central differences (the
flows are only known numerically, and conditioning checks are all the
invertibility argument needs here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    GradientTooSmall,
    IdentityViolation,
    IntegrationError,
    OrderDependence,
    SingularJacobian,
)
from .geometry import gradient_data

FLOW_GRADIENT_FLOOR = 1e-8
FLOW_TOL = 1e-12
JACOBIAN_STEP = 1e-3
_MEMO_QUANTUM = 1e-12
DEFAULT_GRID = 9


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


def _flow_rhs(metric, fld):
    def rhs(_t, x):
        _df, grad, norm_sq = gradient_data(metric, fld, x)
        if norm_sq < FLOW_GRADIENT_FLOOR ** 2:
            raise GradientTooSmall(tuple(x), float(np.sqrt(norm_sq)))
        return grad / norm_sq

    return rhs


def flow_normalized_gradient(metric, fld, start, t, tol=FLOW_TOL):
    """The time-t point of the flow of grad(f)/|grad f|^2 from ``start``."""
    start = np.asarray(start, dtype=float)
    if t == 0.0:
        return start.copy()
    sol = solve_ivp(
        _flow_rhs(metric, fld), (0.0, t), start,
        method="RK45", rtol=tol, atol=tol,
    )
    if not sol.success:
        raise IntegrationError(f"flow integration failed: {sol.message}")
    return sol.y[:, -1]


class AdaptedChart:
    """Level-set chart Psi(z, y) (single f) or Psi(r, y) (k commuting F_i)."""

    def __init__(self, metric, fields, psi, level_ranges, flow_tol=FLOW_TOL):
        self.metric = metric
        self.fields = list(fields)  # k fields; k == 1 for the single case
        self.psi = psi
        self.level_ranges = [tuple(r) for r in level_ranges]  # k ranges
        self.flow_tol = flow_tol
        self._memo = {}

    @property
    def k(self):
        return len(self.fields)

    @property
    def dimension(self):
        return self.psi.ambient_dimension

    def point(self, coords, order=None) -> np.ndarray:
        """Evaluate Psi at chart coordinates (levels..., base...).

        ``order`` optionally permutes the flow composition (the flows must
        commute, and swapping the order is how that is probed).
        """
        coords = np.asarray(coords, dtype=float)
        key = (tuple(int(round(c / _MEMO_QUANTUM)) for c in coords),
               None if order is None else tuple(order))
        hit = self._memo.get(key)
        if hit is not None:
            return hit.copy()
        levels = coords[:self.k]
        base = coords[self.k:]
        x = self.psi(base)
        sequence = range(self.k) if order is None else order
        # Psi(r, y) = phi^1_{r_1} o ... o phi^k_{r_k} (psi(y)): the highest
        # index flows first.
        for i in reversed(list(sequence)):
            x = flow_normalized_gradient(
                self.metric, self.fields[i], x, float(levels[i]),
                tol=self.flow_tol,
            )
        self._memo[key] = x.copy()
        return x

    def jacobian(self, coords) -> np.ndarray:
        """d(Psi) by fourth-order central differences, column per coordinate."""
        coords = np.asarray(coords, dtype=float)
        n = self.dimension
        m = len(coords)
        jac = np.empty((n, m))
        for j in range(m):
            h = JACOBIAN_STEP * max(1.0, abs(coords[j]))
            shifts = {}
            for s in (-2, -1, 1, 2):
                c = coords.copy()
                c[j] += s * h
                shifts[s] = self.point(c)
            jac[:, j] = (shifts[-2] - 8 * shifts[-1]
                         + 8 * shifts[1] - shifts[2]) / (12 * h)
        return jac

    def grid(self, count=DEFAULT_GRID):
        """Cartesian sample grid over the level ranges and the base box."""
        return _box_grid(self.level_ranges + list(self.psi.box), count)


def _box_grid(box, count):
    """Grid of ``count`` points per (lo, hi) interval, one point per row."""
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _check_base_map(fields, psi, tol=1e-8, count=DEFAULT_GRID):
    for y in _box_grid(psi.box, count):
        p = psi(y)
        for fld in fields:
            value = fld.eval(p)
            if abs(value) > tol:
                raise IdentityViolation(
                    f"base map leaves the zero level set: |f| = {value:.3e}",
                    point=tuple(y), residual=float(value),
                )


def build_chart(metric, fld, psi, z_range, y_box=None,
                grid_count=DEFAULT_GRID, tol=1e-8) -> AdaptedChart:
    """Construct and verify the single-function adapted chart."""
    if y_box is not None:
        psi = BaseSurfaceMap(psi.components, [tuple(b) for b in y_box])
    _check_base_map([fld], psi, tol=tol, count=grid_count)
    chart = AdaptedChart(metric, [fld], psi, [z_range])
    for coords in chart.grid(grid_count):
        value = fld.eval(chart.point(coords))
        residual = value - coords[0]
        if abs(residual) > tol:
            raise IdentityViolation(
                f"f(Psi(z, y)) - z = {residual:.3e}",
                point=tuple(coords), residual=float(residual),
            )
    return chart


def build_multi_chart(metric, fields, psi, r_box, y_box=None,
                      grid_count=DEFAULT_GRID, tol=1e-8,
                      swap_tol=1e-7) -> AdaptedChart:
    """Construct and verify the commuting multi-flow chart."""
    k = len(fields)
    n = psi.ambient_dimension
    if not k < n:
        raise ValueError("need fewer level functions than dimensions")
    if y_box is not None:
        psi = BaseSurfaceMap(psi.components, [tuple(b) for b in y_box])
    _check_base_map(fields, psi, tol=tol, count=grid_count)
    chart = AdaptedChart(metric, fields, psi, [tuple(r) for r in r_box])

    for coords in chart.grid(grid_count):
        p = chart.point(coords)
        for i, fld in enumerate(fields):
            residual = fld.eval(p) - coords[i]
            if abs(residual) > tol:
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
        if gap > swap_tol:
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
                                             tol=chart.flow_tol)
            for j, fld in enumerate(fields):
                expect = (t if i == j else 0.0) + fld.eval(x)
                residual = fld.eval(moved) - expect
                if abs(residual) > tol:
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
    entries: list  # per grid point: {"coords", "mixed", "condition"}

    def to_dict(self):
        return {
            "passed": self.passed,
            "max_mixed": self.max_mixed,
            "max_off_block": self.max_off_block,
            "max_condition": self.max_condition,
            "grid_count": self.grid_count,
        }


def pullback_metric_block_check(chart, grid_count=DEFAULT_GRID,
                                tol=1e-6) -> BlockReport:
    """Assemble J^T g J on a grid and check its block structure.

    Single function: the mixed entries g_{0a} must vanish. Multiple
    functions: additionally the upper k x k level block must be diagonal.
    """
    k = chart.k
    max_mixed = 0.0
    max_off = 0.0
    max_cond = 0.0
    entries = []
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
        entries.append({
            "coords": [float(c) for c in coords],
            "mixed": mixed,
            "condition": cond,
        })
    return BlockReport(
        passed=bool(max_mixed <= tol and max_off <= tol),
        max_mixed=max_mixed,
        max_off_block=max_off,
        max_condition=max_cond,
        grid_count=grid_count,
        entries=entries,
    )


def injectivity_probe(chart, grid_count=DEFAULT_GRID, min_gap=1e-10):
    """Distinct grid nodes must map to distinct ambient points."""
    points = np.array([chart.point(c) for c in chart.grid(grid_count)])
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    iu = np.triu_indices(len(points), k=1)
    bad = np.nonzero(dist[iu] < min_gap)[0]
    return [(int(iu[0][b]), int(iu[1][b])) for b in bad]
