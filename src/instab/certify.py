"""Numerical certification of the instability hypotheses.

The O(U) and O(sqrt U) conditions near the zero-potential locus cannot be
decided from finitely many samples, so the certifiers are semi-decision
procedures: ratios are maximized over logarithmic shells of potential
values, and the verdict is "certified" when the shell maxima stay bounded,
"refuted" when they grow across consecutive decades (with a witness point),
and "inconclusive" otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, EmptyShell, GradientTooSmall, NonFiniteResult
from .expr import CallableField, Dual, ScalarField
from .geometry import (
    GRADIENT_FLOOR,
    OneForm,
    contracted_form_norm,
    gradient_data,
    magnetic_tensor,
    riemannian_gradient,
    two_form_norm,
)

MAX_ATTEMPTS_PER_SHELL = 1_000_000
_BATCH = 50_000

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass
class HypothesisProbe:
    """Sampling scheme around a candidate equilibrium point."""

    metric: object
    potential: object
    f: object
    magnetic: object | None = None
    center: np.ndarray = None
    radius: float = 0.5
    delta_min: float = 1e-7
    delta_max: float = 1e-2
    samples: int = 200
    seed: int = 0
    # shell index -> _sample_shell result, so each shell is drawn once
    _shells: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not 0 < self.delta_min < self.delta_max:
            raise ValueError("need 0 < delta_min < delta_max")
        if not (isinstance(self.samples, int) and self.samples >= 100):
            raise ValueError("samples must be an integer of at least 100")

    def shell_deltas(self):
        deltas = []
        delta = self.delta_min
        while delta <= self.delta_max * (1 + 1e-12):
            deltas.append(delta)
            delta *= 10.0
        return deltas


@dataclass
class ShellRow:
    delta: float
    count: int
    max_ratio: float
    mean_ratio: float
    witness: list

    def to_dict(self):
        return asdict(self)


@dataclass
class ConditionReport:
    condition: str
    verdict: str
    shells: list
    bound_estimate: float
    witness: list | None = None
    witness_ratio: float | None = None
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _sample_shell(probe, delta, shell_index):
    """Rejection-sample points of the probe ball with U in [delta, 10 delta].

    Returns (points, attempts, near_zero_points); the latter are a few
    points with U below the shell floor, kept for near-locus diagnostics.
    ``points`` is empty when no draw fell in the shell.
    """
    rng = np.random.default_rng([probe.seed, shell_index])
    n = len(probe.center)
    u_vec = probe.potential.vectorized()
    accepted = []
    near = []
    attempts = 0
    while sum(len(a) for a in accepted) < probe.samples \
            and attempts < MAX_ATTEMPTS_PER_SHELL:
        directions = rng.normal(size=(_BATCH, n))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = probe.radius * rng.random(_BATCH) ** (1.0 / n)
        points = probe.center + directions * radii[:, None]
        values = u_vec(points)
        with np.errstate(invalid="ignore"):
            mask = np.isfinite(values) & (values >= delta) \
                & (values <= 10.0 * delta)
            low = np.isfinite(values) & (values >= 0) & (values < delta)
        accepted.append(points[mask])
        if len(near) < 32:
            near.extend(points[low][:8])
        attempts += _BATCH
    points = (np.concatenate(accepted) if accepted
              else np.empty((0, n)))
    return points[:probe.samples], attempts, near


def _drawn_shell(probe, j):
    """Shell j of the probe, drawn on first use and reused afterwards."""
    if j not in probe._shells:
        probe._shells[j] = _sample_shell(probe, probe.shell_deltas()[j], j)
    return probe._shells[j]


# consecutive shells whose growing maxima refute a condition
_REFUTATION_WINDOW = 4


def _verdict_from_shells(shells):
    """Bounded maxima certify; growth across three decades refutes."""
    maxima = [s.max_ratio for s in shells]
    finite = [m for m in maxima if math.isfinite(m)]
    if not finite:
        return INCONCLUSIVE, None
    # shells are ordered by increasing delta; growth toward the locus means
    # growth toward the *front* of the list
    toward_locus = list(reversed(maxima))
    for i in range(len(toward_locus) - _REFUTATION_WINDOW + 1):
        window = toward_locus[i:i + _REFUTATION_WINDOW]
        increasing = all(b > a > 0 for a, b in zip(window, window[1:]))
        if increasing and window[-1] >= 10.0 * window[0]:
            worst = shells[len(shells) - _REFUTATION_WINDOW - i]
            return REFUTED, worst
    if max(maxima) <= 2.0 * float(np.median(maxima)) + 1e-12:
        return CERTIFIED, None
    return INCONCLUSIVE, None


def _shell_table(probe, *ratio_fns):
    """One list of shell rows per ratio function, and the skipped deltas.

    The gradient of f is evaluated once per point and shared by every
    ratio. A shell with no sample is skipped while enough filled shells
    remain for a refutation window; otherwise it raises EmptyShell, since
    fewer shells would certify any ratios.
    """
    deltas = probe.shell_deltas()
    drawn = [_drawn_shell(probe, j) for j in range(len(deltas))]
    filled = sum(1 for points, _attempts, _near in drawn if len(points))
    tables = [[] for _ in ratio_fns]
    skipped = []
    grad_floor_hit = None
    for delta, (points, attempts, _near) in zip(deltas, drawn):
        if not len(points):
            if filled < _REFUTATION_WINDOW:
                raise EmptyShell(delta, attempts)
            skipped.append(float(delta))
            continue
        ratios = [np.empty(len(points)) for _ in ratio_fns]
        for i, x in enumerate(points):
            _df, grad, norm_sq = gradient_data(probe.metric, probe.f, x)
            gnorm = math.sqrt(max(norm_sq, 0.0))
            if gnorm < GRADIENT_FLOOR:
                grad_floor_hit = (x, gnorm)
                continue
            for column, ratio_fn in zip(ratios, ratio_fns):
                column[i] = ratio_fn(x, grad)
        if grad_floor_hit is not None:
            x, gnorm = grad_floor_hit
            raise GradientTooSmall(tuple(x), gnorm)
        for shells, column in zip(tables, ratios):
            worst = int(np.argmax(column))
            shells.append(ShellRow(
                delta=float(delta),
                count=len(points),
                max_ratio=float(column[worst]),
                mean_ratio=float(column.mean()),
                witness=[float(c) for c in points[worst]],
            ))
    return tables, skipped


_NOISE_RELATIVE = 1e-13


def _guard_cancellation(value, scale):
    """Zero a contraction whose magnitude is float-cancellation noise.

    Exact hypotheses cancel term by term, leaving residues of relative
    size machine epsilon; dividing those by a vanishing potential would
    fabricate divergence.
    """
    return 0.0 if abs(value) <= _NOISE_RELATIVE * scale else value


def certify_potential_condition(probe) -> ConditionReport:
    """Shell test of |dU(grad f)| / U staying bounded near the locus."""
    u_field = probe.potential

    def ratio(x, grad):
        u_val, du = u_field.value_and_grad(x)
        if u_val <= 0:
            return math.inf
        num = _guard_cancellation(float(du @ grad),
                                  float(np.abs(du) @ np.abs(grad)))
        return abs(num) / u_val

    [shells], skipped = _shell_table(probe, ratio)
    verdict, worst = _verdict_from_shells(shells)
    report = ConditionReport(
        condition="dU(grad f) = O(U)",
        verdict=verdict,
        shells=shells,
        bound_estimate=float(max(s.max_ratio for s in shells)),
    )
    if skipped:
        report.notes["empty_shells"] = skipped
    if worst is not None:
        report.witness = worst.witness
        report.witness_ratio = worst.max_ratio
    _attach_constants(report, probe)
    return report


def certify_magnetic_condition(probe) -> ConditionReport:
    """Shell test of |iota_{grad f} d mu| / sqrt(U) near the locus.

    Also tabulates the stronger full-norm condition |d mu| = O(sqrt U) and
    reports whether the magnetic field vanishes on near-locus samples.
    """
    mu = probe.magnetic
    if mu is None or _is_zero_form(mu, probe.center):
        return ConditionReport(
            condition="|iota_{grad f} d mu| = O(sqrt U)",
            verdict=CERTIFIED,
            shells=[],
            bound_estimate=0.0,
            notes={"trivial": True, "magnetic_field_on_locus": "zero"},
        )

    def ratio(x, grad):
        u_val = probe.potential.eval(x)
        if u_val <= 0:
            return math.inf
        return _guarded_contraction(probe.metric, mu, grad, x) \
            / math.sqrt(u_val)

    def full_ratio(x, _grad):
        u_val = probe.potential.eval(x)
        if u_val <= 0:
            return math.inf
        return two_form_norm(probe.metric, mu, x) / math.sqrt(u_val)

    (shells, full_shells), skipped = _shell_table(probe, ratio, full_ratio)
    verdict, worst = _verdict_from_shells(shells)
    full_verdict, _full_worst = _verdict_from_shells(full_shells)

    # characteristic-equation diagnostics on near-locus samples
    _points, _attempts, near = _drawn_shell(probe, 0)
    contracted_near = 0.0
    dmu_near_min = math.inf
    for x in near:
        grad = riemannian_gradient(probe.metric, probe.f, x)
        contracted_near = max(
            contracted_near,
            contracted_form_norm(probe.metric, mu, grad, x))
        dmu_near_min = min(dmu_near_min, two_form_norm(probe.metric, mu, x))
    report = ConditionReport(
        condition="|iota_{grad f} d mu| = O(sqrt U)",
        verdict=verdict,
        shells=shells,
        bound_estimate=float(max((s.max_ratio for s in shells),
                                 default=0.0)),
        notes={
            "full_norm_verdict": full_verdict,
            "full_norm_shells": [s.to_dict() for s in full_shells],
            "near_locus_contraction_max": float(contracted_near),
            "near_locus_dmu_min": (None if not len(near)
                                   else float(dmu_near_min)),
            "magnetic_field_on_locus": (
                "unsampled" if not len(near)
                else "zero" if dmu_near_min <= 1e-10 else "nonzero"
            ),
        },
    )
    if skipped:
        report.notes["empty_shells"] = skipped
    if worst is not None:
        report.witness = worst.witness
        report.witness_ratio = worst.max_ratio
    _attach_constants(report, probe, magnetic=True)
    return report


def _guarded_contraction(metric, mu, vector, point):
    """Like the contracted-form norm, with per-component noise guards."""
    f_tensor = magnetic_tensor(mu, point)
    v = np.asarray(vector)
    covector = v @ f_tensor
    scale = np.abs(v) @ np.abs(f_tensor)
    covector = np.where(np.abs(covector) <= _NOISE_RELATIVE * scale,
                        0.0, covector)
    ginv = metric.inverse(point)
    return float(math.sqrt(max(covector @ ginv @ covector, 0.0)))


def _is_zero_form(mu, center, radius=0.5):
    """True when d mu vanishes identically on a small sample of the ball."""
    rng = np.random.default_rng(7)
    n = len(center)
    points = center + rng.uniform(-radius, radius, size=(16, n))
    try:
        for x in points:
            if np.any(np.abs(magnetic_tensor(mu, x)) > 0.0):
                return False
    except (DomainError, NonFiniteResult):
        return False
    return True


def _attach_constants(report, probe, magnetic=False):
    """Record the empirical constants entering the proof's bounds."""
    rng = np.random.default_rng([probe.seed, 9999])
    n = len(probe.center)
    directions = rng.normal(size=(64, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = probe.radius * rng.random(64) ** (1.0 / n)
    points = probe.center + directions * radii[:, None]
    m_grad = math.inf
    m_quad = 1.0
    for x in points:
        try:
            _df, _grad, norm_sq = gradient_data(probe.metric, probe.f, x)
            m_grad = min(m_grad, math.sqrt(max(norm_sq, 0.0)))
            if not probe.metric.euclidean:
                m_quad = max(m_quad, float(np.max(
                    np.linalg.eigvalsh(probe.metric.value(x)))))
        except (DomainError, NonFiniteResult):
            continue
    grad_p = riemannian_gradient(probe.metric, probe.f, probe.center)
    cap_sq = float(probe.metric.inner(probe.center, grad_p, grad_p))
    k_bound = report.bound_estimate
    report.notes["m_grad"] = float(m_grad)
    report.notes["grad_at_center_sq"] = cap_sq
    if magnetic:
        k1 = k_bound ** 2
        report.notes["K1"] = k1
        report.notes["C1"] = math.sqrt(
            m_grad ** -4 * k1 / (2.0 * m_quad)) * math.sqrt(cap_sq)
    else:
        report.notes["K2"] = k_bound
        report.notes["C2"] = m_grad ** -2 * k_bound * cap_sq / 2.0


# --- quasi-homogeneous potentials ------------------------------------------


@dataclass
class QuasiHomogeneousSpec:
    """Weight vector and degree of a weighted-dilation-invariant potential."""

    weights: np.ndarray
    degree: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not np.any(self.weights):
            raise ValueError("weight vector must be nonzero")
        if self.degree <= 0:
            raise ValueError("degree must be positive for nontrivial scaling")

    def induced_f(self) -> ScalarField:
        n = len(self.weights)
        terms = [f"{float(w)!r}*x{i + 1}^2/2"
                 for i, w in enumerate(self.weights)]
        return ScalarField.parse(" + ".join(terms), n)


@dataclass
class QuasiHomogeneousReport:
    certified: bool
    max_residual: float
    witness: list | None

    def to_dict(self):
        return asdict(self)


def check_quasi_homogeneous(potential, spec, samples=1000, seed=0,
                            box=2.0, tol=1e-9) -> QuasiHomogeneousReport:
    """Euler identity check: sum_i a_i x_i d_i U = r U at random points."""
    n = potential.dimension
    rng = np.random.default_rng(seed)
    points = rng.uniform(-box, box, size=(samples, n))
    worst = 0.0
    witness = None
    for x in points:
        u_val, du = potential.value_and_grad(x)
        residual = abs(float(spec.weights @ (x * du)) - spec.degree * u_val)
        residual /= 1.0 + abs(u_val)
        if residual > worst:
            worst = residual
            witness = [float(c) for c in x]
    return QuasiHomogeneousReport(
        certified=bool(worst <= tol),
        max_residual=float(worst),
        witness=witness,
    )


# --- commuting orthogonal level functions -----------------------------------


@dataclass
class CommutationReport:
    certified: bool
    max_inner_product: float
    max_bracket_norm: float
    witness: list | None

    def to_dict(self):
        return asdict(self)


def _normalized_field(metric, fld):
    def vec(x):
        _df, grad, norm_sq = gradient_data(metric, fld, x)
        if norm_sq < GRADIENT_FLOOR ** 2:
            raise GradientTooSmall(tuple(x), math.sqrt(max(norm_sq, 0.0)))
        return grad / norm_sq

    return vec


def check_orthogonal_commuting(metric, fields, samples=None, seed=0,
                               box=0.5, center=None, sample_count=64,
                               inner_tol=1e-9, bracket_tol=1e-5,
                               fd_step=1e-5) -> CommutationReport:
    """Pairwise metric orthogonality of gradients plus vanishing brackets.

    The Lie brackets of the normalized fields are taken by central finite
    differences, which is adequate at the 1e-5 threshold and is a known
    precision ceiling of this check.
    """
    n = fields[0].dimension
    if samples is None:
        rng = np.random.default_rng(seed)
        offset = np.zeros(n) if center is None else np.asarray(center, float)
        samples = offset + rng.uniform(-box, box, size=(sample_count, n))
    vecs = [_normalized_field(metric, fld) for fld in fields]
    max_inner = 0.0
    max_bracket = 0.0
    witness = None
    for x in samples:
        g = metric.value(x)
        grads = [riemannian_gradient(metric, fld, x) for fld in fields]
        for i, j in itertools.combinations(range(len(fields)), 2):
            inner = abs(float(grads[i] @ g @ grads[j]))
            bracket = _fd_lie_bracket(vecs[i], vecs[j], x, fd_step)
            norm = float(np.linalg.norm(bracket))
            if inner > max_inner or norm > max_bracket:
                max_inner = max(max_inner, inner)
                max_bracket = max(max_bracket, norm)
                witness = [float(c) for c in x]
    return CommutationReport(
        certified=bool(max_inner <= inner_tol
                       and max_bracket <= bracket_tol),
        max_inner_product=float(max_inner),
        max_bracket_norm=float(max_bracket),
        witness=witness,
    )


def _fd_lie_bracket(x_fn, y_fn, point, step):
    n = len(point)
    jx = np.empty((n, n))
    jy = np.empty((n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = step
        jx[:, c] = (x_fn(point + e) - x_fn(point - e)) / (2 * step)
        jy[:, c] = (y_fn(point + e) - y_fn(point - e)) / (2 * step)
    return jy @ x_fn(point) - jx @ y_fn(point)


# --- pullback magnetic forms ------------------------------------------------


class _PullbackComponent(CallableField):
    """Component mu_a(x) = sum_l c_l(F(x)) * d_a F_l(x).

    Evaluation is generic over duals, so the magnetic tensor of the
    pullback (which needs second derivatives of F) comes out of nested
    dual arithmetic.
    """

    def __init__(self, level_fields, form_components, axis):
        self._levels = list(level_fields)
        self._cs = list(form_components)
        self._axis = axis
        n = level_fields[0].dimension
        super().__init__(n, self._evaluate,
                         label=f"pullback component {axis}")

    def _evaluate(self, coords):
        seeded = [
            Dual(c, (1.0 if j == self._axis else 0.0,))
            for j, c in enumerate(coords)
        ]
        total = 0.0
        level_values = [fld._call(list(coords)) for fld in self._levels]
        for fld, c_fld in zip(self._levels, self._cs):
            partial = fld._call(seeded)
            d_axis = partial.eps[0] if isinstance(partial, Dual) else 0.0
            coeff = c_fld._call(level_values)
            total = total + coeff * d_axis
        return total


def build_pullback_magnetic(level_fields, omega) -> OneForm:
    """Pull a one-form on the level space back through F to the ambient."""
    n = level_fields[0].dimension
    if omega.dimension != len(level_fields):
        raise ValueError("one-form dimension must match the number of "
                         "level functions")
    components = [
        _PullbackComponent(level_fields, omega.components, axis)
        for axis in range(n)
    ]
    return OneForm(n, components)


def chart_contraction_check(chart, mu, f_field, grid_count=5, tol=1e-8):
    """Pull iota_{grad f} d mu back through the chart; it must vanish.

    ``f_field`` is the candidate function whose Riemannian gradient
    contracts the magnetic tensor.
    """
    worst = 0.0
    worst_point = None
    for coords in chart.grid(grid_count):
        jac = chart.jacobian(coords)
        ambient = chart.point(coords)
        v_amb = riemannian_gradient(chart.metric, f_field, ambient)
        f_tensor = magnetic_tensor(mu, ambient)
        covector = v_amb @ f_tensor
        pulled = covector @ jac
        mag = float(np.max(np.abs(pulled)))
        if mag > worst:
            worst = mag
            worst_point = [float(c) for c in coords]
    return {
        "passed": bool(worst <= tol),
        "max_component": worst,
        "witness": worst_point,
    }
