"""Numerical certification of the instability hypotheses.

The O(U) and O(sqrt U) conditions near the zero-potential locus cannot be
decided from finitely many samples, so the certifiers are semi-decision
procedures: ratios are maximized over logarithmic shells of potential
values, and the verdict is "certified" when the shell maxima stay bounded,
"refuted" when they grow across consecutive decades (with a witness point),
and "inconclusive" otherwise.

Both certifiers read one evaluated table per probe: each shell is drawn
once, and grad f, U and dU are evaluated once at each of its points.
GradientTooSmall names the first point where |grad f| is below the floor.

Lie brackets and the pullback form's derivatives are exact up to rounding:
both are compiled from derivative ASTs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, EmptyShell, InstabError, NonFiniteResult
from .expr import Bin, Num, ScalarField, Var, derivative, substitute
from .geometry import (
    GRADIENT_FLOOR,
    OneForm,
    contracted_form_norm,
    gradient_data,
    guard_cancellation,
    magnetic_tensor,
    normalized_gradient_jacobian,
    riemannian_gradient,
    two_form_norm,
)

MAX_ATTEMPTS_PER_SHELL = 1_000_000
_BATCH = 50_000
_ZERO_FORM_RADIUS = 0.5  # half-width of the box _is_zero_form samples

EULER_TOL = 1e-9  # Euler-identity residual of a quasi-homogeneous U
INNER_TOL = 1e-9  # metric inner product of two level gradients
BRACKET_TOL = 1e-5  # Lie bracket of two normalized level gradient fields
CONTRACTION_TOL = 1e-8  # pulled-back iota_{grad f} d mu on a chart

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
    # memos: the evaluated shells or the error that evaluating them raised
    # (_evaluated_shells), and the proof's constants (_proof_constants)
    _table: object = field(init=False, repr=False, default=None)
    _constants: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not 0 < self.delta_min < self.delta_max < math.inf:
            raise ValueError("need 0 < delta_min < delta_max < inf")
        if isinstance(self.seed, bool) or not (
                isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got "
                             f"{self.seed!r}")
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


@dataclass
class ConditionReport:
    condition: str
    verdict: str
    shells: list
    bound_estimate: float
    witness: list | None = None
    witness_ratio: float | None = None
    notes: dict = field(default_factory=dict)

    to_dict = asdict


def _ball_points(probe, rng, count):
    """``count`` uniform points of the probe ball: directions, then radii."""
    n = len(probe.center)
    directions = rng.normal(size=(count, n))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = probe.radius * rng.random(count) ** (1.0 / n)
    return probe.center + directions * radii[:, None]


def _sample_shell(probe, delta, shell_index):
    """Rejection-sample points of the probe ball with U in [delta, 10 delta].

    Returns (points, attempts, near_zero_points); the latter are a few
    points with U below the shell floor, kept for near-locus diagnostics.
    ``points`` is empty when no draw fell in the shell.
    """
    rng = np.random.default_rng([probe.seed, shell_index])
    u_vec = probe.potential.vectorized()
    accepted = []
    near = []
    attempts = 0
    while sum(len(a) for a in accepted) < probe.samples \
            and attempts < MAX_ATTEMPTS_PER_SHELL:
        points = _ball_points(probe, rng, _BATCH)
        values = u_vec(points)
        with np.errstate(invalid="ignore"):
            mask = np.isfinite(values) & (values >= delta) \
                & (values <= 10.0 * delta)
            low = np.isfinite(values) & (values >= 0) & (values < delta)
        accepted.append(points[mask])
        if len(near) < 32:
            near.extend(points[low][:8])
        attempts += _BATCH
    return np.concatenate(accepted)[:probe.samples], attempts, near


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


def _evaluated_shells(probe):
    """The filled shells, skipped deltas and shell 0's near-locus points.

    Made once per probe; an error in making them is kept and raised again.
    Each filled shell is (delta, points, [(grad f, U, dU) per point]); at
    each point grad f comes first, and GradientTooSmall names the first
    point where |grad f| is below the floor. A shell with no sample is
    skipped while enough filled shells remain for a refutation window;
    otherwise it raises EmptyShell, since fewer shells would certify any
    ratios.
    """
    if probe._table is None:
        try:
            probe._table = _shell_table(probe)
        except InstabError as exc:
            probe._table = exc
    if isinstance(probe._table, InstabError):
        raise probe._table
    return probe._table


def _shell_table(probe):
    deltas = probe.shell_deltas()
    drawn = [_sample_shell(probe, delta, j) for j, delta in enumerate(deltas)]
    filled = sum(1 for points, _attempts, _near in drawn if len(points))
    shells, skipped = [], []
    for delta, (points, attempts, _near) in zip(deltas, drawn):
        if not len(points):
            if filled < _REFUTATION_WINDOW:
                raise EmptyShell(delta, attempts)
            skipped.append(float(delta))
            continue
        shells.append((float(delta), points, [
            (gradient_data(probe.metric, probe.f, x, GRADIENT_FLOOR)[1],
             *probe.potential.value_and_grad(x)) for x in points]))
    return shells, skipped, drawn[0][2]


def _row(delta, points, ratios):
    """A shell's row for one ratio per point."""
    column = np.array(ratios, dtype=float)
    worst = int(np.argmax(column))
    return ShellRow(delta=delta, count=len(points),
                    max_ratio=float(column[worst]),
                    mean_ratio=float(column.mean()),
                    witness=[float(c) for c in points[worst]])


def _report(probe, condition, shells, skipped, notes, magnetic=False):
    """The condition's report: verdict, witness, skipped shells and the
    empirical constants entering the proof's bounds."""
    verdict, worst = _verdict_from_shells(shells)
    k_bound = float(max((s.max_ratio for s in shells), default=0.0))
    report = ConditionReport(condition=condition, verdict=verdict,
                             shells=shells, bound_estimate=k_bound,
                             notes=notes)
    if skipped:
        notes["empty_shells"] = skipped
    if worst is not None:
        report.witness = worst.witness
        report.witness_ratio = worst.max_ratio
    m_grad, m_quad, cap_sq = _proof_constants(probe)
    notes["m_grad"] = float(m_grad)
    notes["grad_at_center_sq"] = cap_sq
    if magnetic:
        k1 = k_bound ** 2
        notes["K1"] = k1
        notes["C1"] = math.sqrt(
            m_grad ** -4 * k1 / (2.0 * m_quad)) * math.sqrt(cap_sq)
    else:
        notes["K2"] = k_bound
        notes["C2"] = m_grad ** -2 * k_bound * cap_sq / 2.0
    return report


def _potential_ratio(grad, u_val, du):
    if u_val <= 0:
        return math.inf
    num = float(guard_cancellation(du @ grad, np.abs(du) @ np.abs(grad)))
    return abs(num) / u_val


def certify_potential_condition(probe) -> ConditionReport:
    """Shell test of |dU(grad f)| / U staying bounded near the locus."""
    shells, skipped, _near = _evaluated_shells(probe)
    rows = [_row(delta, points, [_potential_ratio(*at) for at in table])
            for delta, points, table in shells]
    return _report(probe, "dU(grad f) = O(U)", rows, skipped, {})


def certify_magnetic_condition(probe) -> ConditionReport:
    """Shell test of |iota_{grad f} d mu| / sqrt(U) near the locus.

    Also tabulates the stronger full-norm condition |d mu| = O(sqrt U) and
    reports whether the magnetic field vanishes on near-locus samples.
    Both ratios at a point share one magnetic tensor.
    """
    condition = "|iota_{grad f} d mu| = O(sqrt U)"
    mu = probe.magnetic
    if mu is None or _is_zero_form(mu, probe.center):
        return ConditionReport(condition, CERTIFIED, [], 0.0, notes={
            "trivial": True, "magnetic_field_on_locus": "zero"})

    def norms(x, grad):
        """|iota_grad d mu| and |d mu| at x from one magnetic tensor."""
        tensor = magnetic_tensor(mu, x)
        return (contracted_form_norm(probe.metric, tensor, grad, x),
                two_form_norm(probe.metric, tensor, x))

    def ratios(x, grad, u_val, _du):
        if u_val <= 0:
            return math.inf, math.inf
        root = math.sqrt(u_val)
        return tuple(norm / root for norm in norms(x, grad))

    shells, skipped, near = _evaluated_shells(probe)
    rows, full_rows = [], []
    for delta, points, table in shells:
        contracted, full = zip(*(ratios(x, *at)
                                 for x, at in zip(points, table)))
        rows.append(_row(delta, points, contracted))
        full_rows.append(_row(delta, points, full))
    full_verdict, _full_worst = _verdict_from_shells(full_rows)

    # characteristic-equation diagnostics on near-locus samples
    near_norms = [norms(x, riemannian_gradient(probe.metric, probe.f, x))
                  for x in near]
    contracted_near = max([0.0] + [c for c, _dmu in near_norms])
    dmu_near_min = min([math.inf] + [dmu for _c, dmu in near_norms])
    notes = {
        "full_norm_verdict": full_verdict,
        "full_norm_shells": [asdict(s) for s in full_rows],
        "near_locus_contraction_max": float(contracted_near),
        "near_locus_dmu_min": (None if not len(near)
                               else float(dmu_near_min)),
        "magnetic_field_on_locus": (
            "unsampled" if not len(near)
            else "zero" if dmu_near_min <= 1e-10 else "nonzero"
        ),
    }
    return _report(probe, condition, rows, skipped, notes, magnetic=True)


def _is_zero_form(mu, center):
    """True when d mu vanishes identically on a small sample of the ball."""
    points = center + np.random.default_rng(7).uniform(
        -_ZERO_FORM_RADIUS, _ZERO_FORM_RADIUS, size=(16, len(center)))
    try:
        for x in points:
            if np.any(np.abs(magnetic_tensor(mu, x)) > 0.0):
                return False
    except (DomainError, NonFiniteResult):
        return False
    return True


def _proof_constants(probe):
    """(m_grad, m_quad, |grad f(center)|^2), sampled once per probe.

    m_grad is the smallest |grad f| and m_quad the largest metric
    eigenvalue (at least 1) over points of the probe ball.
    """
    if probe._constants is None:
        rng = np.random.default_rng([probe.seed, 9999])
        m_grad = math.inf
        m_quad = 1.0
        for x in _ball_points(probe, rng, 64):
            try:
                _df, _grad, norm_sq = gradient_data(probe.metric, probe.f, x)
                m_grad = min(m_grad, math.sqrt(max(norm_sq, 0.0)))
                if not probe.metric.euclidean:
                    m_quad = max(m_quad, float(np.max(
                        np.linalg.eigvalsh(probe.metric.value(x)))))
            except (DomainError, NonFiniteResult):
                continue
        cap_sq = gradient_data(probe.metric, probe.f, probe.center)[2]
        probe._constants = m_grad, m_quad, cap_sq
    return probe._constants


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


@dataclass
class QuasiHomogeneousReport:
    certified: bool
    max_residual: float
    witness: list | None

    to_dict = asdict


def check_quasi_homogeneous(potential, spec, samples=1000, seed=0,
                            box=2.0) -> QuasiHomogeneousReport:
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
        certified=bool(worst <= EULER_TOL),
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

    to_dict = asdict


def check_orthogonal_commuting(metric, fields, seed=0, box=0.5,
                               center=None) -> CommutationReport:
    """Pairwise metric orthogonality of gradients plus vanishing brackets.

    At 64 points drawn uniformly from the box around ``center``, each Lie
    bracket [X_i, X_j] = DX_j·X_i − DX_i·X_j of the normalized gradient
    fields comes from their exact Jacobians, so it is exact up to rounding.
    """
    n = fields[0].dimension
    offset = np.zeros(n) if center is None else np.asarray(center, float)
    samples = offset + np.random.default_rng(seed).uniform(-box, box, (64, n))
    max_inner = 0.0
    max_bracket = 0.0
    witness = None
    for x in samples:
        g = metric.value(x)
        grads = [riemannian_gradient(metric, fld, x) for fld in fields]
        flows = [normalized_gradient_jacobian(metric, fld, x, GRADIENT_FLOOR)
                 for fld in fields]
        for i, j in itertools.combinations(range(len(fields)), 2):
            inner = abs(float(grads[i] @ g @ grads[j]))
            (vec_i, dvec_i), (vec_j, dvec_j) = flows[i], flows[j]
            norm = float(np.linalg.norm(dvec_j @ vec_i - dvec_i @ vec_j))
            if inner > max_inner or norm > max_bracket:
                max_inner = max(max_inner, inner)
                max_bracket = max(max_bracket, norm)
                witness = [float(c) for c in x]
    return CommutationReport(
        certified=bool(max_inner <= INNER_TOL
                       and max_bracket <= BRACKET_TOL),
        max_inner_product=float(max_inner),
        max_bracket_norm=float(max_bracket),
        witness=witness,
    )


# --- pullback magnetic forms ------------------------------------------------


def build_pullback_magnetic(level_fields, omega) -> OneForm:
    """Pull a one-form on the level space back through F to the ambient.

    Component a is the expression mu_a = sum_l c_l(F(x)) ∂_a F_l(x).
    """
    n, k = level_fields[0].dimension, len(level_fields)
    if omega.dimension != k:
        raise ValueError("one-form dimension must match the number of "
                         "level functions")
    # sum_j c_j(y_1..y_k) * y_{k+j} at y = (F, ∂_a F)
    template = Num(0.0)
    for j, c_fld in enumerate(omega.components):
        template = Bin("+", template, Bin("*", c_fld.body, Var(k + j)))
    levels = [fld.body for fld in level_fields]
    return OneForm(n, [
        ScalarField(n, substitute(template, levels + [
            derivative(body, axis) for body in levels]),
            f"pullback component {axis}")
        for axis in range(n)])


def chart_contraction_check(chart, mu, f_field, grid_count=5):
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
        pulled = v_amb @ magnetic_tensor(mu, ambient) @ jac
        mag = float(np.max(np.abs(pulled)))
        if mag > worst:
            worst = mag
            worst_point = [float(c) for c in coords]
    return {
        "passed": bool(worst <= CONTRACTION_TOL),
        "max_component": worst,
        "witness": worst_point,
    }
