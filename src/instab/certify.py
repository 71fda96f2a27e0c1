"""Numerical certification of the instability hypotheses.

The O(U) and O(sqrt U) conditions near the zero-potential locus cannot be
decided from finitely many samples, so the certifiers are semi-decision
procedures: ratios are maximized over logarithmic shells of potential
values, and the verdict is "certified" when the shell maxima stay bounded,
"refuted" when they grow across consecutive decades (with a witness point),
and "inconclusive" otherwise.

Each shell is filled by projecting uniform starts of the probe ball onto
level sets of U with Newton steps, in the compiled loop where U's program
is numpy-exact and else one numpy pass of U per step, with the same bits,
so its points are not uniform in the shell; the statistics are suprema
over the shell, for which coverage counts, not density. A probe's shells
are filled in one loop of rounds, each round's draws from every open shell
projected together, up to _BATCH_STARTS starts a pass. Each shell is
drawn once per distinct U and probe settings while U's field lives, as in
one corpus load (_sample_shell). Both certifiers read one evaluated table
per probe: the shells' points are evaluated together, up to _BATCH_STARTS
points at a time, in one numpy pass per field, the field's one numpy
function, which gives its values and gradients together (one pass for all
of a one-form's components per shell, which gives its field strength), and
the ratios and the Euler residual are column arithmetic over those passes.
A field's numpy row is nan exactly where its value_and_grad raises, so the
scalar path names the first bad point: a nan row, or one where the metric
is not invertible or |grad f| is below the floor, is evaluated again point
by point, which raises the error there (GradientTooSmall where |grad f| is
below the floor) or supplies the row. Each row keeps the bits of the
point-by-point evaluation.

Lie brackets and the pullback form's derivatives are exact up to rounding:
both are compiled from derivative ASTs.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import native
from .errors import (
    DomainError,
    EmptyShell,
    InstabError,
    NonFiniteResult,
    format_point,
)
from .expr import ScalarField, Var, derivative, fold, substitute, total
from .geometry import (
    GRADIENT_FLOOR,
    OneForm,
    contracted_form_norm,
    gradient_data,
    gradient_rows,
    guard_cancellation,
    magnetic_tensor,
    magnetic_tensor_rows,
    mend_rows,
    normalized_gradient_jacobian,
    riemannian_gradient,
    rowdot,
    two_form_norm,
)

MAX_ATTEMPTS_PER_SHELL = 1_000_000
_NEWTON_STEPS = 40  # Newton steps of a start projected onto a level set
_NEWTON_TOL = 1e-3  # relative miss |U - t| / t at which a start stops
_NEAR_STARTS = 64  # starts projected below the first shell's floor
_BATCH_STARTS = 4096  # most rows of joined draws or shells in one pass
_ZERO_FORM_RADIUS = 0.5  # half-width of the box _is_zero_form samples

EULER_TOL = 1e-9  # Euler-identity residual of a quasi-homogeneous U
EULER_SAMPLES = 1000  # points at which the Euler identity is checked
EULER_BOX = 2.0  # half-width of the box around 0 they are drawn from
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
    # (_evaluated_shells) and the proof's constants (_proof_constants); the
    # filled shells are kept on the potential's field (_sample_shell)
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
        top = MAX_ATTEMPTS_PER_SHELL // 2  # a round projects 2 samples starts
        if not (isinstance(self.samples, int) and 100 <= self.samples <= top):
            raise ValueError(f"samples must be an integer in 100..{top}")

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
    attempts: int  # starts projected to fill the shell
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


def _project(probe, points, targets):
    """Newton steps x <- x - (U - t) grad U / |grad U|^2 toward U = t.

    A point stops once |U - t| <= _NEWTON_TOL * t, once U is nan (where U
    or its gradient is undefined), or after _NEWTON_STEPS steps; |grad U|^2
    is the left fold of its squares. The compiled loop steps each point
    alone where U's register program is numpy-exact (``native.newton``).
    The points it declines take one numpy pass of U per step over the
    points still moving, kept packed with their targets, U and gradients,
    which writes back the points that stop. Where it declines them all
    (no compiler, or a program that is not numpy-exact), those are stepped
    from ``points`` itself and written back into it, with no copy. Rows
    never mix, so a point lands where it would alone, by either path.
    Returns the points and U at them, nan where a point is not in the ball.
    """
    out, values, declined = native.newton(probe.potential, points, targets,
                                          _NEWTON_STEPS, _NEWTON_TOL)
    index = np.flatnonzero(declined)
    x, t = (points, targets) if out is points else (points[index],
                                                    targets[index])
    with np.errstate(all="ignore"):
        for step in range(_NEWTON_STEPS + 1):
            if not len(index):
                break
            u, grads = probe.potential.vectorized()(x)
            miss = u - t
            going = np.isfinite(miss) & (np.abs(miss) > _NEWTON_TOL * t) \
                & (step < _NEWTON_STEPS)
            out[index[~going]], values[index[~going]] = x[~going], u[~going]
            index, x, t = index[going], x[going], t[going]
            miss, grads = miss[going], grads[going]
            x = x - (miss / sum(g * g for g in grads.T))[:, None] * grads
        values[~(np.linalg.norm(out - probe.center, axis=1)
                 <= probe.radius)] = np.nan
    return out, values


def _joined(function, parts):
    """``function`` over consecutive ``parts``, tuples of row arrays, joined
    while their rows fit in _BATCH_STARTS (a larger part alone, uncopied),
    yielding each part's rows of each output. Parts are taken as needed,
    so at most one joined group and the next part are alive; rows never
    mix, so a part's rows keep the bits of ``function`` over it alone."""
    group = []
    for part in itertools.chain(parts, [None]):
        if group and (part is None or sum(len(p[0]) for p in group)
                      + len(part[0]) > _BATCH_STARTS):
            cuts = np.cumsum([len(p[0]) for p in group])[:-1]
            outputs = function(*(np.concatenate(arrays) if len(group) > 1
                                 else arrays[0] for arrays in zip(*group)))
            group = []
            yield from zip(*(np.split(rows, cuts) for rows in outputs))
        group.append(part)


def _sample_shell(probe, delta, shell_index):
    """Points of the probe ball with U in [delta, 10 delta], by projection.

    Each round projects 2 * samples uniform starts of the ball onto level
    sets U = t, t log-uniform in the shell, and keeps the points that land
    in the shell and the ball. Sampling stops at ``samples`` points, after
    a round that keeps none or at MAX_ATTEMPTS_PER_SHELL starts. The first
    call fills every shell (``delta`` is shell_deltas()[shell_index]) in
    one loop of passes, each open shell drawing from its own generator and
    each pass's draws projected together (_joined). U's field keeps the
    filled shells in its code cache, one slot keyed by the bytes of the
    probe's center, radius and deltas (so -0.0 and 0.0 differ), samples
    and seed, all that sampling reads besides U: a probe with that key
    takes them, so each is drawn once per distinct U and settings while
    the field lives, as in one corpus load, and any other probe fills its
    own in their place. A pass takes one round of a shell that has none,
    and after that as many as its mean yield says it still needs, capped
    by MAX_ATTEMPTS_PER_SHELL; the stop rule then runs round by round, and
    the rounds drawn after a shell stops are dropped, so each shell keeps
    the points and attempts of one round a pass. The points are not
    uniform in the shell; the certifiers take the supremum of a ratio over
    them, for which coverage of the shell is what counts.

    Returns (points, attempts, near_zero_points): ``attempts`` counts the
    starts projected, and shell 0 alone also projects _NEAR_STARTS starts
    to below its floor after each of its rounds, on a copy of its
    generator, and keeps up to 32 of the last with 0 <= U < delta for
    near-locus diagnostics. ``points`` is empty when no start reached it.
    The arrays are read-only and own their memory.
    """
    key = (np.concatenate([probe.center, [probe.radius, probe.delta_min,
                                          probe.delta_max]]).tobytes(),
           probe.samples, probe.seed)
    slot = probe.potential.compiled.get("shells")
    if slot is None or slot[0] != key:
        deltas, count = probe.shell_deltas(), 2 * probe.samples
        shells = range(len(deltas))
        rngs = [np.random.default_rng([probe.seed, j]) for j in shells]
        kept = [[] for _ in shells]  # each round's points in the shell

        def draw(j):  # uniform starts of the ball, targets log-uniform
            rng, size, low, high = (  # j None: shell 0's near-locus starts
                (copy.deepcopy(rngs[0]), _NEAR_STARTS, deltas[0] / 10.0,
                 deltas[0]) if j is None
                else (rngs[j], count, deltas[j], 10.0 * deltas[j]))
            return _ball_points(probe, rng, size), low * (
                high / low) ** rng.random(size)

        def wanted(j):  # the rounds shell j's mean yield says it needs
            done, got = len(kept[j]), sum(map(len, kept[j]))
            if not done:
                return 1
            return min(-(-(probe.samples - got) * done // got),
                       -(-MAX_ATTEMPTS_PER_SHELL // count) - done)

        while shells:
            keys = [k for j in shells
                    for k in ([0, None] if j == 0 else [j]) * wanted(j)]
            projected = _joined(lambda *starts: _project(probe, *starts),
                                map(draw, keys))
            going = set(shells)
            # projected first, so it runs out and lets its last pass go
            for (points, values), j in zip(projected, keys):
                if j is None:  # after a round of shell 0 that was kept
                    if taken:
                        near = _frozen(points[(values >= 0)
                                              & (values < deltas[0])][:32])
                    continue
                taken = j in going
                if taken:  # the stop rule, round by round
                    kept[j].append(points[(values >= deltas[j])
                                          & (values <= 10.0 * deltas[j])])
                    if not (len(kept[j][-1])
                            and sum(map(len, kept[j])) < probe.samples
                            and count * len(kept[j])
                            < MAX_ATTEMPTS_PER_SHELL):
                        going.remove(j)
            shells = [j for j in shells if j in going]
        for j, rounds in enumerate(kept):  # let each shell's rounds go
            kept[j] = (_frozen(np.concatenate(rounds)[:probe.samples]),
                       count * len(rounds), near if j == 0 else [])
        slot = probe.potential.compiled["shells"] = key, kept
    return slot[1][shell_index]


def _frozen(rows):
    """A read-only copy of ``rows`` that owns its memory."""
    rows = rows.copy()
    rows.flags.writeable = False
    return rows


# consecutive shells whose growing maxima refute a condition
_REFUTATION_WINDOW = 4


def _median(values):
    """``np.median`` of a few floats, nan if one is nan; np.median's own nan
    check imports numpy.ma, which alone is over a megabyte resident."""
    values = list(map(float, values))
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


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
    if max(maxima) <= 2.0 * _median(maxima) + 1e-12:
        return CERTIFIED, None
    return INCONCLUSIVE, None


def _evaluated_shells(probe):
    """The filled shells, skipped deltas and shell 0's near-locus points.

    Made once per probe; an error in making them is kept and raised again.
    Each filled shell is (delta, attempts, points, (grad f, U, dU, g^-1)),
    its columns from one numpy pass per field (``_evaluate``) over the
    filled shells' points joined in shell order (_joined); the scalar
    path names the first bad point, grad f before U at each point, as
    GradientTooSmall names the first point where |grad f| is below the
    floor. A shell with no sample is skipped while enough filled shells
    remain for a refutation window; otherwise it raises EmptyShell, since
    fewer shells would certify any ratios.
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
    sizes = [len(points) for points, _attempts, _near in drawn]
    empty = sizes.index(0) if 0 in sizes else None
    # too few filled shells: those before the first empty one are evaluated,
    # so an error there comes before its EmptyShell
    starved = empty is not None and \
        len(sizes) - sizes.count(0) < _REFUTATION_WINDOW
    rows = iter(list(_joined(lambda points: _evaluate(probe, points), (
        (points,) for points, *_ in drawn[:empty if starved else None]
        if len(points)))))
    if starved:
        raise EmptyShell(deltas[empty], drawn[empty][1])
    shells = [(float(delta), attempts, points, next(rows))
              for delta, (points, attempts, _near) in zip(deltas, drawn)
              if len(points)]
    skipped = [float(delta) for delta, size in zip(deltas, sizes) if not size]
    return shells, skipped, drawn[0][2]


def _evaluate(probe, points):
    """(grad f, U, dU, g^-1) rows at a shell's points; a bad row, or one
    where |grad f| is below the floor, from the scalar path."""
    metric = probe.metric
    grad, _norm_sq, inverse, bad = gradient_rows(metric, probe.f, points,
                                                 GRADIENT_FLOOR)
    u, du = probe.potential.vectorized()(points)
    bad |= np.isnan(u)

    def scalar(x):
        grad_x = gradient_data(metric, probe.f, x, GRADIENT_FLOOR)[1]
        return (grad_x, *probe.potential.value_and_grad(x),
                metric.inverse(x))

    mend_rows(points, bad, scalar,  # a Euclidean g^-1 is never mended
              (grad, u, du, inverse)[:3 if metric.euclidean else 4])
    return grad, u, du, inverse


def _finite(condition, what, points, values, checked=True):
    """``values``, one a row of ``points``; NonFiniteResult naming the
    ``condition``, ``what`` and the first of the ``checked`` points where
    one is not finite."""
    bad = ~np.isfinite(values) & checked
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteResult(
            f"{condition!r}: {what} is not finite ({float(values[i])!r}) "
            f"at {format_point(points[i])}")
    return values


def _row(delta, attempts, points, column):
    """A shell's row for one ratio per point."""
    worst = int(np.argmax(column))
    return ShellRow(delta=delta, count=len(points), attempts=attempts,
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
    try:
        if magnetic:
            k1 = k_bound ** 2
            notes["K1"] = k1
            notes["C1"] = math.sqrt(
                m_grad ** -4 * k1 / (2.0 * m_quad)) * math.sqrt(cap_sq)
        else:
            notes["K2"] = k_bound
            notes["C2"] = m_grad ** -2 * k_bound * cap_sq / 2.0
    except (OverflowError, ZeroDivisionError) as exc:
        raise NonFiniteResult(
            f"proof constant {'C1' if magnetic else 'C2'} of {condition!r} "
            f"overflows: the smallest sampled |grad f| is {m_grad!r}"
        ) from exc
    return report


def certify_potential_condition(probe) -> ConditionReport:
    """Shell test of |dU(grad f)| / U staying bounded near the locus; a
    sum within rounding noise of zero (guard_cancellation) is zero."""
    shells, skipped, _near = _evaluated_shells(probe)
    rows = []
    for delta, attempts, points, (grad, u, du, _inverse) in shells:
        num = guard_cancellation(rowdot(du, grad),
                                 rowdot(np.abs(du), np.abs(grad)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(u <= 0, math.inf, np.abs(num) / u)
        rows.append(_row(delta, attempts, points, ratios))
    return _report(probe, "dU(grad f) = O(U)", rows, skipped, {})


def certify_magnetic_condition(probe) -> ConditionReport:
    """Shell test of |iota_{grad f} d mu| / sqrt(U) near the locus.

    Also tabulates the stronger full-norm condition |d mu| = O(sqrt U) and
    reports whether the magnetic field vanishes on near-locus samples.
    Both ratios at a point share one magnetic tensor, whose rows come from
    one numpy pass per component; a bad row from magnetic_tensor itself,
    which is not evaluated where U <= 0 and both ratios are inf. A ratio
    where U > 0 or a near-locus norm that is not finite, as where the
    field's norm overflows, raises NonFiniteResult naming the shell's
    delta and the point.
    """
    condition = "|iota_{grad f} d mu| = O(sqrt U)"
    mu = probe.magnetic
    if mu is None or _is_zero_form(mu, probe.center):
        return ConditionReport(condition, CERTIFIED, [], 0.0, notes={
            "trivial": True, "magnetic_field_on_locus": "zero"})

    shells, skipped, near = _evaluated_shells(probe)
    rows, full_rows = [], []
    for delta, attempts, points, (grad, u, _du, inverse) in shells:
        tensors, bad = magnetic_tensor_rows(mu, points)
        mend_rows(points, bad & (u > 0),
                  lambda x: (magnetic_tensor(mu, x),), (tensors,))
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(u)
            contracted, full = (
                np.where(u <= 0, math.inf, norm / root) for norm in (
                    contracted_form_norm(inverse, tensors, grad),
                    two_form_norm(inverse, tensors)))
        where = f"on the shell delta = {delta!r}"
        rows.append(_row(delta, attempts, points, _finite(
            condition, f"the ratio {where}", points, contracted, u > 0)))
        full_rows.append(_row(delta, attempts, points, _finite(
            condition, f"the full-norm ratio {where}", points, full, u > 0)))
    full_verdict, _full_worst = _verdict_from_shells(full_rows)

    # characteristic-equation diagnostics on near-locus samples, grad f
    # before the tensor at each point
    near = np.reshape(near, (-1, len(probe.center)))
    grad, _norm_sq, inverse, bad = gradient_rows(probe.metric, probe.f,
                                                 near)
    tensors, bad_tensor = magnetic_tensor_rows(mu, near)
    mend_rows(near, bad | bad_tensor, lambda x: (
        riemannian_gradient(probe.metric, probe.f, x),
        magnetic_tensor(mu, x), probe.metric.inverse(x)),
        (grad, tensors, inverse)[:2 if probe.metric.euclidean else 3])
    contracted_near = _finite(
        condition, "the near-locus |iota_{grad f} d mu|", near,
        contracted_form_norm(inverse, tensors, grad)).max(initial=0.0)
    dmu_near_min = _finite(
        condition, "the near-locus |d mu|", near,
        two_form_norm(inverse, tensors)).min(initial=math.inf)
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
    eigenvalue (at least 1) over points of the probe ball, skipping a
    point where the scalar path raises DomainError or NonFiniteResult.
    """
    if probe._constants is None:
        metric = probe.metric
        rng = np.random.default_rng([probe.seed, 9999])
        points = _ball_points(probe, rng, 64)
        grad, norm_sq, _inverse, bad = gradient_rows(metric, probe.f,
                                                     points)
        bad = mend_rows(points, bad, lambda x: gradient_data(
            metric, probe.f, x)[1:], (grad, norm_sq),
            skip=(DomainError, NonFiniteResult))
        m_grad = math.sqrt(max(np.min(norm_sq[~bad], initial=math.inf),
                               0.0))
        m_quad = 1.0
        if not metric.euclidean and not bad.all():
            m_quad = max(m_quad, float(np.max(np.linalg.eigvalsh(
                metric.rows(points[~bad], ["g"])[0]))))
        cap_sq = gradient_data(metric, probe.f, probe.center)[2]
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


def check_quasi_homogeneous(potential, spec, seed=0) -> QuasiHomogeneousReport:
    """Euler identity check: sum_i a_i x_i d_i U = r U at random points."""
    n = potential.dimension
    rng = np.random.default_rng(seed)
    points = rng.uniform(-EULER_BOX, EULER_BOX, size=(EULER_SAMPLES, n))
    u, du = potential.vectorized()(points)
    mend_rows(points, np.isnan(u), potential.value_and_grad, (u, du))
    weights = np.broadcast_to(spec.weights, du.shape)
    residual = np.abs(rowdot(weights, points * du) - spec.degree * u)
    residual /= 1.0 + np.abs(u)
    residual = np.fmax(residual, 0.0)  # a nan residual counts as none
    worst = float(residual.max(initial=0.0))
    witness = None if worst == 0.0 else [
        float(c) for c in points[np.argmax(residual)]]
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
    A non-finite inner product or bracket raises NonFiniteResult naming
    the point, since neither can certify.
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
            if not math.isfinite(inner + norm):
                raise NonFiniteResult(
                    f"inner product or Lie bracket of level functions "
                    f"{i + 1} and {j + 1} is not finite at point "
                    f"{format_point(x)}")
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
    template = total(fold("*", c_fld.body, Var(k + j))
                     for j, c_fld in enumerate(omega.components))
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
    grid = chart.grid(grid_count)
    jacobians = chart.jacobian(grid)
    for coords, jac, ambient in zip(grid, jacobians, chart.point(grid)):
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
