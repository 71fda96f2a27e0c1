"""End-to-end experiments: problem definitions, sweeps, escape detection.

A problem bundles a metric, a potential, an optional magnetic one-form and
a candidate function around a zero-potential center. The sweep integrates
the rescaled dynamics for a decreasing list of epsilon values with initial
velocity grad_rho f(p); escape detection then reads the instability
witness off the family of f-composed curves. Verdicts are phrased as
"demonstrated at the tested scales": a finite sweep is evidence for the
existential statement, not a proof of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import certify as _certify
from .dynamics import (
    LagrangianSystem,
    State,
    Tolerances,
    check_lemma1_bounds,
    integrate,
)
from .errors import (
    DomainError,
    ExprError,
    InstabError,
    IntegrationError,
    NoPositiveDrift,
    NonFiniteResult,
    SingularMetric,
    ValidationError,
)
from .expr import MAX_DIMENSION, ScalarField
from .geometry import GRADIENT_FLOOR, MetricSpec, OneForm, gradient_data

DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3)
CENTER_POTENTIAL_TOL = 1e-12
PROBE_KEYS = ("radius", "delta_min", "delta_max", "samples")
DRIFT_FRACTION = 0.01  # of |grad f(p)|^2 T; escape needs 10x this
CONSISTENCY_FRACTIONS = (0.25, 0.5, 1.0)  # of T; see physical_consistency


@dataclass
class ProblemDefinition:
    name: str
    dimension: int
    metric: MetricSpec
    potential: ScalarField
    magnetic: OneForm | None
    f: ScalarField
    center: np.ndarray
    horizon: float
    epsilons: tuple
    expected: str | None = None  # "stable" | "unstable" | None
    chart: dict | None = None
    quasi_homogeneous: dict | None = None
    probe: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)

    def system(self, epsilon=None) -> LagrangianSystem:
        return LagrangianSystem(self.metric, self.potential, self.magnetic,
                                epsilon=epsilon)

    def gradient_data(self):
        """(df(p), grad_rho f(p), |grad f(p)|^2)."""
        return gradient_data(self.metric, self.f, self.center)

    def to_dict(self):
        return {
            "name": self.name,
            "dimension": self.dimension,
            "metric": ("euclidean" if self.metric.euclidean else [
                [self.metric.entry(i, j).source
                 for j in range(self.dimension)]
                for i in range(self.dimension)
            ]),
            "potential": self.potential.source,
            "magnetic": (None if self.magnetic is None
                         else [c.source for c in self.magnetic.components]),
            "f": self.f.source,
            "center": [float(c) for c in self.center],
            "T": self.horizon,
            "epsilons": [float(e) for e in self.epsilons],
            "chart": self.chart,
            "quasi_homogeneous": self.quasi_homogeneous,
            "probe": self.probe,
            "expected": self.expected,
            "labels": self.labels,
        }


def _is_real(value):
    """A finite JSON number; booleans are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _parse_field(source, dimension, problems, what):
    try:
        return ScalarField.parse(str(source), dimension)
    except (ExprError, ValueError) as exc:
        problems.append(f"{what}: {exc}")
        return None


def _check_chart(spec, n, problems):
    """The keys build_problem_chart reads, checked for shape and syntax."""
    fields = spec.get("fields") if isinstance(spec, dict) else None
    if not (isinstance(fields, list) and 1 <= len(fields) < n):
        problems.append(f"chart.fields must be a list of 1..{n - 1} "
                        "expressions")
        return
    k = len(fields)
    expressions = [("fields", k, n), ("psi", n, n - k)]
    if spec.get("omega") is not None:
        expressions.append(("omega", k, k))
    for key, count, dimension in expressions:
        sources = spec.get(key)
        if not (isinstance(sources, list) and len(sources) == count):
            problems.append(f"chart.{key} must be a list of {count} "
                            "expressions")
            continue
        for i, src in enumerate(sources):
            _parse_field(src, dimension, problems, f"chart.{key}[{i}]")
    for key, count in (("base_box", n - k), ("level_box", k)):
        box = spec.get(key)
        if not (isinstance(box, list) and len(box) == count and all(
                isinstance(b, list) and len(b) == 2
                and all(_is_real(c) for c in b)
                and b[0] < b[1]
                for b in box)):
            problems.append(f"chart.{key} must be a list of {count} "
                            "[lo, hi] intervals")


def _check_quasi_homogeneous(spec, n, problems):
    """The weights and degree the Euler-identity check reads."""
    if not (isinstance(spec, dict) and set(spec) == {"weights", "degree"}
            and isinstance(spec["weights"], list)
            and len(spec["weights"]) == n
            and all(_is_real(w) for w in spec["weights"])
            and any(spec["weights"])
            and _is_real(spec["degree"]) and spec["degree"] > 0):
        problems.append(f"quasi_homogeneous must hold weights, a list of {n} "
                        "reals not all zero, and degree, a positive real")


def load_problem(data, name=None) -> ProblemDefinition:
    """Validate a problem mapping (or JSON file path) into a definition.

    All validation failures are gathered into one ValidationError rather
    than stopping at the first.
    """
    try:
        if hasattr(data, "read"):
            data = json.load(data)
        elif isinstance(data, (str, bytes)):
            with open(data) as fh:
                data = json.load(fh)
    except ValueError as exc:
        raise ValidationError(f"problem is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"problem file cannot be read: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("problem must be a JSON object")
    problems = []

    n = data.get("dimension")
    if isinstance(n, bool) or not isinstance(n, int) \
            or not 1 <= n <= MAX_DIMENSION:
        problems.append(f"dimension must be an integer in 1..{MAX_DIMENSION}")
        raise ValidationError(problems)

    metric_data = data.get("metric", "euclidean")
    metric = None
    if metric_data == "euclidean":
        metric = MetricSpec.identity(n)
    elif (isinstance(metric_data, list) and len(metric_data) == n
          and all(isinstance(r, list) and len(r) == n for r in metric_data)):
        try:
            metric = MetricSpec.from_sources(
                n, [[str(src) for src in row] for row in metric_data])
        except (ExprError, ValueError) as exc:
            problems.append(f"metric: {exc}")
    else:
        problems.append('metric must be "euclidean" or an n x n expression '
                        "matrix")

    potential = _parse_field(data.get("potential", ""), n, problems,
                             "potential")
    f_field = _parse_field(data.get("f", ""), n, problems, "f")

    magnetic = None
    mag_data = data.get("magnetic")
    if mag_data is not None:
        if not (isinstance(mag_data, list) and len(mag_data) == n):
            problems.append("magnetic must be null or a list of n "
                            "component expressions")
        else:
            comps = [_parse_field(src, n, problems, f"magnetic[{i}]")
                     for i, src in enumerate(mag_data)]
            if all(c is not None for c in comps):
                magnetic = OneForm(n, comps)

    center = data.get("center")
    center_ok = (isinstance(center, (list, tuple)) and len(center) == n
                 and all(_is_real(c) for c in center))
    if center_ok:
        center = np.array(center, dtype=float)
    else:
        problems.append("center must be a list of n reals")
        center = np.zeros(n)

    horizon = data.get("T", 1.0)
    if not (_is_real(horizon) and horizon > 0):
        problems.append("T must be a positive real")

    epsilons = data.get("epsilons", DEFAULT_EPSILONS)
    if not (isinstance(epsilons, (list, tuple)) and epsilons
            and all(_is_real(e) and e > 0 for e in epsilons)):
        problems.append("epsilons must be a list of positive reals")
    elif any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        problems.append("epsilons must be strictly decreasing")

    expected = data.get("expected")
    if expected not in (None, "stable", "unstable"):
        problems.append('expected must be "stable", "unstable" or null')
    labels = data.get("labels", {})
    if not (isinstance(labels, dict) and labels.get("certification") in (
            None, _certify.CERTIFIED, _certify.REFUTED,
            _certify.INCONCLUSIVE)):
        problems.append('labels must be a mapping whose certification is '
                        '"certified", "refuted", "inconclusive" or null')

    if potential is not None and center_ok:
        try:
            u0 = potential.eval(center)
            if abs(u0) > CENTER_POTENTIAL_TOL:
                problems.append(
                    f"center is not a zero-potential point (U = {u0:.3e})")
        except (DomainError, NonFiniteResult) as exc:
            problems.append(f"potential at center: {exc}")
    if f_field is not None and metric is not None and center_ok:
        try:
            _df, _grad, norm_sq = gradient_data(metric, f_field, center)
            if norm_sq < GRADIENT_FLOOR ** 2:
                problems.append("gradient of f at the center is below "
                                f"{GRADIENT_FLOOR:.0e}")
        except (DomainError, NonFiniteResult, InstabError) as exc:
            problems.append(f"f at center: {exc}")

    if data.get("chart") is not None:
        _check_chart(data["chart"], n, problems)
    if data.get("quasi_homogeneous") is not None:
        _check_quasi_homogeneous(data["quasi_homogeneous"], n, problems)
    probe = data.get("probe", {})
    try:
        if not isinstance(probe, dict):
            raise ValueError("settings must be a mapping")
        unknown = sorted(set(probe) - set(PROBE_KEYS))
        if unknown:
            raise ValueError(f"unknown settings {unknown}")
        if any(isinstance(v, bool) for v in probe.values()):
            raise ValueError("settings must be numbers, not booleans")
        _certify.HypothesisProbe(metric, potential, f_field, center=center,
                                 **probe)
    except (TypeError, ValueError) as exc:
        problems.append(f"probe: {exc}")

    if problems:
        raise ValidationError(problems)
    return ProblemDefinition(
        name=name or data.get("name", "problem"),
        dimension=n,
        metric=metric,
        potential=potential,
        magnetic=magnetic,
        f=f_field,
        center=center,
        horizon=float(horizon),
        epsilons=tuple(float(e) for e in epsilons),
        expected=expected,
        chart=data.get("chart"),
        quasi_homogeneous=data.get("quasi_homogeneous"),
        probe=probe,
        labels=labels,
    )


# --- built-in corpus --------------------------------------------------------

_PLANE = {
    "dimension": 3,
    "potential": "x3^2",
    "f": "x1",
    "center": [0.0, 0.0, 0.0],
    "T": 1.0,
}

_COROLLARY1 = {
    "dimension": 3,
    "potential": "(x1 + x3^2)^2 + x2^2",
    "f": "x1 - ln(x3)/2",
    "center": [-1.0, 0.0, 1.0],
    "T": 0.4,
    # base curve s -> (-s^2, 0, s) stays in x3 > 0 where f is defined
    "chart": {
        "fields": ["x1 + x3^2", "x2"],
        "psi": ["-x1^2", "0", "x1"],
        "base_box": [[0.6, 1.4]],
        "level_box": [[-0.25, 0.25], [-0.25, 0.25]],
        "omega": ["0", "x1"],
    },
}

_CORPUS_DATA = [
    ("stable-magnetic-plane", dict(
        _PLANE,
        magnetic=["0", "x1", "0"],
        expected="stable",
        labels={"certification": "refuted",
                "note": "gyroscopic coupling stabilizes the plane of "
                        "equilibria"},
    )),
    ("unstable-magnetic-plane", dict(
        _PLANE,
        magnetic=["0", "x3", "0"],
        expected="unstable",
        labels={"certification": "certified"},
    )),
    ("mechanical-plane", dict(
        _PLANE,
        magnetic=None,
        expected="unstable",
        labels={"certification": "certified"},
    )),
    ("whitney-umbrella", dict(
        dimension=3,
        potential="(x1^2 - x2^2*x3)^2",
        magnetic=None,
        f="(x1^2 + x2^2)/2",
        center=[1.0, 1.0, 1.0],
        T=0.4,
        expected="unstable",
        quasi_homogeneous={"weights": [1, 1, 0], "degree": 4},
        probe={"radius": 0.4},
        labels={"certification": "certified"},
    )),
    ("kolibri", dict(
        dimension=3,
        potential="(x1^2*x3^2 + x1^3 - x2^2)^2",
        magnetic=None,
        f="x1^2 + 3*x2^2/2 + x3^2/2",
        center=[1.0, 1.0, 0.0],
        T=0.3,
        expected="unstable",
        quasi_homogeneous={"weights": [2, 3, 1], "degree": 12},
        probe={"radius": 0.4},
        labels={"certification": "certified"},
    )),
    ("crossing-axes", dict(
        dimension=2,
        potential="x1^2*x2^2",
        magnetic=None,
        f="x1",
        center=[0.0, 0.0],
        T=1.0,
        expected="unstable",
        labels={"certification": "refuted",
                "note": "no smooth candidate function works at the "
                        "origin; f = x1 escapes along an axis but fails "
                        "certification"},
    )),
    ("corollary1-unstable-magnetic", dict(
        _COROLLARY1,
        magnetic=["0", "x1 + x3^2", "0"],
        expected="unstable",
        labels={"certification": "certified",
                "note": "magnetic form is the pullback of a level-space "
                        "one-form; its field is nonzero on the "
                        "zero-potential surface"},
    )),
    ("corollary1-mechanical", dict(
        _COROLLARY1,
        magnetic=None,
        expected="unstable",
        chart={
            "fields": ["x1 + x3^2"],
            "psi": ["-x2^2", "x1", "x2"],
            "base_box": [[-0.4, 0.4], [-0.4, 0.4]],
            "level_box": [[-0.25, 0.25]],
        },
        labels={"certification": "certified"},
    )),
]


def corpus() -> list:
    """The built-in problem definitions, validated on construction."""
    return [load_problem(dict(data), name=name) for name, data in _CORPUS_DATA]


def corpus_entry(name) -> ProblemDefinition:
    for entry in corpus():
        if entry.name == name:
            return entry
    raise KeyError(name)


# --- sweeps and escape detection --------------------------------------------


@dataclass
class SweepRun:
    epsilon: float
    status: str  # "ok" | "failed"
    error: str | None = None
    trajectory: object = None
    f_curve: np.ndarray | None = None  # f(x_eps) - f(p) on the uniform grid
    bounds: object = None
    zdot0: float = 0.0
    zdot0_residual: float = 0.0

    def to_dict(self):
        out = {
            "epsilon": self.epsilon,
            "status": self.status,
            "error": self.error,
            "zdot0": self.zdot0,
            "zdot0_residual": self.zdot0_residual,
        }
        if self.trajectory is not None:
            out["energy_drift"] = self.trajectory.energy_drift
            out["max_speed"] = self.trajectory.max_speed
            out["max_potential"] = self.trajectory.max_potential
            out.update(self.trajectory.stats)  # steps, nfev, rejected
        if self.bounds is not None:
            out["bounds"] = {
                "passed": self.bounds.passed,
                "speed_margin": self.bounds.speed_margin,
                "potential_margin": self.bounds.potential_margin,
            }
        if self.f_curve is not None:
            out["f_curve_subsampled"] = [float(v)
                                         for v in self.f_curve[::8]]
        return out


@dataclass
class EscapeVerdict:
    verdict: str
    level: float
    threshold: float | None  # None where there is no escape
    drift_tolerance: float
    crossings: list  # per run: {"epsilon", "tau_star", "physical_time"}
    initial_speeds: list

    to_dict = asdict


@dataclass
class EscapeReport:
    problem: str
    cap_sq: float  # |grad f(p)|^2, the universal initial drift
    horizon: float
    runs: list
    sup_distances: list  # consecutive f-curve sup gaps, coarse to fine
    limit_drift: float | None  # None where no run succeeded
    certification: dict = field(default_factory=dict)
    escape: EscapeVerdict | None = None

    def to_dict(self):
        return {
            "problem": self.problem,
            "cap_sq": self.cap_sq,
            "horizon": self.horizon,
            "runs": [r.to_dict() for r in self.runs],
            "sup_distances": self.sup_distances,
            "limit_drift": self.limit_drift,
            "certification": self.certification,
            "escape": None if self.escape is None else self.escape.to_dict(),
        }


def certification_probe(problem, seed=0, **settings):
    """The problem's certification probe; ``settings`` override its own."""
    try:
        return _certify.HypothesisProbe(
            metric=problem.metric,
            potential=problem.potential,
            f=problem.f,
            magnetic=problem.magnetic,
            center=problem.center,
            seed=seed,
            **{**problem.probe, **settings},
        )
    except ValueError as exc:
        raise ValidationError(f"probe: {exc}") from exc


def label_matches(expected, got):
    """Whether a verdict matches its label; no label matches anything."""
    return expected is None or got == expected


def certification_verdict(problem, potential, magnetic):
    """The problem's verdict from its potential and magnetic verdicts.

    A refuted magnetic hypothesis refutes the problem; otherwise the
    potential verdict stands.
    """
    if problem.magnetic is not None and magnetic == "refuted":
        return "refuted"
    return potential


def _certification_verdicts(problem, seed=0):
    probe = certification_probe(problem, seed=seed)
    out = {}
    for kind, certifier in (
            ("potential", _certify.certify_potential_condition),
            ("magnetic", _certify.certify_magnetic_condition)):
        try:
            out[kind] = certifier(probe).verdict
        except InstabError as exc:
            out[kind] = f"error: {exc}"
    return out


def run_epsilon_sweep(problem, tol=None, seed=0,
                      with_certification=True) -> EscapeReport:
    """Integrate the rescaled system for every epsilon in the problem.

    Initial data is x(0) = p, v(0) = grad_rho f(p) for every epsilon; each
    run is checked against the confinement bounds and the universal initial
    drift df(v(0)) = |grad f(p)|^2. Failures of individual runs are
    recorded and the sweep continues.
    """
    tol = tol or Tolerances()
    df, grad, cap_sq = problem.gradient_data()
    f_center = problem.f.eval(problem.center)
    cap = float(np.sqrt(cap_sq))

    zdot0 = float(df @ grad)
    runs = []
    for eps in problem.epsilons:
        run = SweepRun(epsilon=eps, status="ok", zdot0=zdot0,
                       zdot0_residual=abs(zdot0 - cap_sq))
        runs.append(run)
        system = problem.system(epsilon=eps)
        try:
            trajectory = integrate(
                system, State(0.0, problem.center, grad),
                problem.horizon, tol=tol,
            )
        except (IntegrationError, DomainError, NonFiniteResult,
                SingularMetric, ValueError) as exc:
            run.status = "failed"
            run.error = f"{type(exc).__name__}: {exc}"
            continue
        n = trajectory.dimension
        run.trajectory = trajectory
        run.f_curve = np.array([
            problem.f.eval(row[:n]) - f_center
            for row in trajectory.grid_states
        ])
        run.bounds = check_lemma1_bounds(trajectory, cap)

    ok = [r for r in runs if r.status == "ok"]
    sup_distances = [
        float(np.max(np.abs(a.f_curve - b.f_curve)))
        for a, b in zip(ok, ok[1:])
    ]
    limit_drift = None
    if ok:
        grid = ok[-1].trajectory.grid_times
        h = grid[1] - grid[0]
        mid = len(grid) // 2  # grid point at tau = 0
        curve = ok[-1].f_curve
        limit_drift = float(
            (curve[mid - 2] - 8 * curve[mid - 1]
             + 8 * curve[mid + 1] - curve[mid + 2]) / (12 * h))

    certification = {}
    if with_certification:
        certification = _certification_verdicts(problem, seed=seed)

    return EscapeReport(
        problem=problem.name,
        cap_sq=cap_sq,
        horizon=problem.horizon,
        runs=runs,
        sup_distances=sup_distances,
        limit_drift=limit_drift,
        certification=certification,
    )


def detect_escape(report) -> EscapeVerdict:
    """Read the escape witness off a sweep report.

    The escape level is the maximum of the finest-epsilon f-curve over
    [0, T] (the numerical surrogate for the limit curve); escape is
    demonstrated when every run crosses half that level before T.
    """
    finest = next((r for r in reversed(report.runs) if r.status == "ok"),
                  None)
    if finest is None:
        raise IntegrationError("no successful runs to detect escape on")
    drift_tolerance = DRIFT_FRACTION * report.cap_sq * report.horizon
    grid = finest.trajectory.grid_times
    forward = grid >= 0.0
    level = float(np.max(finest.f_curve[forward]))
    if level <= 10.0 * drift_tolerance:
        raise NoPositiveDrift(level, 10.0 * drift_tolerance)

    crossings = []
    speeds = []
    all_cross = True
    for run in report.runs:
        cap = float(np.sqrt(report.cap_sq))
        speeds.append(run.epsilon * cap)
        if run.status != "ok":
            crossings.append({"epsilon": run.epsilon, "tau_star": None,
                              "physical_time": None})
            all_cross = False
            continue
        tau_star = _first_crossing(grid[forward], run.f_curve[forward],
                                   level / 2.0)
        crossings.append({
            "epsilon": run.epsilon,
            "tau_star": tau_star,
            "physical_time": (None if tau_star is None
                              else tau_star / run.epsilon),
        })
        if tau_star is None:
            all_cross = False
    verdict = ("escape demonstrated at the tested scales" if all_cross
               else "no escape at the tested scales")
    out = EscapeVerdict(
        verdict=verdict,
        level=level,
        threshold=float(report.runs[0].epsilon) if all_cross else None,
        drift_tolerance=float(drift_tolerance),
        crossings=crossings,
        initial_speeds=[float(s) for s in speeds],
    )
    report.escape = out
    return out


def escape_outcome(report):
    """Escape detection on a sweep: "unstable", "stable" or None.

    A sweep with no positive drift is "stable", and its report gets an
    EscapeVerdict that says so.
    """
    try:
        verdict = detect_escape(report)
    except NoPositiveDrift as exc:
        report.escape = EscapeVerdict(
            verdict="no positive drift at this horizon",
            level=exc.level, threshold=None,
            drift_tolerance=exc.threshold, crossings=[],
            initial_speeds=[])
        return "stable"
    return "unstable" if verdict.verdict.startswith("escape") else None


def escape_entry(problem, tol=None, seed=0):
    """The sweep report with escape detection, as ``instab escape`` prints
    it: ``outcome`` and ``expected`` join the report's own keys."""
    report = run_epsilon_sweep(problem, tol=tol, seed=seed)
    outcome = escape_outcome(report)  # fills report.escape
    return {**report.to_dict(), "outcome": outcome,
            "expected": problem.expected}


def _first_crossing(taus, values, target):
    above = values >= target
    if not np.any(above):
        return None
    k = int(np.argmax(above))
    if k == 0:
        return float(taus[0])
    t0, t1 = taus[k - 1], taus[k]
    v0, v1 = values[k - 1], values[k]
    if v1 == v0:
        return float(t1)
    return float(t0 + (target - v0) * (t1 - t0) / (v1 - v0))


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


def build_problem_chart(problem):
    """Instantiate and verify the chart attached to a problem definition.

    Returns (chart, level_fields, pullback_form) with the pullback form
    present only when the chart spec carries a level-space one-form.
    """
    from .charts import BaseSurfaceMap, build_multi_chart

    spec = problem.chart
    if spec is None:
        raise ValidationError("problem has no chart specification")
    n = problem.dimension
    fields = [ScalarField.parse(str(s), n) for s in spec["fields"]]
    k = len(fields)
    base_dim = n - k
    psi = BaseSurfaceMap(
        [ScalarField.parse(str(s), base_dim) for s in spec["psi"]],
        [tuple(b) for b in spec["base_box"]],
    )
    chart = build_multi_chart(problem.metric, fields, psi,
                              [tuple(b) for b in spec["level_box"]])
    pullback = None
    if spec.get("omega") is not None:
        omega = OneForm(k, [ScalarField.parse(str(s), k)
                            for s in spec["omega"]])
        pullback = _certify.build_pullback_magnetic(fields, omega)
    return chart, fields, pullback


def run_all(seed=42, tol=None):
    """Sweep plus escape detection over the whole corpus.

    Returns (reports, all_expected) where reports is a list of plain dicts
    and all_expected says whether every verdict matched its label.
    """
    reports = []
    for problem in corpus():
        entry = escape_entry(problem, tol=tol, seed=seed)
        verdicts = entry["certification"]
        got = certification_verdict(problem, verdicts.get("potential"),
                                    verdicts.get("magnetic"))
        entry["matched"] = (
            label_matches(problem.expected, entry["outcome"])
            and label_matches(problem.labels.get("certification"), got))
        reports.append(entry)
    return reports, all(entry["matched"] for entry in reports)
