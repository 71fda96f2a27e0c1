"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL
line; tolerances are stated inline and never loosened.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from instab import certify, harness
from instab.charts import pullback_metric_block_check
from instab.dynamics import (
    LagrangianSystem,
    State,
    integrate,
)
from instab.errors import DomainError, NoPositiveDrift, NonFiniteResult
from instab.expr import ScalarField
from instab.geometry import MetricSpec, OneForm, magnetic_tensor
from oracles import el_residual_adapted


def _verdict(number, title, ok):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def test_criterion_1_energy_conservation(corpus_sweeps):
    worst = 0.0
    for report in corpus_sweeps.values():
        for run in report.runs:
            assert run.status == "ok"
            worst = max(worst, run.trajectory.energy_drift)
    _verdict(1, "energy conservation", worst <= 1e-6)


def test_criterion_1_holds_with_margin_as_eps_shrinks():
    """The drift grows about 10x per decade of eps; at eps = 1e-4 it stays
    a tenth of the way to criterion 1's 1e-6."""
    problem = harness.corpus_entry("stable-magnetic-plane")
    _df, grad, _cap_sq = problem.gradient_data()
    trajectory = integrate(problem.system(epsilon=1e-4),
                           State(0.0, problem.center, grad), problem.horizon)
    _verdict(1, "energy conservation at eps = 1e-4",
             trajectory.energy_drift <= 1e-7)


def test_criterion_2_confinement_bounds(corpus_sweeps):
    report = corpus_sweeps["unstable-magnetic-plane"]
    cap_sq = report.cap_sq
    ok = True
    for run in report.runs:
        eps = run.epsilon
        ok &= run.trajectory.max_potential <= eps ** 2 * cap_sq / 2 + 1e-10
        ok &= run.trajectory.max_speed <= np.sqrt(cap_sq) + 1e-8
    assert {r.epsilon for r in report.runs} == {1e-1, 1e-2, 1e-3}
    _verdict(2, "confinement bounds", ok)


def test_criterion_3_escape_oracle(corpus_sweeps):
    report = corpus_sweeps["unstable-magnetic-plane"]
    ok = True
    for run in report.runs:
        ok &= float(np.max(np.abs(run.f_curve
                                  - run.trajectory.grid_times))) <= 1e-7
    ok &= abs(report.limit_drift - 1.0) <= 1e-8
    ok &= abs(report.cap_sq - 1.0) <= 1e-12
    verdict = harness.detect_escape(report)
    ok &= verdict.verdict.startswith("escape demonstrated")
    for crossing in verdict.crossings:
        ok &= abs(crossing["tau_star"] - verdict.level / 2) <= 1e-6
        ok &= abs(crossing["physical_time"]
                  - 0.5 / crossing["epsilon"]) <= 1e-4 / crossing["epsilon"]
    _verdict(3, "escape oracle", ok)


def test_criterion_4_stability_oracle(corpus_sweeps):
    problem = harness.corpus_entry("stable-magnetic-plane")
    eps = 0.1
    _df, grad, _cap = problem.gradient_data()
    trajectory = integrate(
        problem.system(epsilon=None),
        State(0.0, problem.center, eps * grad),
        100.0, keep_log=True,
    )
    distances = np.sqrt(
        ((trajectory.states[:, :3] - problem.center) ** 2).sum(axis=1))
    ok = float(distances.max()) <= 2 * eps + 1e-8
    try:
        harness.detect_escape(corpus_sweeps["stable-magnetic-plane"])
        ok = False
    except NoPositiveDrift:
        pass
    _verdict(4, "stability oracle", ok)


def test_criterion_5_euler_identity():
    whitney = ScalarField.parse("(x1^2 - x2^2*x3)^2", 3)
    kolibri = ScalarField.parse("(x1^2*x3^2 + x1^3 - x2^2)^2", 3)
    a = certify.check_quasi_homogeneous(
        whitney, certify.QuasiHomogeneousSpec(weights=[1, 1, 0], degree=4),
        seed=0)
    b = certify.check_quasi_homogeneous(
        kolibri, certify.QuasiHomogeneousSpec(weights=[2, 3, 1], degree=12),
        seed=0)
    ok = (a.certified and a.max_residual <= 1e-9
          and b.certified and b.max_residual <= 1e-9)
    _verdict(5, "euler identity", ok)


def _probe_for(name, seed=0):
    problem = harness.corpus_entry(name)
    return certify.HypothesisProbe(
        metric=problem.metric,
        potential=problem.potential,
        f=problem.f,
        magnetic=problem.magnetic,
        center=problem.center,
        seed=seed,
        **problem.probe,
    )


def test_criterion_6_potential_certifier():
    ok = True
    for name, ratio in [("whitney-umbrella", 4.0), ("kolibri", 12.0),
                        ("unstable-magnetic-plane", 0.0)]:
        report = certify.certify_potential_condition(_probe_for(name))
        ok &= report.verdict == "certified"
        for shell in report.shells:
            ok &= abs(shell.max_ratio - ratio) <= 1e-9
    refuted = certify.certify_potential_condition(
        _probe_for("crossing-axes"))
    ok &= refuted.verdict == "refuted" and refuted.witness is not None
    _verdict(6, "potential certifier discrimination", ok)


def test_criterion_7_magnetic_certifier():
    good = certify.certify_magnetic_condition(
        _probe_for("unstable-magnetic-plane"))
    bad = certify.certify_magnetic_condition(
        _probe_for("stable-magnetic-plane"))
    ok = good.verdict == "certified"
    ok &= all(s.max_ratio == 0.0 for s in good.shells)
    ok &= bad.verdict == "refuted"
    for shell in bad.shells:
        ok &= shell.max_ratio >= 1.0 / np.sqrt(10 * shell.delta) - 1e-6
    _verdict(7, "magnetic certifier discrimination", ok)


def test_criterion_8_chart_identities(origin_chart, corollary_chart):
    f = origin_chart.fields[0]
    worst_id = max(
        abs(f.eval(origin_chart.point(coords)) - coords[0])
        for coords in origin_chart.grid(9))
    block = pullback_metric_block_check(origin_chart, grid_count=9)
    ok = worst_id <= 1e-8 and block.max_mixed <= 1e-6

    _problem, chart, fields, _pullback = corollary_chart
    for coords in chart.grid(5):
        p = chart.point(coords)
        for i, fld in enumerate(fields):
            ok &= abs(fld.eval(p) - coords[i]) <= 1e-8
    for coords in chart.grid(3):
        swap = chart.point(coords, order=[1, 0])
        ok &= float(np.max(np.abs(chart.point(coords) - swap))) <= 1e-7
    _verdict(8, "chart identities", ok)


def test_criterion_9_pullback_magnetic(corollary_chart):
    problem, chart, _fields, pullback = corollary_chart
    out = certify.chart_contraction_check(chart, pullback, problem.f,
                                          grid_count=3)
    ok = out["passed"] and out["max_component"] <= 1e-8
    origin_tensor = magnetic_tensor(pullback, np.zeros(3))
    ok &= origin_tensor[0, 1] == pytest.approx(1.0, abs=1e-12)
    _verdict(9, "pullback magnetic form", ok)


def _random_expression(rng, depth=0):
    choice = rng.integers(0, 8 if depth < 3 else 3)
    if choice == 0:
        return f"{rng.uniform(-2, 2):.4f}"
    if choice in (1, 2):
        return f"x{rng.integers(1, 4)}"
    a = _random_expression(rng, depth + 1)
    b = _random_expression(rng, depth + 1)
    if choice == 3:
        return f"({a} + {b})"
    if choice == 4:
        return f"({a} - {b})"
    if choice == 5:
        return f"({a})*({b})"
    if choice == 6:
        return f"({a})^{rng.integers(1, 4)}"
    fn = ("sin", "cos", "exp")[rng.integers(0, 3)]
    return f"{fn}(({a})/4)"


def test_criterion_10_ad_correctness(rng):
    checked = 0
    h = 1e-6
    ok = True
    while checked < 1000:
        field = ScalarField.parse(_random_expression(rng), 3)
        point = rng.uniform(-1.5, 1.5, 3)
        try:
            grad = field.grad(point)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd = (field.eval(point + e) - field.eval(point - e)) / (2 * h)
                ok &= abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))
        except (DomainError, NonFiniteResult, OverflowError):
            continue
        checked += 1

    metric = MetricSpec.from_sources(
        3, [["1", "0", "0"],
            ["0", "1 + x1^2/4", "x1/4"],
            ["0", "x1/4", "1 + (x2 + x3)^2/8"]])
    system = LagrangianSystem(
        metric,
        ScalarField.parse("x1^2", 3),
        OneForm.from_sources(["0", "x1", "x1*x2/2"]),
        epsilon=1.0,
    )
    trajectory = integrate(system, State(0, np.zeros(3), [0.5, 0.3, 0.1]),
                           1.0)
    residual = float(np.max(np.abs(el_residual_adapted(system, trajectory))))
    ok &= residual <= 1e-5
    _verdict(10, "derivative correctness", ok)


def test_criterion_11_determinism():
    cmd = [sys.executable, "-m", "instab.cli", "corpus", "run-all",
           "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    payload = json.loads(first.stdout)
    ok &= payload["all_expected"] is True
    _verdict(11, "determinism and expected verdicts", ok)
