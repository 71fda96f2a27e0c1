"""Checks of the benchmark's own inputs and tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import time

import numpy as np
import pytest

from instab import certify, charts, dynamics, expr, geometry, harness
from instab.errors import EmptyShell
from tracing import Tracer
from worker import run_untraced
from workloads import CURVED_PROBLEM, WORKLOADS, Ledger, Workload, euler_seeds

PATCHED = [
    (expr.ScalarField, "value_and_grad"), (expr.ScalarField, "vectorized"),
    (expr.CallableField, "grad"),
    (geometry, "magnetic_tensor"), (certify, "magnetic_tensor"),
    (dynamics, "magnetic_tensor"),
    (geometry.MetricSpec, "inverse"), (geometry.MetricSpec, "christoffel"),
    (dynamics, "el_acceleration"), (dynamics, "integrate"),
    (harness, "integrate"), (harness, "run_epsilon_sweep"),
    (certify, "certify_potential_condition"), (certify, "_sample_shell"),
    (charts, "solve_ivp"), (charts.AdaptedChart, "point"),
]


def _problems(inputs):
    if "problem" in inputs:
        return [inputs["problem"]]
    return inputs["problems"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_workload_inputs_pass_load_problem(name, seed):
    problems = _problems(WORKLOADS[name].load(seed))
    assert problems
    for problem in problems:
        again = harness.load_problem(problem.to_dict(), name=problem.name)
        assert again.to_dict() == problem.to_dict()


def test_euler_seeds_are_disjoint_across_workload_seeds():
    seen = {}
    for seed in range(20):
        for euler in euler_seeds(seed):
            assert seen.setdefault(euler, seed) == seed


def test_operations_attempted_do_not_depend_on_timing():
    """Same seed and --seconds, so the same repetitions and operations."""
    def check(inputs, outputs, ledger):
        ledger.op("repetition", True)
        return 1.0

    fast = Workload("stub", load=lambda seed: {}, body=lambda inputs: None,
                    check=check, rep_s=0.04)
    slow = Workload("stub", load=lambda seed: {}, check=check, rep_s=0.04,
                    body=lambda inputs: time.sleep(0.05))
    ledgers = [Ledger(), Ledger()]
    for workload, ledger in zip((fast, slow), ledgers):
        result = run_untraced(workload, {}, seed=0, seconds=0.12,
                              ledger=ledger)
        assert len(result["times"]) == 3
    assert ledgers[0].attempted == ledgers[1].attempted == 3
    assert [WORKLOADS[name].repetitions(25) for name in sorted(WORKLOADS)] \
        == [3, 6, 1, 3]


def test_curved_metric_is_positive_definite_on_the_probe_ball():
    problem = harness.load_problem(dict(CURVED_PROBLEM))
    radius = certify.HypothesisProbe(
        metric=problem.metric, potential=problem.potential, f=problem.f,
        center=problem.center).radius
    rng = np.random.default_rng(0)
    directions = rng.normal(size=(2000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.random(2000) ** (1 / 3)
    for x in problem.center + directions * radii[:, None]:
        assert np.linalg.eigvalsh(problem.metric.value(x)).min() > 0


def _small_body():
    """A few calls through every patched layer, in well under a second."""
    problem = harness.load_problem({
        "dimension": 3, "potential": "x3^2", "magnetic": ["0", "x3", "0"],
        "f": "x1", "center": [0, 0, 0], "T": 0.2, "epsilons": [0.1]})
    harness.run_epsilon_sweep(problem, seed=1)
    curved = harness.load_problem(dict(CURVED_PROBLEM, T=0.05,
                                       epsilons=[0.5]))
    harness.run_epsilon_sweep(curved, with_certification=False)
    fields = [expr.ScalarField.parse("x1 + x3^2", 3)]
    psi = charts.BaseSurfaceMap(
        [expr.ScalarField.parse(s, 2) for s in ("-x2^2", "x1", "x2")],
        [(-0.1, 0.1), (-0.1, 0.1)])
    chart = charts.AdaptedChart(geometry.MetricSpec.identity(3), fields, psi,
                                [(-0.1, 0.1)])
    chart.jacobian(np.array([0.05, 0.0, 0.05]))


def test_traced_counts_repeat_and_cover_each_layer():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            _small_body()
        finally:
            tracer.restore()
        counts.append(tracer.counts())
        metrics = tracer.layer_metrics()
    assert counts[0] == counts[1]
    for name in ("expr.value_and_grad.calls",
                 "geometry.magnetic_tensor.calls",
                 "geometry.christoffel.calls",
                 "dynamics.el_acceleration.calls", "dynamics.steps",
                 "certify.shells", "charts.flow_solves",
                 "expr.vectorized.points", "charts.jacobian.calls"):
        assert metrics[name] > 0, name
    assert metrics["harness.sweep_s.curved-metric"] > 0


def test_wrappers_are_gone_after_restore():
    originals = [owner.__dict__[attr] for owner, attr in PATCHED]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(PATCHED, originals))
        _small_body()
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(PATCHED, originals))
    calls = tracer.total_calls()
    assert calls > 0
    _small_body()
    assert tracer.total_calls() == calls


def _corpus_entry(problem, status="ok", potential=None, outcome=None):
    run = {"epsilon": 0.1, "status": status, "error": None,
           "energy_drift": 1e-9}
    potential = potential or problem.labels["certification"]
    return {"problem": problem.name, "runs": [run],
            "certification": {"potential": potential,
                              "magnetic": "not applicable"},
            "outcome": outcome or problem.expected,
            "matched": potential == problem.labels["certification"]}


@pytest.mark.parametrize("case, failed, wrong", [
    ("clean", 0, 0),
    ("empty shell", 2, 0),  # the certifier and the entry's verdict
    ("other certifier error", 0, 2),  # the certifier and all_expected
    ("failed sweep run", 0, 1),
    ("empty shell, wrong outcome", 2, 1),
])
def test_only_empty_shell_is_excused(case, failed, wrong):
    problem = next(p for p in harness.corpus()
                   if p.name == "corollary1-mechanical")
    empty = f"error: {EmptyShell(1e-7, 1000000)}"
    entry = {
        "clean": _corpus_entry(problem),
        "empty shell": _corpus_entry(problem, potential=empty),
        "other certifier error": _corpus_entry(problem,
                                               potential="error: boom"),
        "failed sweep run": _corpus_entry(problem, status="failed"),
        "empty shell, wrong outcome": _corpus_entry(
            problem, potential=empty, outcome="stable"),
    }[case]
    ledger = Ledger()
    margin = WORKLOADS["corpus-run-all"].check(
        {"problems": [problem]},
        {"reports": [entry], "all_expected": entry["matched"]}, ledger)
    assert (ledger.failed, ledger.wrong) == (failed, wrong)
    # with no sweep run finished there is no drift to take a margin of
    assert (margin is None) == (case == "failed sweep run")
