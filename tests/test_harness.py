"""Problem loading, sweeps, escape detection, and the CLI surface."""

import copy
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from instab import harness
from instab.cli import main
from instab.errors import NoPositiveDrift, ValidationError

UNSTABLE_PLANE = {
    "dimension": 3,
    "potential": "x3^2",
    "magnetic": ["0", "x3", "0"],
    "f": "x1",
    "center": [0.0, 0.0, 0.0],
    "T": 1.0,
    "epsilons": [0.1, 0.01],
    "expected": "unstable",
}


def test_load_problem_roundtrip(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(UNSTABLE_PLANE))
    problem = harness.load_problem(str(path), name="plane")
    assert problem.dimension == 3
    assert problem.epsilons == (0.1, 0.01)
    assert problem.magnetic is not None
    again = harness.load_problem(problem.to_dict())
    assert again.potential.source == problem.potential.source


def test_to_dict_keeps_probe():
    problem = harness.corpus_entry("whitney-umbrella")
    assert harness.load_problem(problem.to_dict()).probe == {"radius": 0.4}


def test_load_problem_aggregates_errors():
    bad = dict(UNSTABLE_PLANE,
               center=[0.0, 0.0, 0.5],
               epsilons=[0.01, 0.1],
               f="sin(")
    with pytest.raises(ValidationError) as err:
        harness.load_problem(bad)
    text = " ".join(err.value.problems)
    assert "strictly decreasing" in text
    assert "f:" in text
    assert any("zero-potential" in p for p in err.value.problems)


@pytest.mark.parametrize("probe", [{"radius": float("inf")},
                                   {"delta_max": float("inf")}])
def test_load_problem_rejects_infinite_probe_settings(probe):
    with pytest.raises(ValidationError) as err:
        harness.load_problem(dict(UNSTABLE_PLANE, probe=probe))
    assert err.value.problems[0].startswith("probe: ")
    assert list(probe)[0] in err.value.problems[0]


def test_load_problem_rejects_flat_candidate():
    bad = dict(UNSTABLE_PLANE, f="x3^2")
    with pytest.raises(ValidationError) as err:
        harness.load_problem(bad)
    assert any("gradient" in p for p in err.value.problems)


def test_load_problem_rejects_bad_metric_shape():
    bad = dict(UNSTABLE_PLANE, metric=[["1", "0"], ["0", "1"]])
    with pytest.raises(ValidationError):
        harness.load_problem(bad)


def test_corpus_is_valid_and_complete():
    entries = harness.corpus()
    assert len(entries) >= 7
    names = {e.name for e in entries}
    assert {"stable-magnetic-plane", "unstable-magnetic-plane",
            "mechanical-plane", "whitney-umbrella", "kolibri",
            "crossing-axes"} <= names
    whitney = harness.corpus_entry("whitney-umbrella")
    assert whitney.dimension == 3
    assert whitney.potential.eval(whitney.center) == 0.0
    crossing = harness.corpus_entry("crossing-axes")
    assert crossing.labels["certification"] == "refuted"


def test_sweep_closed_form_family():
    problem = harness.load_problem(dict(UNSTABLE_PLANE), name="plane")
    report = harness.run_epsilon_sweep(problem, with_certification=False)
    assert [r.status for r in report.runs] == ["ok", "ok"]
    for run in report.runs:
        grid = run.trajectory.grid_times
        assert np.max(np.abs(run.f_curve - grid)) < 1e-7
        assert run.zdot0_residual <= 1e-10
        assert run.bounds.passed
    assert report.sup_distances[0] < 1e-9
    assert report.limit_drift == pytest.approx(1.0, abs=1e-8)


def test_sweep_survives_failing_run():
    # potential turns negative along the backward branch; the monitor
    # rejects that run, the sweep records it and keeps going
    problem = harness.load_problem(dict(
        UNSTABLE_PLANE,
        potential="x3^2 + 1/(2 - x1) - 0.5",
        T=1.0, epsilons=[0.1]), name="negative-u")
    report = harness.run_epsilon_sweep(problem, with_certification=False)
    assert report.runs[0].status == "failed"
    assert report.runs[0].error


def test_detect_escape_closed_form():
    problem = harness.load_problem(dict(UNSTABLE_PLANE), name="plane")
    report = harness.run_epsilon_sweep(problem, with_certification=False)
    verdict = harness.detect_escape(report)
    assert verdict.verdict.startswith("escape demonstrated")
    assert verdict.level == pytest.approx(1.0, abs=1e-7)
    for crossing in verdict.crossings:
        assert crossing["tau_star"] == pytest.approx(0.5, abs=1e-7)
        assert crossing["physical_time"] == pytest.approx(
            0.5 / crossing["epsilon"], rel=1e-6)
    assert verdict.initial_speeds == pytest.approx([0.1, 0.01])


def test_detect_escape_flags_no_drift(corpus_sweeps):
    report = corpus_sweeps["stable-magnetic-plane"]
    with pytest.raises(NoPositiveDrift):
        harness.detect_escape(report)


def test_physical_time_consistency():
    problem = harness.corpus_entry("corollary1-mechanical")
    mismatch = harness.physical_consistency(problem, 0.1)
    assert mismatch < 1e-6


def test_report_serialization_deterministic():
    problem = harness.load_problem(dict(UNSTABLE_PLANE), name="plane")
    a = harness.run_epsilon_sweep(problem, seed=3).to_dict()
    b = harness.run_epsilon_sweep(problem, seed=3).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    for run in a["runs"]:  # 2 evaluations per branch start, 6 per try
        assert run["nfev"] == 6 * (run["steps"] + run["rejected"]) + 4


def test_build_problem_chart_single_and_multi():
    single = harness.corpus_entry("corollary1-mechanical")
    chart, fields, pullback = harness.build_problem_chart(single)
    assert chart.k == 1 and pullback is None
    multi = harness.corpus_entry("corollary1-unstable-magnetic")
    chart2, fields2, pullback2 = harness.build_problem_chart(multi)
    assert chart2.k == 2 and pullback2 is not None
    del fields, fields2


# --- CLI -------------------------------------------------------------------


def _run(*args):
    return CliRunner().invoke(main, list(args))


def test_cli_corpus_list_and_show():
    result = _run("corpus", "list")
    assert result.exit_code == 0
    names = [row["name"] for row in json.loads(result.output)]
    assert "whitney-umbrella" in names

    result = _run("corpus", "show", "kolibri")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["quasi_homogeneous"]["degree"] == 12

    result = _run("corpus", "show", "nope")
    assert result.exit_code == 2
    assert json.loads(result.output) == {
        "error": ["no corpus entry 'nope'"], "phase": "show",
        "problem": "nope"}


def test_cli_certify_verdicts_and_exit_codes():
    result = _run("certify", "unstable-magnetic-plane", "--seed", "1")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["potential"]["verdict"] == "certified"
    assert data["magnetic"]["verdict"] == "certified"

    result = _run("certify", "stable-magnetic-plane", "--seed", "1")
    assert result.exit_code == 0  # refuted matches the entry's label
    data = json.loads(result.output)
    assert data["magnetic"]["verdict"] == "refuted"


def test_cli_certify_validation_exit(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(UNSTABLE_PLANE, center=[0, 0, 1])))
    result = _run("certify", str(path))
    assert result.exit_code == 2


def test_cli_escape_and_mismatch(tmp_path):
    result = _run("escape", "unstable-magnetic-plane")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["outcome"] == "unstable"

    lying = dict(UNSTABLE_PLANE, expected="stable")
    path = tmp_path / "lying.json"
    path.write_text(json.dumps(lying))
    result = _run("escape", str(path))
    assert result.exit_code == 1


def test_cli_escape_stable_matches_run_all(corpus_sweeps, monkeypatch):
    result = _run("escape", "stable-magnetic-plane")
    assert result.exit_code == 0
    printed = json.loads(result.output)
    # the escape object depends on the sweep alone, so run_all may reuse
    # the session's sweeps
    monkeypatch.setattr(
        harness, "run_epsilon_sweep",
        lambda problem, tol=None, seed=0: copy.copy(
            corpus_sweeps[problem.name]))
    reports, _ = harness.run_all(seed=42)
    entry = next(r for r in reports if r["problem"] == printed["problem"])
    assert printed["outcome"] == entry["outcome"] == "stable"
    assert json.dumps(printed["escape"], sort_keys=True) \
        == json.dumps(entry["escape"], sort_keys=True)


_NO_PSI = dict(UNSTABLE_PLANE, chart={
    "fields": ["x1"], "base_box": [[-1, 1], [-1, 1]],
    "level_box": [[-0.1, 0.1]]})
_BOGUS_PROBE = dict(UNSTABLE_PLANE, probe={"bogus": 1})


@pytest.mark.parametrize("spec, args, field", [
    (_NO_PSI, ["chart"], "chart.psi"),
    (_BOGUS_PROBE, ["certify"], "bogus"),
    (_BOGUS_PROBE, ["escape"], "bogus"),
    (dict(UNSTABLE_PLANE, probe={"samples": "many"}), ["certify"], "samples"),
    (UNSTABLE_PLANE, ["certify", "--samples", "5"], "samples"),
    (UNSTABLE_PLANE, ["certify", "--shells", "1e-2:1e-7"], "delta_min"),
    (UNSTABLE_PLANE, ["certify", "--shells", "abc"], "--shells"),
    (dict(UNSTABLE_PLANE, epsilons=["a"]), ["certify"], "epsilons"),
    (dict(UNSTABLE_PLANE, epsilons=[True]), ["certify"], "epsilons"),
    (dict(UNSTABLE_PLANE, dimension=True), ["certify"], "dimension"),
    (dict(UNSTABLE_PLANE, T=True), ["certify"], "T must"),
    (dict(UNSTABLE_PLANE, center=["a", 0, 0]), ["certify"], "center"),
    (dict(UNSTABLE_PLANE, labels=[]), ["certify"], "labels"),
    (dict(UNSTABLE_PLANE, quasi_homogeneous={"weights": [1, 1, 0]}),
     ["certify"], "quasi_homogeneous"),
    (dict(UNSTABLE_PLANE, quasi_homogeneous={"weights": "x", "degree": 2}),
     ["certify"], "quasi_homogeneous"),
    (UNSTABLE_PLANE, ["sweep", "--eps", "abc"], "--eps"),
    (UNSTABLE_PLANE, ["sweep", "--tol-abs", "0"], "--tol-abs"),
    (UNSTABLE_PLANE, ["escape", "--tol-rel", "0"], "--tol-rel"),
    (UNSTABLE_PLANE, ["sweep", "--tol-abs", "inf"], "--tol-abs"),
    (UNSTABLE_PLANE, ["escape", "--tol-rel", "inf"], "--tol-rel"),
    (UNSTABLE_PLANE, ["certify", "--radius", "inf"], "radius"),
    (UNSTABLE_PLANE, ["certify", "--seed", "-1"], "seed"),
    (UNSTABLE_PLANE, ["escape", "--seed", "-1"], "seed"),
    (UNSTABLE_PLANE, ["sweep", "--seed", "-1"], "seed"),
    (UNSTABLE_PLANE, ["certify", "--out", __file__], "--out"),  # a file
])
def test_cli_invalid_input_exits_2(tmp_path, spec, args, field):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    result = _run(args[0], str(path), *args[1:])
    assert result.exit_code == 2, result.output
    assert field in " ".join(json.loads(result.output)["error"])


def test_cli_run_all_rejects_negative_seed():
    result = _run("corpus", "run-all", "--seed", "-1")
    assert result.exit_code == 2, result.output
    report = json.loads(result.output)
    assert report["phase"] == "run-all" and report["problem"] is None
    assert "seed" in " ".join(report["error"])


def test_cli_problem_directory_exits_2(tmp_path):
    result = _run("certify", str(tmp_path))
    assert result.exit_code == 2, result.output
    assert "cannot be read" in " ".join(json.loads(result.output)["error"])


def test_cli_overflow_exits_3(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"dimension": 2, "potential": "x2^2",
                                "f": "exp(1000*x1)", "center": [0, 0]}))
    result = subprocess.run(
        [sys.executable, "-m", "instab.cli", "certify", str(path),
         "--radius", "1"], capture_output=True, text=True)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert report["phase"] == "certify" and report["problem"] == str(path)
    message = report["error"]
    assert "exp(1000*x1)" in message and "np.float64" not in message


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_cli_run_all_prints_strict_json():
    result = _run("corpus", "run-all", "--seed", "42")
    assert result.exit_code == 0, result.output
    payload = _strict_json(result.output)
    escapes = {report["problem"]: report["escape"]
               for report in payload["reports"]}
    assert escapes["stable-magnetic-plane"]["threshold"] is None
    assert escapes["unstable-magnetic-plane"]["threshold"] == 0.1


def test_cli_sweep_into_stiff_wall_exits_3_on_step_budget(tmp_path):
    """A wall that asks for steps near 1e-38 spends the branch's step
    budget and fails the run, instead of running for minutes."""
    path = tmp_path / "wall.json"
    path.write_text(json.dumps({
        "dimension": 3, "potential": "x3^2 + 1e300*x1^8",
        "magnetic": ["0", "x3", "0"], "f": "x1", "center": [0, 0, 0],
        "T": 5, "epsilons": [0.1]}))
    result = subprocess.run(
        [sys.executable, "-m", "instab.cli", "sweep", str(path)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 3, result.stdout + result.stderr
    report = _strict_json(result.stdout)
    assert report["limit_drift"] is None
    (run,) = report["runs"]
    assert run["status"] == "failed"
    assert run["error"].startswith("IntegrationError: step budget of 50000 "
                                   "tries spent at tau = ")
    assert run["error"].endswith("from (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)")


def test_cli_import_loads_no_scipy():
    code = ("import sys, instab.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.stdout.strip() == "[]", result.stdout + result.stderr


def test_sweep_records_lost_definiteness_as_failed_run():
    problem = harness.load_problem({
        "dimension": 2, "metric": [["1", "0"], ["0", "1 - 4*x1^2"]],
        "potential": "x2^2", "f": "x1", "center": [0.0, 0.0], "T": 1.0,
        "epsilons": [0.1], "expected": "unstable"})
    report = harness.run_epsilon_sweep(problem, with_certification=False)
    assert [run.status for run in report.runs] == ["failed"]
    assert report.runs[0].error.startswith("SingularMetric: ")


def test_cli_sweep_csv_artifacts(tmp_path):
    out = tmp_path / "art"
    result = _run("sweep", "unstable-magnetic-plane",
                  "--eps", "0.1", "--format", "csv", "--out", str(out))
    assert result.exit_code == 0
    csvs = list(out.glob("*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header.startswith("tau,x1")


def test_cli_sweep_csv_needs_out():
    result = _run("sweep", "unstable-magnetic-plane", "--format", "csv")
    assert result.exit_code == 2, result.output
    report = json.loads(result.output)
    assert report["phase"] == "sweep"
    assert "--out" in " ".join(report["error"])


def test_cli_chart_reports():
    result = _run("chart", "corollary1-unstable-magnetic", "--multi")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["block"]["passed"] and data["injective"]
    assert data["contraction"]["passed"]
    assert data["pullback_field_at_center"] > 0

    assert _run("chart", "whitney-umbrella").exit_code == 2
    assert _run("chart", "corollary1-mechanical", "--multi").exit_code == 2
