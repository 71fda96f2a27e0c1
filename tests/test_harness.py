"""Problem loading, sweeps, escape detection, and the CLI surface."""

import copy
import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from instab import harness
from instab.cli import main
from instab.dynamics import Tolerances
from instab.errors import NoPositiveDrift, ValidationError
from oracles import physical_consistency

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


def test_corpus_entry_loads_only_its_entry(monkeypatch):
    loads = []
    load_problem = harness.load_problem

    def counted(*args, **kwargs):
        loads.append(kwargs.get("name"))
        return load_problem(*args, **kwargs)

    monkeypatch.setattr(harness, "load_problem", counted)
    kolibri = harness.corpus_entry("kolibri")
    assert loads == ["kolibri"]  # one validation, not one per entry
    assert kolibri.to_dict() == next(
        p for p in harness.corpus() if p.name == "kolibri").to_dict()
    loads.clear()
    with pytest.raises(KeyError):
        harness.corpus_entry("nope")
    assert loads == []
    assert _run("certify", "nope").exit_code == 2
    assert loads == []


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


def test_escape_reports_one_drift_tolerance(corpus_sweeps):
    """A sweep with no positive drift and one that escapes, both with
    cap_sq = 1 and T = 1, report the same drift_tolerance: DRIFT_FRACTION
    cap_sq T, a tenth of the escape threshold."""
    tolerances = []
    for name, outcome in [("stable-magnetic-plane", "stable"),
                          ("unstable-magnetic-plane", "unstable")]:
        report = copy.copy(corpus_sweeps[name])
        assert (report.cap_sq, report.horizon) == (1.0, 1.0)
        assert harness.escape_outcome(report) == outcome
        tolerances.append(report.escape.drift_tolerance)
    assert tolerances == [harness.DRIFT_FRACTION] * 2


def test_physical_time_consistency():
    problem = harness.corpus_entry("corollary1-mechanical")
    mismatch = physical_consistency(problem, 0.1)
    assert mismatch < 1e-6


def test_report_serialization_deterministic():
    problem = harness.load_problem(dict(UNSTABLE_PLANE), name="plane")
    a = harness.run_epsilon_sweep(problem, seed=3).to_dict()
    b = harness.run_epsilon_sweep(problem, seed=3).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # 2 evaluations per branch start, 12 per try, and 3 per step that
    # reaches a grid time: every step of these runs along the valley does
    for run in a["runs"]:
        assert run["nfev"] \
            == 12 * (run["steps"] + run["rejected"]) + 4 + 3 * run["steps"]


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
_MECHANICAL = harness.corpus_entry("corollary1-mechanical").to_dict()


def _mechanical_chart(**box):
    return dict(_MECHANICAL, chart=dict(_MECHANICAL["chart"], **box))


@pytest.mark.parametrize("spec, args, field", [
    (_NO_PSI, ["chart"], "chart.psi"),
    (_BOGUS_PROBE, ["certify"], "bogus"),
    (_BOGUS_PROBE, ["escape"], "bogus"),
    (dict(UNSTABLE_PLANE, probe={"samples": "many"}), ["certify"], "samples"),
    (UNSTABLE_PLANE, ["certify", "--samples", "5"], "samples"),
    # above half a shell's MAX_ATTEMPTS_PER_SHELL starts
    (dict(UNSTABLE_PLANE, probe={"samples": 500_001}), ["certify"],
     "samples"),
    (UNSTABLE_PLANE, ["certify", "--samples", "500001"], "samples"),
    (UNSTABLE_PLANE, ["certify", "--shells", "1e-2:1e-7"], "delta_min"),
    (UNSTABLE_PLANE, ["certify", "--shells", "abc"], "--shells"),
    (dict(UNSTABLE_PLANE, epsilons=["a"]), ["certify"], "epsilons"),
    (dict(UNSTABLE_PLANE, epsilons=[True]), ["certify"], "epsilons"),
    (dict(UNSTABLE_PLANE, dimension=True), ["certify"], "dimension"),
    (dict(UNSTABLE_PLANE, T=True), ["certify"], "T must"),
    # T whose grid over [-T, T] overflows, from the file and from --T
    (dict(UNSTABLE_PLANE, T=1e308), ["sweep"], "T = 1e+308"),
    (UNSTABLE_PLANE, ["sweep", "--T", "1e308"], "T = 1e+308"),
    # T / eps above MAX_CAPPED_STEPS, from --T and from the file
    (UNSTABLE_PLANE, ["sweep", "--T", "1e300", "--eps", "0.1"], "T = 1e+300"),
    (dict(UNSTABLE_PLANE, T=1e9, epsilons=[0.1]), ["sweep"],
     "T = 1000000000.0"),
    (dict(UNSTABLE_PLANE, T=10 ** 400), ["sweep"], "T must"),  # no float
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
    # chart boxes whose point memo keys or grid width overflow
    (_mechanical_chart(level_box=[[-1e300, 1e300]]), ["chart"],
     "chart.level_box = "),
    (_mechanical_chart(base_box=[[-1e308, 1e308], [-0.4, 0.4]]), ["chart"],
     "chart.base_box = "),
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


@pytest.mark.parametrize("args", [
    ["escape", "stable-magnetic-plane"],
    ["sweep", "stable-magnetic-plane"],
    ["corpus", "run-all"],
])
def test_cli_bad_seed_rejected_before_integration(monkeypatch, args):
    def integrate(*_args, **_kwargs):
        raise AssertionError("integrated before the seed was checked")

    monkeypatch.setattr(harness, "integrate", integrate)
    result = _run(*args, "--seed", "-1")
    assert result.exit_code == 2, result.output
    assert "seed" in " ".join(json.loads(result.output)["error"])


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


def test_cli_proof_constant_overflow_exits_3(tmp_path):
    """A tiny sampled |grad f| overflows the proof constant C1 = m_grad^-2
    sqrt(K1 |grad f(center)|^2 / 2 m_quad), computed from m_grad^-4."""
    path = tmp_path / "tiny-gradient.json"
    path.write_text(json.dumps({
        "dimension": 2, "potential": "(x1 - 1.2)^2 + x2^2", "f": "x1^41",
        "magnetic": ["0", "x1"], "center": [1.2, 0.0],
        "probe": {"radius": 1.3}}))
    result = subprocess.run(
        [sys.executable, "-m", "instab.cli", "certify", str(path),
         "--seed", "8"], capture_output=True, text=True)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stderr == ""
    report = _strict_json(result.stdout)
    assert report["phase"] == "certify" and report["problem"] == str(path)
    assert "proof constant C1" in report["error"]


# one-forms whose field strength overflows the magnetic norms, with f, the
# ratio certify names and its value: at 1e300 the norms' squares overflow;
# at 1e308, with a |grad f| of 4, the contraction itself, which
# guard_cancellation leaves as it is (its scale is not finite), and whose
# inf entry gives an infinite norm under the positive-definite g^-1
HUGE_FIELDS = {"1e300": (["1e300*x2", "0"], "x2", "the ratio", "inf"),
               "1e308": (["1e308*x2", "0"], "4*x2", "the ratio", "inf")}


@pytest.mark.parametrize("field", sorted(HUGE_FIELDS))
@pytest.mark.parametrize("command", ["certify", "sweep", "escape"])
def test_cli_overflowing_magnetic_norms_exit_3(command, field, tmp_path):
    """certify fails naming the condition, the shell's delta and the point
    where a magnetic ratio is not finite, instead of printing Infinity;
    sweep and escape, whose runs fail, print no numpy warning from the
    certification's norms: each exits 3 with strict JSON and no stderr."""
    magnetic, f, ratio, value = HUGE_FIELDS[field]
    path = tmp_path / "huge-field.json"
    path.write_text(json.dumps({
        "dimension": 2, "potential": "x1^2", "magnetic": magnetic, "f": f,
        "center": [0, 0], "T": 1, "epsilons": [0.1]}))
    result = subprocess.run(
        [sys.executable, "-m", "instab.cli", command, str(path)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stderr == ""
    report = _strict_json(result.stdout)
    failure = (f"'|iota_{{grad f}} d mu| = O(sqrt U)': {ratio} on the shell "
               "delta = ")
    if command == "certify":
        assert report["phase"] == "certify"
        assert report["error"].startswith(failure)
        assert f"is not finite ({value}) at (" in report["error"]
    elif command == "sweep":
        assert report["certification"]["magnetic"].startswith(
            "error: " + failure)


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


def test_cli_sweep_eps_whose_square_overflows_exits_3():
    result = subprocess.run(
        [sys.executable, "-m", "instab.cli", "sweep", "mechanical-plane",
         "--eps", "1e300", "--t", "0.1"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stderr == ""
    (run,) = _strict_json(result.stdout)["runs"]
    assert run["status"] == "failed"
    assert run["error"] == ("NonFiniteResult: eps^2 overflows at "
                            "epsilon = 1e+300")


def test_cli_sweep_eps_whose_inverse_square_overflows_exits_3():
    """1/eps^2 overflows: the run fails naming epsilon, not with the
    non-finite right-hand side that -inf * 0 makes on the valley."""
    result = subprocess.run(
        [sys.executable, "-m", "instab.cli", "sweep", "mechanical-plane",
         "--eps", "1e-300", "--t", "0.1"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stderr == ""
    (run,) = _strict_json(result.stdout)["runs"]
    assert run["status"] == "failed"
    assert run["error"] == ("NonFiniteResult: 1/eps^2 overflows at "
                            "epsilon = 1e-300")


@pytest.mark.parametrize("side", ["compiled", "no_compiler"])
def test_cli_sweep_whose_first_norm_overflows_exits_3(side, request,
                                                      tmp_path):
    """dU = 1e150 at eps = 0.1 puts |f(y0)|/atol past the largest float:
    the starting step's norm overflows, and the run fails naming tau = 0
    and y0 once, alike with and without a compiler, where the step 0.01
    d0 / inf = 0 used to be divided by."""
    request.getfixturevalue(side)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "dimension": 2, "potential": "x2^2 + 1e150*x1",
        "magnetic": ["0", "x1"], "f": "x2", "center": [0, 0], "T": 1,
        "epsilons": [0.1]}))
    result = _run("sweep", str(path))
    assert result.exit_code == 3, result.output
    assert result.stderr == ""
    (run,) = _strict_json(result.stdout)["runs"]
    assert run["error"] == (
        "NonFiniteResult: the norm of the right-hand side overflows; the "
        "step first went non-finite at tau = 0.0, state (0.0, 0.0, 0.0, "
        "1.0)")


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


def test_cli_sweep_csv_names_each_epsilon_apart(tmp_path):
    """Epsilons that agree to six digits write one file each, named by
    ``repr``, and each file is its own run's CSV; an epsilon that ``:g``
    spells exactly keeps that name."""
    epsilons = [0.1000002, 0.1000001, 0.1]
    out = tmp_path / "art"
    result = _run("sweep", "mechanical-plane", "--eps",
                  ",".join(map(repr, epsilons)), "--t", "0.2",
                  "--format", "csv", "--out", str(out))
    assert result.exit_code == 0, result.output
    names = ["sweep-mechanical-plane-eps0.1000002.csv",
             "sweep-mechanical-plane-eps0.1000001.csv",
             "sweep-mechanical-plane-eps0.1.csv"]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(names)
    data = {**harness.corpus_entry("mechanical-plane").to_dict(),
            "epsilons": epsilons, "T": 0.2}
    problem = harness.load_problem(data, name="mechanical-plane")
    written = []

    def write(trajectory):
        own = io.StringIO()
        trajectory.to_csv(own)
        written.append(own.getvalue())

    report = harness.run_epsilon_sweep(
        problem, tol=Tolerances(abs=1e-10, rel=1e-10),
        with_certification=False, write_log=write)
    assert [run.epsilon for run in report.runs] == epsilons
    assert [(out / name).read_text() for name in names] == written
    for run in report.runs:  # each log is dropped once written
        assert run.trajectory.log is None
        with pytest.raises(ValueError, match="keep_log"):
            run.trajectory.to_csv(io.StringIO())


def test_cli_sweep_fails_alone_a_run_whose_f_is_undefined(tmp_path):
    """f = x1 + sqrt(x2 + 0.05) is undefined where the eps = 0.1 run's x2
    falls below -0.05: that run fails with f's DomainError, reports only
    its status and error and writes no CSV, and the sweep goes on."""
    path = tmp_path / "undefined.json"
    path.write_text(json.dumps({
        "dimension": 2, "potential": "x2^2", "f": "x1 + sqrt(x2 + 0.05)",
        "center": [0, 0], "T": 1, "epsilons": [0.1, 0.01]}))
    out = tmp_path / "art"
    result = _run("sweep", str(path), "--format", "csv", "--out", str(out))
    assert result.exit_code == 3, result.output
    failed, ok = _strict_json(result.output)["runs"]
    assert failed["error"].startswith(
        "DomainError: sqrt of negative in field 'x1 + sqrt(x2 + 0.05)'")
    assert sorted(failed) == ["epsilon", "error", "status", "zdot0",
                              "zdot0_residual"]
    assert (failed["status"], ok["status"]) == ("failed", "ok")
    assert [p.name for p in out.glob("*.csv")] == [
        "sweep-problem-eps0.01.csv"]


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


# each corpus chart's report: its flow solves, one per point and flow with
# a nonzero level, its memo hits, its block check's largest mixed entry,
# and the sha256 of its bytes
_CHART_REPORTS = {
    "corollary1-unstable-magnetic": (
        1580, 322, 1.465728545089415e-14,
        "bc3d347cd6a9fb6150aad53127afb893cc0adbacd02bfc549923ca485660ad65"),
    "corollary1-mechanical": (
        754, 391, 3.813994271520508e-14,
        "04b47d21bc6e9e40ac192414307fe39eda3a61aeb56dcf6d3f430a9d06fa6a49"),
}


@pytest.mark.parametrize("stepper", ["compiled", "no_compiler"])
@pytest.mark.parametrize("entry", sorted(_CHART_REPORTS))
def test_cli_chart_report_is_pinned(entry, stepper, request):
    """Grid checks that flow all their points at once count and compute
    what one flow solve per point did, with the compiled loop or without a
    compiler: the report keeps its bytes."""
    request.getfixturevalue(stepper)
    solves, hits, mixed, digest = _CHART_REPORTS[entry]
    result = _run("chart", entry)
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert (data["flow_solves"], data["memo_hits"],
            data["block"]["max_mixed"]) == (solves, hits, mixed)
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


# sha256 of each corpus entry's `instab certify <entry> --seed 0` report
_CERTIFY_REPORTS = {
    "stable-magnetic-plane":
        "e0d08f0a709d4353d54cd07515cb0f84936f1b177859b6c7764f25891d0cb168",
    "unstable-magnetic-plane":
        "7f291ba682190ab30cc42ec7dcb9762ac5505aa3f51c5e27907570c91f82a9f0",
    "mechanical-plane":
        "55efb95fc92bca31ed7b4139c7e2c144ee20b223acd7e007d2b57ee3db842a86",
    "whitney-umbrella":
        "7875370efdd61da02e7237cfee3c028e3cc567ef562e0501bbc62d1bc2c24e7c",
    "kolibri":
        "e31581780fa7aaf6c2aac6d5bde19ddaa8e5b28d310c06b796dd226221529097",
    "crossing-axes":
        "686328c0944ebda83b2f4cabc884c2bc06664eb4928a8e3823a17946c0cc51ea",
    "corollary1-unstable-magnetic":
        "9df250c6383884d06c3f59dc7a71c1fb49f9cd214ad68fcf1cc4ada153be4e9b",
    "corollary1-mechanical":
        "9e1be8bb208664a4f6d3738edcf4e060d4ab91bc1f96b78cfffb882e4a034763",
}


@pytest.mark.parametrize("stepper", ["compiled", "no_compiler"])
@pytest.mark.parametrize("entry", sorted(_CERTIFY_REPORTS))
def test_cli_certify_report_is_pinned(entry, stepper, request):
    """Projecting a probe's first rounds together and evaluating its
    shells in one pass keep every report's bytes, with the compiled Newton
    loop or without a compiler."""
    request.getfixturevalue(stepper)
    result = _run("certify", entry, "--seed", "0")
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() \
        == _CERTIFY_REPORTS[entry]


# sha256 of `instab corpus run-all --seed 42`
RUN_ALL_SHA256 = \
    "0c299101866aae7896a33f0dd07be871ab48e879572208fc430c19c27bfc85fd"


@pytest.mark.parametrize("stepper", ["compiled", "no_compiler"])
def test_cli_run_all_report_is_pinned(stepper, request):
    """The compiled loop and the Python stepper print the same bytes."""
    request.getfixturevalue(stepper)
    result = _run("corpus", "run-all", "--seed", "42")
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() \
        == RUN_ALL_SHA256


def test_cli_chart_past_1e154_is_injective_without_warnings(tmp_path):
    """Distances between base points near 1e200 overflow to inf, which is
    no collision, and say nothing on stderr."""
    problem = harness.corpus_entry("corollary1-mechanical").to_dict()
    problem["chart"]["base_box"] = [[-1e200, 1e200], [-0.4, 0.4]]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(problem))
    result = subprocess.run(
        [sys.executable, "-m", "instab.cli", "chart", str(path)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stderr == ""
    assert _strict_json(result.stdout)["injective"] is True


def test_sweep_runs_report_step_log_counters(corpus_sweeps):
    for report in corpus_sweeps.values():
        for run in report.runs:
            out = run.to_dict()
            assert out["capped_steps"] <= out["steps"]
            assert 0.0 < out["min_step"]
            assert abs(out["drift_peak_tau"]) <= run.trajectory.horizon
