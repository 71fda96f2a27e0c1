"""The four benchmark workloads: inputs from a seed, a timed body, checks.

Each workload has three parts:

* ``load(seed)`` builds the inputs and validates them through the public
  loaders. It is the work counted in ``setup_s`` and runs untimed before
  every further repetition, so each repetition pays the same lazy code
  generation that one CLI call pays.
* ``rep_s`` is the nominal length of one repetition on the 2-vCPU machine
  the benchmark was sized on. A run makes ``round(seconds / rep_s)``
  repetitions, at least one: a number fixed by ``--seconds`` and never by
  measured times, so every run attempts the same operations.
* ``body(inputs)`` is the timed call sequence, made through module
  attributes (``harness.run_all``, ``certify.certify_potential_condition``)
  so that the traced run's patches see every call.
* ``check(inputs, outputs, ledger)`` records one ledger entry per
  operation and returns the workload's accuracy margin in decades.
* ``digest(inputs, outputs)``, where set, hashes output that must repeat
  exactly from run to run (criterion 11's determinism).

The corpus entries' certifiers run with fixed probe seeds, not with ones
drawn from the workload seed: ``run_all`` with seed 42, as in ``instab
corpus run-all --seed 42``, and certify-shells with probe seeds 0, 1 and 2.
On some probe seeds the program's known defect (see NOTES.md) fires there,
and the certifier stops early, so a run's work and its failed operations
would otherwise depend on the workload seed. Probe seed 2 is one that hits
the defect: every certify-shells run shows it.

An operation either *fails* or is *wrong*. It fails only when a certifier
raises ``EmptyShell``, the defect above. Failures are counted and
reported. Anything else that goes amiss is wrong: an answer that disagrees
with the entry's label or breaks a gate, a sweep run that did not finish,
or any other error. A wrong answer makes the whole run incorrect, and so
does a run with no accuracy value to report a margin for.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys

from instab import certify, charts, geometry, harness
from instab.errors import EmptyShell, InstabError

ENERGY_GATE = 1e-6  # criterion 1's energy-drift gate
CHART_MIXED_GATE = 1e-6  # pullback_metric_block_check's default tol
EULER_GATE = 1e-9  # check_quasi_homogeneous's default tol
RUN_ALL_SEED = 42  # `instab corpus run-all --seed 42`, the ROADMAP's headline
CERTIFY_PROBE_SEEDS = (0, 1, 2)  # 0 is HypothesisProbe's default
CHART_GRID = 5  # as in `instab chart`
CONTRACTION_GRID = 3  # as in `instab chart`

# Criterion 10's non-Euclidean metric with a magnetic plane problem on it:
# all corpus entries are Euclidean, so this is the only curved input.
CURVED_PROBLEM = {
    "name": "curved-metric",
    "dimension": 3,
    "metric": [["1", "0", "0"],
               ["0", "1 + x1^2/4", "x1/4"],
               ["0", "x1/4", "1 + (x2 + x3)^2/8"]],
    "potential": "x3^2",
    "magnetic": ["0", "x3", "0"],
    "f": "x1 + x2/2",
    "center": [0.0, 0.0, 0.0],
    "T": 1.0,
    "epsilons": [0.1, 0.01],
    "expected": "unstable",
}


class Ledger:
    """Operations attempted, failed and wrong, with a note for each miss."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def op(self, what, ok, failed=False):
        """Record one operation; ``failed`` marks an excused failure."""
        self.attempted += 1
        if failed:
            self.failed += 1
            self.notes.append(f"failed: {what}")
        elif not ok:
            self.wrong += 1
            self.notes.append(f"wrong: {what}")


def _margin(gate, worst):
    """Decades of headroom of ``worst`` under ``gate``; None if unmeasured.

    A measured exact zero reads as the smallest positive float.
    """
    if worst is None:
        return None
    return math.log10(gate / max(worst, sys.float_info.min))


# run_all and run_epsilon_sweep report a raised certifier as "error: <msg>"
_EMPTY_SHELL_VERDICT = re.compile(
    r"error: no sample with potential in \[.*\] after \d+ attempts")


def _is_error(verdict):
    return not isinstance(verdict, str) or verdict.startswith("error")


def _certifier_op(ledger, what, verdict):
    """One certifier call reported as a verdict string; True if excused."""
    empty = isinstance(verdict, str) \
        and _EMPTY_SHELL_VERDICT.fullmatch(verdict) is not None
    ledger.op(f"{what}: {verdict}", not _is_error(verdict), failed=empty)
    return empty


def combined_certification(problem, potential, magnetic):
    """The entry's certification verdict by run_all's magnetic-refuted rule."""
    if problem.magnetic is not None and magnetic == "refuted":
        return "refuted"
    return potential


# --- corpus-run-all ---------------------------------------------------------

def _corpus_load(_seed):
    return {"seed": RUN_ALL_SEED, "problems": harness.corpus()}


def _corpus_body(inputs):
    reports, all_expected = harness.run_all(seed=inputs["seed"])
    return {"reports": reports, "all_expected": all_expected}


def _corpus_digest(inputs, outputs):
    """SHA-256 of the JSON `instab corpus run-all` prints for this result."""
    payload = {"reports": outputs["reports"],
               "all_expected": outputs["all_expected"],
               "seed": inputs["seed"]}
    text = json.dumps(payload, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def _corpus_check(inputs, outputs, ledger):
    labels = {p.name: p for p in inputs["problems"]}
    drifts = []
    excused = set()  # entries with a certifier that raised EmptyShell
    for entry in outputs["reports"]:
        name = entry["problem"]
        problem = labels[name]
        for run in entry["runs"]:
            what = f"{name} sweep at eps={run['epsilon']}"
            if run["status"] != "ok":
                ledger.op(f"{what}: {run['error']}", False)
                continue
            drift = run["energy_drift"]
            drifts.append(drift)
            ledger.op(f"{what}: energy drift {drift:.3e}",
                      drift <= ENERGY_GATE)
        ledger.op(f"{name} escape outcome {entry['outcome']}, "
                  f"expected {problem.expected}",
                  problem.expected is None
                  or entry["outcome"] == problem.expected)
        cert = entry["certification"]
        empty = [_certifier_op(ledger, f"{name} {kind} certifier",
                               cert.get(kind))
                 for kind in ("potential", "magnetic")]
        if any(empty):
            excused.add(name)
            ledger.op(f"{name} verdict (certifier raised EmptyShell)", True,
                      failed=True)
        elif not any(_is_error(cert.get(k))
                     for k in ("potential", "magnetic")):
            got = combined_certification(problem, cert["potential"],
                                         cert["magnetic"])
            expected = problem.labels.get("certification")
            ledger.op(f"{name} certification {got}, label {expected}",
                      expected is None or got == expected)
    # run_all folds an errored certifier in as a mismatch; only an excused
    # one may explain a false flag
    ledger.op(f"all_expected is {outputs['all_expected']}",
              outputs["all_expected"]
              or all(e["matched"] or e["problem"] in excused
                     for e in outputs["reports"]))
    return _margin(ENERGY_GATE, max(drifts) if drifts else None)


# --- certify-shells ---------------------------------------------------------

def euler_seeds(seed):
    """Seeds of the Euler-identity samples, one per probe seed.

    They are disjoint from every other workload seed's.
    """
    first = len(CERTIFY_PROBE_SEEDS) * seed
    return list(range(first, first + len(CERTIFY_PROBE_SEEDS)))


def _certify_load(seed):
    return {"seed": seed,
            "rounds": list(zip(CERTIFY_PROBE_SEEDS, euler_seeds(seed))),
            "problems": harness.corpus()}


def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except InstabError as exc:
        # the traceback would keep the sampler's batch arrays alive until
        # the check, and a run whose certifier raised would read a higher
        # peak_rss_mb for it
        return None, exc.with_traceback(None)


def _describe(error):
    return f"{type(error).__name__}: {error}"


def _certify_body(inputs):
    results = []
    for seed, euler_seed in inputs["rounds"]:
        for problem in inputs["problems"]:
            probe = certify.HypothesisProbe(
                metric=problem.metric, potential=problem.potential,
                f=problem.f, magnetic=problem.magnetic,
                center=problem.center, seed=seed, **problem.probe)
            row = {"problem": problem, "probe_seed": seed}
            row["potential"] = _attempt(
                certify.certify_potential_condition, probe)
            row["magnetic"] = _attempt(
                certify.certify_magnetic_condition, probe)
            if problem.quasi_homogeneous is not None:
                spec = certify.QuasiHomogeneousSpec(
                    **problem.quasi_homogeneous)
                row["quasi_homogeneous"] = _attempt(
                    certify.check_quasi_homogeneous, problem.potential,
                    spec, seed=euler_seed)
            results.append(row)
    return results


def _certify_check(inputs, outputs, ledger):
    residuals = []
    for row in outputs:
        problem = row["problem"]
        tag = f"{problem.name} probe seed {row['probe_seed']}"
        errors = []
        for kind in ("potential", "magnetic"):
            report, error = row[kind]
            verdict = report.verdict if error is None else _describe(error)
            ledger.op(f"{tag} {kind} certifier: {verdict}", error is None,
                      failed=isinstance(error, EmptyShell))
            errors.append(error)
        if "quasi_homogeneous" in row:
            report, error = row["quasi_homogeneous"]
            if error is not None:
                ledger.op(f"{tag} Euler identity: {_describe(error)}", False,
                          failed=isinstance(error, EmptyShell))
            else:
                residuals.append(report.max_residual)
                ledger.op(f"{tag} Euler identity residual "
                          f"{report.max_residual:.3e}", report.certified)
        if any(errors):
            ledger.op(f"{tag} verdict (certifier errored)", False,
                      failed=all(e is None or isinstance(e, EmptyShell)
                                 for e in errors))
            continue
        got = combined_certification(problem, row["potential"][0].verdict,
                                     row["magnetic"][0].verdict)
        expected = problem.labels.get("certification")
        ledger.op(f"{tag} verdict {got}, label {expected}", got == expected)
    return _margin(EULER_GATE, max(residuals) if residuals else None)


# --- chart-build ------------------------------------------------------------

def _chart_load(seed):
    return {"seed": seed,
            "problems": [p for p in harness.corpus() if p.chart is not None]}


def _chart_body(inputs):
    """The `instab chart` path per chart, plus the commuting check."""
    results = []
    for problem in inputs["problems"]:
        row = {"problem": problem}
        chart, fields, pullback = harness.build_problem_chart(problem)
        row["block"] = charts.pullback_metric_block_check(
            chart, grid_count=CHART_GRID)
        row["collisions"] = charts.injectivity_probe(
            chart, grid_count=CHART_GRID)
        if pullback is not None:
            row["contraction"] = certify.chart_contraction_check(
                chart, pullback, problem.f, grid_count=CONTRACTION_GRID)
            row["field_at_center"] = geometry.magnetic_tensor(
                pullback, problem.center)
        if len(fields) > 1:
            row["commuting"] = certify.check_orthogonal_commuting(
                problem.metric, fields, seed=inputs["seed"],
                center=problem.center)
        results.append(row)
    return results


def _chart_check(inputs, outputs, ledger):
    mixed = []
    for row in outputs:
        name = row["problem"].name
        block = row["block"]
        mixed.append(block.max_mixed)
        ledger.op(f"{name} block check: max mixed {block.max_mixed:.3e}",
                  block.passed)
        ledger.op(f"{name} injectivity: {len(row['collisions'])} "
                  "collisions", not row["collisions"])
        if "contraction" in row:
            ledger.op(f"{name} contraction check",
                      row["contraction"]["passed"])
        if "commuting" in row:
            ledger.op(f"{name} commuting check",
                      row["commuting"].certified)
    return _margin(CHART_MIXED_GATE, max(mixed) if mixed else None)


# --- curved-sweep -----------------------------------------------------------

def _curved_load(seed):
    return {"seed": seed,
            "problem": harness.load_problem(dict(CURVED_PROBLEM))}


def _curved_body(inputs):
    report = harness.run_epsilon_sweep(inputs["problem"], seed=inputs["seed"])
    try:
        verdict = harness.detect_escape(report)
    except InstabError as exc:
        verdict = f"{type(exc).__name__}: {exc}"
    return {"report": report, "verdict": verdict}


def _curved_check(inputs, outputs, ledger):
    report = outputs["report"]
    drifts = []
    for run in report.runs:
        what = f"curved sweep at eps={run.epsilon}"
        if run.status != "ok":
            ledger.op(f"{what}: {run.error}", False)
            continue
        drift = run.trajectory.energy_drift
        drifts.append(drift)
        ledger.op(f"{what}: energy drift {drift:.3e}", drift <= ENERGY_GATE)
    for kind, verdict in sorted(report.certification.items()):
        _certifier_op(ledger, f"curved {kind} certifier", verdict)
    verdict = outputs["verdict"]
    if isinstance(verdict, str):
        ledger.op(f"curved escape detection: {verdict}", False)
    else:
        ledger.op(f"curved escape: {verdict.verdict}",
                  verdict.verdict.startswith("escape demonstrated"))
    return _margin(ENERGY_GATE, max(drifts) if drifts else None)


class Workload:
    def __init__(self, name, load, body, check, rep_s, digest=None):
        self.name = name
        self.load = load
        self.body = body
        self.check = check
        self.rep_s = rep_s
        self.digest = digest  # of outputs that must repeat exactly

    def repetitions(self, seconds):
        return max(1, round(seconds / self.rep_s))


# With --seconds 25 a run makes 1, 3, 6 and 3 repetitions, about 25 s of
# work each; on this shared host runs that time less spread by more than
# the bound.
WORKLOADS = {w.name: w for w in (
    Workload("corpus-run-all", _corpus_load, _corpus_body, _corpus_check,
             rep_s=25.0, digest=_corpus_digest),
    Workload("certify-shells", _certify_load, _certify_body, _certify_check,
             rep_s=8.0),
    Workload("chart-build", _chart_load, _chart_body, _chart_check,
             rep_s=4.2),
    Workload("curved-sweep", _curved_load, _curved_body, _curved_check,
             rep_s=9.5),
)}
