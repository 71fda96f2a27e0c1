"""Command-line front end.

Every command prints a JSON report (sorted keys, no timestamps) so runs
are reproducible byte for byte under a fixed seed. Exit codes: 0 when all
verdicts match expectations, 1 on a verdict mismatch, 2 on validation
errors, 3 on numerical failures.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import certify as certify_mod
from . import harness
from .charts import injectivity_probe, pullback_metric_block_check
from .dynamics import Tolerances
from .errors import InstabError, ValidationError
from .geometry import magnetic_tensor

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _load(problem_arg):
    if os.path.exists(problem_arg):
        return harness.load_problem(problem_arg)
    try:
        return harness.corpus_entry(problem_arg)
    except KeyError:
        raise ValidationError(
            f"no such file or corpus entry: {problem_arg}")


def _fail(exc, phase, problem=None):
    """Print the error, naming the command and the PROBLEM argument it
    failed on; exit 2 for invalid input, 3 otherwise."""
    invalid = isinstance(exc, ValidationError)
    click.echo(json.dumps({"error": exc.problems if invalid else str(exc),
                           "phase": phase, "problem": problem},
                          sort_keys=True))
    sys.exit(EXIT_VALIDATION if invalid else EXIT_NUMERICAL)


def _emit(payload, out, name):
    text = json.dumps(payload, sort_keys=True, indent=2)
    click.echo(text)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"{name}.json"), "w") as fh:
            fh.write(text + "\n")


def _out(fn):
    return click.option("--out", type=click.Path(), default=None,
                        help="directory for report artifacts")(fn)


def _tolerances(fn):
    fn = click.option("--tol-abs", type=float, default=1e-10)(fn)
    return click.option("--tol-rel", type=float, default=1e-10)(fn)


def _tol(tol_abs, tol_rel):
    """Tolerances from the --tol-* values, which must be positive."""
    bad = [f"--tol-{kind} must be a positive real, got {value!r}"
           for kind, value in (("abs", tol_abs), ("rel", tol_rel))
           if not value > 0]
    if bad:
        raise ValidationError(bad)
    return Tolerances(abs=tol_abs, rel=tol_rel)


@click.group()
def main():
    """Instability toolkit: certification, sweeps, escapes, charts."""


@main.command("certify")
@click.argument("problem")
@click.option("--radius", type=float, default=None)
@click.option("--shells", type=str, default=None,
              help="potential shell range as delta_min:delta_max")
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=0)
@_out
def certify_cmd(problem, radius, shells, samples, seed, out):
    """Certify the potential and magnetic hypotheses of a problem."""
    settings = {}
    if radius is not None:
        settings["radius"] = radius
    if samples is not None:
        settings["samples"] = samples
    try:
        definition = _load(problem)
        if shells is not None:
            try:
                lo, hi = (float(v) for v in shells.split(":"))
            except ValueError:
                raise ValidationError(
                    f"--shells must be delta_min:delta_max, got {shells!r}")
            settings.update(delta_min=lo, delta_max=hi)
        probe = harness.certification_probe(definition, seed=seed,
                                            **settings)
        potential_report = certify_mod.certify_potential_condition(probe)
        magnetic_report = certify_mod.certify_magnetic_condition(probe)
        payload = {
            "problem": definition.name,
            "potential": potential_report.to_dict(),
            "magnetic": magnetic_report.to_dict(),
        }
        if definition.quasi_homogeneous is not None:
            spec = certify_mod.QuasiHomogeneousSpec(
                weights=definition.quasi_homogeneous["weights"],
                degree=definition.quasi_homogeneous["degree"],
            )
            payload["quasi_homogeneous"] = certify_mod \
                .check_quasi_homogeneous(definition.potential, spec,
                                         seed=seed).to_dict()
    except InstabError as exc:
        _fail(exc, "certify", problem)
    _emit(payload, out, f"certify-{definition.name}")
    expected = definition.labels.get("certification")
    got = harness.certification_verdict(
        definition, potential_report.verdict, magnetic_report.verdict)
    sys.exit(EXIT_MISMATCH if expected not in (None, got) else EXIT_OK)


@main.command("sweep")
@click.argument("problem")
@click.option("--eps", type=str, default=None,
              help="comma-separated decreasing epsilon list")
@click.option("--t", "--T", "horizon", type=float, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", help="csv also writes one file per run")
@click.option("--seed", type=int, default=0)
@_tolerances
@_out
def sweep_cmd(problem, eps, horizon, fmt, seed, tol_abs, tol_rel, out):
    """Run the epsilon sweep and report the curve family."""
    try:
        if fmt == "csv" and not out:
            raise ValidationError("--format csv needs --out, the directory "
                                  "for the CSV files")
        definition = _load(problem)
        if eps is not None or horizon is not None:
            data = definition.to_dict()
            if eps is not None:
                try:
                    data["epsilons"] = [float(v) for v in eps.split(",")]
                except ValueError:
                    raise ValidationError(
                        f"--eps must be a comma-separated list of reals, "
                        f"got {eps!r}")
            if horizon is not None:
                data["T"] = horizon
            definition = harness.load_problem(data, name=definition.name)
        report = harness.run_epsilon_sweep(
            definition, tol=_tol(tol_abs, tol_rel), seed=seed)
    except InstabError as exc:
        _fail(exc, "sweep", problem)
    _emit(report.to_dict(), out, f"sweep-{definition.name}")
    if fmt == "csv":
        for run in report.runs:
            if run.status != "ok":
                continue
            path = os.path.join(
                out, f"sweep-{definition.name}-eps{run.epsilon:g}.csv")
            with open(path, "w") as fh:
                run.trajectory.to_csv(
                    fh, definition.system(epsilon=run.epsilon))
    if any(r.status != "ok" for r in report.runs):
        sys.exit(EXIT_NUMERICAL)
    sys.exit(EXIT_OK)


@main.command("escape")
@click.argument("problem")
@click.option("--seed", type=int, default=0)
@_tolerances
@_out
def escape_cmd(problem, seed, tol_abs, tol_rel, out):
    """Sweep plus escape detection against the expected verdict."""
    try:
        definition = _load(problem)
        report = harness.run_epsilon_sweep(
            definition, tol=_tol(tol_abs, tol_rel), seed=seed)
        outcome = harness.escape_outcome(report)
    except InstabError as exc:
        _fail(exc, "escape", problem)
    payload = report.to_dict()
    payload["outcome"] = outcome
    payload["expected"] = definition.expected
    _emit(payload, out, f"escape-{definition.name}")
    if definition.expected is not None and outcome != definition.expected:
        sys.exit(EXIT_MISMATCH)
    sys.exit(EXIT_OK)


@main.command("chart")
@click.argument("problem")
@click.option("--multi", is_flag=True,
              help="require a multi-function chart spec")
@_out
def chart_cmd(problem, multi, out):
    """Build the adapted chart of a problem and verify its structure."""
    try:
        definition = _load(problem)
        if definition.chart is None:
            raise ValidationError("problem has no chart specification")
        if multi and len(definition.chart["fields"]) < 2:
            raise ValidationError("--multi requires at least two chart "
                                  "level functions")
        chart, _fields, pullback = harness.build_problem_chart(definition)
        block = pullback_metric_block_check(chart, grid_count=5)
        collisions = injectivity_probe(chart, grid_count=5)
        payload = {
            "problem": definition.name,
            "level_functions": definition.chart["fields"],
            "block": block.to_dict(),
            "injective": not collisions,
        }
        if pullback is not None:
            payload["contraction"] = certify_mod.chart_contraction_check(
                chart, pullback, definition.f, grid_count=3)
            center_tensor = magnetic_tensor(pullback, definition.center)
            payload["pullback_field_at_center"] = float(
                np.max(np.abs(center_tensor)))
        payload.update(chart.counters)
    except InstabError as exc:
        _fail(exc, "chart", problem)
    _emit(payload, out, f"chart-{definition.name}")
    passed = payload["block"]["passed"] and payload["injective"] \
        and payload.get("contraction", {}).get("passed", True)
    sys.exit(EXIT_OK if passed else EXIT_MISMATCH)


@main.group("corpus")
def corpus_group():
    """Inspect and run the built-in problem corpus."""


@corpus_group.command("list")
def corpus_list():
    payload = [
        {"name": p.name, "dimension": p.dimension,
         "expected": p.expected,
         "certification": p.labels.get("certification")}
        for p in harness.corpus()
    ]
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


@corpus_group.command("show")
@click.argument("name")
def corpus_show(name):
    try:
        entry = harness.corpus_entry(name)
    except KeyError:
        click.echo(json.dumps({"error": f"no corpus entry {name!r}"},
                              sort_keys=True))
        sys.exit(EXIT_VALIDATION)
    click.echo(json.dumps(entry.to_dict(), sort_keys=True, indent=2))


@corpus_group.command("run-all")
@click.option("--seed", type=int, default=42)
@_tolerances
@_out
def corpus_run_all(seed, tol_abs, tol_rel, out):
    """Sweep, certify and escape-check every corpus entry."""
    try:
        reports, all_expected = harness.run_all(
            seed=seed, tol=_tol(tol_abs, tol_rel))
    except InstabError as exc:
        _fail(exc, "run-all")
    payload = {"reports": reports, "all_expected": all_expected,
               "seed": seed}
    _emit(payload, out, "corpus-run-all")
    sys.exit(EXIT_OK if all_expected else EXIT_MISMATCH)


if __name__ == "__main__":
    main()
