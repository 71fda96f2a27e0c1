"""Command-line front end.

Every command prints a JSON report (sorted keys, no timestamps) so runs
are reproducible byte for byte under a fixed seed. Exit codes: 0 when all
verdicts match expectations, 1 on a verdict mismatch, 2 on validation
errors, 3 on numerical failures.
"""

from __future__ import annotations

import functools
import json
import math
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


def _command(phase, artifact=None):
    """The one path of a command whose body returns (payload, exit code).

    With ``artifact``, the command takes ``--out DIR``, made before the
    work, and writes the payload to DIR/<artifact>.json, ``artifact``
    formatted with the payload's keys. The payload is then printed. An
    InstabError prints {"error", "phase", "problem"} and exits 2 for
    invalid input, 3 otherwise. Only the --out files raise OSError, which
    exits 2 naming --out.
    """
    def wrap(body):
        @functools.wraps(body)
        def command(**kwargs):
            out = kwargs.get("out")
            try:
                if out:
                    os.makedirs(out, exist_ok=True)
                payload, code = body(**kwargs)
                text = json.dumps(payload, sort_keys=True, indent=2)
                if out:
                    name = artifact.format_map(payload)
                    with open(os.path.join(out, f"{name}.json"), "w") as fh:
                        fh.write(text + "\n")
            except (InstabError, OSError) as exc:
                if isinstance(exc, OSError):
                    exc = ValidationError(f"--out cannot hold reports: {exc}")
                invalid = isinstance(exc, ValidationError)
                click.echo(json.dumps(
                    {"error": exc.problems if invalid else str(exc),
                     "phase": phase,
                     "problem": kwargs.get("problem", kwargs.get("name"))},
                    sort_keys=True))
                sys.exit(EXIT_VALIDATION if invalid else EXIT_NUMERICAL)
            click.echo(text)
            sys.exit(code)
        return command if artifact is None else click.option(
            "--out", type=click.Path(), default=None,
            help="directory for report artifacts")(command)
    return wrap


def _tolerances(fn):
    fn = click.option("--tol-abs", type=float, default=1e-10)(fn)
    return click.option("--tol-rel", type=float, default=1e-10)(fn)


def _tol(tol_abs, tol_rel):
    """Tolerances from the finite, positive --tol-* values."""
    bad = [f"--tol-{kind} must be a finite positive real, got {value!r}"
           for kind, value in (("abs", tol_abs), ("rel", tol_rel))
           if not (math.isfinite(value) and value > 0)]
    if bad:
        raise ValidationError(bad)
    return Tolerances(abs=tol_abs, rel=tol_rel)


def _exit(matched):
    return EXIT_OK if matched else EXIT_MISMATCH


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
@_command("certify", "certify-{problem}")
def certify_cmd(problem, radius, shells, samples, seed, out):
    """Certify the potential and magnetic hypotheses of a problem."""
    settings = {}
    if radius is not None:
        settings["radius"] = radius
    if samples is not None:
        settings["samples"] = samples
    definition = _load(problem)
    if shells is not None:
        try:
            lo, hi = (float(v) for v in shells.split(":"))
        except ValueError:
            raise ValidationError(
                f"--shells must be delta_min:delta_max, got {shells!r}")
        settings.update(delta_min=lo, delta_max=hi)
    probe = harness.certification_probe(definition, seed=seed, **settings)
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
        payload["quasi_homogeneous"] = certify_mod.check_quasi_homogeneous(
            definition.potential, spec, seed=seed).to_dict()
    got = harness.certification_verdict(
        definition, potential_report.verdict, magnetic_report.verdict)
    return payload, _exit(harness.label_matches(
        definition.labels.get("certification"), got))


@main.command("sweep")
@click.argument("problem")
@click.option("--eps", type=str, default=None,
              help="comma-separated decreasing epsilon list")
@click.option("--t", "--T", "horizon", type=float, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", help="csv also writes one file per run")
@click.option("--seed", type=int, default=0)
@_tolerances
@_command("sweep", "sweep-{problem}")
def sweep_cmd(problem, eps, horizon, fmt, seed, tol_abs, tol_rel, out):
    """Run the epsilon sweep and report the curve family."""
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
    if fmt == "csv":
        for run in report.runs:
            if run.status != "ok":
                continue
            path = os.path.join(
                out, f"sweep-{definition.name}-eps{run.epsilon:g}.csv")
            with open(path, "w") as fh:
                run.trajectory.to_csv(
                    fh, definition.system(epsilon=run.epsilon))
    failed = any(r.status != "ok" for r in report.runs)
    return report.to_dict(), EXIT_NUMERICAL if failed else EXIT_OK


@main.command("escape")
@click.argument("problem")
@click.option("--seed", type=int, default=0)
@_tolerances
@_command("escape", "escape-{problem}")
def escape_cmd(problem, seed, tol_abs, tol_rel, out):
    """Sweep plus escape detection against the expected verdict."""
    entry = harness.escape_entry(_load(problem), tol=_tol(tol_abs, tol_rel),
                                 seed=seed)
    return entry, _exit(harness.label_matches(entry["expected"],
                                               entry["outcome"]))


@main.command("chart")
@click.argument("problem")
@click.option("--multi", is_flag=True,
              help="require a multi-function chart spec")
@_command("chart", "chart-{problem}")
def chart_cmd(problem, multi, out):
    """Build the adapted chart of a problem and verify its structure."""
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
    return payload, _exit(payload["block"]["passed"] and payload["injective"]
                          and payload.get("contraction", {})
                          .get("passed", True))


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
@_command("show")
def corpus_show(name):
    try:
        return harness.corpus_entry(name).to_dict(), EXIT_OK
    except KeyError:
        raise ValidationError(f"no corpus entry {name!r}")


@corpus_group.command("run-all")
@click.option("--seed", type=int, default=42)
@_tolerances
@_command("run-all", "corpus-run-all")
def corpus_run_all(seed, tol_abs, tol_rel, out):
    """Sweep, certify and escape-check every corpus entry."""
    reports, all_expected = harness.run_all(
        seed=seed, tol=_tol(tol_abs, tol_rel))
    return ({"reports": reports, "all_expected": all_expected, "seed": seed},
            _exit(all_expected))


if __name__ == "__main__":
    main()
