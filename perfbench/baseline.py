"""Reproduce the ROADMAP's baseline table on this machine.

Run from the root of a checkout:

    PYTHONPATH=src:perfbench python3 perfbench/baseline.py

It prints, as Markdown, the per-entry sweep and certification seconds
(untraced, seed 42 as in `instab corpus run-all --seed 42`), the steps of
every sweep against the 2T / (eps/10) bound the eps/10 step cap sets, and
for stable-magnetic-plane the traced call counts of one sweep and the
untraced cost of one Euler-Lagrange right-hand side. It takes about a
minute on one core.
"""

from __future__ import annotations

import time

from instab import dynamics, harness
from tracing import Tracer

SEED = 42
RHS_CALLS = 20_000
RHS_ENTRY = "stable-magnetic-plane"


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def per_entry_table():
    rows = ["| entry | sweep s | certification s | steps per eps "
            "(2T/(eps/10)) |", "|---|---|---|---|"]
    total = 0.0
    for problem in harness.corpus():
        sweep_s, report = _timed(harness.run_epsilon_sweep, problem,
                                 with_certification=False)
        cert_s, _verdicts = _timed(harness._certification_verdicts, problem,
                                   seed=SEED)
        total += sweep_s + cert_s
        steps = ", ".join(
            f"{run.trajectory.stats['steps']} "
            f"({2 * problem.horizon / (run.epsilon / 10):.0f})"
            for run in report.runs if run.status == "ok")
        rows.append(f"| {problem.name} | {sweep_s:.2f} | {cert_s:.2f} | "
                    f"{steps} |")
    rows.append(f"| total | {total:.1f} s | | |")
    return rows


def rhs_rows():
    problem = harness.corpus_entry(RHS_ENTRY)
    tracer = Tracer()
    tracer.install()
    try:
        harness.run_epsilon_sweep(problem, with_certification=False)
    finally:
        tracer.restore()
    m = tracer.layer_metrics()

    system = problem.system(epsilon=1e-3)
    _df, grad, _cap = problem.gradient_data()
    state = dynamics.State(0.0, problem.center + 0.01, grad)
    start = time.perf_counter()
    for _ in range(RHS_CALLS):
        dynamics.el_acceleration(system, state)
    rhs_us = 1e6 * (time.perf_counter() - start) / RHS_CALLS
    return [
        f"- {RHS_ENTRY}, one sweep (traced): "
        f"{m['expr.value_and_grad.calls']:,} value_and_grad calls, "
        f"{m['dynamics.el_acceleration.calls']:,} RHS calls, "
        f"{m['dynamics.steps']:,} steps, capped step share "
        f"{m['dynamics.capped_step_share']:.3f}.",
        f"- One RHS call (untraced, {RHS_CALLS:,} calls): {rhs_us:.1f} us.",
    ]


def main():
    print("\n".join(per_entry_table()))
    print()
    print("\n".join(rhs_rows()))


if __name__ == "__main__":
    main()
