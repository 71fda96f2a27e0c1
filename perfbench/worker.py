"""One benchmark process: set up a workload, run it, check it, report.

Started by ``run.py`` in a fresh single-threaded interpreter with ``src`` on
``PYTHONPATH``. It prints JSON lines on stdout: first ``{"ready": t}`` with
the ``time.monotonic()`` reading taken once instab is imported and the
workload's problems are loaded and validated (CLOCK_MONOTONIC is shared by
all processes on Linux, so the parent subtracts its own start reading),
then, unless ``--setup-only``, ``{"result": ...}``.

Untraced, the workload body runs ``workload.repetitions(--seconds)``
times, with fresh inputs loaded untimed before each repetition, and the
reference loop is timed before the first repetition and after each one.
Each repetition's time is also reported scaled by the mean of the two loop
times around it (see reference.py). Traced,
it runs twice under a fresh tracer, whose counts must agree, and once more
untraced, which gives the tracing overhead and shows that the wrappers are
gone after ``Tracer.restore()``. The trace is written under ``STATE_DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import reference
from workloads import WORKLOADS, Ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".perfbench_out")


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _machine():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_once(workload, inputs, ledger):
    start = time.perf_counter()
    outputs = workload.body(inputs)
    elapsed = time.perf_counter() - start
    margin = workload.check(inputs, outputs, ledger)
    digest = workload.digest(inputs, outputs) if workload.digest else None
    return elapsed, margin, digest


def run_untraced(workload, inputs, seed, seconds, ledger):
    times, margins, digests = [], [], []
    references = [reference.loop_s()]
    for repetition in range(workload.repetitions(seconds)):
        if repetition:
            inputs = workload.load(seed)
        elapsed, margin, digest = _run_once(workload, inputs, ledger)
        references.append(reference.loop_s())
        times.append(elapsed)
        margins.append(margin)
        if digest is not None:
            digests.append(digest)
    scaled = [reference.scaled(t, (before + after) / 2)
              for t, before, after in zip(times, references, references[1:])]
    if digests:
        ledger.op("output digest identical across repetitions",
                  len(set(digests)) == 1)
    return {"times": times, "scaled_times": scaled,
            "references": references, "margins": margins}


def _traced_once(workload, inputs, ledger):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        elapsed, margin, digest = _run_once(workload, inputs, ledger)
    finally:
        tracer.restore()
    return tracer, elapsed, margin, digest


def run_traced(workload, inputs, seed, ledger, machine):
    tracer, traced_s, margin, digest = _traced_once(workload, inputs, ledger)
    again, _, again_margin, again_digest = _traced_once(
        workload, workload.load(seed), ledger)
    ledger.op("traced counts identical in two traced runs",
              tracer.counts() == again.counts())
    wrapper_calls = [tracer.total_calls(), again.total_calls()]
    untraced_s, plain_margin, plain_digest = _run_once(
        workload, workload.load(seed), ledger)
    ledger.op("no wrapper calls after restore",
              [tracer.total_calls(), again.total_calls()] == wrapper_calls)
    if digest is not None:
        ledger.op("output digest identical traced and untraced",
                  digest == again_digest == plain_digest)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    os.makedirs(STATE_DIR, exist_ok=True)
    trace_file = os.path.join(STATE_DIR,
                              f"trace-{workload.name}-seed{seed}.json")
    with open(trace_file, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "machine": machine, "traced_s": traced_s,
                   "untraced_s": untraced_s, "metrics": metrics,
                   "counts": tracer.counts(), "trace": tracer.dump()},
                  fh, indent=1, sort_keys=True)
    return {"times": [untraced_s], "traced_s": traced_s, "layers": metrics,
            "margins": [margin, again_margin, plain_margin],
            "trace_file": os.path.relpath(trace_file, ROOT)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.load(args.seed)
    _emit({"ready": time.monotonic()})
    if args.setup_only:
        return 0

    machine = _machine()
    ledger = Ledger()
    if args.trace:
        result = run_traced(workload, inputs, args.seed, ledger, machine)
    else:
        result = run_untraced(workload, inputs, args.seed, args.seconds,
                              ledger)
    margins = result.pop("margins")
    # nothing measured to report a margin for: the run cannot be correct
    ledger.op("accuracy value measured in every repetition",
              None not in margins)
    result.update({
        "margin": None if None in margins else min(margins),
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "wrong": ledger.wrong,
        "notes": ledger.notes,
        "machine": machine,
    })
    _emit({"result": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
