"""Run one instab benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-run-all --seed 1 \
        --seconds 25 --trace 0

With ``--trace 0`` it times the workload untraced and reports the
end-to-end metrics of BENCHMARK.json, its times scaled to a fixed host
speed by the reference loop of reference.py; with ``--trace 1`` it runs the
workload twice under the per-layer tracer and reports the per-layer metrics
of the first traced run.
Informational lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from the checkout's ``src`` directory; nothing is
installed. Every process is single-threaded and started one at a time.
The exit code is 0 when every output checked out, 1 when an output was
wrong and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
# set-up-only processes before and after the measuring worker, which adds
# one sample; setup_s is the median of the samples, each scaled by the
# reference loop timed just before its process started
SETUP_PROBES_EACH_SIDE = 2
SETUP_TIMEOUT_S = 60
RUN_LIMIT_S = 175  # the whole run, set-up probes included
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
MARGIN_NAMES = {"corpus-run-all": "energy_margin_dec",
                "curved-sweep": "energy_margin_dec",
                "chart-build": "chart_mixed_margin_dec",
                "certify-shells": "euler_margin_dec"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _info(label, value):
    print(f"# {label}: {value}")


def _environment():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(SINGLE_THREAD)
    return env


def _json_lines(text):
    out = []
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return out


def _start_worker(args, extra, timeout):
    """Run one worker process; return (its JSON lines, set-up seconds)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_environment(),
                              stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s: {cmd}")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {cmd}")
    lines = _json_lines(proc.stdout)
    ready = [line["ready"] for line in lines if "ready" in line]
    if not ready:
        raise BenchmarkError(f"worker never reported set-up: {cmd}")
    return lines, ready[0] - started


def _declared(bench, section):
    return {m["name"]: m["unit"] for m in bench[section]}


def _scaled_start(args, extra, timeout, samples):
    """Time the reference loop, then run a worker; append the loop time,
    the worker's set-up seconds and those scaled by the loop to
    ``samples``, and return the worker's JSON lines."""
    reference_s = reference.loop_s()
    lines, setup_s = _start_worker(args, extra, timeout)
    samples.append((reference_s, setup_s,
                    reference.scaled(setup_s, reference_s)))
    return lines


def _setup_probes(args, deadline, samples):
    for _ in range(SETUP_PROBES_EACH_SIDE):
        timeout = min(SETUP_TIMEOUT_S, deadline - time.monotonic())
        _scaled_start(args, ["--setup-only"], timeout, samples)


def _untraced_metrics(args, deadline):
    samples = []  # (reference loop s, set-up s, scaled set-up s)
    _setup_probes(args, deadline, samples)
    lines = _scaled_start(
        args, ["--seconds", str(args.seconds), "--trace", "0"],
        deadline - time.monotonic(), samples)
    _setup_probes(args, deadline, samples)
    references, setups, scaled = zip(*samples)
    result = lines[-1]["result"]
    times = result["times"]
    _info("wall run_s per repetition", [round(t, 4) for t in times])
    _info("reference loop s around them",
          [round(r, 4) for r in result["references"]])
    _info("wall run_s median", statistics.median(times))
    _info("wall setup_s per process", [round(s, 4) for s in setups])
    _info("reference loop s before each", [round(r, 4) for r in references])
    _info("wall setup_s median", statistics.median(setups))
    _info(MARGIN_NAMES[args.workload] + " (dec)", result["margin"])
    metrics = {
        "run_s": statistics.median(result["scaled_times"]),
        "setup_s": statistics.median(scaled),
        "peak_rss_mb": result["peak_rss_mb"],
        "margin_dec": result["margin"],
    }
    return result, metrics


def _traced_metrics(args, deadline):
    lines, _setup_s = _start_worker(args, ["--trace", "1"],
                                    deadline - time.monotonic())
    result = lines[-1]["result"]
    _info("traced run_s", result["traced_s"])
    _info("untraced run_s", result["times"][0])
    _info("tracing overhead (traced / untraced run_s)",
          result["layers"]["trace.overhead_ratio"])
    _info("trace written to", result["trace_file"])
    return result, result["layers"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # on SIGTERM, unwind through subprocess.run, which kills the running
    # worker and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "instab",
                                           "__init__.py")):
            raise BenchmarkError("no instab sources under src/ in "
                                 f"{ROOT}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        section = "per_layer" if args.trace else "end_to_end"
        declared = _declared(bench, section)
        if args.trace:
            result, metrics = _traced_metrics(args, deadline)
        else:
            result, metrics = _untraced_metrics(args, deadline)
        if set(metrics) != set(declared):
            raise BenchmarkError(
                "metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(declared))}")
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = result["attempted"]
    _info("workload", args.workload)
    _info("seed", args.seed)
    _info("machine", json.dumps(result["machine"], sort_keys=True))
    _info("failed_ops_frac (fraction)",
          result["failed"] / attempted if attempted else 0.0)
    for note in result["notes"]:
        _info("operation", note)
    for name, value in metrics.items():
        _info(name, f"{value} {declared[name]}")
    correct = result["wrong"] == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
