"""Per-layer tracing of instab from outside the package.

``Tracer.install()`` replaces public functions and methods of the six
modules with timing wrappers. Each name is patched where callers look it
up, not only where it is defined: ``harness`` imports ``integrate`` by name,
the right-hand-side closure of ``integrate`` reads ``el_acceleration`` as a
module global, ``certify`` imports ``magnetic_tensor``, and field methods
are looked up on the class. ``restore()`` puts every original back.

Hot calls (field evaluations, right-hand sides, chart points) are kept as
in-memory aggregates: count, total time and time spent in traced children,
so that a layer's self time excludes the layers it calls. Coarse calls
(sweeps, certifiers, chart builds) also record a span with its parent.
"""

from __future__ import annotations

import collections
import time

import numpy as np

from instab import certify, charts, dynamics, expr, geometry, harness

ENTRY_NAMES = (
    "stable-magnetic-plane", "unstable-magnetic-plane", "mechanical-plane",
    "whitney-umbrella", "kolibri", "crossing-axes",
    "corollary1-unstable-magnetic", "corollary1-mechanical",
    "curved-metric",
)
CHART_ENTRIES = ("corollary1-unstable-magnetic", "corollary1-mechanical")
CAP_RELATIVE = 1e-9  # a step within this share of the eps/10 cap is capped


def _problem_name(args, kwargs):
    problem = args[0] if args else kwargs.get("problem")
    return {"entry": getattr(problem, "name", None)}


def _system_epsilon(args, kwargs):
    system = args[0] if args else kwargs.get("system")
    return {"epsilon": system.epsilon}


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, child_s]
        self.counters = collections.Counter()
        self.spans = []
        self.min_shell_samples = None
        self._stack = []  # one [child_s] cell per open traced call
        self._span_stack = []
        self._patches = []

    # --- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, span_attrs=None, after=None):
        """Timing wrapper; ``span_attrs`` makes the call a recorded span."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        if span_attrs is None and after is None:
            # millions of calls: keep the per-call bookkeeping minimal
            def hot(*args, **kwargs):
                cell = [0.0]
                stack.append(cell)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += cell[0]
                    if stack:
                        stack[-1][0] += elapsed
            return hot

        spans = self.spans
        span_stack = self._span_stack

        def coarse(*args, **kwargs):
            record = None
            if span_attrs is not None:
                record = {"id": len(spans), "name": name,
                          "parent": span_stack[-1] if span_stack else None,
                          "attrs": span_attrs(args, kwargs)}
                spans.append(record)
                span_stack.append(record["id"])
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += cell[0]
                if stack:
                    stack[-1][0] += elapsed
                if record is not None:
                    span_stack.pop()
                    record["start"] = start
                    record["end"] = end
            if after is not None:
                after(args, kwargs, result)
            return result
        return coarse

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, name, owners, attr, **wrap_kwargs):
        original = getattr(owners[0], attr)
        wrapped = self.wrap(name, original, **wrap_kwargs)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                   f"function {name} wraps")
            self._patch(owner, attr, wrapped)

    # --- hooks that read results ------------------------------------------

    def _after_integrate(self, args, kwargs, trajectory):
        system = args[0] if args else kwargs["system"]
        tol = kwargs.get("tol", args[3] if len(args) > 3 else None)
        steps = trajectory.stats["steps"]
        self.counters["steps"] += steps
        self.counters["nfev"] += trajectory.stats["nfev"]
        if tol is not None and tol.max_step is not None:
            cap = tol.max_step
        elif system.epsilon is not None:
            cap = system.epsilon / 10.0
        else:
            return
        sizes = np.abs(np.diff(trajectory.times))
        self.counters["capped_steps"] += int(
            np.count_nonzero(sizes >= cap * (1.0 - CAP_RELATIVE)))

    def _after_sample_shell(self, _args, _kwargs, result):
        points, attempts, _near = result
        self.counters["shell_points"] += len(points)
        self.counters["shell_draws"] += attempts
        if self.min_shell_samples is None \
                or len(points) < self.min_shell_samples:
            self.min_shell_samples = len(points)

    def _after_vectorized_call(self, args, kwargs, _result):
        points = args[0] if args else kwargs["points"]
        self.counters["vectorized_points"] += len(points)

    # --- install / restore ------------------------------------------------

    def install(self):
        tracer = self

        # expr: field methods are looked up on the class
        self._patch(expr.ScalarField, "value_and_grad", self.wrap(
            "expr.value_and_grad", expr.ScalarField.value_and_grad))
        self._patch(expr.CallableField, "grad", self.wrap(
            "expr.callable_grad", expr.CallableField.grad))
        original_vectorized = expr.ScalarField.vectorized

        def vectorized(field):
            return tracer.wrap("expr.vectorized", original_vectorized(field),
                               after=tracer._after_vectorized_call)
        self._patch(expr.ScalarField, "vectorized", vectorized)

        # geometry
        self._patch_function("geometry.magnetic_tensor",
                             [geometry, certify, dynamics], "magnetic_tensor")
        self._patch(geometry.MetricSpec, "inverse", self.wrap(
            "geometry.inverse", geometry.MetricSpec.inverse))
        self._patch(geometry.MetricSpec, "christoffel", self.wrap(
            "geometry.christoffel", geometry.MetricSpec.christoffel))

        # dynamics: the rhs closure reads el_acceleration as a global
        self._patch_function("dynamics.el_acceleration", [dynamics],
                             "el_acceleration")
        self._patch_function("dynamics.integrate", [dynamics, harness],
                             "integrate", span_attrs=_system_epsilon,
                             after=self._after_integrate)

        # certify
        for attr, name in (
                ("certify_potential_condition", "certify.potential"),
                ("certify_magnetic_condition", "certify.magnetic"),
                ("check_quasi_homogeneous", "certify.quasi_homogeneous"),
                ("check_orthogonal_commuting", "certify.commuting"),
                ("chart_contraction_check", "certify.contraction")):
            self._patch_function(name, [certify], attr,
                                 span_attrs=lambda a, k: {})
        self._patch_function("certify.sample_shell", [certify],
                             "_sample_shell", after=self._after_sample_shell)

        # charts: point and jacobian on the class, solve_ivp where charts
        # looks it up
        point = self.wrap("charts.point", charts.AdaptedChart.point)
        solves = self.stats.setdefault("charts.flow_solve", [0, 0.0, 0.0])

        def counted_point(*args, **kwargs):
            before = solves[0]
            result = point(*args, **kwargs)
            if solves[0] == before:
                tracer.counters["memo_hits"] += 1
            return result
        self._patch(charts.AdaptedChart, "point", counted_point)
        self._patch(charts.AdaptedChart, "jacobian", self.wrap(
            "charts.jacobian", charts.AdaptedChart.jacobian))
        self._patch_function("charts.flow_solve", [charts], "solve_ivp")
        for attr in ("build_chart", "build_multi_chart",
                     "pullback_metric_block_check", "injectivity_probe"):
            self._patch_function(f"charts.{attr}", [charts], attr,
                                 span_attrs=lambda a, k: {})

        # harness
        self._patch_function("harness.run_all", [harness], "run_all",
                             span_attrs=lambda a, k: {})
        for attr in ("run_epsilon_sweep", "_certification_verdicts",
                     "build_problem_chart"):
            self._patch_function(f"harness.{attr}", [harness], attr,
                                 span_attrs=_problem_name)
        self._patch_function("harness.detect_escape", [harness],
                             "detect_escape", span_attrs=lambda a, k: {})

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total_calls(self):
        """Calls that went through any wrapper so far."""
        return sum(stat[0] for stat in self.stats.values())

    # --- reporting --------------------------------------------------------

    def _span_seconds(self, name, entry):
        return sum((s["end"] - s["start"] for s in self.spans
                    if s["name"] == name and s["attrs"].get("entry") == entry),
                   0.0)

    def layer_metrics(self):
        """Per-layer metrics by the names BENCHMARK.json declares."""
        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1]

        def self_time(name):
            _calls, tot, child = self.stats.get(name, [0, 0.0, 0.0])
            return tot - child

        def per(value, count, scale=1.0):
            return scale * value / count if count else 0.0

        c = self.counters
        m = {}
        for name, key in (("expr.value_and_grad", "expr.value_and_grad"),
                          ("expr.callable_grad", "expr.callable_grad"),
                          ("geometry.magnetic_tensor",
                           "geometry.magnetic_tensor"),
                          ("geometry.inverse", "geometry.inverse"),
                          ("geometry.christoffel", "geometry.christoffel"),
                          ("dynamics.el_acceleration",
                           "dynamics.el_acceleration")):
            m[f"{key}.calls"] = calls(name)
            m[f"{key}.us"] = per(self_time(name), calls(name), 1e6)
        m["expr.vectorized.points"] = c["vectorized_points"]
        m["expr.vectorized.ns_per_point"] = per(
            self_time("expr.vectorized"), c["vectorized_points"], 1e9)

        rhs_calls = calls("dynamics.el_acceleration")
        m["dynamics.rhs_us"] = per(total("dynamics.el_acceleration"),
                                   rhs_calls, 1e6)
        steps = c["steps"]
        m["dynamics.steps"] = steps
        m["dynamics.nfev_per_step"] = per(c["nfev"], steps)
        m["dynamics.capped_step_share"] = per(c["capped_steps"], steps)
        m["dynamics.integrate.overhead_us_per_step"] = per(
            total("dynamics.integrate") - total("dynamics.el_acceleration"),
            steps, 1e6)

        for kind in ("potential", "magnetic", "quasi_homogeneous",
                     "commuting"):
            m[f"certify.{kind}_s"] = total(f"certify.{kind}")
        m["certify.shells"] = calls("certify.sample_shell")
        m["certify.acceptance"] = per(c["shell_points"], c["shell_draws"])
        m["certify.min_shell_samples"] = self.min_shell_samples or 0

        point_calls = calls("charts.point")
        m["charts.point.calls"] = point_calls
        m["charts.memo_hit_ratio"] = per(c["memo_hits"], point_calls)
        m["charts.flow_solves"] = calls("charts.flow_solve")
        m["charts.flow_solve_ms"] = per(total("charts.flow_solve"),
                                        calls("charts.flow_solve"), 1e3)
        m["charts.jacobian.calls"] = calls("charts.jacobian")
        m["charts.jacobian_ms"] = per(total("charts.jacobian"),
                                      calls("charts.jacobian"), 1e3)
        for entry in CHART_ENTRIES:
            m[f"charts.build_s.{entry}"] = self._span_seconds(
                "harness.build_problem_chart", entry)

        for entry in ENTRY_NAMES:
            certify_s = self._span_seconds("harness._certification_verdicts",
                                           entry)
            m[f"harness.sweep_s.{entry}"] = self._span_seconds(
                "harness.run_epsilon_sweep", entry) - certify_s
            m[f"harness.certify_s.{entry}"] = certify_s
        return m

    def counts(self):
        """The deterministic part of the trace: calls and work counters."""
        out = {f"{name}.calls": stat[0]
               for name, stat in sorted(self.stats.items())}
        out.update(sorted(self.counters.items()))
        out["min_shell_samples"] = self.min_shell_samples
        return out

    def dump(self):
        return {
            "aggregates": {name: {"calls": s[0], "total_s": s[1],
                                  "self_s": s[1] - s[2]}
                           for name, s in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
        }
