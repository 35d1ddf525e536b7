"""Span tracer that wraps perivir's public functions from outside.

`from .x import y` copies a binding, so a wrapper has to be rebound in
every `perivir.*` namespace that holds the original function object (the
package attribute `perivir.integrate` is the function, not the module).
`VirusFreeSolution.value` is wrapped on the class.

Spans (op id, name, start, end, parent) are kept in memory and written out
when the run ends. Hot leaf functions (rhs, jacobian, T* lookups) are
timed and counted but record no span, to keep the span list small. Self
time is a call's duration minus the time of the wrapped calls it makes;
time in unwrapped helpers counts towards the nearest wrapped caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) -> name; SPANS record a span per call, LEAVES only totals
SPANS = {
    ("cli", "main"): "cli.main",
    ("cli", "load_config"): "cli.load_config",
    ("reproduction", "r0_periodic"): "reproduction.r0_periodic",
    ("reproduction", "rho_for_lambda"): "reproduction.rho_for_lambda",
    ("periodic", "virus_free_closed_form"): "periodic.virus_free_closed_form",
    ("periodic", "warm_start_guess"): "periodic.warm_start_guess",
    ("periodic", "find_periodic_orbit"): "periodic.find_periodic_orbit",
    ("analysis", "simulate"): "analysis.simulate",
    ("analysis", "classify"): "analysis.classify",
    ("analysis", "monitor_invariants"): "analysis.monitor_invariants",
    ("analysis", "sweep"): "analysis.sweep",
    ("svgplot", "write_panels"): "svgplot.write_panels",
    ("integrate", "integrate"): "integrate.integrate",
    ("integrate", "integrate_matrix"): "integrate.integrate_matrix",
}
LEAVES = {
    ("model", "rhs"): "model.rhs",
    ("model", "jacobian"): "model.jacobian",
}
TSTAR = "periodic.tstar_value"
ORBIT = "periodic.find_periodic_orbit"


class Tracer:
    """Installs timing wrappers into the loaded perivir modules and undoes them."""

    def __init__(self):
        self.spans = []  # (op, name, start, end, parent span index or -1)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # steps, fcalls, flows, verdicts
        self.op = -1
        self._stack = [[-1, 0.0]]  # [span index, time covered by child calls]
        self._orbit_depth = 0
        self._undo = []

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append([idx, 0.0])
        return idx

    def _leave(self, name, idx, start, end):
        _, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1]
        parent[1] += dur
        self.spans[idx] = (self.op, name, start, end, parent[0])
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child

    def _span(self, name, fn):
        clock = time.perf_counter
        on_result = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._enter()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(name, idx, start, clock())
            if on_result is not None:
                on_result(self, out)
            return out

        return wrapper

    def _leaf(self, name, fn):
        clock = time.perf_counter
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack

        def wrapper(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            dur = clock() - start
            stack[-1][1] += dur
            calls[name] += 1
            total[name] += dur
            self_time[name] += dur
            return out

        return wrapper

    def _integrate(self, fn):
        """integrate(): count f calls and classify shooting flows by state width."""
        counts = self.counts

        def run(f, t0, t1, y0, cfg, t_eval=None):
            def counted(t, y):
                counts["integrate.integrate.fcalls"] += 1
                return f(t, y)

            if self._orbit_depth:
                width = len(y0)
                if width == 20:
                    counts["periodic.variational_flows"] += 1
                elif width == 4 and t_eval is not None and len(t_eval) == 1:
                    counts["periodic.linesearch_flows"] += 1
            return fn(counted, t0, t1, y0, cfg, t_eval=t_eval)

        return self._span("integrate.integrate", run)

    def _orbit(self, fn):
        inner = self._span(ORBIT, fn)

        def wrapper(*args, **kwargs):
            self._orbit_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._orbit_depth -= 1

        return wrapper

    def install(self):
        mods = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
                if name.startswith("perivir.") and mod is not None}
        holders = [m for name, m in sys.modules.items()
                   if (name == "perivir" or name.startswith("perivir.")) and m is not None]
        plan = {}
        for (mod, attr), name in SPANS.items():
            fn = getattr(mods[mod], attr)
            if name == "integrate.integrate":
                plan[id(fn)] = (fn, self._integrate(fn))
            elif name == ORBIT:
                plan[id(fn)] = (fn, self._orbit(fn))
            else:
                plan[id(fn)] = (fn, self._span(name, fn))
        for (mod, attr), name in LEAVES.items():
            fn = getattr(mods[mod], attr)
            plan[id(fn)] = (fn, self._leaf(name, fn))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = plan.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(holder, attr, hit[1])
                    self._undo.append((holder, attr, value))
        cls = mods["periodic"].VirusFreeSolution
        original = cls.value
        cls.value = self._leaf(TSTAR, original)
        self._undo.append((cls, "value", original))

    def uninstall(self):
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Running totals: deterministic counts, and self and total seconds per name."""
        counts = {f"{name}.calls": n for name, n in self.calls.items()}
        counts.update(self.counts)
        return {"counts": counts, "self_s": dict(self.self_time), "total_s": dict(self.total)}


def _after_integrate_matrix(tracer, sol):
    tracer.counts["integrate.integrate_matrix.steps"] += sol.step_count
    tracer.counts["integrate.integrate_matrix.rejected"] += sol.rejected


def _after_classify(tracer, report):
    tracer.counts["analysis.classify.verdicts"] += 1
    if report.regime != "Indeterminate":
        tracer.counts["analysis.classify.decisive"] += 1


_RESULT_HOOKS = {
    "integrate.integrate_matrix": _after_integrate_matrix,
    "analysis.classify": _after_classify,
}
