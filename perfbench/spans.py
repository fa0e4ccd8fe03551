"""Span tracing for the traced benchmark run, from outside the package.

``Tracer.install`` rebinds, in the modules that call them, the names
listed in ``BINDINGS`` to wrappers that record one span per call: name,
start, end, parent span and command id.  ``helfrich.solver.integrate``
reads ``kernels.dopri5_step_a/_b`` at call time, so wrapping the kernels
module's attributes catches every step.  Spans stay in memory and are
written out once at the end.  A binding that the package no longer has
is reported in ``Tracer.missing`` and skipped, so a refactor shows up as
a gap in the report rather than as a crash.

A span's self time is its duration minus the time its child spans
cover; children of one span never overlap because the program is
single-threaded.  A layer's self time is the sum over its spans, and
the root span of each command (``cli.main``) makes the layer self times
add up to the command's traced wall time.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("kernels", "solver", "analysis", "bounds", "cubic", "export", "cli")

# (layer that defines the function, function, modules whose binding is wrapped)
BINDINGS = (
    ("kernels", "dopri5_step_a", ("kernels",)),
    ("kernels", "dopri5_step_b", ("kernels",)),
    ("solver", "integrate", ("cli", "bounds")),
    ("analysis", "extract_landmarks", ("cli", "bounds", "export", "analysis")),
    ("analysis", "classify", ("cli", "bounds", "analysis")),
    ("analysis", "el_residual", ("cli",)),
    ("analysis", "equator_identity_residual", ("cli",)),
    ("analysis", "surface_totals", ("cli",)),
    ("analysis", "profile_points", ("cli",)),
    ("analysis", "geometry_at", ("export",)),
    ("analysis", "_quarter_profile", ("export",)),
    ("bounds", "check_single", ("cli",)),
    ("bounds", "asymptotic_sweep", ("cli",)),
    ("bounds", "phase_sweep", ("cli",)),
    ("cubic", "analyze_cubic", ("bounds",)),
    ("cubic", "derived_constants", ("cli",)),
    ("cubic", "eval_r", ("bounds",)),
    ("cubic", "eval_q", ("analysis",)),
    ("export", "write_profile_csv", ("cli",)),
    ("export", "write_json", ("cli",)),
    ("export", "render_svg", ("cli",)),
    ("export", "build_mesh", ("cli",)),
    ("export", "write_obj", ("cli",)),
    ("export", "fmt17", ("cli",)),
)

ROOT = "cli.main"
_NAME, _PARENT, _CMD, _START, _END = range(5)


class Tracer:
    """In-memory span recorder; create one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self.solves = [0, 0, 0, 0]  # integrate calls, accepted A, accepted B, events
        self._stack = [-1]
        self._cmd = -1
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1], self._cmd, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_solve(self, traj):
        s = self.solves
        s[0] += 1
        s[1] += len(traj.chart_a.conts)
        s[2] += 0 if traj.chart_b is None else len(traj.chart_b.conts)
        s[3] += len(traj.events)

    def install(self):
        """Wrap every binding in ``BINDINGS`` that the package still has."""
        for layer, func, users in BINDINGS:
            fn = getattr(importlib.import_module(f"helfrich.{layer}"), func, None)
            if fn is None:
                self.missing.add(f"{layer}.{func}")
                continue
            hook = self._count_solve if func == "integrate" else None
            wrapper = self._wrap(f"{layer}.{func}", fn, hook)
            for user in users:
                mod = importlib.import_module(f"helfrich.{user}")
                if getattr(mod, func, None) is not fn:
                    self.missing.add(f"{user}.{func}")
                    continue
                setattr(mod, func, wrapper)
                self._patches.append((mod, func, fn))

    def uninstall(self):
        while self._patches:
            mod, func, fn = self._patches.pop()
            setattr(mod, func, fn)

    def run(self, cmd_id, main, argv):
        """Call ``main(argv)`` under a root span for command ``cmd_id``."""
        self._cmd = cmd_id
        return self._wrap(ROOT, main)(argv)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,cmd,name,start_s,end_s\n")
            for i, (name, parent, cmd, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{cmd},{name},{t0!r},{t1!r}\n")

    def totals(self):
        """Per span name: (calls, total duration, total self time)."""
        dur = [s[_END] - s[_START] for s in self.spans]
        self_t = list(dur)
        for s, d in zip(self.spans, dur):
            if s[_PARENT] >= 0:
                self_t[s[_PARENT]] -= d
        out: dict[str, list] = {}
        for s, d, st in zip(self.spans, dur, self_t):
            acc = out.setdefault(s[_NAME], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += d
            acc[2] += st
        return out


def layer_metrics(totals: dict, solves, n_cmds: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced command unless named per solve."""

    def get(name, k):
        return totals.get(name, (0, 0.0, 0.0))[k]

    def calls(*names):
        return sum(get(n, 0) for n in names)

    def dur(*names):
        return sum(get(n, 1) for n in names)

    steps = ("kernels.dopri5_step_a", "kernels.dopri5_step_b")
    n_steps = calls(*steps)
    n_solve = max(solves[0], 1)
    m = {
        "kernels.step_calls": n_steps / n_cmds,
        "kernels.step_s": dur(*steps) / n_cmds,
        "kernels.step_us": 1e6 * dur(*steps) / max(n_steps, 1),
        "solver.integrate_calls": solves[0] / n_cmds,
        "solver.integrate_s": dur("solver.integrate") / n_cmds,
        "solver.loop_self_s": get("solver.integrate", 2) / n_cmds,
        "solver.accepted_a": solves[1] / n_solve,
        "solver.accepted_b": solves[2] / n_solve,
        "solver.events": solves[3] / n_solve,
        "solver.accept_ratio": (solves[1] + solves[2]) / max(n_steps, 1),
        "analysis.landmarks_s": dur("analysis.extract_landmarks") / n_cmds,
        "analysis.landmarks_calls": calls("analysis.extract_landmarks") / n_cmds,
        "analysis.residuals_s": dur("analysis.el_residual",
                                    "analysis.equator_identity_residual") / n_cmds,
        "analysis.profile_points_s": dur("analysis.profile_points") / n_cmds,
        "analysis.classify_s": dur("analysis.classify") / n_cmds,
        "bounds.check_single_s": dur("bounds.check_single") / n_cmds,
        "bounds.asymptotic_sweep_s": dur("bounds.asymptotic_sweep") / n_cmds,
        "bounds.phase_sweep_self_s": get("bounds.phase_sweep", 2) / n_cmds,
        "cubic.calls": sum(v[0] for k, v in totals.items() if k.startswith("cubic.")) / n_cmds,
    }
    for f in ("write_profile_csv", "write_json", "render_svg", "build_mesh", "write_obj"):
        m[f"export.{f}_s"] = dur(f"export.{f}") / n_cmds
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[2] for k, v in totals.items()
                                   if k.split(".", 1)[0] == layer) / n_cmds
    return m
