"""The benchmark's span tracer on the reference solve.

``perfbench/spans.py`` wraps the package's functions by name and counts
each solve's accepted steps through ``Trajectory.chart_a`` and
``Trajectory.chart_b``.  This test loads the tracer by path, as the
benchmark does, so a refactor that drops a name the trace reads fails
here rather than as a gap in the benchmark's report.
"""

import importlib.util
from pathlib import Path

import pytest

from helfrich import cli, kernel_backend

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(kernel_backend() != "python",
                    reason="the step counts pin the python kernel backend")
def test_traced_reference_solve_counts_its_steps(tmp_path):
    """One ``integrate`` call, 33 accepted steps read through
    ``chart_a.conts``, no second chart and 34 step-kernel calls (the 33
    accepted and the one that ends the run on its terminal event)."""
    tracer = _load_spans().Tracer()
    trajs = []
    count = tracer._count_solve
    tracer._count_solve = lambda traj: trajs.append(traj) or count(traj)
    tracer.install()
    try:
        argv = ["solve", "--c0", "1", "--lambda", "0.25", "--p", "1", "--w0p", "0.05",
                "--format", "json", "--out", str(tmp_path)]
        assert tracer.run(0, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert {"solver.integrate", "kernels.dopri5_step_a"}.isdisjoint(tracer.missing)
    (traj,) = trajs
    assert traj.chart_a is traj and traj.chart_b is None
    assert tracer.solves[:3] == [1, 33, 0]
    assert len(traj.chart_a.conts) == 33
    assert tracer.totals()["kernels.dopri5_step_a"][0] == 34
