"""Golden outputs: the sha256 of each file that five reference commands
write, and the step and event counts of the reference solve.

A change that keeps the arithmetic keeps these bytes, so a speed-up or a
refactor that alters any output fails here.  The hashes pin this
platform's libm (the last bit of ``pow``, ``sqrt`` and the ``%.17g``
formatting all reach the files) and the python kernel backend; a
numba-compiled step may round differently and is not pinned.  A change
that alters an output on purpose updates the hash here and states the
old and the new value.  A change to the step sequence shows first in the
counts, which say how the run differs where a hash only says that it does.
"""

import hashlib
import os
from collections import Counter

import pytest

from helfrich import HelfrichParams, bounds, cli, integrate, kernel_backend, kernels

PAPER_FLAGS = ["--c0", "1", "--lambda", "0.25", "--p", "1"]

GOLDEN = {
    "sweep": (
        ["sweep", "--c0-range=-1:2:3", "--lambda-range=-0.5:1:2",
         "--p-range", "0.5:4:2", "--w0p-range", "0.001:0.5:3"],
        {"phase.csv": "2cdc9c79dadd73a266c1c629143e66b7adef337b59a031c301e32c3533e89d0e"},
    ),
    "verify": (
        ["verify", *PAPER_FLAGS, "--sweep-points", "16", "--sweep-min", "1e-4"],
        {"bounds_report.json":
            "b7c2b5eda9df3b511c3ce4ced6379ea59ca29385e11642aa9c43b7187c7579ff"},
    ),
    "solve": (
        ["solve", *PAPER_FLAGS, "--w0p", "0.05", "--format", "csv,json,svg,obj"],
        {
            "profile.csv": "dcae23b33affa7e8723ea91ae2e6a4742a41d039a7df8b81a964fd0c4dacd080",
            "report.json": "5d5d8b740f52ede1d0cb6b684e82162643a5e4d8be097e3bbc12931af46e635b",
            "profile.svg": "2264d83ea3144ce0bf5ec0c57f196ae25681ded6d80f2ae5d4a831ad5c316da0",
            "mesh.obj": "b3fa99ad9d9743535de7f8bbe0ddbb808e9c5c13080b86fadd92a6f2fbd7775d",
        },
    ),
    "mesh": (
        ["mesh", *PAPER_FLAGS, "--w0p", "0.05",
         "--segments-theta", "7", "--segments-profile", "9"],
        {"mesh.obj": "5fdaf94656cd127bc6df5efb331ec932fe3551b93621a952a53010aab375810b"},
    ),
    "plot": (
        ["plot", *PAPER_FLAGS, "--w0p", "0.05"],
        {"profile.svg": "2264d83ea3144ce0bf5ec0c57f196ae25681ded6d80f2ae5d4a831ad5c316da0"},
    ),
}


@pytest.mark.skipif(kernel_backend() != "python",
                    reason="the hashes pin the python kernel backend")
@pytest.mark.parametrize("command", GOLDEN)
def test_outputs_match_golden_sha256(command, tmp_path):
    argv, hashes = GOLDEN[command]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in hashes}
    assert got == hashes


@pytest.mark.skipif(kernel_backend() != "python",
                    reason="the hashes pin the python kernel backend")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_batch_outputs_match_golden_at_forced_worker_count(command, workers,
                                                           monkeypatch, tmp_path):
    """A serial run and a run split over two processes write the same
    bytes as the golden run on this host's CPUs."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(bounds, "_cpu_count", lambda: workers)
    test_outputs_match_golden_sha256(command, tmp_path)
    assert len(forks) == workers - 1


# the reference solve (c0=1, lambda=0.25, p=1, w0p=0.05): step calls,
# accepted steps and events per chart
STEP_COUNTS = {
    "calls": {"A": 86, "B": 16},
    "accepted": {"A": 68, "B": 14},
    "events": {"MaxOfW": 1, "ZeroOfW": 1, "ChartSwitch": 1, "Equator": 1},
}


@pytest.mark.skipif(kernel_backend() != "python",
                    reason="the counts pin the python kernel backend")
def test_reference_solve_step_counts(monkeypatch):
    calls = Counter()

    def counted(chart, step):
        def wrapper(*args):
            calls[chart] += 1
            return step(*args)
        return wrapper

    monkeypatch.setattr(kernels, "dopri5_step_a", counted("A", kernels.dopri5_step_a))
    monkeypatch.setattr(kernels, "dopri5_step_b", counted("B", kernels.dopri5_step_b))
    traj = integrate(HelfrichParams(1.0, 0.25, 1.0), 0.05)
    got = {
        "calls": dict(calls),
        # the step nodes, as reading conts would complete every step
        "accepted": {"A": len(traj.chart_a.xs) - 1, "B": len(traj.chart_b.xs) - 1},
        "events": dict(Counter(ev.kind for ev in traj.events)),
    }
    assert got == STEP_COUNTS
