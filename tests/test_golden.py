"""Golden outputs: the sha256 of each file that five reference commands
write, the step and event counts of the reference solve, and the step
completions of three of the commands.

A change that keeps the arithmetic keeps these bytes, so a speed-up or a
refactor that alters any output fails here.  The hashes pin this
platform's libm (the last bit of ``pow``, ``sqrt`` and the ``%.17g``
formatting all reach the files) and the python kernel backend; a
numba-compiled step may round differently and is not pinned.  A change
that alters an output on purpose updates the hash here and states the
old and the new value.  A change to the step sequence shows first in the
counts, which say how the run differs where a hash only says that it does;
a change to which steps a command completes shows in its completion count.
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
        {"phase.csv": "d56da149e489632400fd9e867b421244a7428bb38350596bce5033b0de6c64db"},
    ),
    "verify": (
        ["verify", *PAPER_FLAGS, "--sweep-points", "16", "--sweep-min", "1e-4"],
        {"bounds_report.json":
            "e2a02ad285671a3d35ed5ebf1b84203630e0462761d03b7f8cbccc7a63ed8ba6"},
    ),
    "solve": (
        ["solve", *PAPER_FLAGS, "--w0p", "0.05", "--format", "csv,json,svg,obj"],
        {
            "profile.csv": "774dc9b5f5a6ab3c28777da7bb161bc6a83b0102e3bd4bbac8841dc8a07b0688",
            "report.json": "fbc8788caec5686caa19228361d9145d78f3f934466bf528dee65758eedccce0",
            "profile.svg": "80b3cea18737162f8036bc08c519a908d564ebe620741526d2e9714f2c4872a3",
            "mesh.obj": "c6b1b6cac52d6e1eaf83dbf057244d6a8011f8876e5d9417c452f9e50c3f6704",
        },
    ),
    "mesh": (
        ["mesh", *PAPER_FLAGS, "--w0p", "0.05",
         "--segments-theta", "7", "--segments-profile", "9"],
        {"mesh.obj": "fe2b036add730cbcc6a80091d09bfd6b59d7eb62a949254f1fd2bd8409d6acd3"},
    ),
    "plot": (
        ["plot", *PAPER_FLAGS, "--w0p", "0.05"],
        {"profile.svg": "80b3cea18737162f8036bc08c519a908d564ebe620741526d2e9714f2c4872a3"},
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
# accepted steps and events
STEP_COUNTS = {
    "calls": 34,
    "accepted": 33,
    "events": {"MaxOfW": 1, "ZeroOfW": 1, "Steep": 1, "Equator": 1},
}


@pytest.mark.skipif(kernel_backend() != "python",
                    reason="the counts pin the python kernel backend")
def test_reference_solve_step_counts(monkeypatch):
    calls = Counter()

    def counted(*args, _step=kernels.dopri5_step_a):
        calls["step"] += 1
        return _step(*args)

    monkeypatch.setattr(kernels, "dopri5_step_a", counted)
    traj = integrate(HelfrichParams(1.0, 0.25, 1.0), 0.05)
    got = {
        "calls": calls["step"],
        # the step nodes, as reading conts would complete every step
        "accepted": len(traj.xs) - 1,
        "events": dict(Counter(ev.kind for ev in traj.events)),
    }
    assert got == STEP_COUNTS


# the step completions (``kernels.dense_a`` calls) of the golden solve,
# verify and sweep commands in one process: the event steps each run
# bisects, and the steps its readers complete
COMPLETION_COUNTS = {"solve": 34, "verify": 329, "sweep": 136}


@pytest.mark.skipif(kernel_backend() != "python",
                    reason="the counts pin the python kernel backend")
@pytest.mark.parametrize("command", COMPLETION_COUNTS)
def test_golden_command_completion_counts(command, monkeypatch, tmp_path):
    calls = Counter()

    def counted(*args, _dense=kernels.dense_a):
        calls["dense"] += 1
        return _dense(*args)

    monkeypatch.setattr(kernels, "dense_a", counted)
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 1)
    assert cli.main([*GOLDEN[command][0], "--out", str(tmp_path)]) == 0
    assert calls["dense"] == COMPLETION_COUNTS[command]
