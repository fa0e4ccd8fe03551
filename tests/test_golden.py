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
        {"phase.csv": "d56da149e489632400fd9e867b421244a7428bb38350596bce5033b0de6c64db"},
    ),
    "verify": (
        ["verify", *PAPER_FLAGS, "--sweep-points", "16", "--sweep-min", "1e-4"],
        {"bounds_report.json":
            "136f3e194357739ace62f7a18f2a7fa93e8ddea2d152fde906d331f32094fa19"},
    ),
    "solve": (
        ["solve", *PAPER_FLAGS, "--w0p", "0.05", "--format", "csv,json,svg,obj"],
        {
            "profile.csv": "7a1705143eec2660d65445aa9b03734da47acce2b295cab9fb4b0e52edc7ba7a",
            "report.json": "d7e8ce8187e4042003e2932b2870a240bb69931e50f39705a4a151d1a586b484",
            "profile.svg": "2264d83ea3144ce0bf5ec0c57f196ae25681ded6d80f2ae5d4a831ad5c316da0",
            "mesh.obj": "39164e149bcd42f01e5be94d020084d2c730c0fd34685ae81e87d6feb60d4d45",
        },
    ),
    "mesh": (
        ["mesh", *PAPER_FLAGS, "--w0p", "0.05",
         "--segments-theta", "7", "--segments-profile", "9"],
        {"mesh.obj": "93c893789e233c35af3814d7a4bf2cbfe527af507690a1497c8b7f82ba74a547"},
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
        "accepted": len(traj.chart_a.xs) - 1,
        "events": dict(Counter(ev.kind for ev in traj.events)),
    }
    assert got == STEP_COUNTS
