import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from helfrich import (
    HelfrichParams,
    analyze_cubic,
    bounds,
    classify,
    extract_landmarks,
    integrate,
    kernel_backend,
)

# a failing property prints the @reproduce_failure line that replays it
# elsewhere: the example database, .hypothesis/, stays with the checkout
settings.register_profile("helfrich", print_blob=True)
settings.load_profile("helfrich")

PAPER = HelfrichParams(1.0, 0.25, 1.0)
FIGURE_W0P = (0.2, 0.1, 0.05, 0.02)


def pytest_report_header(config):
    workers = bounds._worker_count(bounds._cpu_count())
    # the package's source lines, counted as ``wc -l src/helfrich/*.py`` does
    lines = sum(f.read_bytes().count(b"\n") for f in Path(bounds.__file__).parent.glob("*.py"))
    return (f"helfrich kernel backend: {kernel_backend()}; "
            f"sweep/verify worker processes: {workers}; "
            f"os.fork: {'present' if hasattr(os, 'fork') else 'missing, all serial'}; "
            f"sys.dont_write_bytecode: {sys.dont_write_bytecode}; "
            f"src/helfrich lines: {lines}")


@pytest.fixture(scope="session")
def paper_params():
    return PAPER


@pytest.fixture(scope="session")
def ref_traj():
    return integrate(PAPER, 0.05)


@pytest.fixture(scope="session")
def ref_landmarks(ref_traj):
    return extract_landmarks(ref_traj)


@pytest.fixture(scope="session")
def blowup_traj():
    # R(1) = 34.95 > 0 with c0 > 0, p > 0: monotone growth to +w_switch
    return integrate(HelfrichParams(5.0, 0.0, 0.1), 1.0)


@pytest.fixture(scope="session")
def figure_runs():
    runs = {}
    for w0p in FIGURE_W0P:
        traj = integrate(PAPER, w0p)
        lm = extract_landmarks(traj)
        runs[w0p] = (traj, lm, classify(traj, lm))
    return runs


@pytest.fixture(scope="session")
def sweep_runs():
    """16-point geometric sweep of w0p from 1e-1 down to 1e-4 at p = 1."""
    runs = []
    for w0p in np.geomspace(1e-1, 1e-4, 16):
        traj = integrate(PAPER, float(w0p))
        lm = extract_landmarks(traj)
        runs.append((float(w0p), traj, lm, classify(traj, lm)))
    return runs


@pytest.fixture(scope="session")
def random_triples():
    """20 seeded parameter triples with every root of the cubic positive."""
    rng = np.random.default_rng(20250811)
    out = []
    while len(out) < 20:
        c0 = rng.uniform(0.05, 3.0)
        lam = rng.uniform(0.01, 2.0)
        p = rng.uniform(0.1, 3.0)
        params = HelfrichParams(c0, lam, p)
        ca = analyze_cubic(params)
        assert ca.all_roots_positive  # c0, lam, p > 0 guarantees it
        w0p = 0.1 * ca.smallest_root
        traj = integrate(params, w0p)
        lm = extract_landmarks(traj)
        out.append((params, w0p, traj, lm, classify(traj, lm)))
    return out
