"""The solver against independent integrators.

scipy's ``solve_ivp`` with its own DOP853, step-size control and event
location, at tolerances far tighter than the package's, integrates two
other texts of the shape equation from the same series start: the
arc-length form the package integrates (``oracles.arc_oracle``, written
apart from ``kernels``), and the graph form w(r), a formulation the
package no longer uses (``oracles.rhs_graph_arr``).  The landmarks must
agree to 1e-8 relative, and the events by kind must be the same; over a
seeded draw of the sweep region the events by kind and the verdicts must
be the same.
"""

import math
from array import array
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helfrich import HelfrichParams, SolverConfig, classify, extract_landmarks, integrate, kernels
from helfrich.solver import BLOWUP_POSITIVE, Event, Trajectory, axis_coefficients, axis_series
from oracles import arc_oracle, rhs_graph_arr

# (c0, lambda, p, w0p): the reference point, an oscillating cell with ten
# maxima of w, two cells of the fuzz set, a large-p cell and a small-slope
# point of a verify grid, whose series start lies closest to the axis
CELLS = [
    (1.0, 0.25, 1.0, 0.05),
    (0.491, -0.92, 0.01997, 0.2722),
    (-0.279, -2.396, 0.0403, 0.0189),
    (0.2328, 0.3617, 0.2241, 0.1475),
    (2.0, 1.0, 5.0, 1e-3),
    (-1.924297712971017, -0.9211122702013553, 1.8286734499794792, 1e-4),
]


def _scipy_r0(params, w0p, eps, r_max, w_switch):
    """r0 and w'(r0) at the first downward zero of w, by scipy's DOP853 on
    the graph form w(r)."""
    def zero_of_w(r, y):
        return y[0]

    def steep(r, y):
        return y[0] + w_switch

    zero_of_w.direction = -1.0
    steep.direction = -1.0
    steep.terminal = True
    sol = solve_ivp(lambda r, y: rhs_graph_arr(r, y, params.c0, params.lam, params.p),
                    (eps, r_max), axis_series(axis_coefficients(params, w0p), eps),
                    method="DOP853", rtol=1e-13, atol=1e-15, events=(zero_of_w, steep))
    assert sol.status in (0, 1), sol.message
    return sol.t_events[0][0], sol.y_events[0][0][1]


@pytest.mark.parametrize("c0, lam, p, w0p", CELLS)
def test_r0_and_slope_match_scipy_dop853(c0, lam, p, w0p):
    params = HelfrichParams(c0, lam, p)
    traj = integrate(params, w0p)
    lm = extract_landmarks(traj)
    cfg = SolverConfig()
    r0, wp_r0 = _scipy_r0(params, w0p, traj.x_start,
                          1e3 * math.sqrt(w0p / p + 1.0), cfg.w_switch)
    assert np.isfinite(r0) and np.isfinite(wp_r0)
    assert lm.r0 == pytest.approx(r0, rel=1e-9, abs=0.0)
    assert lm.wp_r0 == pytest.approx(wp_r0, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("c0, lam, p, w0p", CELLS)
def test_landmarks_and_events_match_the_arc_length_oracle(c0, lam, p, w0p):
    """r0, w'(r0), r_inf and z_inf agree with scipy's run to 1e-8 relative,
    and the runs end alike with the same events by kind."""
    params = HelfrichParams(c0, lam, p)
    traj = integrate(params, w0p)
    lm = extract_landmarks(traj)
    status, events = arc_oracle(params, w0p, traj.x_start)
    assert traj.status == status
    assert Counter(ev.kind for ev in traj.events) == {k: len(v) for k, v in events.items()}
    r0, _, psi, dpsi, _ = events["ZeroOfW"][0]
    r_inf, z_inf = events["Equator"][0][:2]
    want = (r0, dpsi / math.cos(psi) ** 3, r_inf, z_inf)
    got = (lm.r0, lm.wp_r0, lm.r_inf, lm.z_inf)
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)


def _sweep_cells(n, seed):
    """n cells (c0, lambda, p, w0p) drawn uniformly from the sweep region:
    c0 in [-2, 3], lambda in [-1, 2], p in 10^[-1, 1], w0p in 10^[-4, 0]."""
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(-2.0, 3.0)), float(rng.uniform(-1.0, 2.0)),
             float(10.0 ** rng.uniform(-1.0, 1.0)), float(10.0 ** rng.uniform(-4.0, 0.0)))
            for _ in range(n)]


def test_verdicts_over_a_seeded_sweep_match_the_arc_length_oracle():
    """On 48 cells of the sweep region, ``classify`` gives the package's run
    and scipy's run the same verdict, and the runs have the same events by
    kind.  r rises along a run up to its terminal event (r' = cos psi > 0),
    so the oracle's event radii order its events as their arc lengths do."""
    verdicts = []
    for c0, lam, p, w0p in _sweep_cells(48, 2026):
        params = HelfrichParams(c0, lam, p)
        traj = integrate(params, w0p)
        got = classify(traj, extract_landmarks(traj)).verdict
        status, found = arc_oracle(params, w0p, traj.x_start)
        events = sorted((Event(kind, y[0], y) for kind, ys in found.items() for y in ys),
                        key=lambda ev: ev.x)
        # one zero-length step: the verdict reads the events alone
        oracle = Trajectory(params, w0p, SolverConfig(), [traj.x_start] * 2,
                            array("d", [0.0] * kernels.NREC), events)
        assert oracle.status == status
        cell = (c0, lam, p, w0p)
        assert got == classify(oracle, extract_landmarks(oracle)).verdict, cell
        assert Counter(ev.kind for ev in traj.events) == {
            kind: len(ys) for kind, ys in found.items()}, cell
        verdicts.append(got)
    assert BLOWUP_POSITIVE in verdicts
