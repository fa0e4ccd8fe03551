"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared expensive runs come from session fixtures in conftest (the figure
parameter set, the 16-point small-slope sweep, and 20 seeded triples).
"""

import math

import numpy as np

from helfrich import (
    HelfrichParams,
    SolverConfig,
    check_single,
    classify,
    derived_constants,
    equator_identity_residual,
    el_residual,
    eval_q,
    extract_landmarks,
    integrate,
    profile_points,
    surface_totals,
)
from helfrich import cli
from helfrich.analysis import BICONCAVE
from helfrich.solver import axis_coefficients, axis_series
from conftest import FIGURE_W0P, PAPER
from oracles import (
    find_crossing,
    kappa_derivs,
    profile_quadrature_totals,
    requadrature_totals,
    rhs_graph_arr,
    sample_extrema_oracle,
    series_residual,
)
from scipy.integrate import solve_ivp


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_figure_reproduction(figure_runs, tmp_path):
    ok = True
    for w0p, (traj, lm, cls) in figure_runs.items():
        ok &= cls.verdict == BICONCAVE
        code = cli.main(["plot", "--c0", "1", "--lambda", "0.25", "--p", "1",
                         "--w0p", str(w0p), "--out", str(tmp_path / str(w0p))])
        ok &= code == 0 and (tmp_path / str(w0p) / "profile.svg").exists()
        pts = profile_points(traj, cls)
        ok &= bool(np.allclose(pts[0], pts[-1]))  # closed curve
        # two dimples: the axis points sit strictly below the humps
        quarter = pts[: len(pts) // 4]
        z_at_rm = np.interp(lm.r_m, quarter[:, 0], quarter[:, 1])
        ok &= pts[0, 1] < z_at_rm
    _report(1, "figure parameters reproduce biconcave cross-sections "
               f"(w0p in {sorted(figure_runs)})", ok)


def test_criterion_02_main_theorem_spot_grid(random_triples):
    n_biconcave = sum(cls.verdict == BICONCAVE for _, _, _, _, cls in random_triples)
    ok = n_biconcave >= 19
    for params, w0p, traj, lm, cls in random_triples:
        if cls.verdict != BICONCAVE:
            retry = integrate(params, w0p / 10.0)
            verdict = classify(retry, extract_landmarks(retry)).verdict
            ok &= verdict == BICONCAVE  # failure at w0p/10 is an anomaly
    _report(2, f"main-theorem spot grid: {n_biconcave}/20 biconcave, "
               "no anomalies at reduced slope", ok)


def test_criterion_03_first_zero_bounds(figure_runs, random_triples):
    ok = True
    worst_r0, worst_wp = math.inf, math.inf
    runs = [(PAPER, w0p, traj, lm) for w0p, (traj, lm, cls) in figure_runs.items()
            if cls.verdict == BICONCAVE]
    runs += [(params, w0p, traj, lm)
             for params, w0p, traj, lm, cls in random_triples
             if cls.verdict == BICONCAVE]
    for params, w0p, traj, lm in runs:
        recs = {rec.check_id: rec for rec in check_single(traj, lm).records}
        for cid in ("R0Upper", "WpR0Upper"):
            rec = recs[cid]
            ok &= rec.status == "Pass"
        worst_r0 = min(worst_r0, recs["R0Upper"].margin)
        worst_wp = min(worst_wp, recs["WpR0Upper"].margin)
    _report(3, f"first-zero bounds on {len(runs)} runs "
               f"(min margins: r0 {worst_r0:.3g}, slope {worst_wp:.3g})", ok)


def test_criterion_04_small_slope_asymptotics(sweep_runs):
    ok = True
    for w0p, traj, lm, cls in sweep_runs:
        ok &= cls.verdict == BICONCAVE
        if w0p <= 1e-2:
            ok &= lm.r_m ** 2 / w0p >= (32.0 / 3.0) * 0.9
            ok &= lm.r0 ** 2 / w0p <= 32.0 * 1.1
            ok &= -2.2 <= lm.wp_r0 / w0p <= -0.60
    two_smallest = sorted(sweep_runs)[:2]
    for w0p, traj, lm, cls in two_smallest:
        ok &= lm.z_r0 / w0p ** 2 <= 8.8
    _report(4, "small-slope ratio bands hold on the 16-point sweep "
               "(r_M^2, r0^2, slope, positive area)", ok)


def test_criterion_05_blowdown_bounds(figure_runs, sweep_runs):
    ok = True
    runs = [(PAPER, w0p, traj, lm) for w0p, (traj, lm, cls) in figure_runs.items()
            if cls.verdict == BICONCAVE]
    runs += [(PAPER, w0p, traj, lm) for w0p, traj, lm, cls in sweep_runs
             if cls.verdict == BICONCAVE]
    for params, w0p, traj, lm in runs:
        dc = derived_constants(params, w0p)
        B = math.sqrt(dc.delta * lm.r0 ** 2 * abs(lm.wp_r0))
        x = lm.r_inf - lm.r0
        ok &= x <= math.pi / (2.0 * B) + 1e-8
        int_neg = lm.z_r0 - lm.z_inf
        ok &= int_neg >= 0.5 * B * x * x - 1e-8
    _report(5, f"equator-distance and negative-area bounds on {len(runs)} runs", ok)


def test_criterion_06_negative_displacement(sweep_runs):
    ok = True
    for w0p, traj, lm, cls in sweep_runs:
        if w0p <= 1e-2:
            ok &= lm.z_inf is not None and lm.z_inf < 0.0
    _report(6, "z_inf < 0 on every sweep run with w0p <= 1e-2", ok)


def test_criterion_07_equator_identity(figure_runs):
    ok = True
    details = []
    for w0p in FIGURE_W0P:
        res = []
        for rt in (1e-10, 1e-12):
            traj = integrate(PAPER, w0p, SolverConfig(rel_tol=rt, abs_tol=1e-14))
            res.append(equator_identity_residual(traj))
        ok &= res[0] <= 1e-4
        ok &= res[1] < res[0]  # decreases as the tolerance tightens to 1e-12
        details.append(f"{w0p}: {res[0]:.1e}->{res[1]:.1e}")
    _report(7, "equator curvature identity (" + ", ".join(details) + ")", ok)


def _graph_form_at(params, w0p, eps, w, w_end):
    """(r, z) where w first falls through ``w``, by scipy's DOP853 on the
    graph form w(r) from the axis series at r = eps, to w = -w_end."""
    def at_w(r, y):
        return y[0] - w

    def end(r, y):
        return y[0] + w_end

    at_w.direction = end.direction = -1.0
    end.terminal = True
    sol = solve_ivp(lambda r, y: rhs_graph_arr(r, y, params.c0, params.lam, params.p),
                    (eps, 1e3), axis_series(axis_coefficients(params, w0p), eps),
                    method="DOP853", rtol=1e-13, atol=1e-15, events=(at_w, end))
    assert sol.status == 1, sol.message
    return sol.t_events[0][0], sol.y_events[0][0][2]


def test_criterion_08_numerical_integrity(figure_runs, paper_params):
    ok = True
    # overlap of two formulations at w = -15: the point of the arc-length
    # run where psi = -atan 15, and scipy's DOP853 on the graph form w(r)
    full = integrate(paper_params, 0.05)
    y15 = full.eval_many(find_crossing(full, 2, -math.atan(15.0)))[0]
    r_at, z_at = _graph_form_at(paper_params, 0.05, full.x_start, -15.0, 20.0)
    overlap = max(abs(y15[0] - r_at) / r_at, abs(y15[1] - z_at) / max(1e-3, abs(z_at)))
    ok &= overlap <= 1e-8

    residuals = [el_residual(traj) for traj, _, _ in figure_runs.values()]
    ok &= max(residuals) <= 1e-6

    eps = np.array([1e-3, 1e-4, 1e-5])
    res3 = [series_residual(paper_params, 0.1, e, True) for e in eps]
    slope = np.polyfit(np.log10(eps), np.log10(res3), 1)[0]
    ok &= slope >= 2.5

    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.05, 3.0)
        w = rng.uniform(-4.0, 4.0)
        wp = rng.uniform(-4.0, 4.0)
        wpp = rhs_graph_arr(r, (w, wp, 0.0), paper_params.c0, paper_params.lam,
                              paper_params.p)[1]
        k, kp, kpp = kappa_derivs(r, w, wp, wpp)
        denom = 1.0 - r * r * k * k
        terms = np.array([-r * k * (r * kp + k) ** 2 / (2 * denom), -3.0 * kp,
                          r * eval_q(k, paper_params) / (2 * denom)])
        worst = max(worst, abs(r * kpp - terms.sum())
                    / max(1.0, np.abs(terms).max(), abs(r * kpp)))
    ok &= worst <= 1e-9
    _report(8, f"overlap {overlap:.1e}, el-residual {max(residuals):.1e}, "
               f"series slope {slope:.2f}, curvature-form defect {worst:.1e}", ok)


def test_criterion_09_oracle_equivalence(ref_traj):
    ok = True
    rng = np.random.default_rng(9)
    for _ in range(10):
        params = HelfrichParams(rng.uniform(0.05, 3), rng.uniform(0.01, 2),
                                rng.uniform(0.1, 3))
        w0p = rng.uniform(1e-3, 1.0)
        dc = derived_constants(params, w0p)
        mu_s, dp_s, dm_s = sample_extrema_oracle(params, w0p)
        ok &= abs(dc.mu - mu_s) <= 1e-6
        ok &= abs(dc.delta_plus - dp_s) <= 1e-6
        ok &= abs(dc.delta_minus - dm_s) <= 1e-6

    tot = surface_totals(ref_traj)
    req = requadrature_totals(ref_traj)
    ok &= abs(tot.area - req.area) / tot.area <= 1e-7
    ok &= abs(tot.volume - req.volume) / tot.volume <= 1e-7
    ok &= abs(tot.helfrich_energy - req.helfrich_energy) / abs(tot.helfrich_energy) <= 1e-7

    phi = np.linspace(0.0, np.pi / 2, 20001)
    area, volume = profile_quadrature_totals(np.sin(phi), np.cos(phi))
    ok &= abs(area - 4 * np.pi) / (4 * np.pi) <= 1e-6
    ok &= abs(volume - 4 * np.pi / 3) / (4 * np.pi / 3) <= 1e-6
    _report(9, "extrema sampling, re-quadrature, and sphere oracles agree", ok)


def test_criterion_10_determinism(tmp_path):
    flags = ["--c0", "1", "--lambda", "0.25", "--p", "1"]
    solve = flags + ["--w0p", "0.05", "--format", "csv,json,svg,obj"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", *solve, "--out", str(a)]) == 0
    assert cli.main(["solve", *solve, "--out", str(b)]) == 0
    ok = True
    for name in ("profile.csv", "report.json", "profile.svg", "mesh.obj"):
        ok &= (a / name).read_bytes() == (b / name).read_bytes()
    va, vb = tmp_path / "va", tmp_path / "vb"
    vflags = flags + ["--sweep-points", "4", "--sweep-min", "1e-2"]
    assert cli.main(["verify", *vflags, "--out", str(va)]) == 0
    assert cli.main(["verify", *vflags, "--out", str(vb)]) == 0
    ok &= (va / "bounds_report.json").read_bytes() == (vb / "bounds_report.json").read_bytes()
    _report(10, "repeated solve and verify runs are byte-identical", ok)
