import math
from dataclasses import replace

import numpy as np
import pytest

from helfrich import (
    BLOWUP_POSITIVE,
    EQUATOR,
    MAX_OF_W,
    ZERO_OF_W,
    Event,
    HelfrichParams,
    SolverConfig,
    classify,
    el_residual,
    equator_identity_residual,
    eval_q,
    extract_landmarks,
    integrate,
    profile_points,
    surface_totals,
)
from helfrich import kernels
from helfrich.analysis import (
    _GL_W,
    _GL_X,
    BICONCAVE,
    INDETERMINATE,
    MULTIMODAL,
    NON_NEGATIVE_DISPLACEMENT,
)
from helfrich.errors import MissingEvent, NotBiconcave
from helfrich.export import profile_rows
from helfrich.solver import DenseSegment, Trajectory, axis_series, series_coefficient
from oracles import eta_boundedness, geometry_at, requadrature_totals

PAPER = HelfrichParams(1.0, 0.25, 1.0)


def test_landmarks_reference(ref_traj, ref_landmarks):
    lm = ref_landmarks
    assert lm.n_critical_points == 1
    assert 0 < lm.r_m < lm.r0 < lm.r_inf
    assert lm.w_max > 0 and lm.wp_r0 < 0 and lm.z_inf < 0
    assert math.isfinite(lm.z_inf)


def test_landmarks_z_continuity_across_charts(ref_traj):
    from helfrich import CHART_SWITCH
    ev = ref_traj.first_event(CHART_SWITCH)
    assert ev is not None
    # z at the switch equals the chart-B start height
    assert ev.state[2] == ref_traj.chart_b.x_start


def test_blowup_has_no_zero_landmarks(blowup_traj):
    lm = extract_landmarks(blowup_traj)
    assert lm.r0 is None and lm.r_inf is None and lm.n_critical_points is None
    with pytest.raises(MissingEvent):
        surface_totals(blowup_traj)
    with pytest.raises(MissingEvent):
        equator_identity_residual(blowup_traj)


def test_classification_cases(ref_traj, ref_landmarks, blowup_traj):
    assert classify(ref_traj, ref_landmarks).verdict == BICONCAVE
    assert classify(blowup_traj, extract_landmarks(blowup_traj)).verdict == BLOWUP_POSITIVE
    fake_multi = replace(ref_landmarks, n_critical_points=3)
    assert classify(ref_traj, fake_multi).verdict == MULTIMODAL
    fake_up = replace(ref_landmarks, z_inf=0.1)
    assert classify(ref_traj, fake_up).verdict == NON_NEGATIVE_DISPLACEMENT
    aborted = integrate(PAPER, 0.05, SolverConfig(r_max=1.0))
    assert classify(aborted, extract_landmarks(aborted)).verdict == INDETERMINATE


@pytest.mark.parametrize("max_xs, wp_r0, want", [
    ([0.5], -1.0, 1),
    ([0.5, 3.0], -1.0, 1),  # a maximum beyond r0 = 2 is not counted
    ([0.5, 1.5], -1.0, 3),
    ([0.5, 1.5], 1.0, 4),
])
def test_critical_point_count_from_events(ref_traj, max_xs, wp_r0, want):
    """w' starts positive and its sign changes alternate, so n maxima on
    (eps, r0) bring 2n - 1 sign changes when w'(r0) < 0 and 2n otherwise."""
    events = [Event(MAX_OF_W, "A", x, (0.0, 0.0, 0.0)) for x in max_xs]
    events.append(Event(ZERO_OF_W, "A", 2.0, (0.0, wp_r0, 0.0)))
    events.sort(key=lambda ev: ev.x)
    lm = extract_landmarks(replace(ref_traj, events=events))
    assert (lm.r0, lm.wp_r0, lm.n_critical_points) == (2.0, wp_r0, want)


def test_geometry_near_axis(ref_traj):
    g = geometry_at(ref_traj, r=ref_traj.chart_a.x_start / 2)
    assert math.isclose(g.kappa_m, 0.05, rel_tol=1e-6)
    assert math.isclose(g.kappa_l, 0.05, rel_tol=1e-6)
    g0 = geometry_at(ref_traj, r=0.0)
    assert g0.kappa_m == g0.kappa_l == 0.05


def test_geometry_at_zero_of_w(ref_traj, ref_landmarks):
    g = geometry_at(ref_traj, r=ref_landmarks.r0)
    assert abs(g.kappa_m) <= 1e-9
    assert g.K <= 1e-12  # zero within the event tolerance
    # negative Gaussian curvature on approach, where w > 0 but w' < 0
    g_before = geometry_at(ref_traj, r=ref_landmarks.r0 * 0.99)
    assert g_before.K < 0.0


def test_geometry_at_equator(ref_traj, ref_landmarks):
    g = geometry_at(ref_traj, z=ref_landmarks.z_inf)
    assert math.isclose(g.kappa_m, -1.0 / ref_landmarks.r_inf, rel_tol=1e-9)
    assert g.K > 0.0  # convex at the reflection plane


def test_geometry_H_appendix_form_consistency(ref_traj):
    seg = ref_traj.chart_a
    rs = np.linspace(seg.x_start, seg.x_end, 500)
    for r in rs[::25]:
        g = geometry_at(ref_traj, r=float(r))
        y = seg.eval_many(float(r))[0]
        w, wp = y[0], y[1]
        P = 1.0 + w * w
        H_graph = (wp + (w / r) * P) / (2.0 * P ** 1.5)
        assert math.isclose(g.H, H_graph, rel_tol=1e-12)
        assert g.K == g.kappa_m * g.kappa_l


def test_gauss_curvature_sign_tracks_slope_gradient(ref_traj, ref_landmarks):
    rs = np.linspace(ref_traj.chart_a.x_start, ref_landmarks.r0 * 0.999, 2001)
    Y = ref_traj.chart_a.eval_many(rs)
    w, wp = Y[:, 0], Y[:, 1]
    P = 1.0 + w * w
    K = (w / (rs * np.sqrt(P))) * (wp / P ** 1.5)
    mask = np.abs(wp) > 1e-10
    assert np.all((K[mask] > 0) == (wp[mask] > 0))


def test_el_residual_reference(ref_traj):
    assert el_residual(ref_traj) <= 1e-7


def test_el_residual_decreases_with_tolerance():
    res = {}
    for rt in (1e-8, 1e-10):
        traj = integrate(PAPER, 0.05, SolverConfig(rel_tol=rt, abs_tol=1e-13))
        res[rt] = el_residual(traj)
    assert res[1e-10] < res[1e-8]
    assert res[1e-8] <= 1e-5


def test_el_residual_linear_sensitivity(ref_traj, paper_params):
    """Perturbing w'' shifts the integrand linearly."""
    seg = ref_traj.chart_a
    r = float(0.5 * (seg.x_start + seg.x_end))
    y = seg.eval_many(r)[0]
    d = seg.deriv_many(r)[0]
    w, wp, wpp = y[0], y[1], d[1]
    c0, lam, p = paper_params.c0, paper_params.lam, paper_params.p
    P = 1.0 + w * w

    def terms(wpp_val):
        return np.array([
            -2.0 * r * wpp_val / P ** 2.5,
            5.0 * r * w * wp * wp / P ** 3.5,
            -2.0 * wp / P ** 2.5,
            (2.0 * w + w ** 3) / (r * P ** 1.5),
            2.0 * c0 * w * w / P,
            (c0 ** 2 + lam) * r * w / np.sqrt(P),
            -0.5 * p * r * r,
        ])

    base = terms(wpp)
    pert = terms(wpp + 1e-3)
    shift = abs(pert.sum() - base.sum())
    expected = 2.0 * r * 1e-3 / P ** 2.5
    assert math.isclose(shift, expected, rel_tol=1e-9)


def test_equator_identity_reference(ref_traj):
    resid = equator_identity_residual(ref_traj)
    assert resid <= 1e-4


def test_equator_identity_shrinks_with_tolerance():
    res = []
    for rt in (1e-8, 1e-10, 1e-12):
        traj = integrate(PAPER, 0.05, SolverConfig(rel_tol=rt, abs_tol=1e-14))
        res.append(equator_identity_residual(traj))
    assert res[0] > res[1] > res[2]


def test_equator_identity_value_positive(ref_traj, ref_landmarks, paper_params):
    # the identity's right side must be a positive number (it equals K^2)
    rhs = (-1.0 / ref_landmarks.r_inf) * eval_q(-1.0 / ref_landmarks.r_inf,
                                                paper_params)
    assert rhs > 0.0


def test_eta_report(ref_traj):
    rep = eta_boundedness(ref_traj)
    assert not rep.diverging
    assert math.isfinite(rep.sup_eta)
    assert abs(rep.eta_times_up_limit) <= 1e-4


def test_eta_sup_stable_under_tolerance():
    sups = []
    for rt in (1e-8, 1e-10):
        traj = integrate(PAPER, 0.05, SolverConfig(rel_tol=rt, abs_tol=1e-13))
        sups.append(eta_boundedness(traj).sup_eta)
    assert abs(sups[0] - sups[1]) <= 0.1 * abs(sups[1])


@pytest.mark.parametrize("c0, lam, p, w0p", [
    (1.0, 0.25, 1.0, 0.05), (1.0, 0.25, 1.0, 0.2), (-1.5, 0.5, 3.0, 0.01),
    (2.5, 1.5, 0.2, 1e-3)])
def test_eta_sup_converges_with_tolerance(c0, lam, p, w0p):
    """eta = B/s near the equator divides the dense output's defect in B
    by s, about 1e-7 at the last sample.  With chart-B stages kept clear of
    the equator's 1/s pole the defect follows the tolerance: sup |eta| at
    rel_tol 1e-8 to 1e-10 is within 3% of its value at 1e-12 (steps that
    put a stage next to the pole read up to 40 times that value)."""
    params = HelfrichParams(c0, lam, p)
    ref = eta_boundedness(integrate(params, w0p, SolverConfig(rel_tol=1e-12,
                                                              abs_tol=1e-14))).sup_eta
    for rt in (1e-8, 1e-9, 1e-10):
        traj = integrate(params, w0p, SolverConfig(rel_tol=rt, abs_tol=1e-13))
        assert eta_boundedness(traj).sup_eta == pytest.approx(ref, rel=0.03), rt


def test_blowdown_growth_ratio_finite(ref_traj):
    """w'^2 / (|w| (1+w^2)^(5/2)) approaches u''(z_inf)^2 at the equator."""
    ev = ref_traj.first_event(EQUATOR)
    q_eq = ev.state[2]
    zs = np.linspace(ref_traj.chart_b.x_start, ref_traj.chart_b.x_end, 2001)
    Y = ref_traj.chart_b.eval_many(zs)
    s, q = Y[:, 1], Y[:, 2]
    P = s * s + 1.0
    ratio = q * q / P ** 2.5
    assert np.all(np.isfinite(ratio))
    assert math.isclose(ratio[-1], q_eq ** 2, rel_tol=1e-6)


def test_surface_totals_positive(ref_traj):
    tot = surface_totals(ref_traj)
    assert tot.area > 0 and tot.volume > 0


def test_requadrature_oracle(ref_traj):
    tot = surface_totals(ref_traj)
    req = requadrature_totals(ref_traj)
    assert abs(tot.area - req.area) / tot.area <= 1e-7
    assert abs(tot.volume - req.volume) / tot.volume <= 1e-8
    assert abs(tot.helfrich_energy - req.helfrich_energy) / abs(
        tot.helfrich_energy) <= 1e-7


@pytest.mark.parametrize("c0, lam, p, w0p", [
    (1.0, 0.25, 1.0, 0.2), (-1.5, 0.5, 3.0, 0.01), (2.5, 1.5, 0.2, 1e-3)])
def test_surface_totals_match_requadrature(c0, lam, p, w0p):
    """The Gauss-Legendre totals agree with the trapezoid re-quadrature of
    the dense output away from the reference point as well."""
    traj = integrate(HelfrichParams(c0, lam, p), w0p)
    tot = surface_totals(traj)
    req = requadrature_totals(traj)
    for got, want in zip(vars(tot).values(), vars(req).values()):
        assert got == pytest.approx(want, rel=1e-7, abs=0.0)


def _linear_segment(xs, x_end, lead, slope, rest):
    """A dense segment whose component 0 is ``lead + slope (x - xs[0])``
    and whose other two are the constants ``rest``, written as the
    interpolant rows y and F0 of each step."""
    xs = np.asarray(xs, dtype=float)
    conts = np.zeros((len(xs) - 1, kernels.NROWS, kernels.NSTATE))
    conts[:, 0, 0] = lead + slope * (xs[:-1] - xs[0])
    conts[:, 0, 1:] = rest
    conts[:, 1, 0] = slope * np.diff(xs)
    return DenseSegment(xs, conts, x_end)


def test_surface_totals_gauss_legendre_exact_with_cut_last_step():
    """On polynomial interpolants the volume densities r^2 w (w = a r on
    chart A) and u^2 (u linear in z on chart B) have degree 3 and 2, which
    the 5-point rule integrates exactly; the last step of each chart counts
    only up to x_end, so a step integrated past its cut fails the test."""
    params, w0p, eps, a = HelfrichParams(1.0, 0.25, 1.0), 0.05, 1e-3, 0.4
    seg_a = _linear_segment([eps, 0.5, 1.2, 2.0], 1.7, a * eps, a, [a, 0.0])
    u0, b = 2.0, -0.5
    seg_b = _linear_segment([-0.5, -0.8, -1.2], -1.0, u0, b, [b, 0.0])
    events = [Event(EQUATOR, "B", -1.0, (u0 + b * (-0.5), b, 0.0))]
    traj = Trajectory(params, w0p, SolverConfig(), seg_a, seg_b, events)

    a3 = series_coefficient(params, w0p)
    vol_series = axis_series(params, w0p, a3, eps)[4]
    vol_a = a * (1.7 ** 4 - eps ** 4) / 4.0
    vol_b = ((u0 + b * (-1.0 + 0.5)) ** 3 - u0 ** 3) / (3.0 * b)
    want = -2.0 * math.pi * (vol_series + vol_a + vol_b)
    assert surface_totals(traj).volume == pytest.approx(want, rel=1e-14, abs=0.0)


def test_gauss_legendre_literals_equal_numpy_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert [v.hex() for v in _GL_X] == [v.hex() for v in nodes.tolist()]
    assert [v.hex() for v in _GL_W] == [v.hex() for v in weights.tolist()]


def _scalar_curvatures(r, w, wp):
    P = 1.0 + w * w
    sq = math.sqrt(P)
    return w / (r * sq), wp / (P * sq)


def test_profile_rows_equal_scalar_formulas(figure_runs):
    """Array profile rows equal a row-by-row evaluation in Python floats,
    bit for bit, so profile.csv does not depend on numpy's vector math."""
    traj = figure_runs[0.2][0]  # a run where numpy's power differs from libm
    rows = profile_rows(traj).tolist()
    n_a = 1024
    for i, (r, z, w, km, kl, H, K) in enumerate(rows[1:]):
        if i < n_a:
            y = traj.chart_a.eval_many(r)[0].tolist()
            want = _scalar_curvatures(r, y[0], y[1])
            assert (z, w) == (y[2], y[0])
        else:
            u, s, q = traj.chart_b.eval_many(z)[0].tolist()[:3]
            if abs(s) > 1e-6:
                want = _scalar_curvatures(u, 1.0 / s, -q / s ** 3)
            else:
                P = s * s + 1.0
                want = (-1.0 / (u * math.sqrt(P)), q / (P * math.sqrt(P)))
            assert r == u
        assert (km, kl, H, K) == (*want, 0.5 * (want[0] + want[1]), want[0] * want[1])


def test_profile_shape(ref_traj, ref_landmarks):
    pts = profile_points(ref_traj, classify(ref_traj, ref_landmarks))
    x, y = pts[:, 0], pts[:, 1]
    # closed curve through the four seam points
    assert np.allclose(pts[0], pts[-1])
    assert math.isclose(y[0], -ref_landmarks.z_inf, rel_tol=1e-12)
    # equator touch-down: Z(r_inf) = 0 on the seam
    i = int(np.argmax(x))
    assert math.isclose(x[i], ref_landmarks.r_inf, rel_tol=1e-9)
    assert abs(y[i]) <= 1e-12
    # dimple: center sits below the hump over r_M
    quarter = pts[: len(pts) // 4]
    zq = np.interp(ref_landmarks.r_m, quarter[:, 0], quarter[:, 1])
    assert y[0] < zq
    # mirror symmetries
    sym_x = np.stack([x, -y], axis=1)
    sym_y = np.stack([-x, y], axis=1)
    pset = {(round(a, 10), round(b, 10)) for a, b in pts}
    assert all((round(a, 10), round(b, 10)) in pset for a, b in sym_x)
    assert all((round(a, 10), round(b, 10)) in pset for a, b in sym_y)


def test_profile_rejects_non_biconcave(blowup_traj):
    cls = classify(blowup_traj, extract_landmarks(blowup_traj))
    with pytest.raises(NotBiconcave):
        profile_points(blowup_traj, cls)


def test_critical_point_count_stable_under_tolerance():
    """C1 counting is identical at relTol 1e-8 and 1e-10 on a 20-point grid."""
    grid = np.geomspace(0.2, 1e-3, 20)
    for w0p in grid:
        counts = []
        for rt in (1e-8, 1e-10):
            traj = integrate(PAPER, float(w0p),
                             SolverConfig(rel_tol=rt, abs_tol=1e-12))
            counts.append(extract_landmarks(traj).n_critical_points)
        assert counts[0] == counts[1] == 1
