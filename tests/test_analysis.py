import math

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
from helfrich.solver import Trajectory
from oracles import eta_boundedness, geometry_at, graph_at, requadrature_totals

PAPER = HelfrichParams(1.0, 0.25, 1.0)


def test_landmarks_reference(ref_traj, ref_landmarks):
    lm = ref_landmarks
    assert lm.n_critical_points == 1
    assert 0 < lm.r_m < lm.r0 < lm.r_inf
    assert lm.w_max > 0 and lm.wp_r0 < 0 and lm.z_inf < 0
    assert math.isfinite(lm.z_inf)


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
    fake_multi = ref_landmarks._replace(n_critical_points=3)
    assert classify(ref_traj, fake_multi).verdict == MULTIMODAL
    fake_up = ref_landmarks._replace(z_inf=0.1)
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
    events = [Event(MAX_OF_W, x, (x, 0.0, 0.0, 0.0, 0.0)) for x in max_xs]
    events.append(Event(ZERO_OF_W, 2.0, (2.0, 0.0, 0.0, wp_r0, 0.0)))
    events.sort(key=lambda ev: ev.x)
    # one zero-length step: the landmarks read the events alone
    lm = extract_landmarks(Trajectory(ref_traj.params, ref_traj.w0p, ref_traj.cfg,
                                      [ref_traj.x_start] * 2, [0.0] * kernels.NREC, events,
                                      ref_traj.axis_coeffs))
    assert (lm.r0, lm.wp_r0, lm.n_critical_points) == (2.0, wp_r0, want)


def test_geometry_near_axis(ref_traj):
    s = 5e-6  # inside the axis series, which the run starts from, at r = s
    assert s < ref_traj.x_start
    g = geometry_at(ref_traj, s)
    assert g.r == s
    assert math.isclose(g.kappa_m, 0.05, rel_tol=1e-6)
    assert math.isclose(g.kappa_l, 0.05, rel_tol=1e-6)
    g0 = geometry_at(ref_traj, 0.0)
    assert g0.kappa_m == g0.kappa_l == 0.05


def test_geometry_at_zero_of_w(ref_traj, ref_landmarks):
    s0 = ref_traj.first_event(ZERO_OF_W).x
    g = geometry_at(ref_traj, s0)
    assert math.isclose(g.r, ref_landmarks.r0, rel_tol=1e-12)
    assert abs(g.kappa_m) <= 1e-9
    assert g.K <= 1e-12  # zero within the event tolerance
    # negative Gaussian curvature on approach, where w > 0 but w' < 0
    g_before = geometry_at(ref_traj, s0 * 0.99)
    assert g_before.K < 0.0


def test_geometry_at_equator(ref_traj, ref_landmarks):
    g = geometry_at(ref_traj, ref_traj.first_event(EQUATOR).x)
    assert math.isclose(g.z, ref_landmarks.z_inf, rel_tol=1e-12)
    assert math.isclose(g.r, ref_landmarks.r_inf, rel_tol=1e-12)
    assert math.isclose(g.kappa_m, -1.0 / ref_landmarks.r_inf, rel_tol=1e-9)
    assert g.K > 0.0  # convex at the reflection plane


def test_geometry_H_appendix_form_consistency(ref_traj):
    """H from the arc-length state, (sin psi / r + psi') / 2, is the graph
    form's (w' + (w / r) (1 + w^2)) / (2 (1 + w^2)^(3/2))."""
    ss = np.linspace(ref_traj.x_start, ref_traj.switch.x, 500)
    for s in ss[::25]:
        g = geometry_at(ref_traj, float(s))
        (r,), (w,), (wp,) = graph_at(ref_traj, float(s))
        P = 1.0 + w * w
        H_graph = (wp + (w / r) * P) / (2.0 * P ** 1.5)
        assert math.isclose(g.H, H_graph, rel_tol=1e-12)
        assert g.K == g.kappa_m * g.kappa_l


def test_gauss_curvature_sign_tracks_slope_gradient(ref_traj):
    s0 = ref_traj.first_event(ZERO_OF_W).x
    rs, w, wp = graph_at(ref_traj, np.linspace(ref_traj.x_start, s0 * 0.999, 2001))
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
    s = 0.5 * (ref_traj.x_start + ref_traj.switch.x)
    (r,), (w,), (wp,), (wpp,) = graph_at(ref_traj, s, deriv=True)
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
    """eta = B / cos psi near the equator, B = H - gamma cos psi, divides
    the dense output's drift in the first integral H by cos psi, which
    falls like z - z_inf, so by about 1e7 at the last sample.  The error
    follows the tolerance: sup |eta| at rel_tol 1e-8 to 1e-10 is within 3%
    of its value at 1e-12."""
    params = HelfrichParams(c0, lam, p)
    ref = eta_boundedness(integrate(params, w0p, SolverConfig(rel_tol=1e-12,
                                                              abs_tol=1e-14))).sup_eta
    for rt in (1e-8, 1e-9, 1e-10):
        traj = integrate(params, w0p, SolverConfig(rel_tol=rt, abs_tol=1e-13))
        assert eta_boundedness(traj).sup_eta == pytest.approx(ref, rel=0.03), rt


def test_blowdown_growth_ratio_finite(ref_traj):
    """w'^2 / (|w| (1+w^2)^(5/2)) = psi'^2 / |sin psi| approaches psi'^2,
    the squared longitudinal curvature, at the equator."""
    ev = ref_traj.first_event(EQUATOR)
    Y = ref_traj.eval_many(np.linspace(ref_traj.switch.x, ev.x, 2001))
    ratio = Y[:, 3] ** 2 / np.abs(np.sin(Y[:, 2]))
    assert np.all(np.isfinite(ratio))
    assert math.isclose(ratio[-1], ev.state[3] ** 2, rel_tol=1e-6)


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
    for got, want in zip(tot._asdict().values(), req._asdict().values()):
        assert got == pytest.approx(want, rel=1e-7, abs=0.0)


def _linear_run(monkeypatch, params, w0p, xs, events, y0, slope):
    """A run whose state is ``y0 + slope (x - xs[0])`` up to its last
    event: each step's record holds its h and start state, from which a
    stand-in ``kernels.dense_a`` writes the interpolant rows y and F0."""
    xs = np.asarray(xs, dtype=float)
    records = np.zeros((len(xs) - 1, kernels.NREC))
    records[:, 0] = np.diff(xs)
    records[:, 1:1 + kernels.NSTATE] = np.outer(xs[:-1] - xs[0], slope) + y0

    def dense(rec, c0, lam, p):
        rows = [0.0] * (kernels.NROWS * kernels.NSTATE)
        rows[:kernels.NSTATE] = rec[1:1 + kernels.NSTATE]
        rows[kernels.NSTATE:2 * kernels.NSTATE] = (rec[0] * np.asarray(slope)).tolist()
        return rows

    monkeypatch.setattr(kernels, "dense_a", dense)
    return Trajectory(params, w0p, SolverConfig(), xs, records.ravel(), events)


def test_surface_totals_gauss_legendre_exact_with_cut_last_step(monkeypatch):
    """On polynomial interpolants the volume density r^2 sin psi, r linear
    in s at a fixed angle psi, has degree 2, which the 5-point rule
    integrates exactly; the last step counts only up to the last event's
    x, so a step integrated past its cut fails the test."""
    params, w0p, eps = HelfrichParams(1.0, 0.25, 1.0), 0.05, 1e-3
    psi = -0.3
    slope = [math.cos(psi), math.sin(psi), 0.0, 0.0, 0.0]
    events = [Event(EQUATOR, 1.7, (eps + (1.7 - eps) * slope[0], 0.0, psi, 0.0, 0.0))]
    traj = _linear_run(monkeypatch, params, w0p, [eps, 0.5, 1.2, 2.0], events,
                       [eps, 0.0, psi, 0.0, 0.0], slope)

    # the axis series' volume integral of r^2 w = sum a_n r^(n+2) on [0, eps]
    vol_series = sum(a_n * eps ** (n + 3) / (n + 3)
                     for n, a_n in zip(range(1, 12, 2), traj.axis_coeffs))
    r_end = eps + (1.7 - eps) * slope[0]
    vol_arc = math.sin(psi) * (r_end ** 3 - eps ** 3) / (3.0 * slope[0])
    want = -2.0 * math.pi * (vol_series + vol_arc)
    assert surface_totals(traj).volume == pytest.approx(want, rel=1e-14, abs=0.0)


def test_gauss_legendre_literals_equal_numpy_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert [v.hex() for v in _GL_X] == [v.hex() for v in nodes.tolist()]
    assert [v.hex() for v in _GL_W] == [v.hex() for v in weights.tolist()]


def test_profile_rows_equal_scalar_formulas(figure_runs):
    """Array profile rows equal a row-by-row evaluation in Python floats,
    bit for bit, so profile.csv does not depend on numpy's vector math:
    kappa_m = sin psi / r, kappa_l = psi' and w = sin psi / cos psi at the
    state the arc-length view gives for the row's s."""
    traj = figure_runs[0.2][0]
    rows = profile_rows(traj).tolist()
    assert len(rows) == 1 + 1536
    for i, (s, (r, z, w, km, kl, H, K)) in enumerate(
            zip(np.linspace(0.0, traj.events[-1].x, 1537)[1:].tolist(), rows[1:])):
        y = traj.state_at(s)[0].tolist()
        assert (r, z) == (y[0], y[1])
        want = (math.sin(y[2]) / r, y[3])
        assert w == (math.sin(y[2]) / math.cos(y[2]) if i < 1535 else -math.inf)
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
