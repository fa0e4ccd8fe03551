import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helfrich import (
    HelfrichParams,
    SolverConfig,
    derived_constants,
    eval_r,
    extract_landmarks,
    integrate,
    series_start,
)
from helfrich.analysis import BICONCAVE, classify
from helfrich.solver import (
    ABORTED,
    BLOWUP_POSITIVE,
    EQUATOR,
    MAX_OF_W,
    SERIES_ORDER,
    STEEP,
    ZERO_OF_W,
    _RECORD,
    Event,
    Trajectory,
    _bisect_step,
    _dense_rows,
    _initial_step,
    _interpolant,
    _run,
    axis_coefficients,
    axis_series,
)
from helfrich import kernels
from helfrich.errors import (
    EpsTooLarge,
    InvalidParams,
    InvalidSlope,
    OutOfRange,
)

from conftest import FIGURE_W0P
from oracles import (
    critical_points_full_scan,
    find_crossing,
    graph_at,
    initial_step_arr,
    make_step_arr,
    rhs_arc_arr,
    series_residual,
)

PAPER = HelfrichParams(1.0, 0.25, 1.0)


def test_series_coefficient_reference_value():
    # (Q(0.1) + 7e-3) / 16 with Q(0.1) = -0.354
    a3 = axis_coefficients(PAPER, 0.1)[1]
    assert math.isclose(a3, -0.0216875, rel_tol=1e-12)


def test_series_slope_limit():
    for eps in (1e-6, 1e-7, 1e-8):
        st = series_start(PAPER, 0.1, eps)
        assert st[0] == eps and math.isclose(st[2] / eps, 0.1, rel_tol=1e-10)


def test_series_start_has_zero_first_integral():
    """gamma at the start makes the first integral H = r [psi'^2 -
    (sin psi / r + c0)^2] - lambda r + (p/2) r^2 sin psi + gamma cos psi
    vanish, and psi' is w' cos^3 psi."""
    c0, lam, p = PAPER.c0, PAPER.lam, PAPER.p
    eps = 0.05
    r, z, psi, dpsi, gam = series_start(PAPER, 0.1, eps)
    w, wp, _ = axis_series(axis_coefficients(PAPER, 0.1), eps)
    assert psi == math.atan(w) and dpsi == pytest.approx(wp / (1 + w * w) ** 1.5, rel=1e-15)
    H = (r * (dpsi ** 2 - (math.sin(psi) / r + c0) ** 2) - lam * r
         + 0.5 * p * r * r * math.sin(psi) + gam * math.cos(psi))
    assert abs(H) <= 1e-16 * abs(gam)


def test_series_rejections():
    with pytest.raises(InvalidSlope):
        series_start(PAPER, 0.0, 1e-5)
    with pytest.raises(EpsTooLarge):
        series_start(PAPER, 0.1, 10.0)


def test_start_angle_that_underflows_is_invalid_slope():
    """At the paper point w0p eps underflows to psi(eps) = 0 for every w0p
    up to about 1e-220, and a run from there crosses no psi = 0: the
    start is InvalidSlope, and a sweep cell there reads so.  At 1e-215
    psi(eps) is subnormal, 2e-323, and the run finds its one ZeroOfW."""
    from helfrich.bounds import _phase_cell
    with pytest.raises(InvalidSlope, match="start angle"):
        integrate(PAPER, 1e-300)
    cell = _phase_cell((PAPER.c0, PAPER.lam, PAPER.p, 1e-300), None)
    assert cell.classification == "Error:InvalidSlope"
    traj = integrate(PAPER, 1e-215)
    assert 0.0 < traj.nodes[0, 2] < 1e-300
    assert sum(ev.kind == ZERO_OF_W for ev in traj.events) == 1


def test_series_residual_order():
    """The axis series truncated after r^n leaves a w'' defect O(eps^n),
    for every odd n up to SERIES_ORDER: each coefficient is the one the
    shape equation asks for.  Without a3 the defect is O(eps)."""
    eps = np.array([0.1, 0.03, 0.01])
    for order in range(1, SERIES_ORDER + 1, 2):
        res = [series_residual(PAPER, 0.1, e, True, order) for e in eps]
        slope = np.polyfit(np.log10(eps), np.log10(res), 1)[0]
        assert abs(slope - order) <= 0.1, (order, slope)
    eps = np.array([1e-3, 1e-4, 1e-5])
    res1 = np.array([series_residual(PAPER, 0.1, e, False) for e in eps])
    assert np.polyfit(np.log10(eps), np.log10(res1), 1)[0] <= 1.5


def test_axis_coefficients_match_sympy_derivation():
    """a3, a5 and a7 solved order by order from sympy's expansion of the
    shape equation in its Euler-Lagrange form (the integrand of
    ``el_residual``, not the cleared form the recursion works on), at the
    reference point and two other points."""
    import sympy as sp
    r = sp.symbols("r", positive=True)
    c0, lam, p, a1 = sp.symbols("c0 lam p a1")
    A = sp.symbols("A3 A5 A7")
    w = a1 * r + A[0] * r ** 3 + A[1] * r ** 5 + A[2] * r ** 7
    wp, wpp = sp.diff(w, r), sp.diff(w, r, 2)
    P = 1 + w ** 2
    sq = sp.sqrt(P)
    el = (-2 * r * wpp / (P ** 2 * sq) + 5 * r * w * wp ** 2 / (P ** 3 * sq)
          - 2 * wp / (P ** 2 * sq) + (2 * w + w ** 3) / (r * P * sq)
          + 2 * c0 * w ** 2 / P + (c0 ** 2 + lam) * r * w / sq - p * r ** 2 / 2)
    ser = sp.expand(sp.series(el, r, 0, 7).removeO())
    sol = {}
    for k, Ak in zip((2, 4, 6), A):
        sol[Ak] = sp.solve(ser.coeff(r, k).subs(sol), Ak)[0]
    assert sp.expand(sol[A[0]] - (a1 ** 3 / 2 + c0 * a1 ** 2 / 8 + (c0 ** 2 + lam) * a1 / 16
                                  - p / 32)) == 0
    for point in [(1.0, 0.25, 1.0, 0.05),
                  (-0.5972721301018806, -0.7202908339494016, 6.629877790948085,
                   0.0016797039970500467),
                  (2.5, -1.0, 0.3, 0.7)]:
        values = dict(zip((c0, lam, p, a1), map(sp.Rational, point)))
        got = axis_coefficients(HelfrichParams(*point[:3]), point[3])
        for Ak, an in zip(A, got[1:4]):
            want = float(sol[Ak].subs(values))
            assert math.isclose(an, want, rel_tol=1e-13), (point, Ak, an, want)


def test_default_start_keeps_the_slope_near_w0p():
    """The default start radius is capped at 0.99 of |a3| eps^2 <= 0.01 w0p,
    which keeps w' within about 3% of w0p up to the start: ``classify``
    counts the maxima of w on chart A only.  On this seed-7 sweep cell the
    series alone would allow a start at r = 0.037, where w' is about half
    of w0p; with the cap the start is at r = 0.0089, the run is Biconcave
    and chart A finds its one maximum of w."""
    params, w0p = HelfrichParams(-0.5972721301018806, -0.7202908339494016,
                                 6.629877790948085), 0.0016797039970500467
    traj = integrate(params, w0p)
    x_start = traj.x_start
    lm = extract_landmarks(traj)
    assert classify(traj, lm).verdict == BICONCAVE
    assert [ev.x > x_start for ev in traj.events if ev.kind == MAX_OF_W] == [True]
    assert axis_series(traj.axis_coeffs, x_start)[1] >= 0.97 * w0p


def test_rhs_matches_high_precision_reference():
    """The double-precision right-hand side tracks a 50-digit evaluation."""
    import mpmath as mp
    rng = np.random.default_rng(11)
    with mp.workdps(50):
        c0, lam, p = (mp.mpf(v) for v in (PAPER.c0, PAPER.lam, PAPER.p))
        for _ in range(50):
            y = [rng.uniform(0.05, 3), 0.0, rng.uniform(-2, 2), rng.uniform(-8, 8),
                 rng.uniform(-8, 8)]
            r, psi, dpsi, gam = (mp.mpf(v) for v in (y[0], *y[2:]))
            sp, cp = mp.sin(psi), mp.cos(psi)
            ref = (cp * (sp / r - dpsi) / r - p / 4 * r * cp + gam * sp / (2 * r),
                   (dpsi + c0) ** 2 - sp ** 2 / r ** 2 + lam - p * r * sp)
            got = kernels.rhs_a(y, PAPER.c0, PAPER.lam, PAPER.p)[3:]
            for g, want in zip(got, ref):
                assert abs(g - float(want)) <= 1e-12 * max(1.0, abs(float(want)))


def test_integrate_reference_is_equator(ref_traj, ref_landmarks):
    assert ref_traj.status == EQUATOR
    dc = derived_constants(PAPER, 0.05)
    assert 0.0 < ref_landmarks.r0 ** 2 < 16.0 * 0.05 / dc.delta_plus
    kinds = [ev.kind for ev in ref_traj.events]
    assert kinds.index(MAX_OF_W) < kinds.index(ZERO_OF_W) < kinds.index(
        STEEP) < kinds.index(EQUATOR)


def test_integrate_blowup(blowup_traj):
    assert eval_r(1.0, HelfrichParams(5.0, 0.0, 0.1)) > 0
    assert blowup_traj.status == BLOWUP_POSITIVE
    assert blowup_traj.first_event(ZERO_OF_W) is None


def test_integrate_rejections():
    with pytest.raises(InvalidSlope):
        integrate(PAPER, 0.0)
    with pytest.raises(InvalidParams):
        integrate(HelfrichParams(1.0, 0.25, -1.0), 0.05)


def test_integrate_aborts_at_r_max():
    traj = integrate(PAPER, 0.05, SolverConfig(r_max=1.0))
    assert traj.status == ABORTED
    ev = traj.first_event(ABORTED)
    assert ev is not None and ev.state[0] == pytest.approx(1.0, abs=1e-9)


def test_events_in_arclength_order(ref_traj):
    s_events = [ev.x for ev in ref_traj.events]
    assert s_events == sorted(s_events)
    # an equator event implies the earlier zero and steep events
    if ref_traj.first_event(EQUATOR):
        assert ref_traj.first_event(ZERO_OF_W) is not None
        assert ref_traj.first_event(STEEP) is not None


def test_z_is_quadrature_of_w(ref_traj):
    """z of the arc-length run is the quadrature of its slope w = tan psi
    over r, both read off the state on an arc-length grid."""
    x_start, s0 = ref_traj.x_start, ref_traj.first_event(ZERO_OF_W).x
    # smooth stretch up to r0: trapezoid resolves the quadrature sharply
    ss = np.linspace(x_start, s0, 20001)
    rs, w, _ = graph_at(ref_traj, ss)
    z_dense = ref_traj.state_at(ss, 1)
    z0 = axis_series(ref_traj.axis_coeffs, x_start)[2]
    z_quad = z0 + np.concatenate(
        [[0.0], np.cumsum((w[1:] + w[:-1]) / 2 * np.diff(rs))])
    assert np.max(np.abs(z_quad - z_dense)) <= 1e-8
    # steep tail to the Steep event at coarser tolerance
    ss = np.linspace(s0, ref_traj.switch.x, 200001)
    rs, w, _ = graph_at(ref_traj, ss)
    z_dense = ref_traj.state_at(ss, 1)
    z_quad = z_dense[0] + np.concatenate(
        [[0.0], np.cumsum((w[1:] + w[:-1]) / 2 * np.diff(rs))])
    assert np.max(np.abs(z_quad - z_dense)) <= 1e-6


def test_kappa_decreases_when_r_negative(ref_traj):
    """Monotone drop of the meridional curvature under the sign hypothesis."""
    assert eval_r(0.05, PAPER) < 0  # hypothesis R < 0 on [0, w0p]
    s0 = ref_traj.first_event(ZERO_OF_W).x
    rs, w, _ = graph_at(ref_traj, np.linspace(ref_traj.x_start, s0, 4001))
    kap = w / (rs * np.sqrt(1.0 + w ** 2))
    assert np.max(np.diff(kap)) < 1e-9


def test_pointwise_bounds_on_positive_arc(ref_traj):
    dc = derived_constants(PAPER, 0.05)
    s0 = ref_traj.first_event(ZERO_OF_W).x
    rs, w, wp = graph_at(ref_traj, np.linspace(ref_traj.x_start, s0, 4001))
    P = 1.0 + w * w
    kap = w / (rs * np.sqrt(P))
    kap_p = wp / (rs * P ** 1.5) - w / (rs * rs * np.sqrt(P))
    assert np.all(kap_p <= -dc.delta_plus * rs / 8.0 + 1e-8)
    assert np.all(kap <= 0.05 - dc.delta_plus * rs ** 2 / 16.0 + 1e-8)
    assert np.all(1.0 - rs ** 2 * kap ** 2 >= dc.xi - 1e-8)


def test_find_crossing_matches_events_and_takes_first(ref_traj):
    s0 = ref_traj.first_event(ZERO_OF_W).x
    assert abs(find_crossing(ref_traj, 2, 0.0) - s0) <= 1e-11 * s0
    # psi rises to its maximum at s_m, then falls: half of it is crossed twice
    ev_max = ref_traj.first_event(MAX_OF_W)
    half = 0.5 * ev_max.state[2]
    s_up = find_crossing(ref_traj, 2, half)
    assert s_up < ev_max.x
    assert abs(ref_traj.eval_many(s_up)[0][2] - half) <= 1e-12
    s_down = find_crossing(ref_traj, 2, half, x_lo=ev_max.x)
    assert ev_max.x < s_down < s0
    with pytest.raises(OutOfRange):
        find_crossing(ref_traj, 2, 2.0 * ev_max.state[2])


def test_event_idempotence(paper_params):
    base = SolverConfig(rel_tol=1e-8, abs_tol=1e-10)
    tight = SolverConfig(rel_tol=5e-9, abs_tol=5e-11)
    t1 = integrate(paper_params, 0.05, base)
    t2 = integrate(paper_params, 0.05, tight)
    for kind in (MAX_OF_W, ZERO_OF_W, STEEP, EQUATOR):
        x1 = t1.first_event(kind).x
        x2 = t2.first_event(kind).x
        assert abs(x1 - x2) <= 10.0 * base.event_tol + 1e4 * base.rel_tol


def test_integration_is_deterministic(paper_params):
    t1 = integrate(paper_params, 0.05)
    t2 = integrate(paper_params, 0.05)
    assert len(t1.xs) == len(t2.xs)
    assert np.array_equal(t1.xs, t2.xs)
    for e1, e2 in zip(t1.events, t2.events):
        assert e1.kind == e2.kind and e1.x == e2.x
        assert e1.state == e2.state


def test_dense_segment_range_checks(ref_traj):
    with pytest.raises(OutOfRange):
        ref_traj.eval_many(ref_traj.events[-1].x * 2.0)
    with pytest.raises(OutOfRange):
        ref_traj.eval_many(-1.0)


def test_arc_length_view_range_checks(ref_traj):
    """The arc-length view covers [0, s_end]: an s below 0 or past the
    terminal event is OutOfRange, not the state at the range end.  Both
    ends are inside: the axis, whose state is the series' limit, and the
    terminal event.  The series at r = s below the start meets the dense
    output, whose first state is the series start, at s = eps."""
    end = ref_traj.events[-1]
    for query in (lambda: ref_traj.state_at(-1e-9),
                  lambda: ref_traj.state_at([0.5 * end.x, 1.5 * end.x]),
                  lambda: ref_traj.state_at(1.5 * end.x, 0),
                  lambda: ref_traj.by_arc_length([0.0, -1.0], np.atleast_1d, np.atleast_1d)):
        with pytest.raises(OutOfRange):
            query()
    assert ref_traj.state_at(0.0)[0].tolist() == [0.0, 0.0, 0.0, ref_traj.w0p, 0.0]
    assert ref_traj.state_at(end.x)[0] == pytest.approx(end.state, rel=1e-12, abs=1e-12)
    eps = ref_traj.x_start
    y = ref_traj.state_at([math.nextafter(eps, 0.0), eps])
    assert y[1].tolist() == list(series_start(PAPER, 0.05, eps))
    assert y[0, 0] == math.nextafter(eps, 0.0)
    assert y[0] == pytest.approx(y[1], rel=1e-9, abs=1e-15)


def test_nan_query_is_out_of_range(ref_traj):
    """A NaN arc length lies in no range, so it is OutOfRange as an s past
    the terminal event is, not a row of NaN."""
    for query in (lambda: ref_traj.state_at(math.nan),
                  lambda: ref_traj.eval_many([0.5, math.nan]),
                  lambda: ref_traj.deriv_many(math.nan)):
        with pytest.raises(OutOfRange):
            query()


def _step_thetas(xs, s_end, m):
    """Step index and theta of each sample ``Trajectory.sample_steps``
    takes past the start: theta = j / m on the steps that start before
    s_end, and m thetas evenly spaced up to s_end's on the step that holds
    it."""
    k = int(np.searchsorted(xs, s_end)) - 1
    th = np.tile(np.arange(m) / m, (k + 1, 1))
    th[k] = np.linspace(0.0, (s_end - xs[k]) / (xs[k + 1] - xs[k]), m)
    return k, np.repeat(np.arange(k + 1), m), th.ravel()


@pytest.mark.parametrize("where", ["ZeroOfW", "first step", "step boundary"])
def test_sample_steps_reads_each_step_on_its_own_theta_grid(where):
    """``sample_steps`` gives r, psi and psi', in the order of s, of the
    axis series at the radii j dr below the start, then of each step up to
    s_end at its own thetas.  A step's theta = 0 sample is its node, bit
    for bit.  Every other sample is the one ``eval_many`` gives at
    s = x_i + theta h_i, up to the rounding of theta that ``eval_many``
    re-derives from s: an ulp or two of s times the state's slope, well
    inside 1e-13 (1 + |y|).  Only the steps that start before s_end are
    completed, and s_end is the last sample."""
    m = 16
    traj = integrate(PAPER, 0.05)
    xs = traj.xs
    s_end = {"ZeroOfW": traj.first_event(ZERO_OF_W).x,
             "first step": 0.5 * (xs[0] + xs[1]),
             "step boundary": xs[5]}[where]
    k, step, th = _step_thetas(xs, s_end, m)
    assert k == {"first step": 0, "step boundary": 4}.get(where, k)
    dr = xs[0] / 6.5
    y = traj.sample_steps(s_end, m, dr)
    assert traj._done == k + 1
    assert y.shape == (6 + (k + 1) * m, 3)

    cols = [0, 2, 3]
    r = np.arange(1, 7) * dr
    assert np.array_equal(y[:6], traj.state_at(r, cols))
    dense = y[6:]
    assert np.array_equal(dense[::m], traj.nodes[:k + 1, cols])
    want = traj.eval_many(xs[step] + th * (xs[step + 1] - xs[step]), cols)
    assert np.all(np.abs(dense - want) <= 1e-13 * (1.0 + np.abs(want)))
    assert dense[-1] == pytest.approx(traj.eval_many(s_end, cols)[0], rel=1e-13, abs=1e-13)
    s = np.concatenate([r, xs[step] + th * (xs[step + 1] - xs[step])])
    assert np.all(np.diff(s) > 0.0)


def test_equator_state_is_regular(ref_traj):
    ev = ref_traj.first_event(EQUATOR)
    r, _, psi, dpsi, _ = ev.state
    assert abs(psi + 0.5 * math.pi) <= 1e-9  # the tangent is vertical
    assert dpsi < 0.0              # longitudinal curvature is negative there
    assert r == max(s[0] for s in [ev.state, *ref_traj.nodes.tolist()])
    assert type(ev.state) is tuple and all(map(math.isfinite, ev.state))


def test_first_integral_stays_zero_along_the_solution():
    """H = r [psi'^2 - (sin psi / r + c0)^2] - lambda r + (p/2) r^2 sin psi
    + gamma cos psi, 0 at the start, stays 0 to about 1e-8 of its largest
    term along the dense output, from the start to the equator, on the
    reference point and on an oscillating cell with ten maxima of w."""
    for params, w0p in ((PAPER, 0.05), (HelfrichParams(0.491, -0.92, 0.01997), 0.2722)):
        traj = integrate(params, w0p)
        assert traj.status == EQUATOR
        r, _, psi, dpsi, gam = traj.eval_many(
            np.linspace(traj.x_start, traj.events[-1].x, 20001)).T
        sp = np.sin(psi)
        terms = np.stack([r * dpsi ** 2, -r * (sp / r + params.c0) ** 2, -params.lam * r,
                          0.5 * params.p * r * r * sp, gam * np.cos(psi)])
        drift = np.abs(terms.sum(axis=0)) / np.abs(terms).max()
        print(f"{params}: max |H| / max term {drift.max():.1e}")
        assert drift.max() <= 1e-8


def test_float_overflow_in_a_step_rejects_it(monkeypatch):
    """A trial step far too long overflows the float stages and meets an
    infinite angle, whose cosine raises; the ndarray stages give inf and
    nan.  The loop rejects the step and retries at a tenth of its size,
    and the run goes on to its budget."""
    c0, lam, p = PAPER.c0, PAPER.lam, PAPER.p
    x, y = 1.0, [1.0, 0.0, 0.1, 0.1, 0.5]
    f0 = kernels.rhs_a(y, c0, lam, p)
    with pytest.raises(ValueError):
        kernels.dopri5_step_a(y, 1e120, f0, c0, lam, p, 1e-10, 1e-12)
    with np.errstate(all="ignore"):
        y_arr = make_step_arr(rhs_arc_arr)(x, np.array(y), 1e120, np.array(f0), c0, lam,
                                           p, 1e-10, 1e-12)[0]
    assert not np.all(np.isfinite(y_arr))

    asked = []

    def step(y, h, *rest, _step=kernels.dopri5_step_a):
        asked.append(h)
        return _step(y, 1e120 if len(asked) == 1 else h, *rest)

    monkeypatch.setattr(kernels, "dopri5_step_a", step)
    (xs, _, _), events, steps = _run(x, y, PAPER, SolverConfig(), [], 20)
    assert asked[1] == 0.1 * asked[0]
    assert steps == 20 > len(xs) - 1  # more tries than accepted steps
    assert [ev.kind for ev in events] == [ABORTED]


def test_step_whose_new_state_overflows_has_non_finite_err(monkeypatch):
    """z = 1.79e308 on a vertical tangent overflows the new state's height
    to inf, which the error-norm scale max(|y_i|, |yn_i|) = inf hides: the
    ndarray step's err stays finite.  The float step's err is not finite,
    and the loop, which tests only err, rejects the step."""
    # c0 = lam = p = 0, psi = pi/2, psi' = gamma = 0 at r = 1e300: psi''
    # and gamma' underflow to 0, and the step adds about h to z
    x, y, h = 1.0, [1e300, 1.79e308, 0.5 * math.pi, 0.0, 0.0], 1e307
    f0 = kernels.rhs_a(y, 0.0, 0.0, 0.0)
    assert f0[1:] == (1.0, 0.0, 0.0, 0.0)
    y_new, _, err, _ = kernels.dopri5_step_a(y, h, f0, 0.0, 0.0, 0.0, 1e-10, 1e-12)
    assert y_new[1] == math.inf and all(map(math.isfinite, y_new[2:]))
    assert not math.isfinite(err)
    with np.errstate(all="ignore"):
        old = make_step_arr(rhs_arc_arr)(x, np.array(y), h, np.array(f0), 0.0, 0.0,
                                         0.0, 1e-10, 1e-12)
    assert old[0][1] == math.inf and math.isfinite(old[2])

    # every trial step is that step, whatever h the loop asks for
    def step(y, _h, *rest, _step=kernels.dopri5_step_a):
        return _step(y, h, *rest)

    monkeypatch.setattr(kernels, "dopri5_step_a", step)
    (xs, _, _), events, steps = _run(x, y, HelfrichParams(0.0, 0.0, 0.0), SolverConfig(), [], 1)
    assert steps == 1
    assert [ev.kind for ev in events] == [ABORTED] and events[-1].x == x == xs[-1]


@pytest.mark.parametrize("eps", [1e-16, 1e-20])
def test_start_closer_to_the_axis_than_1e_14_solves(eps, ref_landmarks):
    """Chart-A steps are no longer than their radius, so next to the axis
    they are shorter than an absolute floor of 1e-14 would allow; the
    floor there is relative to r, and the run reaches the equator."""
    traj = integrate(PAPER, 0.05, SolverConfig(eps_start=eps))
    assert traj.status == EQUATOR and traj.x_start == eps
    assert extract_landmarks(traj).r0 == pytest.approx(ref_landmarks.r0, rel=1e-9)


def test_w_switch_above_1e4_is_rejected():
    """The graph-form residual reads w(r) up to w = -w_switch, where
    cos psi = 1/sqrt(1 + w_switch^2): the configuration keeps that above
    1e-4, off the vertical tangent, and refuses a larger w_switch up front."""
    assert SolverConfig(w_switch=1e4).w_switch == 1e4
    for bad in (math.nextafter(1e4, math.inf), 1e6, 1e300):
        with pytest.raises(InvalidParams, match="w_switch"):
            SolverConfig(w_switch=bad)


@pytest.mark.parametrize("c0, lam, p, w0p", [
    (0.0686, -1.473, 2.476e-4, 1.045),
    (-0.784, -2.847, 1.018e-3, 0.176),
])
def test_far_out_cells_reach_the_equator(c0, lam, p, w0p):
    """On these wide-region cells the profile reaches its vertical tangent
    far out (|z| ~ 4e3 and 1e4), after thousands of maxima of w.  The two
    charts the solver once used needed a guard next to the equator's pole
    in the second one, and that guard ran the step size below its floor
    (StepUnderflow); the arc-length form has no pole, and both runs end
    at the equator."""
    traj = integrate(HelfrichParams(c0, lam, p), w0p)
    print(f"{len(traj.xs) - 1} accepted steps, "
          f"{sum(ev.kind == MAX_OF_W for ev in traj.events)} MaxOfW")
    assert traj.status == EQUATOR


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(w0p=st.sampled_from(FIGURE_W0P),
       t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       k=st.integers(0, kernels.NSTATE - 1),
       ab=st.tuples(st.integers(0, kernels.NSTATE), st.integers(0, kernels.NSTATE)))
def test_eval_many_columns_bit_exact(figure_runs, w0p, t, k, ab):
    """Evaluating, or differentiating, some components gives the full
    evaluation's columns bit for bit, on the figure trajectories."""
    traj = figure_runs[w0p][0]
    x = traj.x_start + np.asarray(t) * (traj.events[-1].x - traj.x_start)
    a, b = sorted(ab)
    for many in (traj.eval_many, traj.deriv_many):
        full = many(x)
        assert full.shape == (len(x), kernels.NSTATE)
        got_k = many(x, k)
        got_ab = many(x, slice(a, b))
        assert got_k.shape == full[:, k].shape
        assert got_ab.shape == full[:, a:b].shape
        assert np.array_equal(_bits(got_k), _bits(full[:, k]))
        assert np.array_equal(_bits(got_ab), _bits(full[:, a:b]))


def test_critical_point_count_matches_full_scan(figure_runs, sweep_runs):
    """The landmark count, read from the MaxOfW events, equals the scan of
    the full evaluation of every component.  The last run has nine MaxOfW
    events beyond r0, which the count must leave out."""
    runs = [(traj, lm) for traj, lm, _ in figure_runs.values()]
    runs += [(traj, lm) for _, traj, lm, _ in sweep_runs]
    traj = integrate(HelfrichParams(0.491, -0.92, 0.01997), 0.2722)
    assert sum(ev.kind == MAX_OF_W for ev in traj.events) == 10
    runs.append((traj, extract_landmarks(traj)))
    for traj, lm in runs:
        assert lm.r0 is not None
        assert lm.n_critical_points == critical_points_full_scan(traj)


def test_landmarks_read_no_dense_output(ref_traj, ref_landmarks, monkeypatch):
    """extract_landmarks reads the event list alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense output evaluated")

    monkeypatch.setattr(Trajectory, "eval_many", refuse)
    monkeypatch.setattr(Trajectory, "deriv_many", refuse)
    assert extract_landmarks(ref_traj) == ref_landmarks


def _bisect_on_interpolant(c, target, h, x0, tol, lo=0.0, hi=1.0):
    """``_bisect_step`` as it was first written, on ``_interpolant``."""
    glo = _interpolant(c, lo) - target
    h_abs = abs(h)
    bound = tol * (1.0 + abs(x0))
    for _ in range(200):
        if abs(hi - lo) * h_abs <= bound:
            break
        mid = 0.5 * (lo + hi)
        gm = _interpolant(c, mid) - target
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


_row_values = st.one_of(st.floats(-1e3, 1e3), st.just(math.nan), st.just(0.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(_row_values, min_size=kernels.NROWS, max_size=kernels.NROWS),
       st.floats(-10.0, 10.0), st.floats(1e-9, 10.0), st.floats(0.0, 100.0),
       st.sampled_from([1e-12, 1e-6]), st.sampled_from([(0.0, 1.0), (0.25, 0.75)]))
def test_inline_bisection_is_the_interpolant_bisection(c, target, h, x0, tol, bracket):
    """``_bisect_step`` writes the step polynomial out on the rows' floats;
    on random rows, NaN rows included, its theta is the one bisection on
    ``_interpolant`` gives, bit for bit."""
    got = _bisect_step(c, target, h, x0, tol, *bracket)
    assert got.hex() == _bisect_on_interpolant(c, target, h, x0, tol, *bracket).hex()


def test_axis_angles_are_rows_of_the_axis_state(figure_runs, random_triples):
    """The near-axis block of ``sample_steps`` computes r, psi and psi'
    alone: rows 0, 2 and 3 of the full axis state, bit for bit."""
    for traj in [run[0] for run in figure_runs.values()] + [t[2] for t in random_triples]:
        r = np.linspace(0.0, traj.x_start, 97)[1:]
        got = traj._axis_angles(r)
        assert got.shape == (3, 96)
        assert np.array_equal(got.view(np.uint64), traj._axis_state(r)[[0, 2, 3]].view(np.uint64))


@pytest.mark.parametrize("params, w0p, cfg", [
    (PAPER, 0.05, None),
    (PAPER, 0.001, None),
    (HelfrichParams(5.0, 0.0, 0.1), 1.0, None),  # BlowUpPositive
    (PAPER, 0.05, SolverConfig(r_max=1.0)),  # Aborted at r_max
    (HelfrichParams(0.491, -0.92, 0.01997), 0.3, None),
])
def test_kept_event_rows_are_the_completions_of_their_steps(params, w0p, cfg):
    """The run keeps the dense rows it completed to bisect a step, one set
    for each step that holds an event and none else, and they are the
    rows a fresh ``kernels.dense_a`` gives for the stored record, bit for
    bit: for the last step, those of the step the run ended on."""
    traj = integrate(params, w0p, cfg)
    kept = dict(traj._event_rows)
    assert sorted(kept) == sorted({min(int(np.searchsorted(traj.xs, ev.x, side="right")) - 1,
                                       len(traj.xs) - 2) for ev in traj.events})
    for i, rows in kept.items():
        fresh = _dense_rows(_RECORD.unpack_from(traj._records, _RECORD.size * i), *params)
        assert np.array_equal(np.array(rows).view(np.uint64), np.array(fresh).view(np.uint64))
    # reading the run takes the kept rows in place of a completion
    assert np.array_equal(traj.conts[sorted(kept)].reshape(len(kept), -1).view(np.uint64),
                          np.array([kept[i] for i in sorted(kept)]).view(np.uint64))
    assert traj._event_rows == {}


def test_queries_below_eps_read_no_dense_output(ref_traj, monkeypatch):
    """``by_arc_length`` calls ``dense`` only when some s lies at or past
    eps; below it the values are the axis series', as with a mixed query."""
    eps = ref_traj.x_start
    r = np.array([0.0, 0.25 * eps, math.nextafter(eps, 0.0)])
    want = ref_traj.state_at(np.append(r, eps))[:3]

    def refuse(*args, **kwargs):
        raise AssertionError("dense output evaluated")

    monkeypatch.setattr(Trajectory, "eval_many", refuse)
    assert np.array_equal(ref_traj.state_at(r), want)
    assert np.array_equal(ref_traj.state_at(r, [0, 2]), want[:, [0, 2]])
    assert ref_traj.state_at([]).shape == (0, kernels.NSTATE)


def _record_completions(monkeypatch):
    """Wrap ``kernels.dense_a``, which the loop and the trajectories read when
    they complete a step, so that each call records the start radius of
    the step it completes, read off its record: r rises along a run that
    ends at the equator, so the radius names the step."""
    calls = []

    def counted(rec, c0, lam, p, _dense=kernels.dense_a):
        calls.append(rec[1])
        return _dense(rec, c0, lam, p)

    monkeypatch.setattr(kernels, "dense_a", counted)
    return calls


def _event_steps(traj):
    """Start radius of each step that holds an event; the terminal event
    ends the last step."""
    evx = np.array([ev.x for ev in traj.events])
    idx = np.minimum(np.searchsorted(traj.xs, evx, side="right") - 1, len(traj.xs) - 2)
    return sorted(set(traj.nodes[idx, 0].tolist()))


def test_dense_output_is_completed_only_where_read(monkeypatch):
    """A sweep cell completes the dense output of the steps that hold an
    event, to bisect them, and of no other step; the last one twice, as it
    is taken again to end on the terminal event.  ``check_single`` then
    completes every step that starts before s(r0) but the event steps
    there, whose rows the run kept, and none that starts at or beyond it:
    it evaluates (0, s(r0)] only, and reads the steps past the Steep event
    at their start states, which the step records keep."""
    calls = _record_completions(monkeypatch)
    traj = integrate(PAPER, 0.05)
    want = _event_steps(traj)
    want.append(want[-1])
    assert len(want) == 4
    assert sorted(calls) == want

    calls.clear()
    from helfrich.bounds import _phase_cell, check_single, solve
    cell = _phase_cell((PAPER.c0, PAPER.lam, PAPER.p, 0.05), None)
    assert cell.classification == BICONCAVE
    assert sorted(calls) == want

    traj, lm, _ = solve(PAPER, 0.05)
    calls.clear()
    assert check_single(traj, lm).passed
    s0 = traj.first_event(ZERO_OF_W).x
    starts = traj.nodes[:, 0].tolist()
    before = [r for r, x in zip(starts, traj.xs[:-1]) if x < s0]
    kept = [r for r in want[:-1] if r in before]
    assert len(kept) == 2  # the MaxOfW and ZeroOfW steps
    assert sorted(calls) == [r for r in before if r not in kept] != starts
    # the nodes are the completed rows y, bit for bit
    assert np.array_equal(traj.nodes.view(np.uint64), traj.conts[:, 0, :].view(np.uint64))


@pytest.mark.parametrize("j", [0, 7, -1])
def test_a_query_completes_the_steps_up_to_the_one_it_reads(j, monkeypatch):
    """A run is read outward from the axis: ``eval_many`` at one point of
    step j completes steps 0..j, each once but for the event steps, whose
    rows the run kept, and no later step, and a query that reads an
    earlier step completes nothing."""
    traj = integrate(PAPER, 0.05)
    xs = traj.xs
    j %= len(xs) - 1
    kept = _event_steps(traj)
    calls = _record_completions(monkeypatch)
    traj.eval_many(0.5 * (xs[j] + xs[j + 1]))
    want = [r for r in traj.nodes[:j + 1, 0].tolist() if r not in kept]
    assert calls == want and traj._done == j + 1
    traj.eval_many([xs[0], 0.5 * (xs[j] + xs[j + 1])])
    assert len(calls) == len(want)


def test_raising_completion_gives_nan_rows():
    """A stage of the completion divides by r.  Where it meets r = 0
    exactly it raises, as a stage of the step does; the step is accepted
    by then, so its dense output is NaN rows, not an exception.  Here the
    state and every stage are 0, so stage 14 is at r = 0."""
    rec = [0.1] + [0.0] * (kernels.NREC - 1)
    with pytest.raises(ZeroDivisionError):
        kernels.dense_a(rec, PAPER.c0, PAPER.lam, PAPER.p)
    traj = Trajectory(PAPER, 0.05, SolverConfig(), [1.0, 1.1], array("d", rec),
                      [Event(ABORTED, 1.1, (0.0,) * kernels.NSTATE)])
    assert np.isnan(traj.eval_many([1.0, 1.05])).all()
    assert np.isnan(traj.conts).all() and traj.nodes.tolist() == [[0.0] * kernels.NSTATE]


def test_run_chart_records_tied_events_in_table_order(ref_traj):
    """Rows that cross at the same theta are recorded in table order up to
    the first terminal one, which ends the run as its last event."""
    params, w0p = HelfrichParams(1.0, 0.25, 1.0), 0.05
    eps = ref_traj.x_start
    table = [("second", 0, 0.0, True, False), ("first", 0, 0.0, True, False),
             ("end", 0, 0.0, True, True), ("never", 0, 0.0, True, False)]
    table = [(kind, 2, 0.0, True, terminal) for kind, _, _, _, terminal in table]
    (xs, _, _), events, _ = _run(eps, series_start(params, w0p, eps), params, SolverConfig(),
                                 table, 1_000_000)
    assert [ev.kind for ev in events] == ["second", "first", "end"]
    s0 = ref_traj.first_event(ZERO_OF_W).x
    assert all(ev.x == s0 for ev in events) and xs[-1] == s0


@pytest.mark.parametrize("how, cfg, status", [
    ("Equator", None, EQUATOR),
    ("BlowUpPositive", None, BLOWUP_POSITIVE),
    ("r_max", SolverConfig(r_max=1.0), ABORTED),
    ("max_steps", SolverConfig(max_steps=20), ABORTED),
    # a start past the abort radius takes no step
    ("no step", SolverConfig(r_max=1e-7), ABORTED),
])
def test_run_covers_up_to_its_last_event(how, cfg, status, ref_traj, blowup_traj):
    """A run covers [x_start, s_end], s_end the x of its last event, for
    each way a run can end: at a terminal row's event, at the abort radius
    or on the step budget, the last of them with no accepted step, which
    keeps one zero-length step.  The last event lies in the last step,
    the dense output reads its state there, and a query past it is
    OutOfRange."""
    traj = {EQUATOR: ref_traj, BLOWUP_POSITIVE: blowup_traj}.get(how)
    traj = traj or integrate(PAPER, 0.05, cfg)
    assert traj.status == status
    end, xs = traj.events[-1], traj.xs
    if how == "no step":
        assert traj.conts.shape == (1, kernels.NROWS, kernels.NSTATE)
        assert xs.tolist() == [end.x, end.x] == [traj.x_start] * 2
        assert traj.eval_many(end.x)[0].tolist() == list(end.state)
    else:
        assert xs[-2] < end.x <= xs[-1]
        if how == "max_steps":
            assert end.x == xs[-1]
        assert traj.eval_many(end.x)[0] == pytest.approx(end.state, rel=1e-9, abs=1e-12)
    with pytest.raises(OutOfRange):
        traj.eval_many(end.x + 1e-9 * (1.0 + end.x))


def test_status_is_the_last_event(ref_traj, blowup_traj):
    aborted = integrate(HelfrichParams(1.0, 0.25, 1.0), 0.05, SolverConfig(max_steps=20))
    for traj, status in ((ref_traj, EQUATOR), (blowup_traj, BLOWUP_POSITIVE),
                         (aborted, ABORTED)):
        assert traj.status == traj.events[-1].kind == status


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _start_case(draw):
    """A start as ``integrate`` makes one, the series start at the
    smallest default radius, with parameters, tolerances and a step cap."""
    c0 = draw(st.floats(-5.0, 5.0, **_finite))
    lam = draw(st.floats(-3.0, 3.0, **_finite))
    p = draw(st.floats(1e-4, 1e2, **_finite))
    params = HelfrichParams(c0, lam, p)
    w0p = draw(st.floats(1e-6, 1.0, **_finite))
    x = min(1e-5, 1e-3 * math.sqrt(32.0 * w0p / (3.0 * p)))
    y = series_start(params, w0p, x)
    tols = draw(st.sampled_from(((1e-10, 1e-12), (1e-6, 1e-8), (1e-12, 1e-14))))
    h_cap = draw(st.floats(1e-6, 1e4, **_finite))
    return x, list(y), tols, params, h_cap


def _first_steps(x, y, tols, params, h_cap):
    c0, lam, p = params.c0, params.lam, params.p
    rhs = kernels.rhs_a
    f = rhs(y, c0, lam, p)
    got = _initial_step(x, y, f, *tols, c0, lam, p, h_cap)
    want = initial_step_arr(rhs, np.array(y), np.array(f), *tols, c0, lam, p, h_cap)
    return got, want


@settings(max_examples=300, deadline=None)
@given(case=_start_case())
@example(case=(1e-5, list(series_start(PAPER, 0.05, 1e-5)), (1e-10, 1e-12), PAPER,
               1e-5))  # the reference point
def test_initial_step_matches_ndarray_oracle_bit_for_bit(case):
    """The float first step size sums its norms in numpy's order: the same
    h, bit for bit, as the ndarray computation it replaced."""
    got, want = _first_steps(*case)
    assert type(got) is float and got.hex() == float(want).hex()


def test_run_chart_calls_rhs_on_python_floats(monkeypatch):
    """The run's start and the first-step trial run on Python floats, as
    the loop does: no ndarray or numpy scalar reaches the right-hand side."""
    seen = set()

    def recording(rhs):
        def wrapped(y, c0, lam, p):
            seen.update(type(v) for v in y)
            return rhs(y, c0, lam, p)
        return wrapped

    monkeypatch.setattr(kernels, "rhs_a", recording(kernels.rhs_a))
    assert integrate(PAPER, 0.05).status == EQUATOR
    assert seen == {float}


def test_overflowing_chart_start_is_invalid_params():
    # f is finite, but its scaled norm (f / sc)^2 overflows
    with pytest.raises(InvalidParams, match="not finite"):
        integrate(HelfrichParams(1.0, 0.25, 1e300), 0.05)
    # gamma sin psi / r overflows in the right-hand side itself
    with pytest.raises(InvalidParams, match="not finite at the start"):
        _run(1e-5, [1e-5, 0.0, 1.0, 0.0, 1e305], PAPER, SolverConfig(), [], 10)
