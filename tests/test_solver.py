import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helfrich import (
    HelfrichParams,
    SolverConfig,
    chart_switch,
    derived_constants,
    eval_r,
    extract_landmarks,
    integrate,
    series_coefficient,
    series_start,
)
from helfrich.analysis import BICONCAVE, classify
from helfrich.solver import (
    ABORTED,
    BLOWUP_POSITIVE,
    CHART_SWITCH,
    EQUATOR,
    MAX_OF_W,
    SERIES_ORDER,
    ZERO_OF_W,
    DenseSegment,
    _initial_step,
    _run_chart,
    axis_coefficients,
    axis_series,
)
from helfrich import kernels
from helfrich.errors import (
    BadSwitch,
    EpsTooLarge,
    InvalidParams,
    InvalidSlope,
    OutOfRange,
    StepUnderflow,
)

from conftest import FIGURE_W0P
from oracles import (
    critical_points_full_scan,
    find_crossing,
    initial_step_arr,
    make_step_arr,
    rhs_chart_a_arr,
    series_residual,
)

PAPER = HelfrichParams(1.0, 0.25, 1.0)


def test_series_coefficient_reference_value():
    # (Q(0.1) + 7e-3) / 16 with Q(0.1) = -0.354
    a3 = series_coefficient(PAPER, 0.1)
    assert math.isclose(a3, -0.0216875, rel_tol=1e-12)


def test_series_slope_limit():
    for eps in (1e-6, 1e-7, 1e-8):
        st = series_start(PAPER, 0.1, eps)
        assert math.isclose(st[0] / eps, 0.1, rel_tol=1e-10)


def test_series_rejections():
    with pytest.raises(InvalidSlope):
        series_start(PAPER, 0.0, 1e-5)
    with pytest.raises(EpsTooLarge):
        series_start(PAPER, 0.1, 10.0)


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
    x_start = traj.chart_a.x_start
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
            rv, wv, wpv = rng.uniform(0.05, 3), rng.uniform(-8, 8), rng.uniform(-8, 8)
            r, w, wp = mp.mpf(rv), mp.mpf(wv), mp.mpf(wpv)
            P = 1 + w * w
            ref = (mp.mpf(5) / 2 * w * wp * wp / P - (wp - w / r) / r
                   + w ** 3 * (3 + w * w) / (2 * r * r)
                   + c0 * w * w * P ** mp.mpf(1.5) / r
                   + (c0 ** 2 + lam) * w * P ** 2 / 2
                   - p * r * P ** mp.mpf(2.5) / 4)
            got = kernels.rhs_a(rv, (wv, wpv, 0.0), PAPER.c0, PAPER.lam, PAPER.p)[1]
            assert abs(got - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))


def test_chart_switch_definition():
    a = (-10.0, -3.0, -0.3)  # state at r = 2
    b = chart_switch(2.0, a)
    assert type(b) is tuple and len(b) == kernels.NSTATE
    assert all(type(v) is float for v in b)
    assert b[0] == 2.0 and b[1] == -0.1
    assert math.isclose(b[2], -(-3.0) / (-10.0) ** 3, rel_tol=1e-15)
    # round trip
    assert math.isclose(1.0 / b[1], a[0], rel_tol=1e-15)


def test_chart_switch_rejects_nonnegative_w():
    with pytest.raises(BadSwitch):
        chart_switch(1.0, (0.5, -1.0, 0.0))


def test_integrate_reference_is_equator(ref_traj, ref_landmarks):
    assert ref_traj.status == EQUATOR
    dc = derived_constants(PAPER, 0.05)
    assert 0.0 < ref_landmarks.r0 ** 2 < 16.0 * 0.05 / dc.delta_plus
    kinds = [ev.kind for ev in ref_traj.events]
    assert kinds.index(MAX_OF_W) < kinds.index(ZERO_OF_W) < kinds.index(
        CHART_SWITCH) < kinds.index(EQUATOR)


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
    assert ev is not None and ev.x <= 1.0 + 1e-9


def test_events_in_arclength_order(ref_traj):
    r_events = [ev.x for ev in ref_traj.events if ev.chart == "A"]
    assert r_events == sorted(r_events)
    z_events = [ev.x for ev in ref_traj.events if ev.chart == "B"]
    assert z_events == sorted(z_events, reverse=True)
    # an equator event implies the earlier zero and switch events
    if ref_traj.first_event(EQUATOR):
        assert ref_traj.first_event(ZERO_OF_W) is not None
        assert ref_traj.first_event(CHART_SWITCH) is not None


def test_z_is_quadrature_of_w(ref_traj, ref_landmarks):
    seg = ref_traj.chart_a
    # smooth stretch up to r0: trapezoid resolves the quadrature sharply
    rs = np.linspace(seg.x_start, ref_landmarks.r0, 20001)
    Y = seg.eval_many(rs)
    w, z_dense = Y[:, 0], Y[:, 2]
    z0 = ref_traj.series_eval(np.array([seg.x_start]))[0][2]
    z_quad = z0 + np.concatenate(
        [[0.0], np.cumsum((w[1:] + w[:-1]) / 2 * np.diff(rs))])
    assert np.max(np.abs(z_quad - z_dense)) <= 1e-8
    # steep tail to the chart switch at coarser tolerance
    rs = np.linspace(ref_landmarks.r0, seg.x_end, 200001)
    Y = seg.eval_many(rs)
    w, z_dense = Y[:, 0], Y[:, 2]
    z_quad = z_dense[0] + np.concatenate(
        [[0.0], np.cumsum((w[1:] + w[:-1]) / 2 * np.diff(rs))])
    assert np.max(np.abs(z_quad - z_dense)) <= 1e-6


def test_kappa_decreases_when_r_negative(ref_traj, ref_landmarks):
    """Monotone drop of the meridional curvature under the sign hypothesis."""
    assert eval_r(0.05, PAPER) < 0  # hypothesis R < 0 on [0, w0p]
    rs = np.linspace(ref_traj.chart_a.x_start, ref_landmarks.r0, 4001)
    Y = ref_traj.chart_a.eval_many(rs)
    kap = Y[:, 0] / (rs * np.sqrt(1.0 + Y[:, 0] ** 2))
    assert np.max(np.diff(kap)) < 1e-9


def test_pointwise_bounds_on_positive_arc(ref_traj, ref_landmarks):
    dc = derived_constants(PAPER, 0.05)
    rs = np.linspace(ref_traj.chart_a.x_start, ref_landmarks.r0, 4001)
    Y = ref_traj.chart_a.eval_many(rs)
    w, wp = Y[:, 0], Y[:, 1]
    P = 1.0 + w * w
    kap = w / (rs * np.sqrt(P))
    kap_p = wp / (rs * P ** 1.5) - w / (rs * rs * np.sqrt(P))
    assert np.all(kap_p <= -dc.delta_plus * rs / 8.0 + 1e-8)
    assert np.all(kap <= 0.05 - dc.delta_plus * rs ** 2 / 16.0 + 1e-8)
    assert np.all(1.0 - rs ** 2 * kap ** 2 >= dc.xi - 1e-8)


def test_find_crossing_matches_events_and_takes_first(ref_traj):
    seg = ref_traj.chart_a
    r0 = ref_traj.first_event(ZERO_OF_W).x
    assert abs(find_crossing(seg, 0, 0.0) - r0) <= 1e-11 * r0
    # w rises to w_max at r_m, then falls: half of w_max is crossed twice
    ev_max = ref_traj.first_event(MAX_OF_W)
    half = 0.5 * ev_max.state[0]
    r_up = find_crossing(seg, 0, half)
    assert r_up < ev_max.x
    assert abs(seg.eval_many(r_up)[0][0] - half) <= 1e-12
    r_down = find_crossing(seg, 0, half, x_lo=ev_max.x)
    assert ev_max.x < r_down < r0
    with pytest.raises(OutOfRange):
        find_crossing(seg, 0, 2.0 * ev_max.state[0])


def test_event_idempotence(paper_params):
    base = SolverConfig(rel_tol=1e-8, abs_tol=1e-10)
    tight = SolverConfig(rel_tol=5e-9, abs_tol=5e-11)
    t1 = integrate(paper_params, 0.05, base)
    t2 = integrate(paper_params, 0.05, tight)
    for kind in (MAX_OF_W, ZERO_OF_W, CHART_SWITCH, EQUATOR):
        x1 = t1.first_event(kind).x
        x2 = t2.first_event(kind).x
        assert abs(x1 - x2) <= 10.0 * base.event_tol + 1e4 * base.rel_tol


def test_integration_is_deterministic(paper_params):
    t1 = integrate(paper_params, 0.05)
    t2 = integrate(paper_params, 0.05)
    assert len(t1.chart_a.xs) == len(t2.chart_a.xs)
    assert np.array_equal(t1.chart_a.xs, t2.chart_a.xs)
    for e1, e2 in zip(t1.events, t2.events):
        assert e1.kind == e2.kind and e1.x == e2.x
        assert e1.state == e2.state


def test_dense_segment_range_checks(ref_traj):
    with pytest.raises(OutOfRange):
        ref_traj.chart_a.eval_many(ref_traj.chart_a.x_end * 2.0)
    with pytest.raises(OutOfRange):
        ref_traj.chart_a.eval_many(-1.0)


def test_equator_state_is_regular(ref_traj):
    ev = ref_traj.first_event(EQUATOR)
    u, s, q = ev.state[0], ev.state[1], ev.state[2]
    assert abs(s) <= 1e-9          # u' vanishes at the equator
    assert q < 0.0                 # longitudinal curvature is negative there
    assert type(ev.state) is tuple and all(map(math.isfinite, ev.state))


def test_chart_b_steps_keep_clear_of_the_equator(ref_traj):
    """Every chart-B step but the last stays within half the linear
    estimate d = |s/q| of its distance to the equator; the last crosses it
    with the equator at theta = kernels.EQUATOR_THETA, between stage abscissae."""
    seg = ref_traj.chart_b
    h = np.abs(np.diff(seg.xs))
    _, s, q = seg.conts[:, 0, :].T
    d = np.abs(s / q)
    assert np.all(h[:-1] <= 0.5 * d[:-1] + 1e-15)  # x + h rounds at |x| ~ 1
    theta = (seg.xs[-2] - seg.x_end) / h[-1]
    assert theta == pytest.approx(kernels.EQUATOR_THETA, rel=1e-2)


def test_float_overflow_in_a_step_rejects_it():
    """A trial step far too long overflows the float stages to inf and nan,
    as it does the ndarray stages, and its err is not finite; the chart
    loop rejects the step and retries at a tenth of its size, and the run
    goes on to its limit."""
    c0, lam, p = PAPER.c0, PAPER.lam, PAPER.p
    x, y = 1.0, [0.5, 0.1, 0.0]
    f0 = kernels.rhs_a(x, y, c0, lam, p)
    # stage 2 holds w = 0.5 + 1e120 A21 f0[0], whose cube is beyond 1.8e308
    y_new, f_new, err, rec = kernels.dopri5_step_a(x, y, 1e120, f0, c0, lam, p,
                                                   1e-10, 1e-12)
    assert not math.isfinite(err) and not all(map(math.isfinite, y_new))
    assert f_new is None and rec is None
    with np.errstate(all="ignore"):
        y_arr = make_step_arr(rhs_chart_a_arr)(x, np.array(y), 1e120, np.array(f0), c0, lam,
                                               p, 1e-10, 1e-12)[0]
    assert not np.all(np.isfinite(y_arr))

    asked = []

    def step(x, y, h, *rest):
        asked.append(h)
        return kernels.dopri5_step_a(x, y, 1e120 if len(asked) == 1 else h, *rest)

    seg, events, steps = _run_chart(step, kernels.dense_a, kernels.rhs_a, "A", x, y, +1,
                                    2.0, PAPER, SolverConfig(), [], 1000)
    assert asked[1] == 0.1 * asked[0]
    assert steps >= len(seg.xs)  # more tries than accepted steps
    assert [ev.kind for ev in events] == [ABORTED] and seg.x_end == 2.0


def test_step_whose_new_state_overflows_has_non_finite_err():
    """z = 1.79e308 with a positive slope w overflows the new state's height
    to inf, which the error-norm scale max(|y_i|, |yn_i|) = inf hides: the
    ndarray step's err stays finite.  The float step's err is not finite,
    and the chart loop, which tests only err, rejects the step."""
    # c0 = lam = p = 0 and w' = 0 at r = 1e300: w'' underflows to 0, so w
    # stays 1e6 and the step adds about h w = 1e306 to z and nothing elsewhere
    x, y, h = 1e300, [1e6, 0.0, 1.79e308], 1e300
    f0 = kernels.rhs_a(x, y, 0.0, 0.0, 0.0)
    assert f0 == (0.0, 0.0, 1e6)
    y_new, _, err, _ = kernels.dopri5_step_a(x, y, h, f0, 0.0, 0.0, 0.0, 1e-10, 1e-12)
    assert y_new == [1e6, 0.0, math.inf]
    assert not math.isfinite(err)
    with np.errstate(all="ignore"):
        old = make_step_arr(rhs_chart_a_arr)(x, np.array(y), h, np.array(f0), 0.0, 0.0,
                                             0.0, 1e-10, 1e-12)
    assert old[0][2] == math.inf and math.isfinite(old[2])

    # every trial step is that step, whatever h the loop asks for
    def step(x, y, _h, *rest):
        return kernels.dopri5_step_a(x, y, h, *rest)

    seg, events, steps = _run_chart(
        step, kernels.dense_a, kernels.rhs_a, "A", x, y, 1.0, 3e300, HelfrichParams(0.0, 0.0, 0.0),
        SolverConfig(), [], 1)
    assert steps == 1
    assert [ev.kind for ev in events] == [ABORTED] and events[-1].x == x == seg.x_end


@pytest.mark.parametrize("eps", [1e-16, 1e-20])
def test_start_closer_to_the_axis_than_1e_14_solves(eps, ref_landmarks):
    """Chart-A steps are no longer than their radius, so next to the axis
    they are shorter than an absolute floor of 1e-14 would allow; the
    floor there is relative to r, and the run reaches the equator."""
    traj = integrate(PAPER, 0.05, SolverConfig(eps_start=eps))
    assert traj.status == EQUATOR and traj.chart_a.x_start == eps
    assert extract_landmarks(traj).r0 == pytest.approx(ref_landmarks.r0, rel=1e-9)


def test_w_switch_above_1e4_is_rejected():
    """Beyond |w| = 1e4 the chart-A steps toward the switch underflow
    (w_switch = 1e6 ends in StepUnderflow at r = 3.1786 on the paper's
    point), so the configuration refuses it up front."""
    assert SolverConfig(w_switch=1e4).w_switch == 1e4
    for bad in (math.nextafter(1e4, math.inf), 1e6, 1e300):
        with pytest.raises(InvalidParams, match="w_switch"):
            SolverConfig(w_switch=bad)


@pytest.mark.xfail(strict=True, raises=StepUnderflow,
                   reason="ROADMAP open item 2: the chart-B equator guard has no step floor")
@pytest.mark.parametrize("c0, lam, p, w0p", [
    (0.0686, -1.473, 2.476e-4, 1.045),
    (-0.784, -2.847, 1.018e-3, 0.176),
])
def test_chart_b_far_out_ends_without_underflow(c0, lam, p, w0p):
    """On these wide-region cells s -> 0- far out on chart B (|z| ~ 4e3 and
    1e4); the equator guard's d/2 branch shrinks the step below the
    relative floor 1e-14 |z| and the run raises StepUnderflow.  Once the
    guard has a floor of its own the run must end at an event."""
    assert integrate(HelfrichParams(c0, lam, p), w0p).status in (EQUATOR, ABORTED)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(w0p=st.sampled_from(FIGURE_W0P), chart=st.sampled_from("AB"),
       t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       k=st.integers(0, kernels.NSTATE - 1),
       ab=st.tuples(st.integers(0, kernels.NSTATE), st.integers(0, kernels.NSTATE)))
def test_eval_many_columns_bit_exact(figure_runs, w0p, chart, t, k, ab):
    """Evaluating, or differentiating, some components gives the full
    evaluation's columns bit for bit, on both charts of the figure
    trajectories."""
    traj = figure_runs[w0p][0]
    seg = traj.chart_a if chart == "A" else traj.chart_b
    x = seg.x_start + np.asarray(t) * (seg.x_end - seg.x_start)
    a, b = sorted(ab)
    for many in (seg.eval_many, seg.deriv_many):
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
        assert lm.n_critical_points == critical_points_full_scan(traj, lm.r0)


def test_landmarks_read_no_dense_output(ref_traj, ref_landmarks, monkeypatch):
    """extract_landmarks reads the event list alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense output evaluated")

    monkeypatch.setattr(DenseSegment, "eval_many", refuse)
    monkeypatch.setattr(DenseSegment, "deriv_many", refuse)
    assert extract_landmarks(ref_traj) == ref_landmarks


def _record_completions(monkeypatch):
    """Wrap ``kernels.dense_a``/``_b``, which ``integrate`` hands to the
    chart loop and the segments it makes, so that each call records the
    start x of the step it completes, per chart."""
    calls = {"A": [], "B": []}
    for chart in calls:
        name = f"dense_{chart.lower()}"

        def counted(x, rec, c0, lam, p, _calls=calls[chart], _dense=getattr(kernels, name)):
            _calls.append(x)
            return _dense(x, rec, c0, lam, p)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def _event_steps(traj, chart):
    """Start x of each step of the chart that holds an event."""
    seg = traj.chart_a if chart == "A" else traj.chart_b
    sign = 1.0 if seg.ascending else -1.0
    evx = np.array([ev.x for ev in traj.events if ev.chart == chart])
    idx = np.searchsorted(sign * seg.xs, sign * evx, side="right") - 1
    return sorted(set(seg.xs[idx].tolist()))


def test_dense_output_is_completed_only_where_read(monkeypatch):
    """A sweep cell completes the dense output of the steps that hold an
    event, to bisect them, and of no other step.  ``check_single`` then
    completes no chart-B step, as it reads chart B's ``nodes``, the start
    states the step records keep, and no chart-A step that starts at or
    beyond r0, as it evaluates chart A on (0, r0] only."""
    calls = _record_completions(monkeypatch)
    traj = integrate(PAPER, 0.05)
    want = {chart: _event_steps(traj, chart) for chart in "AB"}
    assert [len(want[chart]) for chart in "AB"] == [3, 1]
    assert {chart: sorted(calls[chart]) for chart in "AB"} == want

    for c in calls.values():
        c.clear()
    from helfrich.bounds import _phase_cell, check_single, solve
    cell = _phase_cell((PAPER.c0, PAPER.lam, PAPER.p, 0.05), None)
    assert cell.classification == BICONCAVE
    assert {chart: sorted(calls[chart]) for chart in "AB"} == want

    traj, lm, _ = solve(PAPER, 0.05)
    for c in calls.values():
        c.clear()
    assert check_single(traj, lm).passed
    assert calls["B"] == []
    starts = traj.chart_a.xs[:-1].tolist()
    assert sorted(calls["A"]) == [x for x in starts if x < lm.r0] != starts
    # the nodes are the completed rows y, bit for bit
    for seg in (traj.chart_a, traj.chart_b):
        assert np.array_equal(seg.nodes.view(np.uint64), seg.conts[:, 0, :].view(np.uint64))


def test_raising_completion_gives_nan_rows():
    """A stage of chart B's completion divides by s and by u.  Where it
    meets s = 0 exactly it raises, as a stage of the step does; the step
    is accepted by then, so its dense output is NaN rows, not an
    exception.  Here y = (1, 0, 0) and every stage is 0, so stage 14 is at
    s = 0."""
    rec = [-0.1, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0] + [0.0] * (kernels.NREC - 7)
    with pytest.raises(ZeroDivisionError):
        kernels.dense_b(-1.0, rec, PAPER.c0, PAPER.lam, PAPER.p)
    seg = DenseSegment([-1.0, -1.1], rec, -1.1, kernels.dense_b,
                       (PAPER.c0, PAPER.lam, PAPER.p))
    assert np.isnan(seg.eval_many([-1.0, -1.05])).all()
    assert np.isnan(seg.conts).all() and seg.nodes.tolist() == [[1.0, 0.0, 0.0]]


def test_run_chart_records_tied_events_in_table_order(ref_traj):
    """Rows that cross at the same theta are recorded in table order up to
    the first terminal one, which ends the chart as its last event."""
    params, w0p = HelfrichParams(1.0, 0.25, 1.0), 0.05
    eps = ref_traj.chart_a.x_start
    table = [("second", 0, 0.0, True, False), ("first", 0, 0.0, True, False),
             ("end", 0, 0.0, True, True), ("never", 0, 0.0, True, False)]
    seg, events, _ = _run_chart(
        kernels.dopri5_step_a, kernels.dense_a, kernels.rhs_a, "A", eps,
        series_start(params, w0p, eps),
        +1, 1e3 * math.sqrt(w0p / params.p + 1.0), params, SolverConfig(), table,
        1_000_000)
    assert [ev.kind for ev in events] == ["second", "first", "end"]
    r0 = ref_traj.first_event(ZERO_OF_W).x
    assert all(ev.x == r0 for ev in events) and seg.x_end == r0


def test_status_is_the_last_event(ref_traj, blowup_traj):
    aborted = integrate(HelfrichParams(1.0, 0.25, 1.0), 0.05, SolverConfig(max_steps=20))
    for traj, status in ((ref_traj, EQUATOR), (blowup_traj, BLOWUP_POSITIVE),
                         (aborted, ABORTED)):
        assert traj.status == traj.events[-1].kind == status


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _start_case(draw):
    """A chart start as ``integrate`` makes one: the series start of chart
    A at its default radius, or a chart-B state ``chart_switch`` gives at
    a chart-A state with w <= -1.01; with parameters, tolerances and a
    step cap."""
    c0 = draw(st.floats(-5.0, 5.0, **_finite))
    lam = draw(st.floats(-3.0, 3.0, **_finite))
    p = draw(st.floats(1e-4, 1e2, **_finite))
    params = HelfrichParams(c0, lam, p)
    if draw(st.sampled_from("AB")) == "A":
        w0p = draw(st.floats(1e-6, 1.0, **_finite))
        x = min(1e-5, 1e-3 * math.sqrt(32.0 * w0p / (3.0 * p)))
        y = series_start(params, w0p, x)
        rhs, direction = kernels.rhs_a, +1
    else:
        r = draw(st.floats(1e-2, 5.0, **_finite))
        ya = [draw(st.floats(-1e4, -1.01, **_finite))]
        ya += draw(st.lists(st.floats(-4.0, 4.0, **_finite), min_size=2, max_size=2))
        y = chart_switch(r, ya)
        x, rhs, direction = ya[2], kernels.rhs_b, -1
    tols = draw(st.sampled_from(((1e-10, 1e-12), (1e-6, 1e-8), (1e-12, 1e-14))))
    h_cap = draw(st.floats(1e-6, 1e4, **_finite))
    return rhs, x, [float(v) for v in y], direction, tols, params, h_cap


def _first_steps(rhs, x, y, direction, tols, params, h_cap):
    c0, lam, p = params.c0, params.lam, params.p
    f = rhs(x, y, c0, lam, p)
    got = _initial_step(rhs, x, y, f, direction, *tols, c0, lam, p, h_cap)
    want = initial_step_arr(rhs, x, np.array(y), np.array(f), direction, *tols,
                            c0, lam, p, h_cap)
    return got, want


@settings(max_examples=300, deadline=None)
@given(case=_start_case())
@example(case=(kernels.rhs_a, 1e-5, list(series_start(PAPER, 0.05, 1e-5)), +1,
               (1e-10, 1e-12), PAPER, 1e3 * math.sqrt(1.05) - 1e-5))  # the reference point
def test_initial_step_matches_ndarray_oracle_bit_for_bit(case):
    """The float first step size sums its norms in numpy's order: the same
    h, bit for bit, as the ndarray computation it replaced."""
    got, want = _first_steps(*case)
    assert type(got) is float and got.hex() == float(want).hex()


def test_run_chart_calls_rhs_on_python_floats(monkeypatch):
    """The chart start and the first-step trial run on Python floats, as
    the loop does: no ndarray or numpy scalar reaches the right-hand side."""
    seen = set()

    def recording(rhs):
        def wrapped(x, y, c0, lam, p):
            seen.update(type(v) for v in (x, *y))
            return rhs(x, y, c0, lam, p)
        return wrapped

    monkeypatch.setattr(kernels, "rhs_a", recording(kernels.rhs_a))
    monkeypatch.setattr(kernels, "rhs_b", recording(kernels.rhs_b))
    assert integrate(PAPER, 0.05).status == EQUATOR
    assert seen == {float}


def test_overflowing_chart_start_is_invalid_params():
    # f is finite, but its scaled norm (f / sc)^2 overflows
    with pytest.raises(InvalidParams, match="not finite"):
        integrate(HelfrichParams(1.0, 0.25, 1e300), 0.05)
    # w^3 overflows in the right-hand side itself, which gives nan
    with pytest.raises(InvalidParams, match="start of chart A"):
        _run_chart(kernels.dopri5_step_a, kernels.dense_a, kernels.rhs_a, "A", 1e-5,
                   [1e110, 0.0, 0.0], +1, 1.0, PAPER, SolverConfig(), [], 10)
