import math

import numpy as np
import pytest

from helfrich import HelfrichParams, SolverConfig, eval_q, integrate
from helfrich import kernels
from helfrich._jit import JIT_ENABLED
from conftest import PAPER
from hypothesis import assume, given, settings, strategies as st
from oracles import (
    fixed_step_chart_a,
    kappa_derivs,
    make_step_arr,
    rhs_chart_a_arr,
    rhs_chart_b_arr,
    rhs_kappa,
)


def _wpp(r, w, wp, params):
    """w'' from the chart-A right-hand side."""
    return kernels.rhs_a(r, (w, wp, 0.0), params.c0, params.lam, params.p)[1]


def _unjitted(f):
    return getattr(f, "py_func", f)


def test_rhs_flat_state_pressure_only():
    # with w = w' = 0 only the pressure term survives: 2r w'' = -p r^2 / 2
    params = HelfrichParams(0.7, -0.3, 1.0)
    assert math.isclose(_wpp(1.0, 0.0, 0.0, params), -0.25, rel_tol=1e-15)
    assert math.isclose(_wpp(2.0, 0.0, 0.0, params), -0.5, rel_tol=1e-15)


def test_rhs_rejects_nonpositive_radius():
    """At r = 0 the float kernel raises, which the chart loop takes as a
    failed step."""
    params = HelfrichParams(1.0, 0.25, 1.0)
    with pytest.raises(ZeroDivisionError):
        _wpp(0.0, 0.0, 0.1, params)


def test_curvature_form_chain_rule_1000_states():
    """w'' from the graph chart must satisfy the curvature-form equation."""
    rng = np.random.default_rng(42)
    params = HelfrichParams(1.0, 0.25, 1.0)
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.05, 3.0)
        w = rng.uniform(-4.0, 4.0)
        wp = rng.uniform(-4.0, 4.0)
        wpp = _wpp(r, w, wp, params)
        k, kp, kpp = kappa_derivs(r, w, wp, wpp)
        denom = 1.0 - r * r * k * k  # equals 1/(1+w^2), never zero here
        terms = np.array([
            -r * k * (r * kp + k) ** 2 / (2.0 * denom),
            -3.0 * kp,
            r * eval_q(k, params) / (2.0 * denom),
        ])
        resid = abs(r * kpp - terms.sum()) / max(1.0, np.abs(terms).max(),
                                                 abs(r * kpp))
        worst = max(worst, resid)
    assert worst <= 1e-9


def test_rhs_kappa_flat_point():
    params = HelfrichParams(1.0, 0.25, 1.0)
    got = rhs_kappa(1.0, 0.0, 0.0, params)
    assert math.isclose(got, -params.p / 4.0, rel_tol=1e-15)


def test_rhs_kappa_singular_denominator():
    params = HelfrichParams(1.0, 0.25, 1.0)
    with pytest.raises(ZeroDivisionError):
        rhs_kappa(2.0, 0.5 + 1e-14, 0.0, params)


def test_rhs_kappa_matches_restarted_integration():
    """kappa'' from the curvature equation vs a finite difference of kappa
    along a fresh graph-chart integration through the same state."""
    params = HelfrichParams(1.0, 0.25, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = rng.uniform(0.5, 1.5)
        kap = rng.uniform(-0.5, 0.5) / r   # keep r^2 kap^2 < 1
        kapp = rng.uniform(-0.5, 0.5)
        m = r * kap
        w = m / math.sqrt(1.0 - m * m)
        P = 1.0 + w * w
        wp = r * P ** 1.5 * kapp + P * w / r
        want = rhs_kappa(r, kap, kapp, params)

        def kappa_at(dr, n=400):
            y0 = np.array([w, wp, 0.0])
            y = fixed_step_chart_a(params, r, y0, r + dr, n)
            return y[0] / ((r + dr) * math.sqrt(1.0 + y[0] ** 2))

        def fd(h):
            return (kappa_at(h) - 2.0 * kap + kappa_at(-h)) / (h * h)

        # Richardson: error O(h^2) -> (4 fd(h/2) - fd(h)) / 3 is O(h^4)
        h = 2e-3
        est = (4.0 * fd(h / 2) - fd(h)) / 3.0
        assert abs(est - want) <= 1e-6 * max(1.0, abs(want))


def test_grouping_identity_along_trajectory(ref_traj):
    """The two conservative groupings differ by an exact derivative:
    d/dr[(w^2+2)/sqrt(1+w^2)] = w^3 w' / (1+w^2)^(3/2)."""
    seg = ref_traj.chart_a
    rs = np.linspace(seg.x_start, seg.x_end, 2000)
    Y = seg.eval_many(rs)
    w, wp = Y[:, 0], Y[:, 1]
    P = 1.0 + w * w
    # chain-rule expansion of the bracket difference vs the closed form,
    # normalized by the size of the expanded terms
    t1 = 2.0 * w / np.sqrt(P) * wp
    t2 = -(w * w + 2.0) * w / P ** 1.5 * wp
    closed = w ** 3 * wp / P ** 1.5
    scale = np.maximum.reduce([np.abs(t1), np.abs(t2), np.abs(closed),
                               np.full_like(t1, 1e-30)])
    assert np.max(np.abs(t1 + t2 - closed) / scale) <= 1e-9


def test_conservative_forms_hold_on_trajectory(ref_traj, paper_params):
    """Both first-integral groupings of the equation hold along solutions."""
    from helfrich import eval_q, eval_r
    seg = ref_traj.chart_a
    rs = np.linspace(seg.x_start * 2, seg.x_end, 1500)
    Y = seg.eval_many(rs)
    D = seg.deriv_many(rs)
    w, wp, wpp = Y[:, 0], Y[:, 1], D[:, 1]
    P = 1.0 + w * w
    kap = w / (rs * np.sqrt(P))
    lhs = (2.0 * rs * wp * wp / P ** 2.5 + 2.0 * rs * rs * wp * wpp / P ** 2.5
           - 5.0 * rs * rs * wp * wp * w * wp / P ** 3.5)
    rhs3 = 2.0 * w * wp / P ** 1.5 + rs ** 3 * wp * eval_q(kap, paper_params)
    rhs2 = (2.0 * w * wp / np.sqrt(P) - w ** 3 * wp / P ** 1.5
            + rs ** 3 * wp * eval_r(kap, paper_params))
    scale = np.maximum(1.0, np.abs(lhs))
    assert np.max(np.abs(lhs - rhs3) / scale) <= 1e-6
    assert np.max(np.abs(lhs - rhs2) / scale) <= 1e-6


def test_dense_output_consistency_and_order(paper_params):
    """Continuity at step ends is exact; mid-step values converge at the
    interpolant's order under step halving."""
    c0, lam, p = paper_params.c0, paper_params.lam, paper_params.p
    y0 = np.array([0.03, 0.05, 0.001])
    r0 = 0.6

    def dense_midpoint_error(h):
        f0 = kernels.rhs_a(r0, y0.tolist(), c0, lam, p)
        # tolerances loose enough that the step is accepted and has a
        # dense output at either size
        y1, f1, err, rec = kernels.dopri5_step_a(r0, y0.tolist(), h, f0, c0, lam,
                                                 p, 1e-6, 1e-6)
        assert err <= 1.0
        y1, cont = np.asarray(y1), _dense_rows("A", r0, rec, c0, lam, p)
        th, u = 0.5, 0.5
        mid = cont[0] + th * (cont[1] + u * (cont[2] + th * (cont[3] + u * (
            cont[4] + th * (cont[5] + u * (cont[6] + th * cont[7]))))))
        end = cont[0] + cont[1]
        assert np.allclose(end, y1, rtol=0, atol=1e-16)  # theta = 1 is exact
        ref = fixed_step_chart_a(paper_params, r0, y0, r0 + th * h, 2000)
        return np.max(np.abs(mid - ref))

    e1 = dense_midpoint_error(0.2)
    e2 = dense_midpoint_error(0.1)
    order = math.log2(e1 / e2)
    assert order >= 7.0  # 7th-order interpolant: local error O(h^8) ideally


def test_fixed_step_order_eight(paper_params):
    """Step-halving on the fixed-step variant shows eighth-order decay.
    The interval lies off the axis: near r = 0 the 1/r terms keep an
    eighth-order step pre-asymptotic down to the rounding floor."""
    y0 = np.array([0.02, 0.04, 0.001])
    ra, rb = 0.5, 1.5
    ref = fixed_step_chart_a(paper_params, ra, y0, rb, 4096)
    errs = []
    for n in (4, 8, 16):
        y = fixed_step_chart_a(paper_params, ra, y0, rb, n)
        errs.append(np.max(np.abs(y - ref) / (1.0 + np.abs(ref))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 7.0 and order2 >= 7.5


def test_adaptive_error_scales_with_tolerance(paper_params):
    from helfrich import ZERO_OF_W
    locs = {}
    for rt in (1e-6, 1e-8, 1e-10):
        traj = integrate(paper_params, 0.05,
                         SolverConfig(rel_tol=rt, abs_tol=1e-14))
        locs[rt] = traj.first_event(ZERO_OF_W).x
    ref = integrate(paper_params, 0.05,
                    SolverConfig(rel_tol=1e-13, abs_tol=1e-15))
    r0_ref = ref.first_event(ZERO_OF_W).x
    e6 = abs(locs[1e-6] - r0_ref)
    e10 = abs(locs[1e-10] - r0_ref)
    assert e10 < e6 <= 1e-4
    # roughly O(relTol): four decades of tolerance gain at least two of error
    assert e10 <= e6 * 1e-2


def test_jit_and_python_paths_agree(paper_params):
    """Compiled and source kernels agree on both charts.  Without numba
    (or with HELFRICH_JIT=0) the two are one object, which is asserted."""
    c0, lam, p = paper_params.c0, paper_params.lam, paper_params.p
    cases = [
        ("A", kernels.rhs_a, kernels.dopri5_step_a, 0.5, [0.02, 0.04, 0.001], 0.05),
        ("B", kernels.rhs_b, kernels.dopri5_step_b, -0.3, [2.0, -0.1, -1.2], -0.01),
    ]
    path = "numba against python" if JIT_ENABLED else "python only, identity checked"
    print(f"kernel paths compared: {path}")
    for chart, rhs, step, x, y, h in cases:
        dense = _dense(chart)
        f0 = rhs(x, y, c0, lam, p)
        got = step(x, y, h, f0, c0, lam, p, 1e-10, 1e-12)
        got += (dense(x, got[3], c0, lam, p),)
        assert all(np.all(np.isfinite(v)) for v in got), chart
        if not JIT_ENABLED:
            assert all(_unjitted(f) is f for f in (rhs, step, dense)), chart
            continue
        f0_py = _unjitted(rhs)(x, y, c0, lam, p)
        assert np.array_equal(f0, f0_py), chart
        want = _unjitted(step)(x, y, h, f0, c0, lam, p, 1e-10, 1e-12)
        want += (_unjitted(dense)(x, want[3], c0, lam, p),)
        for a, b in zip(got, want):
            assert np.allclose(a, b, rtol=1e-15, atol=1e-18), chart


_ORACLES = {
    "A": (kernels.rhs_a, "dopri5_step_a", rhs_chart_a_arr, make_step_arr(rhs_chart_a_arr)),
    "B": (kernels.rhs_b, "dopri5_step_b", rhs_chart_b_arr, make_step_arr(rhs_chart_b_arr)),
}
_finite = dict(allow_nan=False, allow_infinity=False)


def _dense(chart):
    """The chart's completion, ``kernels.dense_a`` or ``dense_b``."""
    return getattr(kernels, f"dense_{chart.lower()}")


def _dense_rows(chart, x, rec, c0, lam, p):
    """The dense output the chart's completion gives from an accepted
    step's record, as an (NROWS, NSTATE) ndarray."""
    cont = _dense(chart)(x, rec, c0, lam, p)
    return np.reshape(cont, (kernels.NROWS, kernels.NSTATE))


@st.composite
def _step_case(draw):
    """A chart, a state on it, parameters and a signed step size.  Chart-B
    states include |s| < 1e-3, the slopes met near the equator."""
    chart = draw(st.sampled_from("AB"))
    lead = st.floats(-4.0, 4.0, **_finite)
    y = draw(st.lists(lead, min_size=kernels.NSTATE, max_size=kernels.NSTATE))
    if chart == "A":
        x = draw(st.floats(1e-3, 5.0, **_finite))
    else:
        x = draw(st.floats(-5.0, 5.0, **_finite))
        y[0] = draw(st.floats(1e-2, 5.0, **_finite))
        # s = 0 is the equator itself, where f0 has its removable 1/s pole
        bound = draw(st.sampled_from((1e-3, 4.0)))
        y[1] = draw(st.floats(-bound, bound, **_finite).filter(lambda v: v != 0.0))
    c0 = draw(st.floats(-5.0, 5.0, **_finite))
    lam = draw(st.floats(-3.0, 3.0, **_finite))
    p = draw(st.floats(1e-4, 1e2, **_finite))
    h = draw(st.floats(1e-6, 0.5, **_finite)) * draw(st.sampled_from((-1.0, 1.0)))
    return chart, x, y, h, c0, lam, p


def _match_oracle(chart, x, y, h, c0, lam, p, rtol, atol):
    """Run the float step and its ndarray twin on one case and assert that
    they agree: y_new bit for bit; err too, except that err is not finite
    wherever y_new is not (the ndarray err can be finite there); and, on
    a step both accept, f_new and the dense rows, which the completion
    makes from the step's record, bit for bit.  Where a float stage of
    the step leaves the double range and raises, the ndarray step gave a
    value that is not finite, which the solver rejects alike; where a
    stage of the completion raises, the ndarray step's dense rows are not
    all finite.  Returns whether the step was accepted."""
    rhs, step_name, rhs_arr, step_arr = _ORACLES[chart]
    f0 = rhs(x, y, c0, lam, p)
    with np.errstate(all="ignore"):
        f0_arr = rhs_arr(x, np.array(y), c0, lam, p, np.empty(kernels.NSTATE))
        want = step_arr(x, np.array(y), h, f0_arr, c0, lam, p, rtol, atol)
    assert np.array_equal(f0, f0_arr, equal_nan=True)
    try:
        got = getattr(kernels, step_name)(x, y, h, f0, c0, lam, p, rtol, atol)
    except (OverflowError, ZeroDivisionError):
        assert not all(np.all(np.isfinite(v)) for v in want if v is not None)
        return False
    y_new, f_new, err, rec = got
    assert np.array_equal(y_new, want[0], equal_nan=True)
    if not np.all(np.isfinite(want[0])):
        assert not math.isfinite(err) and f_new is None and rec is None
        return False
    assert err == want[2] or (math.isnan(err) and math.isnan(want[2]))
    if want[3] is None:
        assert f_new is None and rec is None
        return False
    assert np.array_equal(f_new, want[1], equal_nan=True)
    try:
        cont = _dense_rows(chart, x, rec, c0, lam, p)
    except ZeroDivisionError:
        assert not np.all(np.isfinite(want[3]))
        return True
    assert np.array_equal(cont, want[3], equal_nan=True)
    return True


@settings(max_examples=300, deadline=None)
@given(case=_step_case())
def test_float_kernels_match_ndarray_oracle_bit_for_bit(case):
    """The float right-hand sides and step repeat the ndarray kernels'
    arithmetic exactly (see ``_match_oracle``).  The solver's tolerances
    reject most drawn steps, which then have no dense output; loose ones
    accept most, so that the FSAL stage and the dense rows are compared
    as well."""
    for rtol, atol in ((1e-10, 1e-12), (1e-3, 1e3)):
        _match_oracle(*case, rtol, atol)


@pytest.mark.parametrize("chart", "AB")
def test_step_returns_python_floats(chart):
    """Every value the step and its completion give back is a Python
    float: an np.float64 (from np.sqrt or an ndarray element) would triple
    the cost of a step."""
    rhs, step_name = _ORACLES[chart][:2]
    x, y, h = ((0.5, [0.02, 0.04, 0.001], 0.05) if chart == "A"
               else (-0.3, [2.0, -0.1, -1.2], -0.01))
    f0 = rhs(x, y, 1.0, 0.25, 1.0)
    y_new, f_new, err, rec = getattr(kernels, step_name)(x, y, h, f0, 1.0, 0.25,
                                                         1.0, 1e-10, 1e-12)
    cont = _dense(chart)(x, rec, 1.0, 0.25, 1.0)
    values = [*f0, *y_new, *f_new, err, *rec, *cont]
    assert len(values) == (3 * kernels.NSTATE + 1 + kernels.NREC
                           + kernels.NROWS * kernels.NSTATE) == 68
    assert all(type(v) is float for v in values), {type(v) for v in values}


@pytest.mark.parametrize("chart, x, y, h, params", [
    # c0 = lam = p = 0 and w = w' = 0: every stage is zero, so y_new
    # equals y and |y_i| ties |yn_i|
    ("A", 0.5, [0.0, -0.0, 0.25], 0.05, (0.0, 0.0, 0.0)),
    ("A", 0.5, [-0.0, 0.0, -0.25], -0.05, (0.0, 0.0, 0.0)),
    # signed zeros beside growing components
    ("A", 0.5, [-0.0, 0.05, 0.0], 0.05, (1.0, 0.25, 1.0)),
    ("B", -0.3, [2.0, -0.1, -1.2], -0.01, (1.0, 0.25, 1.0)),
    ("A", 0.5, [0.0, 0.05, -0.0], -0.05, (1.0, 0.25, 1.0)),
])
def test_error_norm_ties_and_signed_zeros(chart, x, y, h, params):
    """The emitted max(|y_i|, |yn_i|) of the error scale, a conditional
    expression, gives the ndarray oracle's err and dense output bit for
    bit on ties and zeros."""
    rhs, step_name, rhs_arr, step_arr = _ORACLES[chart]
    c0, lam, p = params
    f0 = rhs(x, y, c0, lam, p)
    want = step_arr(x, np.array(y), h,
                    rhs_arr(x, np.array(y), c0, lam, p, np.empty(kernels.NSTATE)),
                    c0, lam, p, 1e-10, 1e-12)
    y_new, _, err, rec = getattr(kernels, step_name)(x, y, h, f0, c0, lam, p,
                                                     1e-10, 1e-12)
    if params == (0.0, 0.0, 0.0):
        assert all(abs(a) == abs(b) for a, b in zip(y_new, y))
    assert err <= 1.0 and err.hex() == float(want[2]).hex()
    assert np.array_equal(_dense_rows(chart, x, rec, c0, lam, p).view(np.uint64),
                          want[3].view(np.uint64))


def test_tableau_rows_equal_scipy_dop853():
    """The package's nonzero tableau rows hold every nonzero entry of
    scipy's DOP853 arrays, exactly, and no entry that scipy has as zero.
    Stage 13's row in A is B at c = 1, which is why the step evaluates it
    at (x + h, y_new) and keeps no row of its own."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    n = ref.N_STAGES_EXTENDED

    def dense(pairs, width):
        row = [0.0] * width
        for j, a in pairs:
            assert a != 0.0 and row[j - 1] == 0.0
            row[j - 1] = a
        return row

    assert sorted(kernels._A) == [s for s in range(2, n + 1) if s != 13]
    for s, (c, pairs) in kernels._A.items():
        assert c == ref.C[s - 1]
        assert dense(pairs, n) == ref.A[s - 1].tolist()
    assert ref.C[0] == 0.0 and not ref.A[0].any()
    assert ref.C[12] == 1.0 and ref.A[12, :12].tolist() == ref.B.tolist()
    assert not ref.A[12, 12:].any()
    assert dense(kernels._B, ref.N_STAGES) == ref.B.tolist()
    assert dense(kernels._E5, ref.N_STAGES + 1) == ref.E5.tolist()
    assert dense(kernels._E3, ref.N_STAGES + 1) == ref.E3.tolist()
    assert [dense(row, n) for row in kernels._D] == ref.D.tolist()


@pytest.mark.parametrize("name, rhs", [("dopri5_step_a", kernels.rhs_a),
                                       ("dopri5_step_b", kernels.rhs_b),
                                       ("dense_a", kernels.rhs_a),
                                       ("dense_b", kernels.rhs_b)])
def test_step_coefficients_are_literals(name, rhs):
    """The step looks up no global but ``abs`` and ``math.sqrt``, and its
    completion none but ``math.sqrt``, which keeps both in the subset numba
    compiles: the tableau's weights and NSTATE are constants of their code,
    not hundreds of module lookups per call, and the chart's right-hand
    side is pasted into their stages rather than called."""
    kernel = _unjitted(getattr(kernels, name))
    names = {"math", "sqrt"} if name.startswith("dense") else {"abs", "math", "sqrt"}
    assert set(kernel.__code__.co_names) == names
    assert "rhs" not in kernel.__globals__
    assert _unjitted(rhs).__name__ not in kernel.__globals__


class _CountingMath:
    """Stands in for ``math`` in a step's globals and counts ``sqrt`` calls:
    one per stage, in either chart's right-hand side, and one for the error
    norm."""

    def __init__(self):
        self.calls = 0

    def sqrt(self, v):
        self.calls += 1
        return math.sqrt(v)


def test_rejected_step_calls_no_stage_after_twelve():
    """An accepted step evaluates stages 2-13 (stage 1 is its argument), a
    rejected one stages 2-12 only: 13 and 12 square roots with the error
    norm's.  The completion evaluates stages 14-16 only: 3 square roots."""
    cases = {"A": (0.5, [0.02, 0.04, 0.001], 0.05, 5.0),
             "B": (-0.3, [2.0, -0.1, -1.2], -0.01, -0.5)}
    for chart, (x, y, h_ok, h_bad) in cases.items():
        step_name, dense_name = f"dopri5_step_{chart.lower()}", f"dense_{chart.lower()}"
        counter = _CountingMath()
        namespace = {"math": counter}
        exec(compile(kernels._step_source(chart), "<step>", "exec"), namespace)
        exec(compile(kernels._dense_source(chart), "<dense>", "exec"), namespace)
        rhs = _ORACLES[chart][0]
        f0 = rhs(x, y, 1.0, 0.25, 1.0)
        records = []
        for h, accepted, n_sqrt in ((h_ok, True, 13), (h_bad, False, 12)):
            counter.calls = 0
            _, f_new, err, rec = namespace[step_name](x, y, h, f0, 1.0, 0.25, 1.0,
                                                      1e-10, 1e-12)
            assert (err <= 1.0) is accepted and (f_new is not None) is accepted, chart
            assert counter.calls == n_sqrt, chart
            records.append(rec)
        counter.calls = 0
        namespace[dense_name](x, records[0], 1.0, 0.25, 1.0)
        assert counter.calls == 3, chart


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(case=_step_case())
def test_fsal_stage_is_the_rhs_at_the_new_state(case):
    """An accepted step's ``f_new``, its stage 13 pasted from the chart's
    right-hand side text, is bit for bit the standalone ``rhs_a``/``rhs_b``
    at (x + h, y_new)."""
    chart, x, y, h, c0, lam, p = case
    rhs, step_name = _ORACLES[chart][:2]
    f0 = rhs(x, y, c0, lam, p)
    try:
        y_new, f_new, _, _ = getattr(kernels, step_name)(x, y, h, f0, c0, lam, p, 1e-3, 1e3)
    except (OverflowError, ZeroDivisionError):
        y_new, f_new = None, None
    assume(f_new is not None)
    assert _bits(f_new) == _bits(rhs(x + h, y_new, c0, lam, p))


def test_reference_solve_steps_match_ndarray_oracle(monkeypatch):
    """Every step call of the reference solve, on both charts and at the
    default tolerances, matches the ndarray oracle bit for bit (see
    ``_match_oracle``), and each call's ``f0`` is the right-hand side at
    its (x, y): the FSAL stage handed on by the step before."""
    calls = []
    for chart in "AB":
        step_name = _ORACLES[chart][1]

        def record(*args, _chart=chart, _step=getattr(kernels, step_name)):
            calls.append((_chart, args))
            return _step(*args)

        monkeypatch.setattr(kernels, step_name, record)
    integrate(PAPER, 0.05)
    monkeypatch.undo()
    accepted = {"A": 0, "B": 0}
    for chart, (x, y, h, f0, c0, lam, p, rtol, atol) in calls:
        assert _bits(f0) == _bits(_ORACLES[chart][0](x, y, c0, lam, p))
        accepted[chart] += _match_oracle(chart, x, y, h, c0, lam, p, rtol, atol)
    print(f"reference solve: {len(calls)} step calls, accepted {accepted}")
    assert accepted["A"] > 0 and accepted["B"] > 0


def test_equator_theta_is_the_widest_abscissa_gap_midpoint():
    """Derived from the tableau rows, the chart-B equator position is the
    midpoint of the stage abscissae 1/3 and 0.6, bit for bit."""
    assert kernels.EQUATOR_THETA.hex() == (0.5 * (1.0 / 3.0 + 0.6)).hex()
