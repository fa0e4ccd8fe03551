import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helfrich import HelfrichParams, analyze_cubic, derived_constants, eval_q, eval_r
from helfrich.errors import InvalidSlope
from oracles import sample_extrema_oracle

params_st = st.builds(
    HelfrichParams,
    st.floats(-3, 3),
    st.floats(-4, 4),
    st.floats(-4, 4),
)


def test_eval_q_constant_term():
    for p in (1.0, 0.3, 7.5):
        assert eval_q(0.0, HelfrichParams(2.0, -1.0, p)) == -p / 2


def test_eval_q_unit_cube():
    assert eval_q(1.0, HelfrichParams(0.0, 0.0, 2.0)) == 0.0


def test_eval_q_rational_point():
    # 0.001 + 0.02 + 0.125 - 0.5
    got = eval_q(0.1, HelfrichParams(1.0, 0.25, 1.0))
    assert math.isclose(got, -0.354, rel_tol=1e-14)


def test_eval_r_values():
    assert eval_r(0.0, HelfrichParams(1.0, 2.0, 3.0)) == -1.5
    got = eval_r(1.0, HelfrichParams(5.0, 0.0, 0.1))
    assert math.isclose(got, 34.95, rel_tol=1e-14)


def test_q_minus_r_is_cube_bulk():
    rng = np.random.default_rng(7)
    params = HelfrichParams(1.3, -0.7, 2.1)
    mag = 10.0 ** rng.uniform(-3, 5, 1_000_000)
    t = mag * rng.choice([-1.0, 1.0], size=mag.size)
    err = np.abs(eval_q(t, params) - eval_r(t, params) - t ** 3)
    assert np.all(err <= 1e-12 * (1.0 + np.abs(t) ** 3))


def test_analyze_cubic_simple_cases():
    ca = analyze_cubic(HelfrichParams(0.0, 0.0, 2.0))
    assert len(ca.real_roots) == 1
    root, mult = ca.real_roots[0]
    assert math.isclose(root, 1.0, rel_tol=1e-13) and mult == 1
    assert ca.all_roots_positive

    # (t+1)(t^2 - t - 1): expansion gives c0 = 0, lam = -2, p = 2
    ca = analyze_cubic(HelfrichParams(0.0, -2.0, 2.0))
    roots = [r for r, _ in ca.real_roots]
    expected = sorted([-1.0, (1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2])
    assert np.allclose(roots, expected, rtol=1e-12)
    assert not ca.all_roots_positive


def test_analyze_cubic_single_root_bisection_oracle():
    params = HelfrichParams(1.0, 0.25, 1.0)
    ca = analyze_cubic(params)
    assert len(ca.real_roots) == 1
    # independent bisection on [0.25, 0.30] where Q changes sign
    lo, hi = 0.25, 0.30
    assert eval_q(lo, params) < 0 < eval_q(hi, params)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if eval_q(mid, params) < 0:
            lo = mid
        else:
            hi = mid
    assert math.isclose(ca.real_roots[0][0], 0.5 * (lo + hi), abs_tol=1e-12)
    assert abs(ca.real_roots[0][0] - 0.2689) < 1e-4
    assert ca.all_roots_positive


def test_analyze_cubic_multiplicities():
    # (t-1)^2 (t-2) = t^3 - 4 t^2 + 5 t - 2
    ca = analyze_cubic(HelfrichParams(-2.0, 1.0, 4.0))
    assert [(round(r, 9), m) for r, m in ca.real_roots] == [(1.0, 2), (2.0, 1)]
    assert ca.all_roots_positive

    # (t-1)^3 = t^3 - 3 t^2 + 3 t - 1
    ca = analyze_cubic(HelfrichParams(-1.5, 0.75, 2.0))
    assert len(ca.real_roots) == 1
    root, mult = ca.real_roots[0]
    assert math.isclose(root, 1.0, abs_tol=1e-7) and mult == 3


def test_zero_root_not_positive():
    # p = 0 puts a root exactly at t = 0
    ca = analyze_cubic(HelfrichParams(1.0, 0.5, 0.0))
    assert any(r == 0.0 for r, _ in ca.real_roots)
    assert not ca.all_roots_positive


@settings(max_examples=120, deadline=None)
@given(params_st)
def test_analyze_cubic_root_residuals(params):
    ca = analyze_cubic(params)
    assert 1 <= sum(m for _, m in ca.real_roots) <= 3
    scale = max(1.0, abs(2 * params.c0), abs(params.c0 ** 2 + params.lam),
                abs(params.p / 2))
    for root, mult in ca.real_roots:
        tol = 1e-12 * scale * (1.0 + abs(root)) ** 3
        if mult > 1:  # residual of a multiple root scales like delta^mult
            tol = 1e-6 * scale * (1.0 + abs(root)) ** 3
        assert abs(eval_q(root, params)) <= tol


def test_derived_constants_reference_values():
    params = HelfrichParams(1.0, 0.25, 1.0)
    dc = derived_constants(params, 0.1)
    # Q is increasing on [0, 0.1] (Q'(0) = 1.25 > 0, no interior critical point)
    assert math.isclose(dc.delta_plus, 0.354, rel_tol=1e-13)
    assert math.isclose(dc.mu, 0.5, rel_tol=1e-13)
    assert math.isclose(dc.delta_minus, 0.5, rel_tol=1e-13)
    assert dc.delta == min(dc.delta_plus / 8, dc.delta_minus / 2)
    assert dc.xi < 1.0


def test_derived_constants_small_slope_limit():
    for params in (HelfrichParams(1.0, 0.25, 1.0), HelfrichParams(0.5, 1.0, 3.0)):
        assert params.c0 ** 2 + params.lam > 0
        dc = derived_constants(params, 1e-9)
        assert math.isclose(dc.delta_plus, params.p / 2, rel_tol=1e-6)
        assert math.isclose(dc.mu, params.p / 2, rel_tol=1e-6)


def test_derived_constants_rejects_nonpositive_slope():
    with pytest.raises(InvalidSlope):
        derived_constants(HelfrichParams(1.0, 0.25, 1.0), -0.1)
    with pytest.raises(InvalidSlope):
        derived_constants(HelfrichParams(1.0, 0.25, 1.0), 0.0)


@settings(max_examples=40, deadline=None)
@given(params_st, st.floats(1e-4, 2.0))
def test_derived_constants_match_dense_sampling(params, w0p):
    dc = derived_constants(params, w0p)
    mu_s, dp_s, dm_s = sample_extrema_oracle(params, w0p)
    assert abs(dc.mu - mu_s) <= 1e-6
    assert abs(dc.delta_plus - dp_s) <= 1e-6
    assert abs(dc.delta_minus - dm_s) <= 1e-6
    assert dc.mu >= dc.delta_plus
    assert dc.delta <= dc.delta_plus / 8 and dc.delta <= dc.delta_minus / 2


def test_positive_parameters_give_positive_roots_and_constants():
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = HelfrichParams(rng.uniform(0.01, 4), rng.uniform(0.01, 4),
                                rng.uniform(0.01, 4))
        ca = analyze_cubic(params)
        assert ca.all_roots_positive
        w0p = 0.5 * ca.smallest_root
        dc = derived_constants(params, w0p)
        assert dc.delta_plus > 0 and dc.delta_minus > 0 and dc.delta > 0
        assert dc.xi < 1.0



def _double_root_params(a: int, b: int) -> HelfrichParams:
    """Q = (t - a)^2 (t - b); small integers keep every coefficient, and
    Q at the critical point a, exact."""
    c0 = -(2 * a + b) / 2
    return HelfrichParams(c0, a * a + 2 * a * b - c0 * c0, 2 * a * a * b)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    # the fuzz ranges of the ROADMAP baseline, and p <= 0; |p| >= 1e-4 keeps
    # clear of analyze_cubic's rounding band (see the test below)
    st.builds(HelfrichParams, st.floats(-5, 5), st.floats(-3, 3),
              st.one_of(st.floats(-4, 2).map(lambda e: 10.0 ** e),
                        st.floats(-4, -1e-4), st.just(0.0))),
    st.builds(_double_root_params, st.integers(-4, 4), st.integers(-4, 4)),
))
def test_roots_positive_iff_delta_minus_positive(params):
    """Q -> -inf as t -> -inf, so every real root is positive iff Q < 0 on
    (-inf, 0], that is iff delta_minus > 0: the estimate hypotheses need
    no root isolation."""
    dm = derived_constants(params, 0.1).delta_minus
    assert analyze_cubic(params).all_roots_positive == (dm > 0.0)


def test_double_roots_leave_delta_minus_at_zero():
    """A double root at t <= 0 puts the maximum of Q on (-inf, 0] at 0."""
    for a, b in ((-1, 2), (-2, 1), (0, 3)):
        params = _double_root_params(a, b)
        assert not analyze_cubic(params).all_roots_positive
        assert derived_constants(params, 0.1).delta_minus == 0.0


def test_root_isolation_rounding_band_differs_from_delta_minus():
    """analyze_cubic decides within its rounding tolerance, where
    delta_minus reads the sign of Q exactly; there check_single's
    hypotheses, read off delta_minus, differ from the root isolation.

    * Q = t (t + 1)^2 - p/2 with p = 1e-14 has one real root, near p/2 > 0,
      and Q(-1) = -p/2 < 0; analyze_cubic takes |Q(-1)| for a double root.
    * With p = -8e-298 < 0, Q(0) > 0 puts a root below 0; the bisection
      stops at about 1e-16 from 0 and reports a positive root.
    """
    params = HelfrichParams(1.0, 0.0, 1e-14)
    assert eval_q(-1.0, params) == -0.5e-14
    assert (-1.0, 2) in analyze_cubic(params).real_roots
    assert not analyze_cubic(params).all_roots_positive
    assert derived_constants(params, 0.1).delta_minus == 0.5e-14

    params = HelfrichParams(1e-10, 0.0, -8e-298)
    assert analyze_cubic(params).all_roots_positive
    assert derived_constants(params, 0.1).delta_minus == -4e-298
