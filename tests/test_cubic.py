import math
import struct
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helfrich import HelfrichParams, analyze_cubic, derived_constants, eval_q, eval_r
from helfrich import cubic
from helfrich.cubic import _q_critical_points, delta_minus
from helfrich.errors import InvalidSlope
from conftest import params_st
from oracles import sample_extrema_oracle


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
    assert math.isclose(ca.smallest_root, 1.0, rel_tol=1e-13)
    assert ca.all_roots_positive

    # (t+1)(t^2 - t - 1): expansion gives c0 = 0, lam = -2, p = 2
    ca = analyze_cubic(HelfrichParams(0.0, -2.0, 2.0))
    assert math.isclose(ca.smallest_root, -1.0, rel_tol=1e-12)
    assert not ca.all_roots_positive


def test_analyze_cubic_single_root_bisection_oracle():
    params = HelfrichParams(1.0, 0.25, 1.0)
    ca = analyze_cubic(params)
    # independent bisection on [0.25, 0.30] where Q changes sign
    lo, hi = 0.25, 0.30
    assert eval_q(lo, params) < 0 < eval_q(hi, params)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if eval_q(mid, params) < 0:
            lo = mid
        else:
            hi = mid
    assert math.isclose(ca.smallest_root, 0.5 * (lo + hi), abs_tol=1e-12)
    assert abs(ca.smallest_root - 0.2689) < 1e-4
    assert ca.all_roots_positive


def test_analyze_cubic_multiplicities():
    """A multiple root sits at a critical point of Q, where Q is exactly 0
    for these integer coefficients: no sign change needed."""
    # (t-1)^2 (t-2) = t^3 - 4 t^2 + 5 t - 2
    ca = analyze_cubic(HelfrichParams(-2.0, 1.0, 4.0))
    assert ca.smallest_root == 1.0
    assert ca.all_roots_positive

    # (t-1)^3 = t^3 - 3 t^2 + 3 t - 1
    ca = analyze_cubic(HelfrichParams(-1.5, 0.75, 2.0))
    assert ca.smallest_root == 1.0
    assert ca.all_roots_positive


def test_zero_root_not_positive():
    # p = 0 puts a root exactly at t = 0, the only real one here
    ca = analyze_cubic(HelfrichParams(1.0, 0.5, 0.0))
    assert ca.smallest_root == 0.0
    assert not ca.all_roots_positive


@settings(max_examples=120, deadline=None)
@given(params_st)
def test_analyze_cubic_root_residuals(params):
    root = analyze_cubic(params).smallest_root
    scale = max(1.0, abs(2 * params.c0), abs(params.c0 ** 2 + params.lam),
                abs(params.p / 2))
    assert abs(eval_q(root, params)) <= 1e-12 * scale * (1.0 + abs(root)) ** 3


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


def _mp_smallest_root(params):
    """Smallest real root of Q from ``mpmath.polyroots`` to 50 significant
    digits, or None inside the rounding band: where Q at 0 or at a critical
    point is within 1e-8 of the size of its terms (a near-multiple root, or
    the sign of Q(0) at rounding level) or below the smallest subnormal
    (p = 5e-324, whose half rounds to 0).

    polyroots converges to an absolute accuracy, and from starts of size 1.
    So it solves Q(s x) / s^3, with s Fujiwara's bound 2 max(|B|, |C|^(1/2),
    |D/2|^(1/3)) on the roots: every root has |x| <= 1, the coefficients
    are at most 1/2, 1/4 and 1/4, and so a root has |x| >= |d| / 2 for the
    scaled constant term d = D / s^3.  The precision grows by the digits
    below that.  A root is real when its imaginary part is below 1e-30 of
    its size."""
    with mpmath.workdps(50):
        c0 = mpmath.mpf(params.c0)
        B, C, D = 2 * c0, c0 * c0 + params.lam, -mpmath.mpf(params.p) / 2
        nodes = [mpmath.mpf(0)]
        if B * B >= 3 * C:  # Q' = 3 t^2 + 2 B t + C has real roots
            nodes += [(-B + sign * mpmath.sqrt(B * B - 3 * C)) / 3 for sign in (-1, 1)]
        for t in nodes:
            if abs(((t + B) * t + C) * t + D) <= 1e-8 * (abs(t) ** 3 + abs(B) * t * t
                                                      + abs(C * t) + abs(D)) + 2.0 ** -1074:
                return None
        s = 2 * max(abs(B), mpmath.sqrt(abs(C)), mpmath.cbrt(abs(D) / 2))
        extra = max(0, int(-mpmath.log10(abs(D) / s ** 3 / 2)) + 1)
    with mpmath.workdps(50 + extra):
        roots = mpmath.polyroots([1, B / s, C / s ** 2, D / s ** 3], maxsteps=400,
                                 extraprec=60, cleanup=False)
        return s * min(mpmath.re(x) for x in roots if abs(mpmath.im(x)) <= 1e-30 * abs(x))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    params_st,
    # the fuzz ranges of the ROADMAP baseline, and p <= 0
    st.builds(HelfrichParams, st.floats(-5, 5), st.floats(-3, 3),
              st.one_of(st.floats(-4, 2).map(lambda e: 10.0 ** e),
                        st.floats(-4, -1e-4), st.just(0.0))),
))
def test_roots_match_mpmath_polyroots(params):
    """Outside the rounding band, the positivity flag (the sign of
    delta_minus) and the smallest root agree with an independent 50-digit
    root finder."""
    root = _mp_smallest_root(params)
    if root is None:
        return
    ca = analyze_cubic(params)
    assert ca.all_roots_positive == (root > 0)
    scale = max(1.0, abs(2 * params.c0), abs(params.c0 ** 2 + params.lam),
                abs(params.p / 2))
    assert abs(ca.smallest_root - float(root)) <= 1e-12 * scale


def test_double_roots_leave_delta_minus_at_zero():
    """A double root at t <= 0 puts the maximum of Q on (-inf, 0] at 0."""
    for a, b in ((-1, 2), (-2, 1), (0, 3)):
        params = _double_root_params(a, b)
        assert not analyze_cubic(params).all_roots_positive
        assert derived_constants(params, 0.1).delta_minus == 0.0


def test_rounding_band_inputs_decided_by_delta_minus():
    """Inputs where Q is at rounding level at a critical point: the exact
    sign of delta_minus decides positivity, and the smallest root skips a
    node where Q is merely small.

    * Q = t (t + 1)^2 - p/2 with p = 1e-14 has one real root, near p/2 > 0,
      and Q(-1) = -p/2 < 0 is no root.
    * With p = -8e-298 < 0, Q(0) > 0 puts a root below 0; Q > 0 at the
      critical point -1e-10 brackets the smallest root left of it.
    """
    params = HelfrichParams(1.0, 0.0, 1e-14)
    assert eval_q(-1.0, params) == -0.5e-14
    ca = analyze_cubic(params)
    assert ca.all_roots_positive
    assert math.isclose(ca.smallest_root, 0.5e-14, rel_tol=1e-12)
    assert derived_constants(params, 0.1).delta_minus == 0.5e-14

    params = HelfrichParams(1e-10, 0.0, -8e-298)
    ca = analyze_cubic(params)
    assert not ca.all_roots_positive
    assert ca.smallest_root < 0.0
    assert derived_constants(params, 0.1).delta_minus == -4e-298


def test_root_far_below_one_keeps_its_relative_accuracy():
    """A positive root near 2e-105 comes back to 1e-12 relative, not as
    the 0.0 that a bisection stopped on an absolute step size leaves, which
    would put it below every w0p of the sweep rule.  The 50-digit root
    agrees with the leading term p / (2 (c0^2 + lambda)) of the root near 0."""
    params = HelfrichParams(4.98183045526196, 0.81038875893063, 1.0053717247457603e-103)
    ca = analyze_cubic(params)
    root = float(_mp_smallest_root(params))
    assert math.isclose(root, params.p / (2 * (params.c0 ** 2 + params.lam)), rel_tol=1e-12)
    assert ca.all_roots_positive
    assert math.isclose(ca.smallest_root, root, rel_tol=1e-12)


@pytest.mark.parametrize("mantissa", [1.0, 1.5273595210586674, 3.3, 7.9])
def test_tiny_cube_root_keeps_its_relative_accuracy(mantissa):
    """For c0 = lambda = 0, Q = t^3 - p/2 has the one real root (p/2)^(1/3).
    Newton from the bracket's scale shrinks x by a third per step toward a
    tiny root, which once ran into the iteration cap: p = 1.527e-209 and
    1e-150 both gave 6.05e-36.  Over p in 10^[-300, -60] the root comes
    back to 1e-12 relative."""
    for e in range(60, 301):
        p = mantissa * 10.0 ** -e
        root = analyze_cubic(HelfrichParams(0.0, 0.0, p)).smallest_root
        assert math.isclose(root, (p / 2) ** (1 / 3), rel_tol=1e-12), p


@pytest.mark.parametrize("mantissa", [1.0, 1.5273595210586674, 3.3, 7.9])
def test_huge_cube_root_keeps_its_relative_accuracy(mantissa):
    """Over p in 10^[100, 308], wherever p is finite, the one real root
    (p/2)^(1/3) of Q = t^3 - p/2 comes back to 1e-12 relative, also where
    Q overflows at the Cauchy bound; p = 1e200 once gave 1.56e139, not
    3.68e66.  Where c0^2 = 1e200 dwarfs p = 1, the root near 0 is
    p / (2 c0^2) = 5e-201 for either sign of c0."""
    for e in range(100, 309):
        p = mantissa * 10.0 ** e
        if math.isinf(p):
            continue
        root = analyze_cubic(HelfrichParams(0.0, 0.0, p)).smallest_root
        assert math.isclose(root, (p / 2) ** (1 / 3), rel_tol=1e-12), p
    for c0 in (1e100, -1e100):
        root = analyze_cubic(HelfrichParams(c0, 0.0, 1.0)).smallest_root
        assert math.isclose(root, 5e-201, rel_tol=1e-12), c0


wide_params_st = st.one_of(
    params_st,
    # the fuzz ranges of the ROADMAP baseline, and p <= 0
    st.builds(HelfrichParams, st.floats(-5, 5), st.floats(-3, 3),
              st.one_of(st.floats(-4, 2).map(lambda e: 10.0 ** e),
                        st.floats(-4, -1e-4), st.just(0.0))),
    # tiny cube roots
    st.builds(HelfrichParams, st.just(0.0), st.just(0.0),
              st.floats(-300, -60).map(lambda e: 10.0 ** e)),
    # huge coefficient scales
    st.builds(HelfrichParams, st.sampled_from([0.0, 1e100, -1e100]), st.just(0.0),
              st.floats(0, 308).map(lambda e: 10.0 ** e)),
)


@settings(max_examples=300, deadline=None)
@given(wide_params_st)
def test_smallest_root_is_where_q_changes_sign(params):
    """The root is a double where Q is 0, or the first double where Q is
    positive with Q negative at the double below it."""
    root = analyze_cubic(params).smallest_root
    q = eval_q(root, params)
    assert q == 0.0 or q > 0.0 > eval_q(math.nextafter(root, -math.inf), params)


def _bisect_calls(f, lo, hi):
    """The halving ``cubic._bisect`` once was: a call of f per halving."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm > 0.0:
            hi = mid
        else:
            lo = mid


@settings(max_examples=300, deadline=None)
@given(wide_params_st)
@example(HelfrichParams(1.0, 0.25, 1.0))
@example(HelfrichParams(0.0, 0.0, 1e200))  # root 3.68e66, Q overflows at the bracket end
@example(HelfrichParams(0.0, 0.0, 1.5273595210586674e-209))  # tiny root, 1.97e-70
@example(HelfrichParams(-0.0, -0.0, 2.0))
def test_inline_halving_is_the_halving_of_eval_q(params):
    """On every bracket ``analyze_cubic`` builds, the halving on Q's
    inline Horner form returns the double that halving with a call of
    ``eval_q`` per step returns."""
    bisect, brackets = cubic._bisect, []

    def spy(params_, lo, hi):
        brackets.append((lo, hi))
        return bisect(params_, lo, hi)

    with mock.patch.object(cubic, "_bisect", spy):
        root = analyze_cubic(params).smallest_root
    for lo, hi in brackets:
        want = _bisect_calls(lambda t: eval_q(t, params), lo, hi)
        assert struct.pack("<d", bisect(params, lo, hi)) == struct.pack("<d", want)
        assert struct.pack("<d", root) == struct.pack("<d", want)


def test_coefficient_out_of_float_range_is_overflow():
    """c0^2 + lambda = 2e308 leaves the float range, and with it the
    Cauchy bound that brackets the roots: OverflowError, as for a c0
    whose square overflows, not a halving of an infinite bracket."""
    for params in (HelfrichParams(1e154, 1e308, 1.0), HelfrichParams(1e160, 0.0, 1.0)):
        with pytest.raises(OverflowError):
            analyze_cubic(params)


def test_q_at_zero_where_c0_squared_plus_lambda_overflows():
    """c0^2 + lambda = 2e308 overflows, and ``eval_q(0.0)`` forms inf * 0
    = NaN; Q(0) is -p/2, so t = 0 gives -Q = 0.5 and the constants are
    not NaN: Q(w0p) is +inf, so delta_plus is -inf."""
    params = HelfrichParams(1e154, 1e308, 1.0)
    assert math.isnan(eval_q(0.0, params))
    assert delta_minus(params) == 0.5
    dc = derived_constants(params, 0.1)
    assert dc.mu == 0.5 and dc.delta_minus == 0.5 and dc.delta_plus == -math.inf


@settings(max_examples=300, deadline=None)
@given(params_st, st.floats(1e-4, 2.0))
# p / 2 underflows to 0 here: -p/2 would be -0.0 where eval_q gives +0.0
@example(HelfrichParams(0.0, 0.0, 5e-324), 1.0)
def test_q_at_zero_keeps_the_bits_of_eval_q(params, w0p):
    """Where c0^2 + lambda is finite, ``delta_minus`` and the constants of
    ``derived_constants`` take Q(0) from ``eval_q(0.0)``, bit for bit, the
    sign of a zero included."""
    crit = _q_critical_points(params)
    qv = [eval_q(t, params) for t in [0.0, w0p] + [t for t in crit if 0.0 < t < w0p]]
    d_minus = -max(eval_q(t, params) for t in [0.0] + [t for t in crit if t < 0.0])
    want = [-min(qv), -max(qv), d_minus, d_minus]
    dc = derived_constants(params, w0p)
    got = [dc.mu, dc.delta_plus, dc.delta_minus, delta_minus(params)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("params, root", [
    # Q = t^2 (t + 2e154) - 1/2 up to rounding: roots near -2e154 and +-5e-78
    (HelfrichParams(1e154, -1e308, 1.0), -2e154),
    # Q = t^3 - 1.7e308 t - 1/2: roots near -sqrt(1.7e308), 0 and sqrt(1.7e308)
    (HelfrichParams(0.0, -1.7e308, 1.0), -math.sqrt(1.7e308)),
])
def test_critical_points_where_the_plain_discriminant_overflows(params, root):
    """b^2 - 4ac of Q' overflows here.  Taken as is, it put a critical
    point at -inf, so the smallest root came back positive (5e-78 and
    +1.3e154) and every root was called positive."""
    ca = analyze_cubic(params)
    assert math.isclose(ca.smallest_root, root, rel_tol=1e-12)
    assert not ca.all_roots_positive
    assert delta_minus(params) < 0.0


def _plain_critical_points(params):
    """_q_critical_points with the plain discriminant b^2 - 4ac only."""
    a, b, c = 3.0, 4.0 * params.c0, params.c0 ** 2 + params.lam
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-b / (2.0 * a)]
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / (2.0 * a)
    return [min(r1, r2), max(r1, r2)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(params_st, st.builds(HelfrichParams, st.floats(-1e153, 1e153),
                                      st.floats(-1e306, 1e306), st.just(1.0))))
def test_critical_points_keep_the_plain_discriminant_where_finite(params):
    """The scaled discriminant is taken only where b^2 - 4ac leaves the
    float range: elsewhere the critical points are the plain formula's,
    bit for bit."""
    got = [t.hex() for t in _q_critical_points(params)]
    assert got == [t.hex() for t in _plain_critical_points(params)]
