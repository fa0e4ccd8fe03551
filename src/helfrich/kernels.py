"""Hot numerical kernels: shape-equation right-hand sides and the
embedded Dormand-Prince 5(4) step, built once per coordinate chart.

State layout, chart A (independent variable r):
    y = [w, wp, z, area_acc, vol_acc, energy_acc]
with w = z'(r), wp = w'(r), and the quadrature accumulators
    area_acc   = int r sqrt(1+w^2) dr
    vol_acc    = int r^2 w dr
    energy_acc = int [(2H+c0)^2 + lambda] r sqrt(1+w^2) dr.

State layout, chart B (independent variable z, decreasing):
    y = [u, s, q, area_acc, vol_acc, energy_acc]
with u = r(z), s = u'(z) = 1/w, q = u''(z) = -w'/w^3.  The accumulators
continue the same integrals in the z parametrization.

The chart-B equation is third order in u; its right-hand side has a
1/s factor that is removable along solutions (the coefficient vanishes
exactly at the equator), so stages evaluated across s = 0 stay on the
smooth continuation of the blow-down branch.

Each right-hand side is written once, in a factory over the square root
it uses.  The ``math.sqrt`` instance (``rhs_a``, ``rhs_b``) takes and
returns Python floats and feeds the step; the ``np.sqrt`` instance
(``rhs_a_many``, ``rhs_b_many``) broadcasts over (6, N) state arrays.
The step works on Python floats, because numpy arithmetic on 6-element
arrays and ``np.float64`` scalars costs several times the arithmetic
itself, and it is written out one local scalar per component, because
list comprehensions over ``zip`` cost more than the sums they build.
Python floats raise ``ZeroDivisionError`` and ``OverflowError`` where
ndarrays give inf or nan; the caller treats either as a failed step.

The step and the scalar right-hand sides keep to the subset numba
compiles (scalars, tuples, list literals, ``math.sqrt``) and are
compiled when numba is importable and HELFRICH_JIT is not 0 (see
``_jit``).  That the compiled path builds and matches is unverified: the
suite has only run without numba.
"""

import math

import numpy as np

from ._jit import njit

NSTATE = 6

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# embedded 4th-order error weights (b - bhat)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# stage weights of the quartic continuous extension
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
)


def _make_rhs_a(sqrt):
    """Chart-A derivatives with respect to r, as a 6-tuple; reads y[:3]."""

    def rhs(r, y, c0, lam, p):
        w = y[0]
        wp = y[1]
        P = 1.0 + w * w
        sq = sqrt(P)
        # w'' solved from the shape equation; the 1/r^2 group is rearranged to
        # w^3 (3 + w^2) / (2 r^2), which avoids cancellation against -wp/r
        wpp = (
            2.5 * w * wp * wp / P
            - (wp - w / r) / r
            + w ** 3 * (3.0 + w * w) / (2.0 * r * r)
            + c0 * w * w * P * sq / r
            + 0.5 * (c0 * c0 + lam) * w * P * P
            - 0.25 * p * r * P * P * sq
        )
        twoH = (wp + (w / r) * P) / (P * sq)
        return (wp, wpp, w, r * sq, r * r * w, ((twoH + c0) ** 2 + lam) * r * sq)

    return rhs


def _make_rhs_b(sqrt):
    """Chart-B derivatives with respect to z, as a 6-tuple; reads y[:3]."""

    def rhs(z, y, c0, lam, p):
        u = y[0]
        s = y[1]
        q = y[2]
        P = s * s + 1.0
        sq = sqrt(P)
        # coefficient of the removable 1/s pole; vanishes at the equator
        N = (
            q * q * (6.0 * s * s + 1.0) / (2.0 * P)
            - (2.0 * s * s + 1.0) * P / (2.0 * u * u)
            + c0 * P * sq / u
            - 0.5 * (c0 * c0 + lam) * P * P
            - 0.25 * p * u * P * P * sq
        )
        twoH = (q - P / u) / (P * sq)
        return (s, q, N / s - q * s / u, -u * sq, u * u,
                -((twoH + c0) ** 2 + lam) * u * sq)

    return rhs


rhs_a = njit(_make_rhs_a(math.sqrt))
rhs_b = njit(_make_rhs_b(math.sqrt))
rhs_a_many = _make_rhs_a(np.sqrt)
rhs_b_many = _make_rhs_b(np.sqrt)


def _make_step(rhs):
    """One embedded Dormand-Prince 5(4) step over the right-hand side ``rhs``.

    The returned step(x, y, h, f0, c0, lam, p, rtol, atol) takes the
    state ``y`` and its derivative ``f0`` as sequences of six floats and
    gives (y_new, f_new, err, cont): the new state as a list, the FSAL
    stage f_new (the tuple ``rhs`` returned), the scalar weighted error
    norm, and the five dense-output rows of the step (``y`` and four
    lists of six floats).

    The arithmetic is written out one local scalar per component:
    ``y0..y5`` is the state, ``kS_i`` component i of stage S (stage 1 is
    ``f0``), so each tableau coefficient's index names its stage, and
    ``yn0..yn5`` is the new state.  ``rhs`` reads only the first three
    components of a state (the rest are quadratures), so the stage states
    carry only those.  Each sum keeps the order of its tableau row, and
    the error norm adds its squares in component order.  Under numba,
    ``rhs`` is a jitted function that the closure captures as a
    compile-time constant.
    """

    @njit
    def step(x, y, h, f0, c0, lam, p, rtol, atol):
        y0, y1, y2, y3, y4, y5 = y
        k1_0, k1_1, k1_2, k1_3, k1_4, k1_5 = f0
        k2_0, k2_1, k2_2, _, _, _ = rhs(
            x + _C2 * h,
            (y0 + h * (_A21 * k1_0),
             y1 + h * (_A21 * k1_1),
             y2 + h * (_A21 * k1_2)),
            c0, lam, p)
        k3_0, k3_1, k3_2, k3_3, k3_4, k3_5 = rhs(
            x + _C3 * h,
            (y0 + h * (_A31 * k1_0 + _A32 * k2_0),
             y1 + h * (_A31 * k1_1 + _A32 * k2_1),
             y2 + h * (_A31 * k1_2 + _A32 * k2_2)),
            c0, lam, p)
        k4_0, k4_1, k4_2, k4_3, k4_4, k4_5 = rhs(
            x + _C4 * h,
            (y0 + h * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
             y1 + h * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
             y2 + h * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2)),
            c0, lam, p)
        k5_0, k5_1, k5_2, k5_3, k5_4, k5_5 = rhs(
            x + _C5 * h,
            (y0 + h * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
             y1 + h * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
             y2 + h * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2)),
            c0, lam, p)
        k6_0, k6_1, k6_2, k6_3, k6_4, k6_5 = rhs(
            x + h,
            (y0 + h * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
             y1 + h * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1),
             y2 + h * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2 + _A64 * k4_2 + _A65 * k5_2)),
            c0, lam, p)
        yn0 = y0 + h * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
        yn1 = y1 + h * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
        yn2 = y2 + h * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2 + _B5 * k5_2 + _B6 * k6_2)
        yn3 = y3 + h * (_B1 * k1_3 + _B3 * k3_3 + _B4 * k4_3 + _B5 * k5_3 + _B6 * k6_3)
        yn4 = y4 + h * (_B1 * k1_4 + _B3 * k3_4 + _B4 * k4_4 + _B5 * k5_4 + _B6 * k6_4)
        yn5 = y5 + h * (_B1 * k1_5 + _B3 * k3_5 + _B4 * k4_5 + _B5 * k5_5 + _B6 * k6_5)
        y_new = [yn0, yn1, yn2, yn3, yn4, yn5]
        k7 = rhs(x + h, y_new, c0, lam, p)
        k7_0, k7_1, k7_2, k7_3, k7_4, k7_5 = k7

        # error norm: difference of the 5th- and 4th-order solutions,
        # scaled per component
        err = 0.0
        err += (h * (_E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0
                     + _E7 * k7_0) / (atol + rtol * max(abs(y0), abs(yn0)))) ** 2
        err += (h * (_E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1
                     + _E7 * k7_1) / (atol + rtol * max(abs(y1), abs(yn1)))) ** 2
        err += (h * (_E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2 + _E6 * k6_2
                     + _E7 * k7_2) / (atol + rtol * max(abs(y2), abs(yn2)))) ** 2
        err += (h * (_E1 * k1_3 + _E3 * k3_3 + _E4 * k4_3 + _E5 * k5_3 + _E6 * k6_3
                     + _E7 * k7_3) / (atol + rtol * max(abs(y3), abs(yn3)))) ** 2
        err += (h * (_E1 * k1_4 + _E3 * k3_4 + _E4 * k4_4 + _E5 * k5_4 + _E6 * k6_4
                     + _E7 * k7_4) / (atol + rtol * max(abs(y4), abs(yn4)))) ** 2
        err += (h * (_E1 * k1_5 + _E3 * k3_5 + _E4 * k4_5 + _E5 * k5_5 + _E6 * k6_5
                     + _E7 * k7_5) / (atol + rtol * max(abs(y5), abs(yn5)))) ** 2
        err = math.sqrt(err / NSTATE)

        # dense-output rows 2-5; row 1 is y
        r2_0 = yn0 - y0
        r2_1 = yn1 - y1
        r2_2 = yn2 - y2
        r2_3 = yn3 - y3
        r2_4 = yn4 - y4
        r2_5 = yn5 - y5
        r3_0 = h * k1_0 - r2_0
        r3_1 = h * k1_1 - r2_1
        r3_2 = h * k1_2 - r2_2
        r3_3 = h * k1_3 - r2_3
        r3_4 = h * k1_4 - r2_4
        r3_5 = h * k1_5 - r2_5
        d2 = [r2_0, r2_1, r2_2, r2_3, r2_4, r2_5]
        d3 = [r3_0, r3_1, r3_2, r3_3, r3_4, r3_5]
        d4 = [r2_0 - h * k7_0 - r3_0,
              r2_1 - h * k7_1 - r3_1,
              r2_2 - h * k7_2 - r3_2,
              r2_3 - h * k7_3 - r3_3,
              r2_4 - h * k7_4 - r3_4,
              r2_5 - h * k7_5 - r3_5]
        d5 = [h * (_D1 * k1_0 + _D3 * k3_0 + _D4 * k4_0 + _D5 * k5_0 + _D6 * k6_0 + _D7 * k7_0),
              h * (_D1 * k1_1 + _D3 * k3_1 + _D4 * k4_1 + _D5 * k5_1 + _D6 * k6_1 + _D7 * k7_1),
              h * (_D1 * k1_2 + _D3 * k3_2 + _D4 * k4_2 + _D5 * k5_2 + _D6 * k6_2 + _D7 * k7_2),
              h * (_D1 * k1_3 + _D3 * k3_3 + _D4 * k4_3 + _D5 * k5_3 + _D6 * k6_3 + _D7 * k7_3),
              h * (_D1 * k1_4 + _D3 * k3_4 + _D4 * k4_4 + _D5 * k5_4 + _D6 * k6_4 + _D7 * k7_4),
              h * (_D1 * k1_5 + _D3 * k3_5 + _D4 * k4_5 + _D5 * k5_5 + _D6 * k6_5 + _D7 * k7_5)]
        return y_new, k7, err, (y, d2, d3, d4, d5)

    return step


# module attributes read at call time by ``solver.integrate``
dopri5_step_a = _make_step(rhs_a)
dopri5_step_b = _make_step(rhs_b)


def kernel_backend() -> str:
    """``"numba"`` when the step kernels are compiled, else ``"python"``."""
    return "numba" if hasattr(dopri5_step_a, "py_func") else "python"
