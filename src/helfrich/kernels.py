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

Kernels are numba-compiled unless HELFRICH_JIT=0 (see ``_jit``).
"""

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


@njit
def rhs_chart_a_arr(r, y, c0, lam, p, out):
    """Chart-A derivatives with respect to r, written into ``out``."""
    w = y[0]
    wp = y[1]
    P = 1.0 + w * w
    sq = np.sqrt(P)
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
    out[0] = wp
    out[1] = wpp
    out[2] = w
    out[3] = r * sq
    out[4] = r * r * w
    out[5] = ((twoH + c0) ** 2 + lam) * r * sq
    return out


@njit
def rhs_chart_b_arr(z, y, c0, lam, p, out):
    """Chart-B derivatives with respect to z, written into ``out``."""
    u = y[0]
    s = y[1]
    q = y[2]
    P = s * s + 1.0
    sq = np.sqrt(P)
    # coefficient of the removable 1/s pole; vanishes at the equator
    N = (
        q * q * (6.0 * s * s + 1.0) / (2.0 * P)
        - (2.0 * s * s + 1.0) * P / (2.0 * u * u)
        + c0 * P * sq / u
        - 0.5 * (c0 * c0 + lam) * P * P
        - 0.25 * p * u * P * P * sq
    )
    twoH = (q - P / u) / (P * sq)
    out[0] = s
    out[1] = q
    out[2] = N / s - q * s / u
    out[3] = -u * sq
    out[4] = u * u
    out[5] = -((twoH + c0) ** 2 + lam) * u * sq
    return out


def _make_step(rhs):
    """One embedded Dormand-Prince 5(4) step over the right-hand side ``rhs``.

    The returned step(x, y, h, f0, c0, lam, p, rtol, atol) gives
    (y_new, f_new, err, cont): the FSAL stage f_new, the scalar weighted
    error norm, and the five dense-output vectors of the step.  Under
    numba, ``rhs`` is a jitted function that the closure captures as a
    compile-time constant.
    """

    @njit
    def step(x, y, h, f0, c0, lam, p, rtol, atol):
        n = y.shape[0]
        k2 = np.empty(n)
        k3 = np.empty(n)
        k4 = np.empty(n)
        k5 = np.empty(n)
        k6 = np.empty(n)
        k7 = np.empty(n)

        yt = y + h * (_A21 * f0)
        rhs(x + _C2 * h, yt, c0, lam, p, k2)
        yt = y + h * (_A31 * f0 + _A32 * k2)
        rhs(x + _C3 * h, yt, c0, lam, p, k3)
        yt = y + h * (_A41 * f0 + _A42 * k2 + _A43 * k3)
        rhs(x + _C4 * h, yt, c0, lam, p, k4)
        yt = y + h * (_A51 * f0 + _A52 * k2 + _A53 * k3 + _A54 * k4)
        rhs(x + _C5 * h, yt, c0, lam, p, k5)
        yt = y + h * (_A61 * f0 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
        rhs(x + h, yt, c0, lam, p, k6)
        y_new = y + h * (_B1 * f0 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        rhs(x + h, y_new, c0, lam, p, k7)

        err = 0.0
        for i in range(n):
            e = h * (_E1 * f0[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i]
                     + _E6 * k6[i] + _E7 * k7[i])
            sc = atol + rtol * max(abs(y[i]), abs(y_new[i]))
            err += (e / sc) ** 2
        err = np.sqrt(err / n)

        cont = np.empty((5, n))
        for i in range(n):
            d2 = y_new[i] - y[i]
            d3 = h * f0[i] - d2
            cont[0, i] = y[i]
            cont[1, i] = d2
            cont[2, i] = d3
            cont[3, i] = d2 - h * k7[i] - d3
            cont[4, i] = h * (_D1 * f0[i] + _D3 * k3[i] + _D4 * k4[i]
                              + _D5 * k5[i] + _D6 * k6[i] + _D7 * k7[i])
        return y_new, k7, err, cont

    return step


# module attributes read at call time by ``solver.integrate``
dopri5_step_a = _make_step(rhs_chart_a_arr)
dopri5_step_b = _make_step(rhs_chart_b_arr)
