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
The step works on Python floats, lists and tuples, because numpy
arithmetic on 6-element arrays and ``np.float64`` scalars costs several
times the arithmetic itself.  Python floats raise ``ZeroDivisionError``
and ``OverflowError`` where ndarrays give inf or nan; the caller treats
either as a failed step.

The step and the scalar right-hand sides keep to the subset numba
compiles (scalars, tuples, lists built inside the function, ``zip``
loops, ``math.sqrt``) and are compiled when numba is importable
and HELFRICH_JIT is not 0 (see ``_jit``).  That the compiled path builds
and matches is unverified: the suite has only run without numba.
"""

import math

import numpy as np

from ._jit import njit

NSTATE = 6
# leading components the right-hand sides read; the rest are quadratures
NDYN = 3

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
    """Chart-A derivatives with respect to r, as a 6-tuple; reads y[:NDYN]."""

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
    """Chart-B derivatives with respect to z, as a 6-tuple; reads y[:NDYN]."""

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
    gives (y_new, f_new, err, cont): the new state, the FSAL stage f_new,
    the scalar weighted error norm, and the five dense-output rows of the
    step (a tuple of five six-float sequences, the first one ``y``).
    ``rhs`` reads only the first NDYN components of a state, so the stage
    states carry only those.  Under numba, ``rhs`` is a jitted function
    that the closure captures as a compile-time constant.
    """

    @njit
    def step(x, y, h, f0, c0, lam, p, rtol, atol):
        yd = y[:NDYN]
        k2 = rhs(x + _C2 * h, [a + h * (_A21 * b) for a, b in zip(yd, f0)],
                 c0, lam, p)
        k3 = rhs(x + _C3 * h, [a + h * (_A31 * b + _A32 * c)
                               for a, b, c in zip(yd, f0, k2)], c0, lam, p)
        k4 = rhs(x + _C4 * h, [a + h * (_A41 * b + _A42 * c + _A43 * d)
                               for a, b, c, d in zip(yd, f0, k2, k3)], c0, lam, p)
        k5 = rhs(x + _C5 * h, [a + h * (_A51 * b + _A52 * c + _A53 * d + _A54 * e)
                               for a, b, c, d, e in zip(yd, f0, k2, k3, k4)],
                 c0, lam, p)
        k6 = rhs(x + h, [a + h * (_A61 * b + _A62 * c + _A63 * d + _A64 * e + _A65 * g)
                         for a, b, c, d, e, g in zip(yd, f0, k2, k3, k4, k5)],
                 c0, lam, p)
        y_new = [a + h * (_B1 * b + _B3 * d + _B4 * e + _B5 * g + _B6 * k)
                 for a, b, d, e, g, k in zip(y, f0, k3, k4, k5, k6)]
        k7 = rhs(x + h, y_new, c0, lam, p)

        # error norm and dense-output rows in one pass over the components
        err = 0.0
        d2 = []
        d3 = []
        d4 = []
        d5 = []
        for a, an, b, d, e, g, k, m in zip(y, y_new, f0, k3, k4, k5, k6, k7):
            dy = h * (_E1 * b + _E3 * d + _E4 * e + _E5 * g + _E6 * k + _E7 * m)
            sc = atol + rtol * max(abs(a), abs(an))
            err += (dy / sc) ** 2
            r2 = an - a
            r3 = h * b - r2
            d2.append(r2)
            d3.append(r3)
            d4.append(r2 - h * m - r3)
            d5.append(h * (_D1 * b + _D3 * d + _D4 * e + _D5 * g + _D6 * k + _D7 * m))
        err = math.sqrt(err / len(y))
        return y_new, k7, err, (y, d2, d3, d4, d5)

    return step


# module attributes read at call time by ``solver.integrate``
dopri5_step_a = _make_step(rhs_a)
dopri5_step_b = _make_step(rhs_b)


def kernel_backend() -> str:
    """``"numba"`` when the step kernels are compiled, else ``"python"``."""
    return "numba" if hasattr(dopri5_step_a, "py_func") else "python"
