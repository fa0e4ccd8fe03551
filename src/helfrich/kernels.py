"""Hot numerical kernels: shape-equation right-hand sides and the
embedded DOP853 step, built once per coordinate chart.

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

The step is Hairer's DOP853: an 8th-order Runge-Kutta pair with 5th- and
3rd-order error estimates and a 7th-order continuous extension, with
the tableau of scipy's ``dop853_coefficients``.  The right-hand sides
``rhs_a`` and ``rhs_b`` and the step work on Python floats, because
numpy arithmetic on 6-element arrays and ``np.float64`` scalars costs
several times the arithmetic itself; the tests hold an ndarray twin of
each right-hand side and of the step.  The step is written out one
local scalar per component, because list comprehensions over ``zip``
cost more than the sums they build.
For the same reason it calls no builtin it can do without: the
per-component max of the error scale is a conditional expression, and
the dense output comes back as one flat list of NROWS * NSTATE = 48
floats (eight rows of six) that the solver appends to its storage as it
is.  Python floats raise ``ZeroDivisionError`` and ``OverflowError``
where ndarrays give inf or nan; the caller treats either as a failed
step.

The step and the right-hand sides keep to the subset numba
compiles (scalars, tuples, list literals, ``math.sqrt``) and are
compiled when numba is importable and HELFRICH_JIT is not 0 (see
``_jit``).  That the compiled path builds and matches is unverified: the
suite has only run without numba.
"""

import math

from ._jit import njit

NSTATE = 6
NROWS = 8  # dense-output rows per accepted step: y and the interpolant's F0..F6

# DOP853 tableau with 1-based stage indices, only its nonzero entries:
# stages 1-12 make the step, stage 13 is f(x + h, y_new), the next step's
# first stage, and stages 14-16 serve only the dense output.  B holds the
# 8th-order weights, E5 and E3 the error estimates of 5th and 3rd order,
# and D3-D6 the weights of the interpolant's rows F3-F6.
_C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571)
_C14, _C15, _C16 = 0.1, 0.2, 0.7777777777777778
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636)
_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13 = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025,
    -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
    0.007567897660545699, -0.008298)
_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14 = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, -0.00010834732869724932, 0.0003825710908356584,
    -0.00034046500868740456, 0.1413124436746325)
_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15 = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5_1, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3_1, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12 = (
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
_D3_1, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14, _D3_15, _D3_16 = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894)
_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15, _D4_16 = (
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408)
_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15, _D5_16 = (
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279)
_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15, _D6_16 = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564)


@njit
def rhs_a(r, y, c0, lam, p):
    """Chart-A derivatives with respect to r, as a 6-tuple; reads y[:3]."""
    w = y[0]
    wp = y[1]
    P = 1.0 + w * w
    sq = math.sqrt(P)
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


@njit
def rhs_b(z, y, c0, lam, p):
    """Chart-B derivatives with respect to z, as a 6-tuple; reads y[:3]."""
    u = y[0]
    s = y[1]
    q = y[2]
    P = s * s + 1.0
    sq = math.sqrt(P)
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


def _make_step(rhs):
    """One embedded DOP853 step over the right-hand side ``rhs``.

    The returned step(x, y, h, f0, c0, lam, p, rtol, atol) takes the
    state ``y`` and its derivative ``f0`` as sequences of six floats and
    gives (y_new, f_new, err, cont).  ``y_new`` is the new state as a
    list and ``err`` the scalar weighted error norm: scipy's DOP853 norm
    |h| s5 / sqrt(6 (s5 + 0.01 s3)), where s5 and s3 sum the squares of
    the E5 and E3 estimates over the components, each divided by
    atol + rtol max(|y_i|, |yn_i|).  It is NaN when the new state holds
    an inf or NaN, so that one finiteness test on it rejects such a step.
    Only an accepted step (err <= 1) goes on: ``f_new`` is its FSAL stage
    (the tuple ``rhs`` returned at the new state) and ``cont`` its dense
    output as one flat list of NROWS * NSTATE floats, the rows y, F0..F6
    of six in storage order, so that the caller appends it in one call
    and reads component i as ``cont[i::6]``.  A rejected step gives None
    for both and spends no right-hand side call on them.

    The arithmetic is written out one local scalar per component:
    ``y0..y5`` is the state, ``kS_i`` component i of stage S (stage 1 is
    ``f0``), so each tableau coefficient's index names its stage, and
    ``yn0..yn5`` is the new state.  ``rhs`` reads only the first three
    components of a state (the rest are quadratures), so the stage states
    carry only those, and of stages 2-5, which no weight row uses, the
    step keeps only those components.  Each sum keeps the order of its tableau row, and the error
    norm adds its squares in component order.  Its scale
    max(|y_i|, |yn_i|) is written ``b if b > a else a`` with a = |y_i| and
    b = |yn_i|: exactly the value ``max(a, b)`` returns, NaN included,
    without a builtin call.  Under numba, ``rhs`` is a jitted function
    that the closure captures as a compile-time constant.
    """

    @njit
    def step(x, y, h, f0, c0, lam, p, rtol, atol):
        y0, y1, y2, y3, y4, y5 = y
        k1_0, k1_1, k1_2, k1_3, k1_4, k1_5 = f0
        k2_0, k2_1, k2_2, _, _, _ = rhs(
            x + _C2 * h,
            (y0 + h * (_A2_1 * k1_0),
             y1 + h * (_A2_1 * k1_1),
             y2 + h * (_A2_1 * k1_2)),
            c0, lam, p)
        k3_0, k3_1, k3_2, _, _, _ = rhs(
            x + _C3 * h,
            (y0 + h * (_A3_1 * k1_0 + _A3_2 * k2_0),
             y1 + h * (_A3_1 * k1_1 + _A3_2 * k2_1),
             y2 + h * (_A3_1 * k1_2 + _A3_2 * k2_2)),
            c0, lam, p)
        k4_0, k4_1, k4_2, _, _, _ = rhs(
            x + _C4 * h,
            (y0 + h * (_A4_1 * k1_0 + _A4_3 * k3_0),
             y1 + h * (_A4_1 * k1_1 + _A4_3 * k3_1),
             y2 + h * (_A4_1 * k1_2 + _A4_3 * k3_2)),
            c0, lam, p)
        k5_0, k5_1, k5_2, _, _, _ = rhs(
            x + _C5 * h,
            (y0 + h * (_A5_1 * k1_0 + _A5_3 * k3_0 + _A5_4 * k4_0),
             y1 + h * (_A5_1 * k1_1 + _A5_3 * k3_1 + _A5_4 * k4_1),
             y2 + h * (_A5_1 * k1_2 + _A5_3 * k3_2 + _A5_4 * k4_2)),
            c0, lam, p)
        k6_0, k6_1, k6_2, k6_3, k6_4, k6_5 = rhs(
            x + _C6 * h,
            (y0 + h * (_A6_1 * k1_0 + _A6_4 * k4_0 + _A6_5 * k5_0),
             y1 + h * (_A6_1 * k1_1 + _A6_4 * k4_1 + _A6_5 * k5_1),
             y2 + h * (_A6_1 * k1_2 + _A6_4 * k4_2 + _A6_5 * k5_2)),
            c0, lam, p)
        k7_0, k7_1, k7_2, k7_3, k7_4, k7_5 = rhs(
            x + _C7 * h,
            (y0 + h * (_A7_1 * k1_0 + _A7_4 * k4_0 + _A7_5 * k5_0 + _A7_6 * k6_0),
             y1 + h * (_A7_1 * k1_1 + _A7_4 * k4_1 + _A7_5 * k5_1 + _A7_6 * k6_1),
             y2 + h * (_A7_1 * k1_2 + _A7_4 * k4_2 + _A7_5 * k5_2 + _A7_6 * k6_2)),
            c0, lam, p)
        k8_0, k8_1, k8_2, k8_3, k8_4, k8_5 = rhs(
            x + _C8 * h,
            (y0 + h * (_A8_1 * k1_0 + _A8_4 * k4_0 + _A8_5 * k5_0 + _A8_6 * k6_0
                       + _A8_7 * k7_0),
             y1 + h * (_A8_1 * k1_1 + _A8_4 * k4_1 + _A8_5 * k5_1 + _A8_6 * k6_1
                       + _A8_7 * k7_1),
             y2 + h * (_A8_1 * k1_2 + _A8_4 * k4_2 + _A8_5 * k5_2 + _A8_6 * k6_2
                       + _A8_7 * k7_2)),
            c0, lam, p)
        k9_0, k9_1, k9_2, k9_3, k9_4, k9_5 = rhs(
            x + _C9 * h,
            (y0 + h * (_A9_1 * k1_0 + _A9_4 * k4_0 + _A9_5 * k5_0 + _A9_6 * k6_0
                       + _A9_7 * k7_0 + _A9_8 * k8_0),
             y1 + h * (_A9_1 * k1_1 + _A9_4 * k4_1 + _A9_5 * k5_1 + _A9_6 * k6_1
                       + _A9_7 * k7_1 + _A9_8 * k8_1),
             y2 + h * (_A9_1 * k1_2 + _A9_4 * k4_2 + _A9_5 * k5_2 + _A9_6 * k6_2
                       + _A9_7 * k7_2 + _A9_8 * k8_2)),
            c0, lam, p)
        k10_0, k10_1, k10_2, k10_3, k10_4, k10_5 = rhs(
            x + _C10 * h,
            (y0 + h * (_A10_1 * k1_0 + _A10_4 * k4_0 + _A10_5 * k5_0 + _A10_6 * k6_0
                       + _A10_7 * k7_0 + _A10_8 * k8_0 + _A10_9 * k9_0),
             y1 + h * (_A10_1 * k1_1 + _A10_4 * k4_1 + _A10_5 * k5_1 + _A10_6 * k6_1
                       + _A10_7 * k7_1 + _A10_8 * k8_1 + _A10_9 * k9_1),
             y2 + h * (_A10_1 * k1_2 + _A10_4 * k4_2 + _A10_5 * k5_2 + _A10_6 * k6_2
                       + _A10_7 * k7_2 + _A10_8 * k8_2 + _A10_9 * k9_2)),
            c0, lam, p)
        k11_0, k11_1, k11_2, k11_3, k11_4, k11_5 = rhs(
            x + _C11 * h,
            (y0 + h * (_A11_1 * k1_0 + _A11_4 * k4_0 + _A11_5 * k5_0 + _A11_6 * k6_0
                       + _A11_7 * k7_0 + _A11_8 * k8_0 + _A11_9 * k9_0 + _A11_10 * k10_0),
             y1 + h * (_A11_1 * k1_1 + _A11_4 * k4_1 + _A11_5 * k5_1 + _A11_6 * k6_1
                       + _A11_7 * k7_1 + _A11_8 * k8_1 + _A11_9 * k9_1 + _A11_10 * k10_1),
             y2 + h * (_A11_1 * k1_2 + _A11_4 * k4_2 + _A11_5 * k5_2 + _A11_6 * k6_2
                       + _A11_7 * k7_2 + _A11_8 * k8_2 + _A11_9 * k9_2 + _A11_10 * k10_2)),
            c0, lam, p)
        k12_0, k12_1, k12_2, k12_3, k12_4, k12_5 = rhs(
            x + h,
            (y0 + h * (_A12_1 * k1_0 + _A12_4 * k4_0 + _A12_5 * k5_0 + _A12_6 * k6_0
                       + _A12_7 * k7_0 + _A12_8 * k8_0 + _A12_9 * k9_0 + _A12_10 * k10_0
                       + _A12_11 * k11_0),
             y1 + h * (_A12_1 * k1_1 + _A12_4 * k4_1 + _A12_5 * k5_1 + _A12_6 * k6_1
                       + _A12_7 * k7_1 + _A12_8 * k8_1 + _A12_9 * k9_1 + _A12_10 * k10_1
                       + _A12_11 * k11_1),
             y2 + h * (_A12_1 * k1_2 + _A12_4 * k4_2 + _A12_5 * k5_2 + _A12_6 * k6_2
                       + _A12_7 * k7_2 + _A12_8 * k8_2 + _A12_9 * k9_2 + _A12_10 * k10_2
                       + _A12_11 * k11_2)),
            c0, lam, p)
        yn0 = y0 + h * (_B1 * k1_0 + _B6 * k6_0 + _B7 * k7_0 + _B8 * k8_0 + _B9 * k9_0
                        + _B10 * k10_0 + _B11 * k11_0 + _B12 * k12_0)
        yn1 = y1 + h * (_B1 * k1_1 + _B6 * k6_1 + _B7 * k7_1 + _B8 * k8_1 + _B9 * k9_1
                        + _B10 * k10_1 + _B11 * k11_1 + _B12 * k12_1)
        yn2 = y2 + h * (_B1 * k1_2 + _B6 * k6_2 + _B7 * k7_2 + _B8 * k8_2 + _B9 * k9_2
                        + _B10 * k10_2 + _B11 * k11_2 + _B12 * k12_2)
        yn3 = y3 + h * (_B1 * k1_3 + _B6 * k6_3 + _B7 * k7_3 + _B8 * k8_3 + _B9 * k9_3
                        + _B10 * k10_3 + _B11 * k11_3 + _B12 * k12_3)
        yn4 = y4 + h * (_B1 * k1_4 + _B6 * k6_4 + _B7 * k7_4 + _B8 * k8_4 + _B9 * k9_4
                        + _B10 * k10_4 + _B11 * k11_4 + _B12 * k12_4)
        yn5 = y5 + h * (_B1 * k1_5 + _B6 * k6_5 + _B7 * k7_5 + _B8 * k8_5 + _B9 * k9_5
                        + _B10 * k10_5 + _B11 * k11_5 + _B12 * k12_5)
        y_new = [yn0, yn1, yn2, yn3, yn4, yn5]

        # error norm from the 5th- and 3rd-order estimates, each scaled
        # per component by max(|y_i|, |yn_i|)
        s5 = 0.0
        s3 = 0.0
        a = abs(y0)
        b = abs(yn0)
        sc = atol + rtol * (b if b > a else a)
        e = (_E5_1 * k1_0 + _E5_6 * k6_0 + _E5_7 * k7_0 + _E5_8 * k8_0 + _E5_9 * k9_0
             + _E5_10 * k10_0 + _E5_11 * k11_0 + _E5_12 * k12_0) / sc
        s5 += e * e
        e = (_E3_1 * k1_0 + _E3_6 * k6_0 + _E3_7 * k7_0 + _E3_8 * k8_0 + _E3_9 * k9_0
             + _E3_10 * k10_0 + _E3_11 * k11_0 + _E3_12 * k12_0) / sc
        s3 += e * e
        a = abs(y1)
        b = abs(yn1)
        sc = atol + rtol * (b if b > a else a)
        e = (_E5_1 * k1_1 + _E5_6 * k6_1 + _E5_7 * k7_1 + _E5_8 * k8_1 + _E5_9 * k9_1
             + _E5_10 * k10_1 + _E5_11 * k11_1 + _E5_12 * k12_1) / sc
        s5 += e * e
        e = (_E3_1 * k1_1 + _E3_6 * k6_1 + _E3_7 * k7_1 + _E3_8 * k8_1 + _E3_9 * k9_1
             + _E3_10 * k10_1 + _E3_11 * k11_1 + _E3_12 * k12_1) / sc
        s3 += e * e
        a = abs(y2)
        b = abs(yn2)
        sc = atol + rtol * (b if b > a else a)
        e = (_E5_1 * k1_2 + _E5_6 * k6_2 + _E5_7 * k7_2 + _E5_8 * k8_2 + _E5_9 * k9_2
             + _E5_10 * k10_2 + _E5_11 * k11_2 + _E5_12 * k12_2) / sc
        s5 += e * e
        e = (_E3_1 * k1_2 + _E3_6 * k6_2 + _E3_7 * k7_2 + _E3_8 * k8_2 + _E3_9 * k9_2
             + _E3_10 * k10_2 + _E3_11 * k11_2 + _E3_12 * k12_2) / sc
        s3 += e * e
        a = abs(y3)
        b = abs(yn3)
        sc = atol + rtol * (b if b > a else a)
        e = (_E5_1 * k1_3 + _E5_6 * k6_3 + _E5_7 * k7_3 + _E5_8 * k8_3 + _E5_9 * k9_3
             + _E5_10 * k10_3 + _E5_11 * k11_3 + _E5_12 * k12_3) / sc
        s5 += e * e
        e = (_E3_1 * k1_3 + _E3_6 * k6_3 + _E3_7 * k7_3 + _E3_8 * k8_3 + _E3_9 * k9_3
             + _E3_10 * k10_3 + _E3_11 * k11_3 + _E3_12 * k12_3) / sc
        s3 += e * e
        a = abs(y4)
        b = abs(yn4)
        sc = atol + rtol * (b if b > a else a)
        e = (_E5_1 * k1_4 + _E5_6 * k6_4 + _E5_7 * k7_4 + _E5_8 * k8_4 + _E5_9 * k9_4
             + _E5_10 * k10_4 + _E5_11 * k11_4 + _E5_12 * k12_4) / sc
        s5 += e * e
        e = (_E3_1 * k1_4 + _E3_6 * k6_4 + _E3_7 * k7_4 + _E3_8 * k8_4 + _E3_9 * k9_4
             + _E3_10 * k10_4 + _E3_11 * k11_4 + _E3_12 * k12_4) / sc
        s3 += e * e
        a = abs(y5)
        b = abs(yn5)
        sc = atol + rtol * (b if b > a else a)
        e = (_E5_1 * k1_5 + _E5_6 * k6_5 + _E5_7 * k7_5 + _E5_8 * k8_5 + _E5_9 * k9_5
             + _E5_10 * k10_5 + _E5_11 * k11_5 + _E5_12 * k12_5) / sc
        s5 += e * e
        e = (_E3_1 * k1_5 + _E3_6 * k6_5 + _E3_7 * k7_5 + _E3_8 * k8_5 + _E3_9 * k9_5
             + _E3_10 * k10_5 + _E3_11 * k11_5 + _E3_12 * k12_5) / sc
        s3 += e * e
        d = s5 + 0.01 * s3  # 0 only when both estimates vanish: err is then 0
        # plus 0 * yn_i: +-0 for a finite yn_i, so err keeps its bits, and
        # NaN for an inf or NaN one, which the scale above would hide
        err = (0.0 if d == 0.0 else abs(h) * s5 / math.sqrt(d * NSTATE)) + (
            0.0 * yn0 + 0.0 * yn1 + 0.0 * yn2 + 0.0 * yn3 + 0.0 * yn4 + 0.0 * yn5)
        if not err <= 1.0:
            return y_new, None, err, None

        k13 = rhs(x + h, y_new, c0, lam, p)
        k13_0, k13_1, k13_2, k13_3, k13_4, k13_5 = k13
        k14_0, k14_1, k14_2, k14_3, k14_4, k14_5 = rhs(
            x + _C14 * h,
            (y0 + h * (_A14_1 * k1_0 + _A14_7 * k7_0 + _A14_8 * k8_0 + _A14_9 * k9_0
                       + _A14_10 * k10_0 + _A14_11 * k11_0 + _A14_12 * k12_0
                       + _A14_13 * k13_0),
             y1 + h * (_A14_1 * k1_1 + _A14_7 * k7_1 + _A14_8 * k8_1 + _A14_9 * k9_1
                       + _A14_10 * k10_1 + _A14_11 * k11_1 + _A14_12 * k12_1
                       + _A14_13 * k13_1),
             y2 + h * (_A14_1 * k1_2 + _A14_7 * k7_2 + _A14_8 * k8_2 + _A14_9 * k9_2
                       + _A14_10 * k10_2 + _A14_11 * k11_2 + _A14_12 * k12_2
                       + _A14_13 * k13_2)),
            c0, lam, p)
        k15_0, k15_1, k15_2, k15_3, k15_4, k15_5 = rhs(
            x + _C15 * h,
            (y0 + h * (_A15_1 * k1_0 + _A15_6 * k6_0 + _A15_7 * k7_0 + _A15_8 * k8_0
                       + _A15_11 * k11_0 + _A15_12 * k12_0 + _A15_13 * k13_0
                       + _A15_14 * k14_0),
             y1 + h * (_A15_1 * k1_1 + _A15_6 * k6_1 + _A15_7 * k7_1 + _A15_8 * k8_1
                       + _A15_11 * k11_1 + _A15_12 * k12_1 + _A15_13 * k13_1
                       + _A15_14 * k14_1),
             y2 + h * (_A15_1 * k1_2 + _A15_6 * k6_2 + _A15_7 * k7_2 + _A15_8 * k8_2
                       + _A15_11 * k11_2 + _A15_12 * k12_2 + _A15_13 * k13_2
                       + _A15_14 * k14_2)),
            c0, lam, p)
        k16_0, k16_1, k16_2, k16_3, k16_4, k16_5 = rhs(
            x + _C16 * h,
            (y0 + h * (_A16_1 * k1_0 + _A16_6 * k6_0 + _A16_7 * k7_0 + _A16_8 * k8_0
                       + _A16_9 * k9_0 + _A16_13 * k13_0 + _A16_14 * k14_0
                       + _A16_15 * k15_0),
             y1 + h * (_A16_1 * k1_1 + _A16_6 * k6_1 + _A16_7 * k7_1 + _A16_8 * k8_1
                       + _A16_9 * k9_1 + _A16_13 * k13_1 + _A16_14 * k14_1
                       + _A16_15 * k15_1),
             y2 + h * (_A16_1 * k1_2 + _A16_6 * k6_2 + _A16_7 * k7_2 + _A16_8 * k8_2
                       + _A16_9 * k9_2 + _A16_13 * k13_2 + _A16_14 * k14_2
                       + _A16_15 * k15_2)),
            c0, lam, p)

        # dense output, rows y, F0..F6 of six in storage order
        f0_0 = yn0 - y0
        f0_1 = yn1 - y1
        f0_2 = yn2 - y2
        f0_3 = yn3 - y3
        f0_4 = yn4 - y4
        f0_5 = yn5 - y5
        return y_new, k13, err, [
            y0, y1, y2, y3, y4, y5,
            f0_0, f0_1, f0_2, f0_3, f0_4, f0_5,
            h * k1_0 - f0_0,
            h * k1_1 - f0_1,
            h * k1_2 - f0_2,
            h * k1_3 - f0_3,
            h * k1_4 - f0_4,
            h * k1_5 - f0_5,
            2.0 * f0_0 - h * (k13_0 + k1_0),
            2.0 * f0_1 - h * (k13_1 + k1_1),
            2.0 * f0_2 - h * (k13_2 + k1_2),
            2.0 * f0_3 - h * (k13_3 + k1_3),
            2.0 * f0_4 - h * (k13_4 + k1_4),
            2.0 * f0_5 - h * (k13_5 + k1_5),
            h * (_D3_1 * k1_0 + _D3_6 * k6_0 + _D3_7 * k7_0 + _D3_8 * k8_0 + _D3_9 * k9_0
                 + _D3_10 * k10_0 + _D3_11 * k11_0 + _D3_12 * k12_0 + _D3_13 * k13_0
                 + _D3_14 * k14_0 + _D3_15 * k15_0 + _D3_16 * k16_0),
            h * (_D3_1 * k1_1 + _D3_6 * k6_1 + _D3_7 * k7_1 + _D3_8 * k8_1 + _D3_9 * k9_1
                 + _D3_10 * k10_1 + _D3_11 * k11_1 + _D3_12 * k12_1 + _D3_13 * k13_1
                 + _D3_14 * k14_1 + _D3_15 * k15_1 + _D3_16 * k16_1),
            h * (_D3_1 * k1_2 + _D3_6 * k6_2 + _D3_7 * k7_2 + _D3_8 * k8_2 + _D3_9 * k9_2
                 + _D3_10 * k10_2 + _D3_11 * k11_2 + _D3_12 * k12_2 + _D3_13 * k13_2
                 + _D3_14 * k14_2 + _D3_15 * k15_2 + _D3_16 * k16_2),
            h * (_D3_1 * k1_3 + _D3_6 * k6_3 + _D3_7 * k7_3 + _D3_8 * k8_3 + _D3_9 * k9_3
                 + _D3_10 * k10_3 + _D3_11 * k11_3 + _D3_12 * k12_3 + _D3_13 * k13_3
                 + _D3_14 * k14_3 + _D3_15 * k15_3 + _D3_16 * k16_3),
            h * (_D3_1 * k1_4 + _D3_6 * k6_4 + _D3_7 * k7_4 + _D3_8 * k8_4 + _D3_9 * k9_4
                 + _D3_10 * k10_4 + _D3_11 * k11_4 + _D3_12 * k12_4 + _D3_13 * k13_4
                 + _D3_14 * k14_4 + _D3_15 * k15_4 + _D3_16 * k16_4),
            h * (_D3_1 * k1_5 + _D3_6 * k6_5 + _D3_7 * k7_5 + _D3_8 * k8_5 + _D3_9 * k9_5
                 + _D3_10 * k10_5 + _D3_11 * k11_5 + _D3_12 * k12_5 + _D3_13 * k13_5
                 + _D3_14 * k14_5 + _D3_15 * k15_5 + _D3_16 * k16_5),
            h * (_D4_1 * k1_0 + _D4_6 * k6_0 + _D4_7 * k7_0 + _D4_8 * k8_0 + _D4_9 * k9_0
                 + _D4_10 * k10_0 + _D4_11 * k11_0 + _D4_12 * k12_0 + _D4_13 * k13_0
                 + _D4_14 * k14_0 + _D4_15 * k15_0 + _D4_16 * k16_0),
            h * (_D4_1 * k1_1 + _D4_6 * k6_1 + _D4_7 * k7_1 + _D4_8 * k8_1 + _D4_9 * k9_1
                 + _D4_10 * k10_1 + _D4_11 * k11_1 + _D4_12 * k12_1 + _D4_13 * k13_1
                 + _D4_14 * k14_1 + _D4_15 * k15_1 + _D4_16 * k16_1),
            h * (_D4_1 * k1_2 + _D4_6 * k6_2 + _D4_7 * k7_2 + _D4_8 * k8_2 + _D4_9 * k9_2
                 + _D4_10 * k10_2 + _D4_11 * k11_2 + _D4_12 * k12_2 + _D4_13 * k13_2
                 + _D4_14 * k14_2 + _D4_15 * k15_2 + _D4_16 * k16_2),
            h * (_D4_1 * k1_3 + _D4_6 * k6_3 + _D4_7 * k7_3 + _D4_8 * k8_3 + _D4_9 * k9_3
                 + _D4_10 * k10_3 + _D4_11 * k11_3 + _D4_12 * k12_3 + _D4_13 * k13_3
                 + _D4_14 * k14_3 + _D4_15 * k15_3 + _D4_16 * k16_3),
            h * (_D4_1 * k1_4 + _D4_6 * k6_4 + _D4_7 * k7_4 + _D4_8 * k8_4 + _D4_9 * k9_4
                 + _D4_10 * k10_4 + _D4_11 * k11_4 + _D4_12 * k12_4 + _D4_13 * k13_4
                 + _D4_14 * k14_4 + _D4_15 * k15_4 + _D4_16 * k16_4),
            h * (_D4_1 * k1_5 + _D4_6 * k6_5 + _D4_7 * k7_5 + _D4_8 * k8_5 + _D4_9 * k9_5
                 + _D4_10 * k10_5 + _D4_11 * k11_5 + _D4_12 * k12_5 + _D4_13 * k13_5
                 + _D4_14 * k14_5 + _D4_15 * k15_5 + _D4_16 * k16_5),
            h * (_D5_1 * k1_0 + _D5_6 * k6_0 + _D5_7 * k7_0 + _D5_8 * k8_0 + _D5_9 * k9_0
                 + _D5_10 * k10_0 + _D5_11 * k11_0 + _D5_12 * k12_0 + _D5_13 * k13_0
                 + _D5_14 * k14_0 + _D5_15 * k15_0 + _D5_16 * k16_0),
            h * (_D5_1 * k1_1 + _D5_6 * k6_1 + _D5_7 * k7_1 + _D5_8 * k8_1 + _D5_9 * k9_1
                 + _D5_10 * k10_1 + _D5_11 * k11_1 + _D5_12 * k12_1 + _D5_13 * k13_1
                 + _D5_14 * k14_1 + _D5_15 * k15_1 + _D5_16 * k16_1),
            h * (_D5_1 * k1_2 + _D5_6 * k6_2 + _D5_7 * k7_2 + _D5_8 * k8_2 + _D5_9 * k9_2
                 + _D5_10 * k10_2 + _D5_11 * k11_2 + _D5_12 * k12_2 + _D5_13 * k13_2
                 + _D5_14 * k14_2 + _D5_15 * k15_2 + _D5_16 * k16_2),
            h * (_D5_1 * k1_3 + _D5_6 * k6_3 + _D5_7 * k7_3 + _D5_8 * k8_3 + _D5_9 * k9_3
                 + _D5_10 * k10_3 + _D5_11 * k11_3 + _D5_12 * k12_3 + _D5_13 * k13_3
                 + _D5_14 * k14_3 + _D5_15 * k15_3 + _D5_16 * k16_3),
            h * (_D5_1 * k1_4 + _D5_6 * k6_4 + _D5_7 * k7_4 + _D5_8 * k8_4 + _D5_9 * k9_4
                 + _D5_10 * k10_4 + _D5_11 * k11_4 + _D5_12 * k12_4 + _D5_13 * k13_4
                 + _D5_14 * k14_4 + _D5_15 * k15_4 + _D5_16 * k16_4),
            h * (_D5_1 * k1_5 + _D5_6 * k6_5 + _D5_7 * k7_5 + _D5_8 * k8_5 + _D5_9 * k9_5
                 + _D5_10 * k10_5 + _D5_11 * k11_5 + _D5_12 * k12_5 + _D5_13 * k13_5
                 + _D5_14 * k14_5 + _D5_15 * k15_5 + _D5_16 * k16_5),
            h * (_D6_1 * k1_0 + _D6_6 * k6_0 + _D6_7 * k7_0 + _D6_8 * k8_0 + _D6_9 * k9_0
                 + _D6_10 * k10_0 + _D6_11 * k11_0 + _D6_12 * k12_0 + _D6_13 * k13_0
                 + _D6_14 * k14_0 + _D6_15 * k15_0 + _D6_16 * k16_0),
            h * (_D6_1 * k1_1 + _D6_6 * k6_1 + _D6_7 * k7_1 + _D6_8 * k8_1 + _D6_9 * k9_1
                 + _D6_10 * k10_1 + _D6_11 * k11_1 + _D6_12 * k12_1 + _D6_13 * k13_1
                 + _D6_14 * k14_1 + _D6_15 * k15_1 + _D6_16 * k16_1),
            h * (_D6_1 * k1_2 + _D6_6 * k6_2 + _D6_7 * k7_2 + _D6_8 * k8_2 + _D6_9 * k9_2
                 + _D6_10 * k10_2 + _D6_11 * k11_2 + _D6_12 * k12_2 + _D6_13 * k13_2
                 + _D6_14 * k14_2 + _D6_15 * k15_2 + _D6_16 * k16_2),
            h * (_D6_1 * k1_3 + _D6_6 * k6_3 + _D6_7 * k7_3 + _D6_8 * k8_3 + _D6_9 * k9_3
                 + _D6_10 * k10_3 + _D6_11 * k11_3 + _D6_12 * k12_3 + _D6_13 * k13_3
                 + _D6_14 * k14_3 + _D6_15 * k15_3 + _D6_16 * k16_3),
            h * (_D6_1 * k1_4 + _D6_6 * k6_4 + _D6_7 * k7_4 + _D6_8 * k8_4 + _D6_9 * k9_4
                 + _D6_10 * k10_4 + _D6_11 * k11_4 + _D6_12 * k12_4 + _D6_13 * k13_4
                 + _D6_14 * k14_4 + _D6_15 * k15_4 + _D6_16 * k16_4),
            h * (_D6_1 * k1_5 + _D6_6 * k6_5 + _D6_7 * k7_5 + _D6_8 * k8_5 + _D6_9 * k9_5
                 + _D6_10 * k10_5 + _D6_11 * k11_5 + _D6_12 * k12_5 + _D6_13 * k13_5
                 + _D6_14 * k14_5 + _D6_15 * k15_5 + _D6_16 * k16_5),
        ]

    return step


# module attributes read at call time by ``solver.integrate``; the DOPRI5
# names outlive that pair because the benchmark's trace wraps the step
# kernels by these names
dopri5_step_a = _make_step(rhs_a)
dopri5_step_b = _make_step(rhs_b)


def kernel_backend() -> str:
    """``"numba"`` when the step kernels are compiled, else ``"python"``."""
    return "numba" if hasattr(dopri5_step_a, "py_func") else "python"
