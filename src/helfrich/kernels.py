"""Hot numerical kernels: shape-equation right-hand sides and the
embedded DOP853 step, built once per coordinate chart.

State layout, chart A (independent variable r):
    y = [w, wp, z]
with w = z'(r) and wp = w'(r).

State layout, chart B (independent variable z, decreasing):
    y = [u, s, q]
with u = r(z), s = u'(z) = 1/w, q = u''(z) = -w'/w^3.

The surface area, volume and energy are quadratures that no right-hand
side reads: ``analysis.surface_totals`` computes them on demand from the
dense output, so the steps carry these NSTATE = 3 components only.

The chart-B equation is third order in u; its right-hand side has a
1/s factor that is removable along solutions (the coefficient vanishes
exactly at the equator), so stages evaluated across s = 0 stay on the
smooth continuation of the blow-down branch.

The step is Hairer's DOP853: an 8th-order Runge-Kutta pair with 5th- and
3rd-order error estimates and a 7th-order continuous extension, with
the tableau of scipy's ``dop853_coefficients``.  The right-hand sides
``rhs_a`` and ``rhs_b`` and the step work on Python floats, because
numpy arithmetic on 3-element arrays and ``np.float64`` scalars costs
several times the arithmetic itself; the tests hold an ndarray twin of
each right-hand side and of the step.  The tableau is kept once, as its
nonzero rows, and the step's source is emitted from them at import: one
local scalar per component and the coefficients as float literals,
because loops over the rows or list comprehensions over ``zip`` cost
several times the sums they build.  For the same reason the step calls
no builtin it can do without: the per-component max of the error scale
is a conditional expression, and the dense output comes back as one
flat list of NROWS * NSTATE = 24 floats (eight rows of three) that the
solver appends to its storage as it is.  Python floats raise
``ZeroDivisionError`` and ``OverflowError`` where ndarrays give inf or
nan; the caller treats either as a failed step.

The step and the right-hand sides keep to the subset numba
compiles (scalars, tuples, list literals, ``math.sqrt``) and are
compiled when numba is importable and HELFRICH_JIT is not 0 (see
``_jit``).  That the compiled path builds and matches is unverified: the
suite has only run without numba.
"""

import math

from ._jit import njit

NSTATE = 3
NROWS = 8  # dense-output rows per accepted step: y and the interpolant's F0..F6

# DOP853 tableau, only its nonzero entries, with 1-based stage indices:
# _A[s] = (c_s, ((j, a_sj), ...)).  Stages 1-12 make the step (stage 1 is
# f0, at c = 0), stage 13 is f(x + h, y_new), the next step's first stage
# (its row in scipy's A equals _B, with c = 1), and stages 14-16 serve only
# the dense output.  _B holds the 8th-order weights, _E5 and _E3 the error
# estimates of 5th and 3rd order, and _D the weights of the interpolant's
# rows F3-F6.
_A = {
    2: (0.05260015195876773, ((1, 0.05260015195876773),)),
    3: (0.0789002279381516, ((1, 0.0197250569845379), (2, 0.0591751709536137))),
    4: (0.1183503419072274, ((1, 0.02958758547680685), (3, 0.08876275643042054))),
    5: (0.2816496580927726, ((1, 0.2413651341592667), (3, -0.8845494793282861),
                             (4, 0.924834003261792))),
    6: (0.3333333333333333, ((1, 0.037037037037037035), (4, 0.17082860872947386),
                             (5, 0.12546768756682242))),
    7: (0.25, ((1, 0.037109375), (4, 0.17025221101954405), (5, 0.06021653898045596),
               (6, -0.017578125))),
    8: (0.3076923076923077, ((1, 0.03709200011850479), (4, 0.17038392571223998),
                             (5, 0.10726203044637328), (6, -0.015319437748624402),
                             (7, 0.008273789163814023))),
    9: (0.6512820512820513, ((1, 0.6241109587160757), (4, -3.3608926294469414),
                             (5, -0.868219346841726), (6, 27.59209969944671),
                             (7, 20.154067550477894), (8, -43.48988418106996))),
    10: (0.6, ((1, 0.47766253643826434), (4, -2.4881146199716677), (5, -0.590290826836843),
               (6, 21.230051448181193), (7, 15.279233632882423), (8, -33.28821096898486),
               (9, -0.020331201708508627))),
    11: (0.8571428571428571, ((1, -0.9371424300859873), (4, 5.186372428844064),
                              (5, 1.0914373489967295), (6, -8.149787010746927),
                              (7, -18.52006565999696), (8, 22.739487099350505),
                              (9, 2.4936055526796523), (10, -3.0467644718982196))),
    12: (1.0, ((1, 2.273310147516538), (4, -10.53449546673725), (5, -2.0008720582248625),
               (6, -17.9589318631188), (7, 27.94888452941996), (8, -2.8589982771350235),
               (9, -8.87285693353063), (10, 12.360567175794303),
               (11, 0.6433927460157636))),
    14: (0.1, ((1, 0.056167502283047954), (7, 0.25350021021662483),
               (8, -0.2462390374708025), (9, -0.12419142326381637),
               (10, 0.15329179827876568), (11, 0.00820105229563469),
               (12, 0.007567897660545699), (13, -0.008298))),
    15: (0.2, ((1, 0.03183464816350214), (6, 0.028300909672366776),
               (7, 0.053541988307438566), (8, -0.05492374857139099),
               (11, -0.00010834732869724932), (12, 0.0003825710908356584),
               (13, -0.00034046500868740456), (14, 0.1413124436746325))),
    16: (0.7777777777777778, ((1, -0.42889630158379194), (6, -4.697621415361164),
                              (7, 7.683421196062599), (8, 4.06898981839711),
                              (9, 0.3567271874552811), (13, -0.0013990241651590145),
                              (14, 2.9475147891527724), (15, -9.15095847217987))),
}
_B = ((1, 0.054293734116568765), (6, 4.450312892752409), (7, 1.8915178993145003),
      (8, -5.801203960010585), (9, 0.3111643669578199), (10, -0.1521609496625161),
      (11, 0.20136540080403034), (12, 0.04471061572777259))
_E5 = ((1, 0.01312004499419488), (6, -1.2251564463762044), (7, -0.4957589496572502),
       (8, 1.6643771824549864), (9, -0.35032884874997366), (10, 0.3341791187130175),
       (11, 0.08192320648511571), (12, -0.022355307863886294))
_E3 = ((1, -0.18980075407240762), (6, 4.450312892752409), (7, 1.8915178993145003),
       (8, -5.801203960010585), (9, -0.4226823213237919), (10, -0.1521609496625161),
       (11, 0.20136540080403034), (12, 0.02265179219836082))
_D = (
    ((1, -8.428938276109013), (6, 0.5667149535193777), (7, -3.0689499459498917),
     (8, 2.38466765651207), (9, 2.117034582445028), (10, -0.871391583777973),
     (11, 2.2404374302607883), (12, 0.6315787787694688), (13, -0.08899033645133331),
     (14, 18.148505520854727), (15, -9.194632392478356), (16, -4.436036387594894)),
    ((1, 10.427508642579134), (6, 242.28349177525817), (7, 165.20045171727028),
     (8, -374.5467547226902), (9, -22.113666853125306), (10, 7.733432668472264),
     (11, -30.674084731089398), (12, -9.332130526430229), (13, 15.697238121770845),
     (14, -31.139403219565178), (15, -9.35292435884448), (16, 35.81684148639408)),
    ((1, 19.985053242002433), (6, -387.0373087493518), (7, -189.17813819516758),
     (8, 527.8081592054236), (9, -11.57390253995963), (10, 6.8812326946963),
     (11, -1.0006050966910838), (12, 0.7777137798053443), (13, -2.778205752353508),
     (14, -60.19669523126412), (15, 84.32040550667716), (16, 11.99229113618279)),
    ((1, -25.69393346270375), (6, -154.18974869023643), (7, -231.5293791760455),
     (8, 357.6391179106141), (9, 93.40532418362432), (10, -37.45832313645163),
     (11, 104.0996495089623), (12, 29.8402934266605), (13, -43.53345659001114),
     (14, 96.32455395918828), (15, -39.17726167561544), (16, -149.72683625798564)),
)


@njit
def rhs_a(r, y, c0, lam, p):
    """Chart-A derivatives (w', w'', z') with respect to r."""
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
    return (wp, wpp, w)


@njit
def rhs_b(z, y, c0, lam, p):
    """Chart-B derivatives (u', u'', u''') with respect to z."""
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
    return (s, q, N / s - q * s / u)


# where a chart-B step that crosses the equator has it: the midpoint of the
# widest gap between the 16 stage abscissae (1/3 and 0.6)
_ABSCISSAE = sorted({0.0, 1.0, *(c for c, _ in _A.values())})
_GAP = max(zip(_ABSCISSAE, _ABSCISSAE[1:]), key=lambda g: g[1] - g[0])
EQUATOR_THETA = 0.5 * (_GAP[0] + _GAP[1])


def _step_source():
    """Source text of ``step`` over a global ``rhs``; see ``_make_step``.

    Component i of stage s is the local ``ks_i`` (stage 1 is ``f0``), of
    the state ``yi`` and of the new state ``yni``.  Each sum runs over a
    row's nonzero weights in tableau order, and the error norm adds its
    squares in component order, with the scale max(|y_i|, |yn_i|) written
    ``b if b > a else a`` (a = |y_i|, b = |yn_i|): exactly the value
    ``max(a, b)`` returns, NaN included.
    """
    comps = range(NSTATE)

    def names(s):
        return "".join(f"k{s}_{i}, " for i in comps)

    def tsum(row, i):
        return " + ".join(f"{a!r} * k{j}_{i}" for j, a in row)

    def stage(s):
        c, row = _A[s]
        ys = "".join(f"y{i} + h * ({tsum(row, i)}), " for i in comps)
        return f"{names(s)}= rhs(x + {c!r} * h, ({ys}), c0, lam, p)"

    body = ["".join(f"y{i}, " for i in comps) + "= y", f"{names(1)}= f0"]
    body += [stage(s) for s in range(2, 13)]
    body += [f"yn{i} = y{i} + h * ({tsum(_B, i)})" for i in comps]
    body += [f"y_new = [{', '.join(f'yn{i}' for i in comps)}]", "s5 = 0.0", "s3 = 0.0"]
    for i in comps:
        body += [f"a = abs(y{i})", f"b = abs(yn{i})",
                 "sc = atol + rtol * (b if b > a else a)",
                 f"e = ({tsum(_E5, i)}) / sc", "s5 += e * e",
                 f"e = ({tsum(_E3, i)}) / sc", "s3 += e * e"]
    # d is 0 only when both estimates vanish: err is then 0.  Plus 0 * yn_i:
    # +-0 for a finite yn_i, so err keeps its bits, and NaN for an inf or
    # NaN one, which the scale hides
    fold = " + ".join(f"0.0 * yn{i}" for i in comps)
    body += ["d = s5 + 0.01 * s3",
             f"err = (0.0 if d == 0.0 else abs(h) * s5 / math.sqrt(d * {NSTATE})) + ({fold})",
             "if not err <= 1.0:", "    return y_new, None, err, None",
             "k13 = rhs(x + h, y_new, c0, lam, p)", f"{names(13)}= k13"]
    body += [stage(s) for s in (14, 15, 16)]
    body += [f"f0_{i} = yn{i} - y{i}" for i in comps]
    # the dense rows y, F0..F6, each a template in the component index i
    rows = ["y{i}", "f0_{i}", "h * k1_{i} - f0_{i}", "2.0 * f0_{i} - h * (k13_{i} + k1_{i})"]
    rows += [f"h * ({tsum(d, '{i}')})" for d in _D]
    body.append(f"return y_new, k13, err, [{', '.join(r.format(i=i) for r in rows for i in comps)}]")
    return "def step(x, y, h, f0, c0, lam, p, rtol, atol):\n    " + "\n    ".join(body) + "\n"


_STEP_CODE = compile(_step_source(), "<dop853 step>", "exec")


def _make_step(rhs):
    """One embedded DOP853 step over the right-hand side ``rhs``.

    The returned step(x, y, h, f0, c0, lam, p, rtol, atol) takes the
    state ``y`` and its derivative ``f0`` as sequences of NSTATE floats
    and gives (y_new, f_new, err, cont).  ``y_new`` is the new state as a
    list and ``err`` the scalar weighted error norm: scipy's DOP853 norm
    |h| s5 / sqrt(NSTATE (s5 + 0.01 s3)), where s5 and s3 sum the squares
    of the E5 and E3 estimates over the components, each divided by
    atol + rtol max(|y_i|, |yn_i|).  It is NaN when the new state holds
    an inf or NaN, so that one finiteness test on it rejects such a step.
    Only an accepted step (err <= 1) goes on: ``f_new`` is its FSAL stage
    (the tuple ``rhs`` returned at the new state) and ``cont`` its dense
    output as one flat list of NROWS * NSTATE floats, the rows y, F0..F6
    of NSTATE each in storage order, so that the caller appends it in one
    call and reads component i as ``cont[i::NSTATE]``.  A rejected step
    gives None for both and spends no right-hand side call on them.

    The step's code is compiled once from ``_step_source`` at import and
    run here with ``rhs`` bound in its globals.  Under numba, ``rhs`` is a
    jitted function that the step reads as a compile-time constant.
    """
    namespace = {"rhs": rhs, "math": math}
    exec(_STEP_CODE, namespace)
    return njit(namespace["step"])


# module attributes read at call time by ``solver.integrate``; the DOPRI5
# names outlive that pair because the benchmark's trace wraps the step
# kernels by these names
dopri5_step_a = _make_step(rhs_a)
dopri5_step_b = _make_step(rhs_b)


def kernel_backend() -> str:
    """``"numba"`` when the step kernels are compiled, else ``"python"``."""
    return "numba" if hasattr(dopri5_step_a, "py_func") else "python"
