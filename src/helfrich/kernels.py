"""Hot numerical kernels: the shape equation's right-hand side in arc
length, the embedded DOP853 step and its dense-output completion.

State layout (independent variable s, the arc length of the meridian):
    y = [r, z, psi, dpsi, gam]
with r' = cos psi, z' = sin psi, so that the graph slope is w = z'(r) =
tan psi, dpsi = psi' and gam the conjugate of r in the Hamiltonian form
of the shape equation (Seifert, Berndl & Lipowsky, Phys. Rev. A 44,
1182, 1991; Juelicher & Seifert, Phys. Rev. E 49, 4728, 1994, with
kappa = 2, C0 = -c0, Sigma = lambda and P = -p):
    psi'' = cos psi (sin psi / r - psi') / r - (p/4) r cos psi
            + gam sin psi / (2 r)
    gam'  = (psi' + c0)^2 - sin^2 psi / r^2 + lambda - p r sin psi.
The form is regular from the axis series through the vertical tangent to
the equator psi = -pi/2, so one chart covers the whole meridian.  Its
first integral H = r [psi'^2 - (sin psi / r + c0)^2] - lambda r
+ (p/2) r^2 sin psi + gam cos psi is 0 on the shape equation's solutions.
The form is autonomous, so no kernel takes the arc length.

The surface area, volume and energy are computed on demand from the
dense output (``analysis.surface_totals``), not carried by the steps.

The step is Hairer's DOP853: an 8th-order Runge-Kutta pair with 5th- and
3rd-order error estimates and a 7th-order continuous extension, with
the tableau of scipy's ``dop853_coefficients``.  The continuous
extension needs three more stages (14-16) and four more weighted sums,
about half the cost of a step, and most steps are never evaluated
between their ends: a sweep reads only the located events.  So, as
Hairer's ``dop853.f`` computes them only when dense output is asked
for, an accepted step ends at its FSAL stage 13 and returns its record,
NREC = 56 floats (h, y, y_new and the stages 1 and 6-13), and the
completion ``dense_a`` turns the record of a step that the solver reads
into that step's dense output, NROWS * NSTATE = 40 floats (eight rows of
five), bit for bit the rows the step would have built itself.

The right-hand side ``rhs_a``, the step and the completion work on
Python floats, because numpy arithmetic on 5-element arrays costs
several times the arithmetic itself; the tests hold an ndarray twin of
the right-hand side and of the whole step, dense output included.  All
three are emitted as source text at import, from the tableau, kept once
as its nonzero rows, and the right-hand side, kept once as statement
text over named inputs (``_RHS``), which is pasted into every stage: a
stage computes its derivatives straight into its stage locals and forms
only the inputs the text reads (no z).  The texts hold one local scalar
per component and the coefficients as float literals, because loops or
comprehensions over the rows cost several times the sums they build,
and call no builtin they can do without: the per-component max of the
error scale is a conditional expression, and the record and the dense
output are flat lists that the solver stores or slices as they are.
Python floats raise ``ZeroDivisionError`` where ndarrays give inf or
nan, ``math.cos`` and ``math.sin`` raise ``ValueError`` at an infinite
angle where numpy gives nan, and products overflow to inf as ndarrays
do; the caller treats a raise in a step, or an err that is not finite,
as a failed step, and a raise in a completion as NaN rows.

The kernels keep to the subset numba compiles (scalars, tuples, list
literals, ``math.sqrt``, ``math.cos`` and ``math.sin``) and are compiled
when numba is importable and HELFRICH_JIT is not 0 (see ``_jit``).  That
the compiled path builds and matches is unverified: the suite has only
run without numba.
"""

import math
import re

from ._jit import njit

NSTATE = 5
NROWS = 8  # dense-output rows per accepted step: y and the interpolant's F0..F6

# DOP853 tableau, only its nonzero entries, with 1-based stage indices:
# _A[s] = (c_s, ((j, a_sj), ...)).  Stages 1-12 make the step (stage 1 is
# f0, at c = 0), stage 13 is f(y_new), the next step's first stage
# (its row in scipy's A equals _B, with c = 1), and stages 14-16 serve only
# the dense output, which the completion alone computes.  _B holds the
# 8th-order weights, _E5 and _E3 the error estimates of 5th and 3rd order,
# and _D the weights of the interpolant's rows F3-F6.
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


# The right-hand side, written once as text: the names of its NSTATE state
# components, statements over those names, c0, lam, p and the constant of
# _CONSTANTS, and the names that hold the NSTATE derivatives.  The equation
# is autonomous: the text reads no s, and z only as a state it does not
# use.  ``_rhs_source`` makes the standalone function of it and
# ``_step_source`` pastes it into every stage of the step.
_RHS = (("r", "z", "psi", "dpsi", "gam"), """\
cp = math.cos(psi)
sp = math.sin(psi)
ri = 1.0 / r
spr = sp * ri
ddpsi = (cp * (spr - dpsi) + 0.5 * gam * sp) * ri - pq * r * cp
dgam = (dpsi + c0) * (dpsi + c0) - spr * spr + lam - p * r * sp""",
        ("cp", "sp", "dpsi", "ddpsi", "dgam"))
# p / 4 leads a product that Python multiplies left to right, so a step
# forms it once for all its stages and keeps every bit
_CONSTANTS = ["pq = 0.25 * p"]

_IDENT = re.compile(r"\b[A-Za-z_]\w*")


def _rhs_template():
    """The right-hand side from ``_RHS`` as statement text with the format
    fields ``{y0}``, ``{y1}``, ... for the state components it reads and
    ``{k}`` for the prefix of the locals ``{k}_0``, ``{k}_1``, ... that it
    computes the NSTATE derivatives straight into."""
    states, body, derivs = _RHS
    out = {d: f"{{k}}_{i}" for i, d in enumerate(derivs)}
    used = set(_IDENT.findall(body))
    lines = [f"{out.get(v, v)} = {{y{i}}}" for i, v in enumerate(states) if v in used]
    return "\n".join(lines + _IDENT.sub(lambda m: out.get(m[0], m[0]), body).splitlines())


_TEMPLATE = _rhs_template()


def _rhs_lines(k, y_exprs):
    """Statements that set the locals ``k_0``, ``k_1``, ... to the
    right-hand side at the state ``y_exprs``, over the ``_CONSTANTS``
    formed before."""
    return _TEMPLATE.format(k=k, **{f"y{i}": e for i, e in enumerate(y_exprs)}).splitlines()


def _rhs_source():
    """Source text of ``rhs_a``, the right-hand side (y, c0, lam, p)
    -> tuple of NSTATE derivatives, which reads no arc length."""
    lines = [f'"""Derivatives of ({", ".join(_RHS[0])}) with respect to the arc length."""',
             *_CONSTANTS, *_rhs_lines("f", [f"y[{i}]" for i in range(NSTATE)]),
             f"return ({', '.join(f'f_{i}' for i in range(NSTATE))})"]
    return "def rhs_a(y, c0, lam, p):\n    " + "\n    ".join(lines) + "\n"


def _stage_sum(row, i):
    """The weighted sum of component i over the stages of a tableau row,
    in its order: the text ``a * kj_i + ...``."""
    return " + ".join(f"{a!r} * k{j}_{i}" for j, a in row)


def _stage(s):
    """Statements of stage s: the right-hand side at its row's state, into
    the locals ``ks_0``, ``ks_1``, ..."""
    row = _A[s][1]
    return _rhs_lines(f"k{s}", [f"y{i} + h * ({_stage_sum(row, i)})" for i in range(NSTATE)])


def _names(prefix):
    """``prefix0, prefix1, ...``: the NSTATE locals of one state or stage,
    as a tuple display or unpacking target with a trailing comma."""
    return "".join(f"{prefix}{i}, " for i in range(NSTATE))


# the stages 1-13 that the dense-output stages 14-16 and the rows F3-F6
# read, and an accepted step's record: h, y, y_new and those stages, the
# NREC floats from which ``dense_a`` completes its dense output
_REC_STAGES = sorted(({j for s in (14, 15, 16) for j, _ in _A[s][1]}
                      | {j for row in _D for j, _ in row}) - {14, 15, 16})
_RECORD = "h, " + _names("y") + _names("yn") + "".join(_names(f"k{j}_") for j in _REC_STAGES)
NREC = 1 + (2 + len(_REC_STAGES)) * NSTATE


def _step_source():
    """Source text of ``dopri5_step_a``, one embedded DOP853 step with the
    right-hand side pasted into every stage.

    The step(y, h, f0, c0, lam, p, rtol, atol) takes the state ``y``
    and its derivative ``f0`` as sequences of NSTATE floats and gives
    (y_new, f_new, err, rec).  ``y_new`` is the new state as a list and
    ``err`` the scalar weighted error norm: scipy's DOP853 norm
    |h| s5 / sqrt(NSTATE (s5 + 0.01 s3)), where s5 and s3 sum the squares
    of the E5 and E3 estimates over the components, each divided by
    atol + rtol max(|y_i|, |yn_i|).  It is NaN when the new state holds
    an inf or NaN, so that one finiteness test on it rejects such a step.
    Only an accepted step (err <= 1) goes on to stage 13 and ends there:
    ``f_new`` is that FSAL stage, the tuple ``rhs_a`` gives at the new
    state, and ``rec`` the step's record, one flat list of NREC floats
    (h, y, y_new and the stages 1, 6-13) that the caller appends to its
    storage in one call and hands to ``dense_a`` for the dense output of
    a step it reads.  A rejected step gives None for both and evaluates
    no stage after the twelfth.

    Component i of stage s is the local ``ks_i`` (stage 1 is ``f0``), of
    the state ``yi`` and of the new state ``yni``.  Each stage is the
    right-hand side from ``_rhs_lines``, after ``_CONSTANTS`` once per
    step, so that the step calls no function but ``abs``, ``math.cos``,
    ``math.sin`` and ``math.sqrt``: that spares 12 calls and their tuples
    per step.  Each sum runs over a row's nonzero weights in tableau
    order, and the error norm adds its squares in component order, with
    the scale max(|y_i|, |yn_i|) written ``b if b > a else a`` (a = |y_i|,
    b = |yn_i|): exactly the value ``max(a, b)`` returns, NaN included.
    """
    comps = range(NSTATE)
    body = [_names("y") + "= y", _names("k1_") + "= f0", *_CONSTANTS]
    for s in range(2, 13):
        body += _stage(s)
    body += [f"yn{i} = y{i} + h * ({_stage_sum(_B, i)})" for i in comps]
    body += [f"y_new = [{_names('yn')}]", "s5 = 0.0", "s3 = 0.0"]
    for i in comps:
        body += [f"a = abs(y{i})", f"b = abs(yn{i})",
                 "sc = atol + rtol * (b if b > a else a)",
                 f"e = ({_stage_sum(_E5, i)}) / sc", "s5 += e * e",
                 f"e = ({_stage_sum(_E3, i)}) / sc", "s3 += e * e"]
    # d is 0 only when both estimates vanish: err is then 0.  Plus 0 * yn_i:
    # +-0 for a finite yn_i, so err keeps its bits, and NaN for an inf or
    # NaN one, which the scale hides
    fold = " + ".join(f"0.0 * yn{i}" for i in comps)
    body += ["d = s5 + 0.01 * s3",
             f"err = (0.0 if d == 0.0 else abs(h) * s5 / math.sqrt(d * {NSTATE})) + ({fold})",
             "if not err <= 1.0:", "    return y_new, None, err, None"]
    body += _rhs_lines("k13", [f"yn{i}" for i in comps])
    body.append(f"return y_new, ({_names('k13_')}), err, [{_RECORD}]")
    return ("def dopri5_step_a(y, h, f0, c0, lam, p, rtol, atol):\n    "
            + "\n    ".join(body) + "\n")


def _dense_source():
    """Source text of ``dense_a``, the dense output of one accepted step
    from its record.

    dense_a(rec, c0, lam, p) takes the record ``rec`` its step gave (see
    ``_step_source``), evaluates the stages 14-16, the right-hand side
    pasted as in the step, and gives the NROWS * NSTATE floats of the
    step's dense output as one flat list: the rows y, F0..F6 of NSTATE
    each in storage order, so that component i is ``cont[i::NSTATE]``.
    These are the only stages of the step that serve the dense output
    alone; its arithmetic is the step's, so the rows are those of the
    eager DOP853 step bit for bit.  A stage that divides by zero or takes
    the cosine of an infinite angle raises as the step's stages do;
    ``solver`` turns that into NaN rows.
    """
    comps = range(NSTATE)
    body = [f"{_RECORD}= rec", *_CONSTANTS]
    for s in (14, 15, 16):
        body += _stage(s)
    body += [f"f0_{i} = yn{i} - y{i}" for i in comps]
    # the dense rows y, F0..F6, each a template in the component index i
    rows = ["y{i}", "f0_{i}", "h * k1_{i} - f0_{i}", "2.0 * f0_{i} - h * (k13_{i} + k1_{i})"]
    rows += [f"h * ({_stage_sum(d, '{i}')})" for d in _D]
    body.append(f"return [{', '.join(r.format(i=i) for r in rows for i in comps)}]")
    return "def dense_a(rec, c0, lam, p):\n    " + "\n    ".join(body) + "\n"


def _compile(source, name):
    """The function ``name`` defined by the generated ``source``, compiled
    once at import and jitted when numba is in use (see ``_jit``)."""
    namespace = {"math": math}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return njit(namespace[name])


# module attributes read at call time by the solver's loop and trajectories.
# The names outlive the charts and the DOPRI5 pair they were first made
# for, because the benchmark's trace wraps the step kernel by its name
rhs_a = _compile(_rhs_source(), "rhs_a")
dopri5_step_a = _compile(_step_source(), "dopri5_step_a")
dense_a = _compile(_dense_source(), "dense_a")


def kernel_backend() -> str:
    """``"numba"`` when the step kernels are compiled, else ``"python"``."""
    return "numba" if hasattr(dopri5_step_a, "py_func") else "python"
