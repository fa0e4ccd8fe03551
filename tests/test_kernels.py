import ast
import math

import numpy as np
import pytest

from helfrich import HelfrichParams, SolverConfig, eval_q, integrate
from helfrich import kernels
from helfrich._jit import JIT_ENABLED
from conftest import PAPER
from hypothesis import assume, given, settings, strategies as st
from oracles import (
    fixed_step,
    graph_at,
    kappa_derivs,
    make_step_arr,
    rhs_arc_arr,
    rhs_graph_arr,
    rhs_kappa,
)

# the graph form's ndarray step, for the restarted integrations in r
_STEP_GRAPH = make_step_arr(rhs_graph_arr)


def _wpp(r, w, wp, params):
    """w'' from the graph form of the shape equation."""
    return rhs_graph_arr(r, (w, wp, 0.0), params.c0, params.lam, params.p)[1]


def _psipp(r, psi, dpsi, gam, params):
    """psi'' from the package's arc-length right-hand side."""
    return kernels.rhs_a((r, 0.0, psi, dpsi, gam), params.c0, params.lam, params.p)[3]


def _unjitted(f):
    return getattr(f, "py_func", f)


def test_rhs_flat_state_pressure_only():
    # with psi = psi' = 0 only the pressure term survives: psi'' = -p r / 4
    params = HelfrichParams(0.7, -0.3, 1.0)
    assert math.isclose(_psipp(1.0, 0.0, 0.0, 0.3, params), -0.25, rel_tol=1e-15)
    assert math.isclose(_psipp(2.0, 0.0, 0.0, 0.3, params), -0.5, rel_tol=1e-15)


def test_rhs_rejects_nonpositive_radius():
    """At r = 0 the float kernel raises, which the loop takes as a failed
    step."""
    params = HelfrichParams(1.0, 0.25, 1.0)
    with pytest.raises(ZeroDivisionError):
        _psipp(0.0, 0.0, 0.1, 0.0, params)


def test_numpy_sin_cos_are_libm():
    """The ndarray twins use numpy's sin and cos, the float kernels libm's
    through ``math``: the bit-for-bit comparisons rest on the two agreeing,
    which they do on these 100,000 angles."""
    x = np.random.default_rng(3).uniform(-4.0, 4.0, 100_000)
    assert np.array_equal(np.sin(x), [math.sin(v) for v in x.tolist()])
    assert np.array_equal(np.cos(x), [math.cos(v) for v in x.tolist()])


def test_curvature_form_chain_rule_1000_states():
    """w'' from the graph form must satisfy the curvature-form equation."""
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

        def kappa_at(dr, n=40):
            y0 = np.array([w, wp, 0.0])
            y = fixed_step(_STEP_GRAPH, rhs_graph_arr, params, r, y0, r + dr, n)
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
    _, w, wp = graph_at(ref_traj, np.linspace(ref_traj.x_start, ref_traj.switch.x, 2000))
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
    rs, w, wp, wpp = graph_at(
        ref_traj, np.linspace(ref_traj.x_start * 2, ref_traj.switch.x, 1500), deriv=True)
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


_Y0 = [0.6, 0.001, 0.03, 0.05, 0.4]  # (r, z, psi, psi', gamma) off the axis


def _fixed_step_arc(params, s0, y0, s1, n):
    return fixed_step(lambda s, *args: kernels.dopri5_step_a(*args),
                      lambda s, *args: kernels.rhs_a(*args), params, s0, y0, s1, n)


def test_dense_output_consistency_and_order(paper_params):
    """Continuity at step ends is exact; mid-step values converge at the
    interpolant's order under step halving."""
    c0, lam, p = paper_params.c0, paper_params.lam, paper_params.p
    s0 = 0.6

    def dense_midpoint_error(h):
        f0 = kernels.rhs_a(_Y0, c0, lam, p)
        # tolerances loose enough that the step is accepted and has a
        # dense output at either size
        y1, f1, err, rec = kernels.dopri5_step_a(_Y0, h, f0, c0, lam, p, 1e-6, 1e-6)
        assert err <= 1.0
        y1, cont = np.asarray(y1), _dense_rows(rec, c0, lam, p)
        th, u = 0.5, 0.5
        mid = cont[0] + th * (cont[1] + u * (cont[2] + th * (cont[3] + u * (
            cont[4] + th * (cont[5] + u * (cont[6] + th * cont[7]))))))
        end = cont[0] + cont[1]
        assert np.allclose(end, y1, rtol=0, atol=1e-16)  # theta = 1 is exact
        ref = _fixed_step_arc(paper_params, s0, _Y0, s0 + th * h, 2000)
        return np.max(np.abs(mid - ref))

    e1 = dense_midpoint_error(0.2)
    e2 = dense_midpoint_error(0.1)
    order = math.log2(e1 / e2)
    assert order >= 7.0  # 7th-order interpolant: local error O(h^8) ideally


def test_fixed_step_order_eight(paper_params):
    """Step-halving on the fixed-step variant shows eighth-order decay.
    The interval lies off the axis: near r = 0 the 1/r terms keep an
    eighth-order step pre-asymptotic down to the rounding floor."""
    sa, sb = 0.6, 1.6
    ref = _fixed_step_arc(paper_params, sa, _Y0, sb, 4096)
    errs = []
    for n in (4, 8, 16):
        y = _fixed_step_arc(paper_params, sa, _Y0, sb, n)
        errs.append(np.max(np.abs(y - ref) / (1.0 + np.abs(ref))))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 7.0 and order2 >= 7.5


def test_adaptive_error_scales_with_tolerance(paper_params):
    from helfrich import extract_landmarks
    locs = {}
    for rt in (1e-6, 1e-8, 1e-10):
        traj = integrate(paper_params, 0.05,
                         SolverConfig(rel_tol=rt, abs_tol=1e-14))
        locs[rt] = extract_landmarks(traj).r0
    ref = integrate(paper_params, 0.05,
                    SolverConfig(rel_tol=1e-13, abs_tol=1e-15))
    r0_ref = extract_landmarks(ref).r0
    e6 = abs(locs[1e-6] - r0_ref)
    e10 = abs(locs[1e-10] - r0_ref)
    assert e10 < e6 <= 1e-4
    # roughly O(relTol): four decades of tolerance gain at least two of error
    assert e10 <= e6 * 1e-2


def test_jit_and_python_paths_agree(paper_params):
    """Compiled and source kernels agree.  Without numba (or with
    HELFRICH_JIT=0) the two are one object, which is asserted."""
    c0, lam, p = paper_params.c0, paper_params.lam, paper_params.p
    rhs, step, dense = kernels.rhs_a, kernels.dopri5_step_a, kernels.dense_a
    y, h = _Y0, 0.05
    path = "numba against python" if JIT_ENABLED else "python only, identity checked"
    print(f"kernel paths compared: {path}")
    f0 = rhs(y, c0, lam, p)
    got = step(y, h, f0, c0, lam, p, 1e-10, 1e-12)
    got += (dense(got[3], c0, lam, p),)
    assert all(np.all(np.isfinite(v)) for v in got)
    if not JIT_ENABLED:
        assert all(_unjitted(f) is f for f in (rhs, step, dense))
        return
    f0_py = _unjitted(rhs)(y, c0, lam, p)
    assert np.array_equal(f0, f0_py)
    want = _unjitted(step)(y, h, f0, c0, lam, p, 1e-10, 1e-12)
    want += (_unjitted(dense)(want[3], c0, lam, p),)
    for a, b in zip(got, want):
        assert np.allclose(a, b, rtol=1e-15, atol=1e-18)


_STEP_ARR = make_step_arr(rhs_arc_arr)
_finite = dict(allow_nan=False, allow_infinity=False)


def _dense_rows(rec, c0, lam, p):
    """The dense output ``kernels.dense_a`` gives from an accepted step's
    record, as an (NROWS, NSTATE) ndarray."""
    return np.reshape(kernels.dense_a(rec, c0, lam, p), (kernels.NROWS, kernels.NSTATE))


@st.composite
def _step_case(draw):
    """A state (r, z, psi, psi', gamma), parameters and a signed step size.
    The angles include the equator psi = -pi/2 and the far side of it."""
    y = [draw(st.floats(1e-3, 5.0, **_finite)), draw(st.floats(-5.0, 5.0, **_finite)),
         draw(st.one_of(st.floats(-4.0, 4.0, **_finite), st.just(-0.5 * math.pi))),
         draw(st.floats(-4.0, 4.0, **_finite)), draw(st.floats(-10.0, 10.0, **_finite))]
    c0 = draw(st.floats(-5.0, 5.0, **_finite))
    lam = draw(st.floats(-3.0, 3.0, **_finite))
    p = draw(st.floats(1e-4, 1e2, **_finite))
    h = draw(st.floats(1e-6, 0.5, **_finite)) * draw(st.sampled_from((-1.0, 1.0)))
    return y, h, c0, lam, p


def _match_oracle(y, h, c0, lam, p, rtol, atol):
    """Run the float step and its ndarray twin on one case and assert that
    they agree: y_new bit for bit; err too, except that err is not finite
    wherever y_new is not (the ndarray err can be finite there); and, on
    a step both accept, f_new and the dense rows, which the completion
    makes from the step's record, bit for bit.  Where a float stage of
    the step leaves the double range and raises, the ndarray step gave a
    value that is not finite, which the solver rejects alike; where a
    stage of the completion raises, the ndarray step's dense rows are not
    all finite.  The twin takes an arc length, which it does not read
    either: it gets 0.  Returns whether the step was accepted."""
    f0 = kernels.rhs_a(y, c0, lam, p)
    with np.errstate(all="ignore"):
        f0_arr = rhs_arc_arr(0.0, np.array(y), c0, lam, p)
        want = _STEP_ARR(0.0, np.array(y), h, f0_arr, c0, lam, p, rtol, atol)
    assert np.array_equal(f0, f0_arr, equal_nan=True)
    try:
        got = kernels.dopri5_step_a(y, h, f0, c0, lam, p, rtol, atol)
    except (ArithmeticError, ValueError):
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
        cont = _dense_rows(rec, c0, lam, p)
    except (ArithmeticError, ValueError):
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


def test_step_returns_python_floats():
    """Every value the step and its completion give back is a Python
    float: an np.float64 (from np.sqrt or an ndarray element) would triple
    the cost of a step."""
    y, h = _Y0, 0.05
    f0 = kernels.rhs_a(y, 1.0, 0.25, 1.0)
    y_new, f_new, err, rec = kernels.dopri5_step_a(y, h, f0, 1.0, 0.25, 1.0, 1e-10, 1e-12)
    cont = kernels.dense_a(rec, 1.0, 0.25, 1.0)
    values = [*f0, *y_new, *f_new, err, *rec, *cont]
    assert len(values) == (3 * kernels.NSTATE + 1 + kernels.NREC
                           + kernels.NROWS * kernels.NSTATE) == 112
    assert all(type(v) is float for v in values), {type(v) for v in values}


@pytest.mark.parametrize("x, y, h, params", [
    # c0 = lam = p = 0, psi = psi' = gamma = 0 and r = 1: only r and z
    # move, so psi, psi' and gamma keep |y_i| = |yn_i|
    (0.5, [1.0, 0.25, 0.0, -0.0, 0.0], 0.05, (0.0, 0.0, 0.0)),
    (0.5, [1.0, -0.25, -0.0, 0.0, -0.0], -0.05, (0.0, 0.0, 0.0)),
    # signed zeros beside growing components
    (0.5, [0.5, -0.0, 0.05, 0.0, 0.0], 0.01, (1.0, 0.25, 1.0)),
    (0.5, [3.0, -1.0, -0.5 * math.pi, -0.3, 0.7], 0.01, (1.0, 0.25, 1.0)),
    (0.5, [0.5, 0.0, -0.0, 0.05, -0.0], -0.01, (1.0, 0.25, 1.0)),
])
def test_error_norm_ties_and_signed_zeros(x, y, h, params):
    """The emitted max(|y_i|, |yn_i|) of the error scale, a conditional
    expression, gives the ndarray oracle's err and dense output bit for
    bit on ties and zeros.  x is the oracle's arc length, which neither
    step reads."""
    c0, lam, p = params
    f0 = kernels.rhs_a(y, c0, lam, p)
    want = _STEP_ARR(x, np.array(y), h, rhs_arc_arr(x, np.array(y), c0, lam, p),
                     c0, lam, p, 1e-10, 1e-12)
    y_new, _, err, rec = kernels.dopri5_step_a(y, h, f0, c0, lam, p, 1e-10, 1e-12)
    if params == (0.0, 0.0, 0.0):
        assert all(abs(a) == abs(b) for a, b in zip(y_new[2:], y[2:]))
    assert err <= 1.0 and err.hex() == float(want[2]).hex()
    assert np.array_equal(_dense_rows(rec, c0, lam, p).view(np.uint64),
                          want[3].view(np.uint64))


def test_tableau_rows_equal_scipy_dop853():
    """The package's nonzero tableau rows hold every nonzero entry of
    scipy's DOP853 arrays, exactly, and no entry that scipy has as zero.
    Stage 13's row in A is B at c = 1, which is why the step evaluates it
    at y_new and keeps no row of its own."""
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
                                       ("dense_a", kernels.rhs_a)])
def test_step_coefficients_are_literals(name, rhs):
    """The step looks up no global but ``abs``, ``math.cos``, ``math.sin``
    and ``math.sqrt``, and its completion none but ``math.cos`` and
    ``math.sin``, which keeps both in the subset numba compiles: the
    tableau's weights and NSTATE are constants of their code, not hundreds
    of module lookups per call, and the right-hand side is pasted into
    their stages rather than called."""
    kernel = _unjitted(getattr(kernels, name))
    names = {"math", "cos", "sin"} | ({"abs", "sqrt"} if name.startswith("dopri5") else set())
    assert set(kernel.__code__.co_names) == names
    assert "rhs" not in kernel.__globals__
    assert _unjitted(rhs).__name__ not in kernel.__globals__


# the syntax the generated kernel texts may use: the subset numba compiles
# in nopython mode that the kernels need (see the ``kernels`` docstring)
_SUBSET_NODES = (ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign,
                 ast.AugAssign, ast.Return, ast.If, ast.Name, ast.Load, ast.Store,
                 ast.Tuple, ast.List, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div,
                 ast.UnaryOp, ast.USub, ast.Not, ast.Compare, ast.Eq, ast.NotEq, ast.Lt,
                 ast.LtE, ast.Gt, ast.GtE, ast.IfExp)
_SUBSET_CALLS = {"abs", "math.sqrt", "math.cos", "math.sin"}


def _outside_subset(source):
    """The constructs of the one function in ``source`` outside the
    kernels' subset: float names (arguments and locals, no global read as
    a value), tuples, list literals, arithmetic, comparisons, conditional
    expressions and calls to ``abs``, ``math.sqrt``, ``math.cos`` and
    ``math.sin``.  Besides its docstring, a constant is a float, an int
    (an index or NSTATE) or None (a rejected step's missing stage), and a
    subscript reads a sequence at a constant int."""
    (fn,) = ast.parse(source).body
    if ast.get_docstring(fn) is not None:
        del fn.body[0]
    bound = {a.arg for a in fn.args.args} | {
        n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bad = []

    def visit(node):
        kids = ast.iter_child_nodes(node)
        if isinstance(node, ast.Call):
            ok = ast.unparse(node.func) in _SUBSET_CALLS and not node.keywords
            kids = node.args
        elif isinstance(node, ast.Subscript):
            ok = isinstance(node.slice, ast.Constant) and type(node.slice.value) is int
            kids = [node.value]
        elif isinstance(node, ast.Constant):
            ok = node.value is None or type(node.value) in (float, int)
        elif isinstance(node, ast.Name):
            ok = node.id in bound
        else:
            ok = isinstance(node, _SUBSET_NODES)
        if not ok:
            bad.append(ast.unparse(node) if hasattr(node, "lineno") else type(node).__name__)
        for kid in kids:
            visit(kid)

    visit(fn)
    return bad


@pytest.mark.parametrize("source", [kernels._rhs_source, kernels._step_source,
                                    kernels._dense_source])
def test_kernel_texts_keep_to_the_numba_subset(source):
    """The three generated kernel texts use only float names, tuples, list
    literals, arithmetic, comparisons and calls to ``abs``, ``math.sqrt``,
    ``math.cos`` and ``math.sin``: the subset numba compiles.  Without
    numba installed, this is the check that the kernels stay compilable."""
    assert _outside_subset(source()) == []


@pytest.mark.parametrize("text", [
    "for v in y:\n        x = v", "x = [v * v for v in y]", "x = max(y[0], y[1])",
    "x = np.cos(y[0])", "x = math.exp(y[0])", "x = y.count(0.0)", "x = y[1:]", "x = y[y[0]]",
    "x = 'a'", "x = {}", "x = lambda v: v"])
def test_numba_subset_walk_rejects_other_constructs(text):
    """The walk above flags a loop, a comprehension, a call to any other
    function or method, a global, a slice or computed index, a string, a
    dict and a lambda."""
    assert _outside_subset(f"def f(y):\n    {text}\n")


class _CountingMath:
    """Stands in for ``math`` in a step's globals and counts the calls of
    ``cos``, ``sin`` and ``sqrt``: one cosine and one sine per stage, in
    the right-hand side, and one square root for the error norm."""

    def __init__(self):
        self.calls = {"cos": 0, "sin": 0, "sqrt": 0}

    def __getattr__(self, name):
        def counted(v):
            self.calls[name] += 1
            return getattr(math, name)(v)
        return counted


def test_rejected_step_calls_no_stage_after_twelve():
    """An accepted step evaluates stages 2-13 (stage 1 is its argument), a
    rejected one stages 2-12 only: 12 and 11 cosines and sines, with one
    square root for the error norm.  The completion evaluates stages 14-16
    only."""
    y, h_ok, h_bad = _Y0, 0.05, 5.0
    counter = _CountingMath()
    namespace = {"math": counter}
    exec(compile(kernels._step_source(), "<step>", "exec"), namespace)
    exec(compile(kernels._dense_source(), "<dense>", "exec"), namespace)
    f0 = kernels.rhs_a(y, 1.0, 0.25, 1.0)
    records = []
    for h, accepted, n_stages in ((h_ok, True, 12), (h_bad, False, 11)):
        counter.calls = dict.fromkeys(counter.calls, 0)
        _, f_new, err, rec = namespace["dopri5_step_a"](y, h, f0, 1.0, 0.25, 1.0,
                                                        1e-10, 1e-12)
        assert (err <= 1.0) is accepted and (f_new is not None) is accepted
        assert counter.calls == {"cos": n_stages, "sin": n_stages, "sqrt": 1}
        records.append(rec)
    counter.calls = dict.fromkeys(counter.calls, 0)
    namespace["dense_a"](records[0], 1.0, 0.25, 1.0)
    assert counter.calls == {"cos": 3, "sin": 3, "sqrt": 0}


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(case=_step_case())
def test_fsal_stage_is_the_rhs_at_the_new_state(case):
    """An accepted step's ``f_new``, its stage 13 pasted from the
    right-hand side text, is bit for bit the standalone ``rhs_a`` at
    y_new."""
    y, h, c0, lam, p = case
    f0 = kernels.rhs_a(y, c0, lam, p)
    try:
        y_new, f_new, _, _ = kernels.dopri5_step_a(y, h, f0, c0, lam, p, 1e-3, 1e3)
    except (ArithmeticError, ValueError):
        y_new, f_new = None, None
    assume(f_new is not None)
    assert _bits(f_new) == _bits(kernels.rhs_a(y_new, c0, lam, p))


def test_reference_solve_steps_match_ndarray_oracle(monkeypatch):
    """Every step call of the reference solve, at the default tolerances,
    matches the ndarray oracle bit for bit (see ``_match_oracle``), and
    each call's ``f0`` is the right-hand side at its y: the FSAL stage
    handed on by the step before."""
    calls = []

    def record(*args, _step=kernels.dopri5_step_a):
        calls.append(args)
        return _step(*args)

    monkeypatch.setattr(kernels, "dopri5_step_a", record)
    integrate(PAPER, 0.05)
    monkeypatch.undo()
    accepted = 0
    for y, h, f0, c0, lam, p, rtol, atol in calls:
        assert _bits(f0) == _bits(kernels.rhs_a(y, c0, lam, p))
        accepted += _match_oracle(y, h, c0, lam, p, rtol, atol)
    print(f"reference solve: {len(calls)} step calls, {accepted} accepted")
    assert accepted > 0
