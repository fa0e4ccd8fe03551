"""Reference computations used only by the tests.

Each one is independent of the package code path it cross-checks: a
fixed-step propagation for order studies, the ndarray right-hand sides,
DOP853 step and first step size that the float code must match bit for bit,
dense sampling for the closed-form extrema of Q, a triangle-sum for mesh
area and volume, the critical-point scan on the full dense-output
evaluation, and the element-by-element emitters (profile CSV, SVG path,
OBJ) that the array emitters must match byte for byte.

Two other formulations of the shape equation judge the solver: the
graph form w(r), ``rhs_graph_arr``, which the package no longer
integrates, and ``arc_oracle``, scipy's DOP853 at tight tolerances on the
arc-length form, with its own event functions.

The integrity references of the paper's checks live here too, because no
command computes them: the 50-digit series-start defect, the curvature
derivatives and the curvature-form right-hand side ``rhs_kappa``, the
crossing search ``find_crossing`` on a run's dense output, eta ``eta_at``, the
point geometry ``geometry_at`` and the graph slopes ``graph_at`` at an arc
length, the eta sampling ``eta_boundedness`` toward the equator, the
trapezoid ``requadrature_totals`` of the dense output and the chord
quadrature ``profile_quadrature_totals`` of a polyline.

Three former code paths judge their replacements: two evaluations of the
pointwise estimates where ``check_single`` now samples each step of the
run on its own theta grid, the r-grid ``pointwise_r_grid``, which finds
s(r) at 4000 radii by bisection of r(s) (``s_at_r``), and the evenly
spaced arc-length grid ``pointwise_s_grid``; and ``json_via_copy``, the
JSON-ready copy dumped by ``json.dumps``, which ``write_json``'s one-walk
text must equal byte for byte.
"""

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from helfrich.analysis import SurfaceTotals, _quarter_profile, curvature_geometry
from helfrich.bounds import _PTWISE_TOL, _make, _r_max_on_interval
from helfrich.cubic import derived_constants
from helfrich.cubic import HelfrichParams, eval_q
from helfrich.errors import MissingEvent, OutOfRange
from helfrich.export import PROFILE_COLUMNS, _angle_table, fmt17, profile_rows
from helfrich.solver import (ABORTED, BLOWUP_POSITIVE, EQUATOR, MAX_OF_W, SERIES_ORDER, STEEP,
                             ZERO_OF_W, _bisect_step, axis_coefficients, axis_series)
from scipy.integrate._ivp import dop853_coefficients as _dop853


def fixed_step(step, rhs, params: HelfrichParams, x0: float, y0, x1: float,
               n_steps: int) -> np.ndarray:
    """Fixed-step propagation (order studies and restarts) with a step of
    the package's signature over ``rhs(x, y, c0, lam, p)``: the package's
    float kernels, or an ndarray twin below."""
    c0, lam, p = params.c0, params.lam, params.p
    h = (x1 - x0) / n_steps
    y = np.asarray(y0, dtype=float)
    x = x0
    for _ in range(n_steps):
        # the step hands back f_new only when it accepts, so f is computed
        # here, from the same arguments the step's FSAL stage would use
        f = np.asarray(rhs(x, y, c0, lam, p))
        y = np.asarray(step(x, y, h, f, c0, lam, p, 1e-6, 1e-6)[0])
        x += h
    return y


# ndarray right-hand sides: the arc-length form, whose arithmetic the
# float kernels repeat bit for bit, and the graph form w(r), which the
# package once integrated (in its "chart A") and the tests keep as an
# independent formulation.  Both write into ``out``, and the step twin does
# its stage sums on arrays of kernels.NSTATE elements.

def rhs_arc_arr(s, y, c0, lam, p, out=None):
    """Derivatives of (r, z, psi, psi', gamma) with respect to the arc
    length s, written into ``out``:
    psi'' = cos psi (sin psi / r - psi') / r - (p/4) r cos psi + gamma sin psi / (2r),
    gamma' = (psi' + c0)^2 - sin^2 psi / r^2 + lambda - p r sin psi.
    numpy's sin and cos give libm's values (``test_numpy_sin_cos_are_libm``),
    as the float kernels' ``math.sin`` and ``math.cos`` do."""
    out = np.empty(5) if out is None else out
    r, psi, dpsi, gam = y[0], y[2], y[3], y[4]
    cp = np.cos(psi)
    sp = np.sin(psi)
    ri = 1.0 / r
    spr = sp * ri
    out[0] = cp
    out[1] = sp
    out[2] = dpsi
    out[3] = (cp * (spr - dpsi) + 0.5 * gam * sp) * ri - 0.25 * p * r * cp
    out[4] = (dpsi + c0) * (dpsi + c0) - spr * spr + lam - p * r * sp
    return out


def rhs_graph_arr(r, y, c0, lam, p, out=None):
    """Derivatives of the graph state (w, w', z) with respect to r, written
    into ``out``: w'' solved from the shape equation."""
    out = np.empty(3) if out is None else out
    w = y[0]
    wp = y[1]
    ww = w * w
    P = 1.0 + ww
    sq = np.sqrt(P)
    PP = P * P
    ri = 1.0 / r
    wpp = (
        2.5 * w * wp * wp / P
        - (wp - w * ri) * ri
        + w * ww * (3.0 + ww) * ri * ri * 0.5
        + c0 * ww * P * sq * ri
        + 0.5 * (c0 * c0 + lam) * w * PP
        - 0.25 * p * r * PP * sq
    )
    out[0] = wp
    out[1] = wpp
    out[2] = w
    return out


def surface_densities(r, w, wp, c0, lam):
    """Area, volume and energy densities of the upper half per unit of r,
    from the graph state (w, w') at r, with their own 2H formula."""
    P = 1.0 + w * w
    sq = np.sqrt(P)
    twoH = (wp + (w / r) * P) / (P * sq)
    return r * sq, r * r * w, ((twoH + c0) ** 2 + lam) * r * sq


def arc_surface_densities(y, c0, lam):
    """Area, volume and energy densities of the upper half per unit arc
    length, from the states ``y`` of shape (NSTATE, n): r, r^2 sin psi and
    [(2H + c0)^2 + lambda] r with 2H = sin psi / r + psi'."""
    r, _, psi, dpsi = y[:4]
    twoH = np.sin(psi) / r + dpsi
    return r, r * r * np.sin(psi), ((twoH + c0) ** 2 + lam) * r


def _tableau_sum(row, K, stages):
    """Sum of row[j] * K[j] over the first ``stages`` stages, in tableau
    order and over the nonzero weights only, as the step that ``kernels``
    emits from its tableau rows adds its terms."""
    total = None
    for j in range(stages):
        if row[j] != 0.0:
            term = row[j] * K[j]
            total = term if total is None else total + term
    return total


def make_step_arr(rhs):
    """Embedded DOP853 step on ndarrays over ``rhs(x, y, c0, lam, p,
    out)``, from scipy's DOP853 arrays (a changed coefficient in the
    package shows as a mismatch); returns (y_new, f_new, err, cont) with
    cont (8, n), and None for f_new and cont when err > 1."""
    A, B, C = _dop853.A, _dop853.B, _dop853.C
    E3, E5, D = _dop853.E3, _dop853.E5, _dop853.D
    n_stages = _dop853.N_STAGES

    def step(x, y, h, f0, c0, lam, p, rtol, atol):
        n = y.shape[0]
        K = np.empty((_dop853.N_STAGES_EXTENDED, n))
        K[0] = f0
        for s in range(1, n_stages):
            rhs(x + C[s] * h, y + h * _tableau_sum(A[s], K, s), c0, lam, p, K[s])
        y_new = y + h * _tableau_sum(B, K, n_stages)

        err5 = _tableau_sum(E5, K, n_stages + 1)
        err3 = _tableau_sum(E3, K, n_stages + 1)
        s5 = s3 = 0.0
        for i in range(n):
            sc = atol + rtol * max(abs(y[i]), abs(y_new[i]))
            e = err5[i] / sc
            s5 += e * e
            e = err3[i] / sc
            s3 += e * e
        d = s5 + 0.01 * s3
        err = 0.0 if d == 0.0 else abs(h) * s5 / np.sqrt(d * n)
        if not err <= 1.0:
            return y_new, None, err, None

        rhs(x + h, y_new, c0, lam, p, K[n_stages])
        for s in range(n_stages + 1, _dop853.N_STAGES_EXTENDED):
            rhs(x + C[s] * h, y + h * _tableau_sum(A[s], K, s), c0, lam, p, K[s])
        cont = np.empty((8, n))
        cont[0] = y
        cont[1] = y_new - y
        cont[2] = h * f0 - cont[1]
        cont[3] = 2.0 * cont[1] - h * (K[n_stages] + f0)
        for r in range(4):
            cont[4 + r] = h * _tableau_sum(D[r], K, _dop853.N_STAGES_EXTENDED)
        return y_new, K[n_stages].copy(), err, cont

    return step


def initial_step_arr(rhs, x, y, f, rtol, atol, c0, lam, p, h_cap):
    """The solver's first step size computed on ndarrays ``y`` and ``f``,
    with numpy's mean of squares for each scaled norm: the reference for
    the float ``solver._initial_step``."""
    sc = atol + rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_cap)
    y1 = y + h0 * f
    f1 = np.array(rhs(x + h0, y1, c0, lam, p))
    d2 = float(np.sqrt(np.mean(((f1 - f) / sc) ** 2))) / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, h_cap)


def critical_points_full_scan(traj) -> int:
    """Sign changes of w' on (eps, r0) at 10,001 points, read from psi' in
    the evaluation of all the dense-output components."""
    ss = np.linspace(traj.x_start, traj.first_event(ZERO_OF_W).x, 10_001)
    sgn = np.sign(traj.eval_many(ss)[:, 3])
    sgn = sgn[sgn != 0.0]
    return int(np.count_nonzero(sgn[1:] * sgn[:-1] < 0.0))


def _refined_max(f, lo, hi, n) -> float:
    """Max of f on [lo, hi] by dense sampling with local zoom passes."""
    t = np.linspace(lo, hi, n)
    v = f(t)
    for _ in range(3):
        i = int(np.argmax(v))
        a, b = t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)]
        t = np.linspace(a, b, 1001)
        v = f(t)
    return float(v.max())


def sample_extrema_oracle(params: HelfrichParams, w0p: float, n: int = 100_000):
    """Dense-sampling reference for (mu, delta_plus, delta_minus).

    Independent of ``derived_constants`` (no calculus, only sampling
    with zoom refinement).
    """
    f_pos = lambda t: -eval_q(t, params)
    f_neg = lambda t: eval_q(t, params)
    mu = _refined_max(f_pos, 0.0, w0p, n)
    delta_plus = -_refined_max(f_neg, 0.0, w0p, n)
    lo = -10.0 * (1.0 + abs(params.c0) + abs(params.lam) + abs(params.p))
    delta_minus = -_refined_max(f_neg, lo, 0.0, n)
    return mu, delta_plus, delta_minus


def mesh_area_volume(verts: np.ndarray, faces: np.ndarray) -> tuple[float, float]:
    """Area and enclosed volume of a closed triangle mesh."""
    v0 = verts[faces[:, 0]]
    v1 = verts[faces[:, 1]]
    v2 = verts[faces[:, 2]]
    cross = np.cross(v1 - v0, v2 - v0)
    area = 0.5 * float(np.linalg.norm(cross, axis=1).sum())
    volume = float(np.einsum("ij,ij->i", v0, np.cross(v1, v2)).sum()) / 6.0
    return area, volume


def write_profile_csv_loops(path, traj) -> None:
    """profile.csv written one value at a time through ``fmt17``."""
    rows = profile_rows(traj)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(PROFILE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(fmt17(v) for v in row) + "\n")


def svg_path_loops(points: np.ndarray) -> str:
    """The ``d`` attribute of ``render_svg``'s curve, one point at a time:
    each coordinate mapped to pixels and formatted on its own."""
    pts = np.asarray(points, dtype=float)
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    pad = 0.08 * max(xmax - xmin, ymax - ymin)
    xmin, xmax, ymax = xmin - pad, xmax + pad, ymax + pad
    scale = (720 - 2.0) / (xmax - xmin)
    f = lambda v: format(v, ".3f")
    return "M " + " L ".join(
        f"{f((x - xmin) * scale + 1.0)},{f((ymax - y) * scale + 1.0)}" for x, y in pts) + " Z"


def build_mesh_loops(traj, n_theta: int, n_profile: int):
    """Revolved mesh built ring by ring and face by face, on the package's
    exactly symmetric angle table."""
    r_u, z_u = _quarter_profile(traj, n_profile).T  # n_profile + 1 points
    # full profile pole..equator..pole: 2 n_profile + 1 points
    r_full = np.concatenate([r_u, r_u[-2::-1]])
    z_full = np.concatenate([z_u, -z_u[-2::-1]])

    ct, st = _angle_table(n_theta)

    verts = [np.array([0.0, 0.0, z_full[0]])]
    for j in range(1, len(r_full) - 1):
        ring = np.stack([r_full[j] * ct, r_full[j] * st,
                         np.full(n_theta, z_full[j])], axis=1)
        verts.extend(ring)
    verts.append(np.array([0.0, 0.0, z_full[-1]]))
    return np.array(verts), mesh_faces_loops(n_theta, len(r_full) - 2)


def mesh_faces_loops(n_theta: int, n_rings: int) -> np.ndarray:
    """0-based faces of the revolved mesh of ``n_rings`` rings of
    ``n_theta`` vertices between two poles, built face by face: a fan at
    each pole and two triangles per quad between neighbouring rings."""
    def ring_idx(j, k):
        return 1 + (j - 1) * n_theta + (k % n_theta)

    faces = []
    for k in range(n_theta):
        faces.append((0, ring_idx(1, k), ring_idx(1, k + 1)))
    for j in range(1, n_rings):
        for k in range(n_theta):
            a, b = ring_idx(j, k), ring_idx(j, k + 1)
            c, d = ring_idx(j + 1, k), ring_idx(j + 1, k + 1)
            faces.append((a, c, d))
            faces.append((a, d, b))
    last = n_theta * n_rings + 1
    for k in range(n_theta):
        faces.append((last, ring_idx(n_rings, k + 1), ring_idx(n_rings, k)))
    return np.array(faces, dtype=np.int64).reshape(-1, 3)


def write_obj_loops(path, verts: np.ndarray, faces: np.ndarray) -> None:
    """OBJ text written one vertex and one face at a time."""
    with open(path, "w", newline="\n") as fh:
        for v in verts:
            fh.write(f"v {fmt17(v[0])} {fmt17(v[1])} {fmt17(v[2])}\n")
        for f in faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def series_residual(params, w0p, eps, with_a3=True, order=SERIES_ORDER):
    """Defect of the axis series truncated after r^order (after r^1
    without a3) against the w'' the shape equation solves for.

    The coefficients come from ``axis_coefficients`` run in 80-digit
    arithmetic, so that the defect shows the truncation, O(eps^order),
    and not the rounding of double coefficients; the true defect of the
    full series at eps = 1e-5 is ~1e-61.
    """
    import mpmath as mp
    with mp.workdps(80):
        c0, lam, p = mp.mpf(params.c0), mp.mpf(params.lam), mp.mpf(params.p)
        r = mp.mpf(eps)
        a = axis_coefficients(SimpleNamespace(c0=c0, lam=lam, p=p), mp.mpf(w0p))
        a = a[:(order + 1) // 2 if with_a3 else 1]
        w = sum(an * r ** (2 * m + 1) for m, an in enumerate(a))
        wp = sum((2 * m + 1) * an * r ** (2 * m) for m, an in enumerate(a))
        wpp = sum((2 * m + 1) * 2 * m * an * r ** (2 * m - 1) for m, an in enumerate(a))
        P = 1 + w * w
        wpp_ode = (mp.mpf(5) / 2 * w * wp * wp / P - (wp - w / r) / r
                   + w ** 3 * (3 + w * w) / (2 * r * r)
                   + c0 * w * w * P ** mp.mpf(1.5) / r
                   + (c0 ** 2 + lam) * w * P ** 2 / 2
                   - p * r * P ** mp.mpf(2.5) / 4)
        return float(abs(wpp - wpp_ode))


def kappa_derivs(r, w, wp, wpp):
    """Meridional curvature kappa = w / (r sqrt(1+w^2)) and its first two
    r-derivatives, by the chain rule from w, w' and w''."""
    P = 1.0 + w * w
    k = w / (r * math.sqrt(P))
    kp = wp / (r * P ** 1.5) - w / (r * r * math.sqrt(P))
    kpp = (wpp / (r * P ** 1.5) - 3.0 * w * wp * wp / (r * P ** 2.5)
           - 2.0 * wp / (r * r * P ** 1.5) + 2.0 * w / (r ** 3 * math.sqrt(P)))
    return k, kp, kpp


def rhs_kappa(r: float, kappa: float, kappap: float, params: HelfrichParams) -> float:
    """Second derivative of the meridional curvature kappa(r), from the
    curvature form of the shape equation.

    Valid while r^2 kappa^2 < 1 (profile representable as a graph); raises
    ValueError for r <= 0 and ZeroDivisionError where 1 - r^2 kappa^2 is
    within 1e-12 of zero.
    """
    if r <= 0.0:
        raise ValueError(f"r must be > 0, got {r!r}")
    denom = 1.0 - r * r * kappa * kappa
    if abs(denom) < 1e-12:
        raise ZeroDivisionError(f"1 - r^2 kappa^2 = {denom!r} too close to zero")
    rq = r * eval_q(kappa, params)
    return (
        -kappa * (r * kappap + kappa) ** 2 / (2.0 * denom)
        - 3.0 * kappap / r
        + rq / (2.0 * r * denom)
    )


def find_crossing(traj, component: int, target: float, x_lo=None, x_hi=None,
                  tol: float = 1e-12) -> float:
    """First x where component ``component`` of the dense output of the
    run ``traj`` crosses ``target``.

    The step nodes inside [x_lo, x_hi] bracket the first sign change; that
    step's polynomial is then bisected with the solver's event bisection.
    """
    lo = traj.x_start if x_lo is None else x_lo
    hi = traj.events[-1].x if x_hi is None else x_hi
    xs = traj.xs
    inner = xs[(xs > lo) & (xs < hi)]
    xk = np.concatenate([[lo], inner, [hi]])
    g = traj.eval_many(xk, component) - target
    if g[0] == 0.0:
        return lo
    change = np.nonzero(g[:-1] * g[1:] <= 0.0)[0]
    if len(change) == 0:
        raise OutOfRange("no crossing in the requested range")
    a, b = xk[change[0]], xk[change[0] + 1]
    (i,), (th_a,), (h,) = traj._locate(np.array([a]))
    th = _bisect_step(traj.conts[i, :, component].tolist(), target, h,
                      xs[i], tol, th_a, (b - xs[i]) / h)
    return xs[i] + th * h


def eta_at(y, params: HelfrichParams):
    """Eta at states ``y`` (r, z, psi, psi', ...), shape (NSTATE,) or
    (n, NSTATE).

    In the graph form eta = r w'^2 / P^(5/2) - w^2 / (r sqrt P) - 2 c0 w
    - (c0^2 + lambda) r sqrt P + p r^2 w / 2 with P = 1 + w^2; in psi every
    term diverges like 1/cos psi toward the equator, and the grouping
    B / cos psi, B = r psi'^2 - sin^2 psi / r - 2 c0 sin psi
    - (c0^2 + lambda) r + p r^2 sin psi / 2, exposes the cancellation:
    B -> 0 at the equator (NaN where cos psi = 0).  Along a solution
    B = H - gamma cos psi, so eta = -gamma where H = 0.
    """
    c0, lam, p = params.c0, params.lam, params.p
    y = np.asarray(y, dtype=float)
    r, psi, dpsi = y[..., 0], y[..., 2], y[..., 3]
    sp, cp = np.sin(psi), np.cos(psi)
    B = (r * dpsi * dpsi - sp * sp / r - 2.0 * c0 * sp - (c0 ** 2 + lam) * r
         + 0.5 * p * r * r * sp)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(cp == 0.0, np.nan, B / cp)


@dataclass(frozen=True)
class GeometrySample:
    r: float
    z: float
    kappa_m: float
    kappa_l: float
    H: float
    K: float
    eta: float


def geometry_at(traj, s: float) -> GeometrySample:
    """Curvatures, H, K, and eta at arc length s of the trajectory, from
    its state there (``Trajectory.state_at``: the axis series at r = s
    below the start); s = 0 is the axis, where kappa_m = kappa_l = w0p.
    """
    params = traj.params
    if s == 0.0:
        w0p = traj.w0p
        return GeometrySample(0.0, 0.0, w0p, w0p, w0p, w0p * w0p, -2.0 * params.c0)
    y = traj.state_at(s)[0]
    geom = (*curvature_geometry(y), eta_at(y, params))
    return GeometrySample(float(y[0]), float(y[1]), *map(float, geom))


def graph_at(traj, s, deriv: bool = False):
    """The radius and graph slopes (r, w, w') at arc lengths s, read off
    the state's r, psi and psi': w = tan psi and w' = psi' / cos^3 psi;
    with ``deriv`` also w'' = (psi'' + 3 psi'^2 tan psi) / cos^4 psi, psi''
    the derivative of the dense output, which covers s >= eps."""
    r, psi, dpsi = traj.state_at(s, [0, 2, 3]).T
    cp = np.cos(psi)
    w = np.sin(psi) / cp
    c3 = cp * cp * cp
    if not deriv:
        return r, w, dpsi / c3
    return r, w, dpsi / c3, (traj.deriv_many(s, 3) + 3.0 * dpsi * dpsi * w) / (c3 * cp)


@dataclass(frozen=True)
class EtaReport:
    sup_eta: float
    eta_limit: float
    eta_times_up_limit: float
    diverging: bool
    n_samples: int


def eta_boundedness(traj) -> EtaReport:
    """Sample eta past the ``Steep`` event, 4 per decade of s_inf - s over
    6 decades.

    Reports the running sup, a linear extrapolation of eta to the
    equator, the extrapolated limit of eta * |u'|, u' = dr/dz =
    cos psi / sin psi (which must vanish), and a divergence flag if |eta|
    grows monotonically by more than 10x over the last two sampled
    decades of (s_inf - s).
    """
    ev = traj.first_event(EQUATOR)
    if ev is None:
        raise MissingEvent("no Equator event in trajectory")
    n_per_decade, decades = 4, 6.0
    tau_sw = ev.x - traj.switch.x
    k = np.arange(0, int(decades * n_per_decade) + 1)
    tau = tau_sw * 10.0 ** (-k / n_per_decade)
    Y = traj.state_at(ev.x - tau)
    eta = eta_at(Y, traj.params)
    eta_up = eta * np.abs(np.cos(Y[:, 2]) / np.sin(Y[:, 2]))
    eta_abs = np.abs(eta)

    sup_eta = float(eta_abs.max())
    last2 = tau <= tau[0] * 10.0 ** (-(decades - 2.0))
    ea = eta_abs[last2]
    diverging = bool(len(ea) >= 3 and np.all(np.diff(ea) >= 0.0)
                     and ea[-1] > 10.0 * ea[0])

    # linear-in-tau extrapolation over the last decade
    lastd = tau <= tau[-1] * 10.0 ** 1.0
    A = np.stack([np.ones(lastd.sum()), tau[lastd]], axis=1)
    eta_limit = float(np.linalg.lstsq(A, eta[lastd], rcond=None)[0][0])
    etaup_limit = float(np.linalg.lstsq(A, eta_up[lastd], rcond=None)[0][0])
    return EtaReport(sup_eta, eta_limit, etaup_limit, diverging, len(tau))


def requadrature_totals(traj) -> SurfaceTotals:
    """Independent trapezoid re-quadrature of the dense output.

    Cross-checks the Gauss-Legendre quadrature of ``surface_totals``
    with the trapezoid rule on the axis series in r (40,001 nodes, the
    graph densities of ``surface_densities``) and on 500,001 nodes of the
    dense output in s (``arc_surface_densities``).
    """
    if traj.first_event(EQUATOR) is None:
        raise MissingEvent("no Equator event in trajectory")
    c0, lam, p = traj.params.c0, traj.params.lam, traj.params.p
    # the axis series on [0, eps], where every density is 0 at r = 0
    xs = np.linspace(0.0, traj.x_start, 40_001)
    w, wp, _ = axis_series(traj.axis_coeffs, xs[1:])
    F = np.concatenate([np.zeros((3, 1)), np.array(surface_densities(xs[1:], w, wp, c0, lam))],
                       axis=1)
    area, vol, energy = (float(np.trapezoid(f, xs)) for f in F)
    xs = np.linspace(traj.x_start, traj.events[-1].x, 500_001)
    F = arc_surface_densities(traj.eval_many(xs).T, c0, lam)
    area += float(np.trapezoid(F[0], xs))
    vol += float(np.trapezoid(F[1], xs))
    energy += float(np.trapezoid(F[2], xs))

    volume = -2.0 * math.pi * vol
    return SurfaceTotals(4.0 * math.pi * area, volume,
                         4.0 * math.pi * energy + p * volume)


def arc_oracle(params: HelfrichParams, w0p: float, eps: float, w_switch: float = 10.0,
               r_max: float | None = None):
    """The run from the axis series at r = eps to its terminal event by
    scipy's ``solve_ivp`` DOP853 at rtol 1e-13, atol 1e-15 on
    ``rhs_arc_arr``, with its own start and event functions.

    The start takes w, w' and z from the package's axis series (checked
    against sympy and 50-digit arithmetic on their own), psi = atan w,
    psi' = w' cos^3 psi and gamma from H = 0.  The events are the
    package's: psi' falling through 0 (``MaxOfW``), psi falling through 0
    (``ZeroOfW``), -atan(w_switch) (``Steep``) and -pi/2 (``Equator``,
    terminal), psi rising through atan(w_switch) (``BlowUpPositive``,
    terminal) and r rising through r_max (``Aborted``, terminal); there is
    no arc-length limit.  Returns (status, {kind: [state, ...]}) with the
    states at each kind's events in order.
    """
    from scipy.integrate import solve_ivp
    c0, lam, p = params.c0, params.lam, params.p
    r_max = r_max or 1e3 * math.sqrt(w0p / p + 1.0)
    w, wp, z = axis_series(axis_coefficients(params, w0p), eps)
    psi = math.atan(w)
    dpsi = wp * math.cos(psi) ** 3
    gam = (eps * ((math.sin(psi) / eps + c0) ** 2 - dpsi ** 2 + lam)
           - 0.5 * p * eps ** 2 * math.sin(psi)) / math.cos(psi)
    psi_sw = math.atan(w_switch)
    rows = [(MAX_OF_W, 3, 0.0, -1, False), (ZERO_OF_W, 2, 0.0, -1, False),
            (STEEP, 2, -psi_sw, -1, False), (EQUATOR, 2, -0.5 * math.pi, -1, True),
            (BLOWUP_POSITIVE, 2, psi_sw, 1, True), (ABORTED, 0, r_max, 1, True)]
    events = []
    for _, i, target, direction, terminal in rows:
        def event(s, y, i=i, target=target):
            return y[i] - target
        event.direction, event.terminal = direction, terminal
        events.append(event)
    sol = solve_ivp(lambda s, y: rhs_arc_arr(s, y, c0, lam, p), (eps, math.inf),
                    [eps, z, psi, dpsi, gam], method="DOP853", rtol=1e-13, atol=1e-15,
                    events=events)
    assert sol.status == 1, sol.message
    found = {kind: [tuple(y) for y in ys] for (kind, *_), ys in zip(rows, sol.y_events)}
    status = next(kind for kind, *_, terminal in rows if terminal and found[kind])
    return status, {kind: ys for kind, ys in found.items() if ys}


def profile_quadrature_totals(r: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """Area and volume of the closed surface from an upper-half polyline.

    ``(r, z)`` runs from the axis to the equator with z(equator) = 0.
    Chord-based quadrature, regular through the vertical tangent; checked
    against exact bodies.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    dr = np.diff(r)
    dz = np.diff(z)
    rbar = 0.5 * (r[1:] + r[:-1])
    dl = np.sqrt(dr * dr + dz * dz)
    area = 4.0 * math.pi * float(np.sum(rbar * dl))
    volume = -2.0 * math.pi * float(np.sum(rbar * rbar * dz))
    return area, volume


def s_at_r(traj, r, s_hi: float, passes: int = 64) -> np.ndarray:
    """Arc lengths at which the run reaches the radii r in [0, r(s_hi)]:
    s = r below the start, as in ``Trajectory.state_at``, and from there
    on a bisection of the dense output's rising r(s) on [eps, s_hi],
    ``passes`` halvings of the bracket."""
    r = np.asarray(r, dtype=float)
    lo, hi = np.full_like(r, traj.x_start), np.full_like(r, s_hi)
    for _ in range(passes):
        mid = 0.5 * (lo + hi)
        below = traj.eval_many(mid, 0) < r
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(r < traj.x_start, r, 0.5 * (lo + hi))


def _pointwise_records(traj, landmarks, rs, kap, kap_p, one_minus) -> dict:
    """The pointwise records of ``check_single`` by check id, as its former
    evaluations built them from samples of r, kappa, dkappa/dr and
    1 - r^2 kappa^2 in the order of r."""
    params, w0p = traj.params, traj.w0p
    consts = derived_constants(params, w0p)
    dp, xi = consts.delta_plus, consts.xi
    hyp = bool(consts.delta > 0.0)
    hyp_xi = bool(hyp and xi > 0.0)
    out = {"KappaMonotone": _make("KappaMonotone", bool(_r_max_on_interval(params, w0p) < 0.0),
                                  float(np.max(np.diff(kap))), 0.0, _PTWISE_TOL)}
    if dp > 0:
        tol_state = traj.cfg.abs_tol + traj.cfg.rel_tol * (w0p + abs(landmarks.wp_r0))
        noise = (30.0 * tol_state / rs
                 + 50.0 * np.finfo(float).eps * (w0p + rs) / (rs * rs))
        lhs = float(np.max(kap_p + dp * rs / 8.0 - noise))
        info = {"variant_r2_bound_max": float(np.max(kap_p + dp * rs * rs / 8.0))}
    else:
        lhs, info = None, {}
    out["KappaPrimeBound"] = _make("KappaPrimeBound", hyp, lhs, 0.0, _PTWISE_TOL, info)
    lhs = float(np.max(kap - (w0p - dp * rs * rs / 16.0))) if dp > 0 else None
    out["KappaBound"] = _make("KappaBound", hyp, lhs, 0.0, _PTWISE_TOL)
    lhs = float(np.max(xi - one_minus)) if hyp_xi else None
    out["XiFloor"] = _make("XiFloor", hyp_xi, lhs, 0.0, _PTWISE_TOL)
    return out


def pointwise_r_grid(traj, landmarks) -> dict:
    """The pointwise records of ``check_single`` (KappaMonotone,
    KappaPrimeBound, KappaBound, XiFloor) by check id, as the r-grid
    evaluation gave them: the graph state (w, w') at 4000 radii evenly
    spaced on (0, r0], at the arc lengths ``s_at_r`` finds."""
    rs = np.linspace(0.0, landmarks.r0, 4001)[1:]
    _, w, wp = graph_at(traj, s_at_r(traj, rs, traj.first_event(ZERO_OF_W).x))
    P = 1.0 + w * w
    sq = np.sqrt(P)
    kap = w / (rs * sq)
    kap_p = wp / (rs * P * sq) - w / (rs * rs * sq)
    return _pointwise_records(traj, landmarks, rs, kap, kap_p, 1.0 - rs * rs * kap * kap)


def pointwise_s_grid(traj, landmarks, n: int) -> dict:
    """The pointwise records of ``check_single`` by check id, as the
    evenly spaced arc-length evaluation gave them: r, psi and psi' at n
    values of s evenly spaced on (0, s(r0)] (``Trajectory.state_at``),
    kappa = sin psi / r and its r-derivative psi'/r - sin psi / r^2 read
    off the angle."""
    s = np.linspace(0.0, traj.first_event(ZERO_OF_W).x, n + 1)[1:]
    rs, psi, dpsi = traj.state_at(s, [0, 2, 3]).T
    sp = np.sin(psi)
    return _pointwise_records(traj, landmarks, rs, sp / rs, dpsi / rs - sp / (rs * rs),
                              1.0 - sp * sp)


def json_via_copy(payload) -> str:
    """``payload``'s JSON text as ``json.dumps(x, sort_keys=True,
    indent=2)`` of its JSON-ready copy x: records (``NamedTuple``
    instances) as dicts of their fields, and float NaN as None."""
    def jsonable(obj):
        if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
            return {k: jsonable(v) for k, v in obj._asdict().items()}
        if isinstance(obj, dict):
            return {k: jsonable(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [jsonable(v) for v in obj]
        if isinstance(obj, float) and math.isnan(obj):
            return None
        return obj

    return json.dumps(jsonable(payload), sort_keys=True, indent=2)
