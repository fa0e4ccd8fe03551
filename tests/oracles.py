"""Reference computations used only by the tests.

Each one is independent of the package code path it cross-checks: a
fixed-step propagation for order studies, the ndarray right-hand sides,
DOP853 step and first step size that the float code must match bit for bit,
dense sampling for the closed-form extrema of Q, a triangle-sum for mesh
area and volume, the critical-point scan on the full dense-output
evaluation, and the element-by-element emitters (profile CSV, SVG path,
OBJ) that the array emitters must match byte for byte.

The integrity references of the paper's checks live here too, because no
command computes them: the 50-digit series-start defect, the curvature
derivatives and the curvature-form right-hand side ``rhs_kappa``, the
crossing search ``find_crossing`` on a dense segment, eta on both charts
``eta_at``, the point geometry ``geometry_at``, the eta sampling
``eta_boundedness`` toward the equator, the trapezoid
``requadrature_totals`` of the dense output and the chord quadrature
``profile_quadrature_totals`` of a polyline.
"""

import math
from dataclasses import dataclass

import numpy as np

from helfrich import kernels
from helfrich.analysis import SurfaceTotals, _quarter_profile, curvature_geometry
from helfrich.cubic import HelfrichParams, eval_q
from helfrich.errors import MissingEvent, OutOfRange
from helfrich.export import PROFILE_COLUMNS, _angle_table, fmt17, profile_rows
from helfrich.solver import EQUATOR, _bisect_step, axis_series, series_coefficient
from scipy.integrate._ivp import dop853_coefficients as _dop853


def fixed_step_chart_a(params: HelfrichParams, r0: float, y0: np.ndarray,
                       r1: float, n_steps: int) -> np.ndarray:
    """Fixed-step propagation of chart A (order studies and restarts)."""
    c0, lam, p = params.c0, params.lam, params.p
    h = (r1 - r0) / n_steps
    y = np.asarray(y0, dtype=float).tolist()
    f = kernels.rhs_a(r0, y, c0, lam, p)
    x = r0
    for _ in range(n_steps):
        # the step hands back f_new only when it accepts, so f is computed
        # here, from the same arguments the step's FSAL stage would use
        y = kernels.dopri5_step_a(x, y, h, f, c0, lam, p, 1e-6, 1e-6)[0]
        x += h
        f = kernels.rhs_a(x, y, c0, lam, p)
    return np.asarray(y)


# The ndarray kernels the scalar ones replaced, kept as bit-for-bit
# references: both right-hand sides write into ``out``, and the step does
# its stage sums on arrays of kernels.NSTATE elements.

def rhs_chart_a_arr(r, y, c0, lam, p, out):
    """Chart-A derivatives with respect to r, written into ``out``."""
    w = y[0]
    wp = y[1]
    P = 1.0 + w * w
    sq = np.sqrt(P)
    wpp = (
        2.5 * w * wp * wp / P
        - (wp - w / r) / r
        + w ** 3 * (3.0 + w * w) / (2.0 * r * r)
        + c0 * w * w * P * sq / r
        + 0.5 * (c0 * c0 + lam) * w * P * P
        - 0.25 * p * r * P * P * sq
    )
    out[0] = wp
    out[1] = wpp
    out[2] = w
    return out


def rhs_chart_b_arr(z, y, c0, lam, p, out):
    """Chart-B derivatives with respect to z, written into ``out``."""
    u = y[0]
    s = y[1]
    q = y[2]
    P = s * s + 1.0
    sq = np.sqrt(P)
    N = (
        q * q * (6.0 * s * s + 1.0) / (2.0 * P)
        - (2.0 * s * s + 1.0) * P / (2.0 * u * u)
        + c0 * P * sq / u
        - 0.5 * (c0 * c0 + lam) * P * P
        - 0.25 * p * u * P * P * sq
    )
    out[0] = s
    out[1] = q
    out[2] = N / s - q * s / u
    return out


def surface_densities(chart, x, y, c0, lam):
    """Area, volume and energy densities of the upper half per unit of the
    chart's variable, from the chart states ``y`` of shape (3, n): the
    right-hand-side rows of the in-step quadratures the step kernels
    once carried, with their own 2H formula."""
    if chart == "A":
        r, w, wp = x, y[0], y[1]
        P = 1.0 + w * w
        sq = np.sqrt(P)
        twoH = (wp + (w / r) * P) / (P * sq)
        return r * sq, r * r * w, ((twoH + c0) ** 2 + lam) * r * sq
    u, s, q = y
    P = s * s + 1.0
    sq = np.sqrt(P)
    twoH = (q - P / u) / (P * sq)
    return -u * sq, u * u, -((twoH + c0) ** 2 + lam) * u * sq


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


def initial_step_arr(rhs, x, y, f, direction, rtol, atol, c0, lam, p, h_cap):
    """The solver's first step size computed on ndarrays ``y`` and ``f``,
    with numpy's mean of squares for each scaled norm: the reference for
    the float ``solver._initial_step``."""
    sc = atol + rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_cap)
    y1 = y + h0 * direction * f
    f1 = np.array(rhs(x + h0 * direction, y1, c0, lam, p))
    d2 = float(np.sqrt(np.mean(((f1 - f) / sc) ** 2))) / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, h_cap)


def critical_points_full_scan(traj, r0: float) -> int:
    """Sign changes of w' on (eps, r0) at 10,001 points, read from the
    evaluation of all the dense-output components."""
    rs = np.linspace(traj.chart_a.x_start, r0, 10_001)
    wp = traj.chart_a.eval_many(rs)[:, 1]
    sgn = np.sign(wp)
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
    verts = np.array(verts)

    def ring_idx(j, k):
        return 1 + (j - 1) * n_theta + (k % n_theta)

    faces = []
    n_rings = len(r_full) - 2
    for k in range(n_theta):
        faces.append((0, ring_idx(1, k), ring_idx(1, k + 1)))
    for j in range(1, n_rings):
        for k in range(n_theta):
            a, b = ring_idx(j, k), ring_idx(j, k + 1)
            c, d = ring_idx(j + 1, k), ring_idx(j + 1, k + 1)
            faces.append((a, c, d))
            faces.append((a, d, b))
    last = len(verts) - 1
    for k in range(n_theta):
        faces.append((last, ring_idx(n_rings, k + 1), ring_idx(n_rings, k)))
    return verts, np.array(faces, dtype=np.int64)


def write_obj_loops(path, verts: np.ndarray, faces: np.ndarray) -> None:
    """OBJ text written one vertex and one face at a time."""
    with open(path, "w", newline="\n") as fh:
        for v in verts:
            fh.write(f"v {fmt17(v[0])} {fmt17(v[1])} {fmt17(v[2])}\n")
        for f in faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def series_residual(params, w0p, eps, with_a3=True):
    """Defect of the truncated series against the solved-for w''.

    Evaluated in 50-digit arithmetic: the true defect at eps = 1e-5 is
    ~1e-17, far below double-precision cancellation noise.
    """
    import mpmath as mp
    with mp.workdps(50):
        c0, lam, p = mp.mpf(params.c0), mp.mpf(params.lam), mp.mpf(params.p)
        a, r = mp.mpf(w0p), mp.mpf(eps)
        q = ((a + 2 * c0) * a + (c0 ** 2 + lam)) * a - p / 2
        b = (q + 7 * a ** 3) / 16 if with_a3 else mp.mpf(0)
        w = a * r + b * r ** 3
        wp = a + 3 * b * r ** 2
        P = 1 + w * w
        wpp_ode = (mp.mpf(5) / 2 * w * wp * wp / P - (wp - w / r) / r
                   + w ** 3 * (3 + w * w) / (2 * r * r)
                   + c0 * w * w * P ** mp.mpf(1.5) / r
                   + (c0 ** 2 + lam) * w * P ** 2 / 2
                   - p * r * P ** mp.mpf(2.5) / 4)
        return float(abs(6 * b * r - wpp_ode))


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


def find_crossing(seg, component: int, target: float, x_lo=None, x_hi=None,
                  tol: float = 1e-12) -> float:
    """First x where component ``component`` of the dense segment ``seg``
    crosses ``target``.

    The step nodes inside [x_lo, x_hi] bracket the first sign change; that
    step's polynomial is then bisected with the solver's event bisection.
    """
    lo = seg.x_start if x_lo is None else x_lo
    hi = seg.x_end if x_hi is None else x_hi
    sgn = 1.0 if seg.ascending else -1.0
    inner = seg.xs[(seg._key > sgn * lo) & (seg._key < sgn * hi)]
    xk = np.concatenate([[lo], inner, [hi]])
    g = seg.eval_many(xk, component) - target
    if g[0] == 0.0:
        return lo
    change = np.nonzero(g[:-1] * g[1:] <= 0.0)[0]
    if len(change) == 0:
        raise OutOfRange("no crossing in the requested range")
    a, b = xk[change[0]], xk[change[0] + 1]
    (i,), (th_a,) = seg._locate(np.array([a]))
    h = seg.xs[i + 1] - seg.xs[i]
    th = _bisect_step(seg.conts[i, :, component].tolist(), target, h,
                      seg.xs[i], tol, th_a, (b - seg.xs[i]) / h)
    return seg.xs[i] + th * h


def eta_at(chart: str, x, y, params: HelfrichParams):
    """Eta at chart states ``y``, shape (3,) or (n, 3); ``x`` is r on
    chart A and z on chart B.

    On chart B every term of eta diverges like 1/|u'|; grouping in
    (u, s, q) exposes the cancellation, leaving B(u, s, q)/s with B -> 0
    at the equator (NaN where s = 0).
    """
    c0, lam, p = params.c0, params.lam, params.p
    if chart == "A":
        r, w, wp = x, y[..., 0], y[..., 1]
        P = 1.0 + w * w
        sq = np.sqrt(P)
        return (r * wp * wp / (P * P * sq) - w * w / (r * sq) - 2.0 * c0 * w
                - (c0 ** 2 + lam) * r * sq + 0.5 * p * r * r * w)
    u, s, q = (np.asarray(y[..., k], dtype=float) for k in range(3))
    P = s * s + 1.0
    sq = np.sqrt(P)
    B = (-u * q * q / (P * P * sq) + 1.0 / (u * sq) - 2.0 * c0
         + (c0 ** 2 + lam) * u * sq + 0.5 * p * u * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s == 0.0, np.nan, B / s)


@dataclass(frozen=True)
class GeometrySample:
    r: float
    z: float
    kappa_m: float
    kappa_l: float
    H: float
    K: float
    eta: float


def geometry_at(traj, r: float | None = None, z: float | None = None) -> GeometrySample:
    """Curvatures, H, K, and eta at a point of the trajectory.

    Query chart A by radius ``r`` (the series region below eps_start is
    covered) or chart B by height ``z``.
    """
    params = traj.params
    if (r is None) == (z is None):
        raise ValueError("pass exactly one of r or z")
    if r is not None:
        if r < 0.0:
            raise OutOfRange(f"r must be >= 0, got {r!r}")
        if r == 0.0:
            w0p = traj.w0p
            return GeometrySample(0.0, 0.0, w0p, w0p, w0p, w0p * w0p,
                                  -2.0 * params.c0)
        seg = traj.chart_a
        y = traj.series_eval(r)[0] if r < seg.x_start else seg.eval_many(r)[0]
        geom = (*curvature_geometry("A", r, y), eta_at("A", r, y, params))
        return GeometrySample(float(r), float(y[2]), *map(float, geom))

    if traj.chart_b is None:
        raise OutOfRange("trajectory has no chart-B portion")
    y = traj.chart_b.eval_many(z)[0]
    geom = (*curvature_geometry("B", z, y), eta_at("B", z, y, params))
    return GeometrySample(float(y[0]), float(z), *map(float, geom))


@dataclass(frozen=True)
class EtaReport:
    sup_eta: float
    eta_limit: float
    eta_times_up_limit: float
    diverging: bool
    n_samples: int


def eta_boundedness(traj) -> EtaReport:
    """Sample eta on chart B, 4 per decade of z - z_inf over 6 decades.

    Reports the running sup, a linear extrapolation of eta to the
    equator, the extrapolated limit of eta * |u'| (which must vanish),
    and a divergence flag if |eta| grows monotonically by more than 10x
    over the last two sampled decades of (z - z_inf).
    """
    ev = traj.first_event(EQUATOR)
    if ev is None or traj.chart_b is None:
        raise MissingEvent("no Equator event in trajectory")
    n_per_decade, decades = 4, 6.0
    z_inf = ev.x
    z_sw = traj.chart_b.x_start
    tau_sw = z_sw - z_inf
    k = np.arange(0, int(decades * n_per_decade) + 1)
    tau = tau_sw * 10.0 ** (-k / n_per_decade)
    zs = z_inf + tau
    Y = traj.chart_b.eval_many(zs, slice(0, 3))
    eta = eta_at("B", zs, Y, traj.params)
    eta_up = -eta * Y[:, 1]  # eta |u'|, as u' < 0 on the descent
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
    with the trapezoid rule on the ``surface_densities`` of 400,001
    chart-A and 100,001 chart-B nodes.
    """
    if traj.first_event(EQUATOR) is None:
        raise MissingEvent("no Equator event in trajectory")
    c0, lam, p = traj.params.c0, traj.params.lam, traj.params.p
    # series piece [0, eps], then one trapezoid pass per chart
    a3 = series_coefficient(traj.params, traj.w0p)
    area, vol, energy = axis_series(traj.params, traj.w0p, a3, traj.chart_a.x_start)[3:]
    for chart, seg, n in (("A", traj.chart_a, 400_001), ("B", traj.chart_b, 100_001)):
        xs = np.linspace(seg.x_start, seg.x_end, n)
        F = surface_densities(chart, xs, seg.eval_many(xs).T, c0, lam)
        area += float(np.trapezoid(F[0], xs))
        vol += float(np.trapezoid(F[1], xs))
        energy += float(np.trapezoid(F[2], xs))

    volume = -2.0 * math.pi * vol
    return SurfaceTotals(4.0 * math.pi * area, volume,
                         4.0 * math.pi * energy + p * volume)


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
