"""Analysis of the parameter cubic Q and its quadratic truncation R.

Q(t) = t^3 + 2 c0 t^2 + (c0^2 + lambda) t - p/2 collects the physical
parameters of the bending functional; the sign structure of its real
roots decides which initial slopes produce a biconcave profile.  This
module evaluates Q and R, isolates the real roots, and computes the
extremal quantities (mu, delta_plus, delta_minus, xi, delta) that feed
every quantitative check in the bounds harness.

All operations are pure; values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSlope

__all__ = [
    "HelfrichParams",
    "CubicAnalysis",
    "DerivedConstants",
    "eval_q",
    "eval_r",
    "analyze_cubic",
    "delta_minus",
    "derived_constants",
]

# residual target for polished roots, relative to the coefficient scale
_ROOT_RTOL = 1e-13


@dataclass(frozen=True)
class HelfrichParams:
    """Physical triple: spontaneous curvature c0, tensile stress lambda
    (field ``lam``), osmotic pressure difference p.

    Lengths are in one arbitrary unit; the solver is unit-agnostic.
    Construction only requires finite values; entry points that rely on
    the blow-down analysis additionally require p > 0.
    """

    c0: float
    lam: float
    p: float

    def __post_init__(self):
        for name in ("c0", "lam", "p"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))


def eval_q(t, params: HelfrichParams):
    """Evaluate Q(t) = t^3 + 2 c0 t^2 + (c0^2 + lambda) t - p/2 (Horner).

    Accepts a scalar or an ndarray.
    """
    c0, lam, p = params.c0, params.lam, params.p
    return ((t + 2.0 * c0) * t + (c0 * c0 + lam)) * t - 0.5 * p


def eval_r(t, params: HelfrichParams):
    """Evaluate R(t) = Q(t) - t^3 = 2 c0 t^2 + (c0^2 + lambda) t - p/2."""
    c0, lam, p = params.c0, params.lam, params.p
    return (2.0 * c0 * t + (c0 * c0 + lam)) * t - 0.5 * p


def _q_critical_points(params: HelfrichParams) -> list[float]:
    """Real roots of Q' = 3 t^2 + 4 c0 t + (c0^2 + lambda), ascending."""
    a, b, c = 3.0, 4.0 * params.c0, params.c0 ** 2 + params.lam
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-b / (2.0 * a)]
    sq = math.sqrt(disc)
    # Citardauq-stable pairing
    q = -0.5 * (b + math.copysign(sq, b))
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / (2.0 * a)
    lo, hi = min(r1, r2), max(r1, r2)
    return [lo, hi]


@dataclass(frozen=True)
class CubicAnalysis:
    """Real-root structure of Q.

    ``real_roots`` holds (value, multiplicity) pairs sorted by value;
    ``all_roots_positive`` is True iff every real root is strictly
    positive (a root at exactly 0 counts as not positive).
    """

    real_roots: tuple[tuple[float, int], ...]
    all_roots_positive: bool

    @property
    def smallest_root(self) -> float:
        return self.real_roots[0][0]


def _coeff_scale(params: HelfrichParams) -> float:
    return max(1.0, abs(2.0 * params.c0), abs(params.c0 ** 2 + params.lam), abs(0.5 * params.p))


def _bisect_newton(f, df, lo, hi, flo, fhi):
    """Root of f on a bracket [lo, hi] with f(lo)*f(hi) <= 0.

    Bisection with Newton polishing; safeguarded so every iterate stays
    inside the current bracket.
    """
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fhi > 0.0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        d = df(x)
        if d != 0.0:
            xn = x - fx / d
            if lo < xn < hi:
                x_new = xn
            else:
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-16 * (1.0 + abs(x_new)):
            return x_new
        x = x_new
    return x


def analyze_cubic(params: HelfrichParams) -> CubicAnalysis:
    """Isolate the real roots of Q on its monotone intervals.

    Critical points come from the closed-form quadratic; each monotone
    interval with a sign change is bisected (with Newton polishing).
    Double roots, which produce no sign change, are detected at critical
    points where |Q| is at rounding level.
    """
    c0, lam, p = params.c0, params.lam, params.p
    scale = _coeff_scale(params)

    f = lambda t: eval_q(t, params)

    def df(t):
        return (3.0 * t + 4.0 * c0) * t + (c0 * c0 + lam)

    crit = _q_critical_points(params)

    # p == 0 makes t = 0 an exact root; deflate to the quadratic factor.
    if p == 0.0:
        roots: list[tuple[float, int]] = []
        disc = 4.0 * c0 * c0 - 4.0 * (c0 * c0 + lam)  # = -4 lam
        if disc > 0.0:
            sq = math.sqrt(disc)
            r1, r2 = (-2.0 * c0 - sq) / 2.0, (-2.0 * c0 + sq) / 2.0
            roots = [(r1, 1), (r2, 1), (0.0, 1)]
        elif disc == 0.0:
            roots = [(-c0, 2), (0.0, 1)]
        else:
            roots = [(0.0, 1)]
        merged: dict[float, int] = {}
        for v, m in roots:
            merged[v] = merged.get(v, 0) + m
        out = tuple(sorted(merged.items()))
        return CubicAnalysis(out, False)

    bound = 1.0 + scale  # Cauchy bound for a monic cubic
    xs = [-bound] + [t for t in crit if -bound < t < bound] + [bound]
    vals = [f(x) for x in xs]

    simple: list[float] = []
    for i in range(len(xs) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa * fb < 0.0:
            simple.append(_bisect_newton(f, df, xs[i], xs[i + 1], fa, fb))

    root_tol = _ROOT_RTOL * scale
    roots_m: list[tuple[float, int]] = [(t, 1) for t in sorted(set(simple))]

    # multiple roots: Q touches zero at a critical point.  A tangency with
    # a nearby sign change is the triple-root case; a bare tangency is a
    # double root.
    for tc in crit:
        if abs(f(tc)) <= 10.0 * root_tol * max(1.0, abs(tc) ** 3):
            near = [i for i, (v, _) in enumerate(roots_m)
                    if abs(v - tc) <= 1e-5 * (1.0 + abs(tc))]
            if near:
                roots_m[near[0]] = (roots_m[near[0]][0], 3)
            else:
                roots_m.append((tc, 2))
    roots_m.sort()

    # total multiplicity of a real cubic is odd (1 or 3)
    total = sum(m for _, m in roots_m)
    if total == 2 and len(roots_m) == 1:
        roots_m = [(roots_m[0][0], 3)]
    elif total > 3:
        roots_m = [(v, m) for v, m in roots_m if m == 1][:3] or [(crit[0], 3)]

    all_pos = all(v > 0.0 for v, _ in roots_m)
    return CubicAnalysis(tuple(roots_m), all_pos)


@dataclass(frozen=True)
class DerivedConstants:
    """Extremal quantities of -Q controlling the quantitative bounds.

    mu, delta_plus are the max/min of -Q over [0, w0p]; delta_minus the
    min of -Q over t <= 0; xi = 1 - 64 w0p^3 / (27 delta_plus) (NaN when
    delta_plus <= 0); delta = min(delta_plus/8, delta_minus/2).
    """

    mu: float
    delta_plus: float
    delta_minus: float
    xi: float
    delta: float
    w0p: float


def delta_minus(params: HelfrichParams) -> float:
    """Min of -Q over t <= 0, taken at 0 and the negative critical points;
    every real root of Q is positive iff it is > 0."""
    crit = _q_critical_points(params)
    return -max(eval_q(t, params) for t in [0.0] + [t for t in crit if t < 0.0])


def derived_constants(params: HelfrichParams, w0p: float) -> DerivedConstants:
    """Extrema of Q taken at interval endpoints plus interior roots of Q'."""
    if not (w0p > 0.0):
        raise InvalidSlope(f"w0p must be > 0, got {w0p!r}")
    crit = _q_critical_points(params)

    cand = [0.0, w0p] + [t for t in crit if 0.0 < t < w0p]
    qv = [eval_q(t, params) for t in cand]
    mu = -min(qv)
    delta_plus = -max(qv)
    d_minus = delta_minus(params)
    if delta_plus > 0.0:
        xi = 1.0 - 64.0 * w0p ** 3 / (27.0 * delta_plus)
    else:
        xi = math.nan
    delta = min(delta_plus / 8.0, d_minus / 2.0)
    return DerivedConstants(mu, delta_plus, d_minus, xi, delta, float(w0p))

