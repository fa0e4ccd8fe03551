"""Analysis of the parameter cubic Q and its quadratic truncation R.

Q(t) = t^3 + 2 c0 t^2 + (c0^2 + lambda) t - p/2 collects the physical
parameters of the bending functional; the sign structure of its real
roots decides which initial slopes produce a biconcave profile.  This
module evaluates Q and R, finds the smallest real root, and computes the
extremal quantities (mu, delta_plus, delta_minus, xi, delta) that feed
every quantitative check in the bounds harness.

All operations are pure; values are immutable after construction.
"""

from __future__ import annotations

import math
import struct
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
    """The two facts about the real roots of Q that the sweep rule reads.

    ``smallest_root`` is the smallest real root of Q; ``all_roots_positive``
    is True iff every real root is strictly positive (a root at exactly 0
    counts as not positive), decided as ``delta_minus > 0``.
    """

    smallest_root: float
    all_roots_positive: bool


def _coeff_scale(params: HelfrichParams) -> float:
    return max(1.0, abs(2.0 * params.c0), abs(params.c0 ** 2 + params.lam), abs(0.5 * params.p))


def _order_key(x: float) -> int:
    """The rank of a double among the doubles: an integer that orders as
    the doubles do, with -0.0 and 0.0 both 0."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _order_mid(lo: float, hi: float) -> float:
    """The double halfway between lo and hi by rank: a bisection step that
    halves the number of doubles in the bracket, whatever their scale."""
    k = (_order_key(lo) + _order_key(hi)) // 2
    m = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return m if k >= 0 else -m


# consecutive slow Newton steps after which the bracket is bisected by rank
_SLOW_STEPS = 10


def _bisect_newton(f, df, lo, hi, fhi):
    """Root of f on a bracket [lo, hi] with f(lo)*f(hi) <= 0.

    Bisection with Newton polishing; safeguarded so every iterate stays
    inside the current bracket.  It stops when an iterate repeats, or when
    a step is below 1e-16 (1 + |x|) at |x| >= 1e-8; below that the
    absolute test would leave a root near 0 with no correct digit.

    A Newton step that moves x by more than a quarter of its new value
    and by more than half the step before is slow: toward a root far
    below the iterate's scale, as for Q = t^3 - p/2 with a tiny p, each
    step shrinks x by only a third.  After ``_SLOW_STEPS`` of them in a
    row the next iterate is the bracket's midpoint by rank
    (``_order_mid``), which reaches any double in at most 64 halvings.
    """
    x = 0.5 * (lo + hi)
    step = math.inf
    slow = 0
    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fhi > 0.0):
            hi, fhi = x, fx
        else:
            lo = x
        d = df(x)
        xn = x - fx / d if d != 0.0 else math.nan
        if lo < xn < hi:
            dx = abs(xn - x)
            slow = slow + 1 if dx > 0.5 * step and dx > 0.25 * abs(xn) else 0
            if slow >= _SLOW_STEPS:
                x_new, slow = _order_mid(lo, hi), 0
            else:
                x_new = xn
        else:
            x_new = 0.5 * (lo + hi)
        if x_new == x or (abs(x_new) >= 1e-8
                          and abs(x_new - x) <= 1e-16 * (1.0 + abs(x_new))):
            return x_new
        step = abs(x_new - x)
        x = x_new
    return x


def analyze_cubic(params: HelfrichParams) -> CubicAnalysis:
    """Smallest real root of Q, and whether every real root is positive.

    The nodes -(1 + scale), the critical points of Q inside that Cauchy
    bound, and +(1 + scale) split Q into monotone pieces, and Q is negative
    at the first node.  The smallest root is the first node where Q is
    exactly 0, or else the bisection (with Newton polishing) of the first
    piece on which Q turns positive.  Positivity is the sign of
    ``delta_minus``, the test ``check_single``'s hypotheses read.
    """
    c0, lam = params.c0, params.lam
    bound = 1.0 + _coeff_scale(params)  # Cauchy bound for a monic cubic

    f = lambda t: eval_q(t, params)

    def df(t):
        return (3.0 * t + 4.0 * c0) * t + (c0 * c0 + lam)

    xs = [-bound] + [t for t in _q_critical_points(params) if -bound < t < bound] + [bound]
    vals = [f(x) for x in xs]
    for i in range(1, len(xs)):
        if vals[i] >= 0.0:
            root = xs[i] if vals[i] == 0.0 else _bisect_newton(f, df, xs[i - 1], xs[i], vals[i])
            return CubicAnalysis(root, delta_minus(params) > 0.0)


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

