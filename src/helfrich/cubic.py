"""Analysis of the parameter cubic Q and its quadratic truncation R.

Q(t) = t^3 + 2 c0 t^2 + (c0^2 + lambda) t - p/2 collects the physical
parameters of the bending functional; the sign structure of its real
roots decides which initial slopes produce a biconcave profile.  This
module evaluates Q and R, finds the smallest real root by halving a
bracket down to adjacent doubles, and computes the extremal quantities
(mu, delta_plus, delta_minus, xi, delta) that feed every quantitative
check in the bounds harness.

All operations are pure; values are immutable NamedTuples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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

class _Params(NamedTuple):
    c0: float
    lam: float
    p: float


class HelfrichParams(_Params):
    """Physical triple: spontaneous curvature c0, tensile stress lambda
    (field ``lam``), osmotic pressure difference p.

    Lengths are in one arbitrary unit; the solver is unit-agnostic.
    Construction only requires finite values, which it stores as floats;
    entry points that rely on the blow-down analysis additionally require
    p > 0.  The check runs on every path to a new record: construction,
    ``_make``, ``_replace`` and unpickling (pickle protocol 2 and up).
    """

    __slots__ = ()

    def __new__(cls, c0, lam, p):
        for name, v in (("c0", c0), ("lam", lam), ("p", p)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        return super().__new__(cls, float(c0), float(lam), float(p))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
    """Real roots of Q' = 3 t^2 + 4 c0 t + (c0^2 + lambda), ascending.

    The discriminant b^2 - 4ac is 4 (c0^2 - 3 lambda).  Where its plain
    form leaves the float range (|c0| above about 3e153, or |c0^2 +
    lambda| above about 1e307), it is taken as (2 s)^2 ((c0/s)^2 - 3
    (lambda/s)/s), with s the larger of |c0| and sqrt|lambda|.
    """
    c0, lam = params.c0, params.lam
    a, b, c = 3.0, 4.0 * c0, c0 ** 2 + lam
    disc, scale = b * b - 4.0 * a * c, 1.0
    if not math.isfinite(disc):
        s = max(abs(c0), math.sqrt(abs(lam)))
        disc, scale = (c0 / s) ** 2 - 3.0 * (lam / s) / s, 2.0 * s
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-b / (2.0 * a)]
    sq = scale * math.sqrt(disc)
    # Citardauq-stable pairing
    q = -0.5 * (b + math.copysign(sq, b))
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / (2.0 * a)
    lo, hi = min(r1, r2), max(r1, r2)
    return [lo, hi]


class CubicAnalysis(NamedTuple):
    """The two facts about the real roots of Q that the sweep rule reads.

    ``smallest_root`` is the smallest real root of Q; ``all_roots_positive``
    is True iff every real root is strictly positive (a root at exactly 0
    counts as not positive), decided as ``delta_minus > 0``.
    """

    smallest_root: float
    all_roots_positive: bool


def _bisect(f, lo, hi):
    """Root of f on a bracket [lo, hi] with f(lo) < 0 < f(hi), by halving.

    Each step keeps the half of the bracket where f changes sign, until
    the midpoint equals an end: then lo and hi are adjacent doubles and
    hi is returned.  So either f(root) == 0, or f(root) > 0 and f is < 0
    at the double below root.  A finite bracket shrinks to adjacent
    doubles in at most about 2,100 halvings, at any scale.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm > 0.0:
            hi = mid
        else:
            lo = mid


def analyze_cubic(params: HelfrichParams) -> CubicAnalysis:
    """Smallest real root of Q, and whether every real root is positive.

    The nodes -(1 + scale), the critical points of Q inside that Cauchy
    bound, and +(1 + scale) split Q into monotone pieces, and Q is negative
    at the first node.  The smallest root is the first node where Q is
    exactly 0, or else the halving (``_bisect``) of the first piece on
    which Q turns positive: either Q(root) == 0, or Q(root) > 0 and Q < 0
    at the double below it.  Positivity is the sign of ``delta_minus``,
    the test ``check_single``'s hypotheses read.  A coefficient that
    leaves the float range, c0^2 or c0^2 + lambda, is an OverflowError.
    """
    scale = max(1.0, abs(2.0 * params.c0), abs(params.c0 ** 2 + params.lam), abs(0.5 * params.p))
    if math.isinf(scale):
        raise OverflowError("c0^2 + lambda leaves the float range")
    bound = 1.0 + scale  # Cauchy bound for a monic cubic
    f = lambda t: eval_q(t, params)
    xs = [-bound] + [t for t in _q_critical_points(params) if -bound < t < bound] + [bound]
    vals = [f(x) for x in xs]
    for i in range(1, len(xs)):
        if vals[i] >= 0.0:
            root = xs[i] if vals[i] == 0.0 else _bisect(f, xs[i - 1], xs[i])
            return CubicAnalysis(root, delta_minus(params) > 0.0)


class DerivedConstants(NamedTuple):
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


def _q_at_zero(params: HelfrichParams) -> float:
    """Q(0) as ``eval_q`` gives it, or -p/2 where that is NaN: eval_q forms
    inf * 0 at t = 0 where c0^2 + lambda overflows."""
    q0 = eval_q(0.0, params)
    return -0.5 * params.p if q0 != q0 else q0


def delta_minus(params: HelfrichParams) -> float:
    """Min of -Q over t <= 0, taken at 0 (see ``_q_at_zero``) and the
    negative critical points; every real root of Q is positive iff it is
    > 0."""
    crit = _q_critical_points(params)
    return -max([_q_at_zero(params)] + [eval_q(t, params) for t in crit if t < 0.0])


def derived_constants(params: HelfrichParams, w0p: float) -> DerivedConstants:
    """Extrema of Q taken at interval endpoints plus interior roots of Q',
    with Q(0) as in ``delta_minus``."""
    if not (w0p > 0.0):
        raise InvalidSlope(f"w0p must be > 0, got {w0p!r}")
    crit = _q_critical_points(params)

    cand = [w0p] + [t for t in crit if 0.0 < t < w0p]
    qv = [_q_at_zero(params)] + [eval_q(t, params) for t in cand]
    mu = -min(qv)
    delta_plus = -max(qv)
    d_minus = delta_minus(params)
    if delta_plus > 0.0:
        xi = 1.0 - 64.0 * w0p ** 3 / (27.0 * delta_plus)
    else:
        xi = math.nan
    delta = min(delta_plus / 8.0, d_minus / 2.0)
    return DerivedConstants(mu, delta_plus, d_minus, xi, delta, float(w0p))

