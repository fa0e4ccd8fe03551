"""Initial-value solver for the axisymmetric shape equation.

The profile is integrated in two coordinate charts:

* chart A: graph coordinates, w(r) = z'(r), from a series start at the
  singular axis r = 0 out to the vertical-tangent region;
* chart B: inverse-graph coordinates u(z) = r(z), through the vertical
  tangent down to the equator, where u'(z) = 0 is a regular point.

The embedded DOP853 pair (8th order, with 5th- and 3rd-order error
estimates) and a proportional-integral step controller take the steps;
events (maximum of w, zero of w, chart switch, equator, positive
blow-up) are located by bisection on the 7th-order continuous extension
of the step they fall in.  That dense output is built only where it is
read: the chart loop keeps each accepted step's record (see
``kernels._step_source``) and completes the dense output of a step in
which an event row changes sign, and a ``DenseSegment`` completes a step
the first time a query touches it.  No chart-A step is longer than its
start radius, the distance to the axis singularity at r = 0, and a
chart-B step near the equator keeps its stages away from the equator's
removable pole.

The chart loop runs on Python floats and stores its steps in ``array('d')``:
events and chart starts are tuples of floats, and a ``DenseSegment`` makes
its ndarrays, and imports numpy, only when a caller first reads them.  A
run that is only classified imports no numpy here; with the numba backend,
numba's own import has loaded it already.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from . import kernels
from .kernels import EQUATOR_THETA
from .cubic import HelfrichParams
from .errors import (
    BadSwitch,
    EpsTooLarge,
    InvalidParams,
    InvalidSlope,
    OutOfRange,
    StepUnderflow,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SolverConfig",
    "Event",
    "Trajectory",
    "DenseSegment",
    "axis_coefficients",
    "series_coefficient",
    "axis_series",
    "series_start",
    "chart_switch",
    "integrate",
    "MAX_OF_W",
    "ZERO_OF_W",
    "CHART_SWITCH",
    "EQUATOR",
    "BLOWUP_POSITIVE",
    "ABORTED",
]

MAX_OF_W = "MaxOfW"
ZERO_OF_W = "ZeroOfW"
CHART_SWITCH = "ChartSwitch"
EQUATOR = "Equator"
BLOWUP_POSITIVE = "BlowUpPositive"
ABORTED = "Aborted"

_SAFETY = 0.9
# PI controller exponents for an 8th-order pair, as dop853.f's expo1
_BETA = 0.04
_ALPHA = 1.0 / 8.0 - 0.2 * _BETA
_FAC_MIN = 0.2
_FAC_MAX = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Integrator tolerances and chart-handling thresholds.

    ``eps_start`` is the radius where chart A starts from the axis series
    (see ``axis_coefficients``).  ``None`` selects the largest radius at
    which each of the series' last two terms, a9 r^9 and a11 r^11, is at
    most rel_tol/10 of w0p r, capped at 0.99 of both limits that
    ``series_start`` checks (0.1 sqrt(w0p/p + 1), and |a3| r^2 <= 0.01 w0p,
    which keeps w' near w0p up to the start) and never below
    min(1e-5, 1e-3 sqrt(32 w0p / (3p))).  ``r_max=None`` selects
    1e3 sqrt(w0p/p + 1).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    eps_start: float | None = None
    w_switch: float = 10.0
    r_max: float | None = None
    max_steps: int = 1_000_000
    event_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise InvalidParams(f"rel_tol must be in (0, 1), got {self.rel_tol!r}")
        if not (0.0 < self.abs_tol < math.inf):
            raise InvalidParams(f"abs_tol must be finite and > 0, got {self.abs_tol!r}")
        if self.eps_start is not None and not (0.0 < self.eps_start < math.inf):
            raise InvalidParams(f"eps_start must be finite and > 0, got {self.eps_start!r}")
        # at 1e6 the chart-A steps toward w = -w_switch underflow on the
        # paper's point (1e5 still solves); 1e4 keeps a margin
        if not (1.0 < self.w_switch <= 1e4):
            raise InvalidParams(f"w_switch must be in (1, 1e4], got {self.w_switch!r}")
        if self.r_max is not None and not (0.0 < self.r_max < math.inf):
            raise InvalidParams(f"r_max must be finite and > 0, got {self.r_max!r}")
        if not (self.max_steps >= 1):
            raise InvalidParams(f"max_steps must be >= 1, got {self.max_steps!r}")
        if not (0.0 < self.event_tol < math.inf):
            raise InvalidParams(f"event_tol must be finite and > 0, got {self.event_tol!r}")


# highest power of r in the axis series: its odd coefficients a1 ... a11
SERIES_ORDER = 11


def _cauchy(a, b, k, j0=0):
    """Coefficient k of the product of the power series a and b, from term
    j0 of a on, summed in index order."""
    total = 0.0
    for j in range(j0, k + 1):
        total += a[j] * b[k - j]
    return total


def _miller(P, A, alpha, k):
    """Coefficient k >= 1 of A = P^alpha from its lower ones, for P_0 = 1:
    J. C. P. Miller's recurrence k A_k = sum_j ((alpha + 1) j - k) P_j A_(k-j)."""
    total = 0.0
    for j in range(1, k + 1):
        total += ((alpha + 1.0) * j - k) * P[j] * A[k - j]
    return total / k


def axis_coefficients(params: HelfrichParams, w0p: float) -> tuple[float, ...]:
    """Odd coefficients (a1, a3, ..., a11) of the axis series
    w = sum a_n r^n, with a1 = w0p, in the arithmetic of w0p and the
    parameters: Python floats in ``integrate``.

    With the 1/r and 1/r^2 terms cleared, the shape equation reads
    (n^2 - 1) a_n = [r^n] (2.5 r^2 w w'^2 / P + w^3 (3 + w^2) / 2
    + c0 r w^2 P^(3/2) + cl r^2 w P^2 - pq r^3 P^(5/2)), with P = 1 + w^2,
    cl = (c0^2 + lambda)/2 and pq = p/4.  In t = r^2, w = r v(t) with
    v = sum b_m t^m, b_m = a_(2m+1); then w' = g = sum (2m+1) b_m t^m,
    P = 1 + t v^2, w^3 (3 + w^2) / 2 = r^3 v^3 (2 + P) / 2, and
    4 m (m+1) b_m is coefficient m - 1 of
    G = 2.5 v g^2 / P + v^3 (2 + P) / 2 + c0 v^2 P^(3/2) + cl v P^2 - pq P^(5/2),
    which only b_0 ... b_(m-1) reach.  The products are Cauchy products,
    1/P a series division and P^(3/2), P^(5/2) Miller's recurrence, the
    truncated-power-series arithmetic of Knuth, TAOCP vol. 2, 4.7.

    A non-finite a3 raises OverflowError.  A higher coefficient that is
    not finite ends the series below it, and ``integrate`` then starts at
    its smallest default radius.
    """
    c0 = params.c0
    cl = 0.5 * (c0 * c0 + params.lam)
    pq = 0.25 * params.p
    # coefficient lists in t, grown by one index per pass
    b, g = [w0p], [w0p]
    P, P32, P52 = [1.0], [1.0], [1.0]
    v2, v3, gg, vgg, q, P2 = [], [], [], [], [], []
    for m in range(1, (SERIES_ORDER + 1) // 2):
        k = m - 1
        if k:
            P.append(v2[k - 1])
            P32.append(_miller(P, P32, 1.5, k))
            P52.append(_miller(P, P52, 2.5, k))
        v2.append(_cauchy(b, b, k))
        v3.append(_cauchy(b, v2, k))
        gg.append(_cauchy(g, g, k))
        vgg.append(_cauchy(b, gg, k))
        q.append(vgg[k] - _cauchy(P, q, k, 1))  # v g^2 / P, as P_0 = 1
        P2.append(_cauchy(P, P, k))
        G = (2.5 * q[k] + v3[k] + 0.5 * _cauchy(v3, P, k) + c0 * _cauchy(v2, P32, k)
             + cl * _cauchy(b, P2, k) - pq * P52[k])
        bm = G / (4 * m * (m + 1))
        if not math.isfinite(bm):
            if m == 1:
                raise OverflowError(f"axis series coefficient a3 not finite at w0p={w0p!r}")
            break
        b.append(bm)
        g.append((2 * m + 1) * bm)
    return tuple(b)


def series_coefficient(params: HelfrichParams, w0p: float) -> float:
    """Cubic coefficient a3 of the axis series, (Q(w0p) + 7 w0p^3) / 16:
    entry a3 of ``axis_coefficients``."""
    return axis_coefficients(params, w0p)[1]


def _horner(cs, t):
    """sum cs[k] t^k."""
    total = cs[-1]
    for c in cs[-2::-1]:
        total = total * t + c
    return total


def axis_series(a, r, deriv: bool = False):
    """The axis series with odd coefficients ``a`` = (a1, a3, ...) at r:
    the chart-A state (w, wp, z), with z = 0 on the axis, or with
    ``deriv`` its r-derivative (wp, wpp, w).

    ``r`` may be a scalar or an ndarray; the values have its type.
    """
    t = r * r
    w = r * _horner(a, t)
    wp = _horner([(2 * m + 1) * am for m, am in enumerate(a)], t)
    if deriv:
        wpp = r * _horner([(2 * m + 1) * 2 * m * am for m, am in enumerate(a)][1:], t)
        return wp, wpp, w
    return w, wp, t * _horner([am / (2 * m + 2) for m, am in enumerate(a)], t)


def _default_eps(params: HelfrichParams, w0p: float, a, rtol: float) -> float:
    """The start radius ``SolverConfig(eps_start=None)`` selects."""
    eps = min(1e-5, 1e-3 * math.sqrt(32.0 * w0p / (3.0 * params.p)))
    if len(a) < (SERIES_ORDER + 1) // 2:
        return eps
    cap = 0.99 * 0.1 * math.sqrt(w0p / params.p + 1.0)
    if a[1] != 0.0:
        cap = min(cap, 0.99 * math.sqrt(0.01 * w0p / abs(a[1])))
    for n in (SERIES_ORDER - 2, SERIES_ORDER):
        an = a[n // 2]
        if an != 0.0:
            cap = min(cap, (0.1 * rtol * w0p / abs(an)) ** (1.0 / (n - 1)))
    return max(eps, cap)


def series_start(params: HelfrichParams, w0p: float, eps: float,
                 a: tuple[float, ...] | None = None) -> tuple[float, ...]:
    """Axis-series chart-A state at r = eps, clearing the axis singularity:
    a tuple of NSTATE floats laid out as in ``kernels``.  ``a`` is the
    series of ``axis_coefficients``, computed when not given."""
    if not (w0p > 0.0):
        raise InvalidSlope(f"w0p must be > 0, got {w0p!r}")
    if not (eps > 0.0):
        raise EpsTooLarge(f"eps must be > 0, got {eps!r}")
    if params.p > 0.0 and eps >= 0.1 * math.sqrt(w0p / params.p + 1.0):
        raise EpsTooLarge(f"eps={eps!r} outside the series region")
    a = a or axis_coefficients(params, w0p)
    if abs(a[1]) * eps ** 3 > 0.01 * w0p * eps:
        raise EpsTooLarge(f"series correction too large at eps={eps!r}")
    return axis_series(a, eps)


def chart_switch(r: float, y) -> tuple[float, float, float]:
    """Chart-B state (r, 1/w, -w'/w^3), a tuple of floats, at the point
    where the chart-A state at radius ``r`` is ``y``; its height y[2]
    becomes chart B's independent variable."""
    w = y[0]
    if w >= 0.0:
        raise BadSwitch(f"chart switch requires w < 0, got w={w!r}")
    return (r, 1.0 / w, -y[1] / w ** 3)


class DenseSegment:
    """7th-order continuous extension over the accepted steps of one chart.

    It is built from the step nodes ``xs`` (ascending for chart A,
    descending for chart B) and the steps' records ``records``, the
    ``kernels.NREC`` floats per step that the step kernel gives (h, the
    start state y, the new state and the stages its dense output reads),
    flat, as the chart loop stores them in a list and an ``array('d')``;
    with ``dense``, the chart's ``kernels.dense_a`` or ``dense_b``, and
    ``params``, the (c0, lam, p) it takes.  A step's dense output, its
    ``kernels.NROWS`` rows (y and the interpolant's F0..F6), is completed
    from its record the first time a query touches the step, so a caller
    that evaluates only part of a chart pays only for that part.  A
    completion that raises gives NaN rows (see ``_dense_rows``).

    The ndarrays ``xs``, shape (steps + 1,), and ``nodes``, shape (steps,
    NSTATE), the start state of each step, need no completion; ``conts``,
    shape (steps, NROWS, NSTATE), completes every step.  They are made,
    and numpy imported, when a caller first reads them or evaluates the
    segment; ``x_start``, ``x_end`` and ``ascending`` need no numpy.

    ``eval_many(x, cols)`` and ``deriv_many(x, cols)`` evaluate only the
    state components ``cols`` selects: an int gives shape (n,), a slice
    (n, k), and the default ``slice(None)`` all NSTATE, (n, NSTATE).  Each value
    is the one the full evaluation gives, bit for bit, at a fraction of
    the cost.
    """

    def __init__(self, xs, records, x_end: float, dense, params):
        self._raw_xs, self._records = xs, records
        self._dense, self._params = dense, params
        self.x_start = float(xs[0])
        self.ascending = bool(xs[-1] >= xs[0])
        # trajectory may terminate mid-step at an event
        self.x_end = float(x_end)

    @cached_property
    def xs(self) -> np.ndarray:
        import numpy as np
        return np.asarray(self._raw_xs, dtype=float)

    @cached_property
    def nodes(self) -> np.ndarray:
        import numpy as np
        n = kernels.NSTATE
        return np.asarray(self._records, dtype=float).reshape(-1, kernels.NREC)[:, 1:1 + n]

    @property
    def conts(self) -> np.ndarray:
        import numpy as np
        return self._fill(np.arange(len(self._raw_xs) - 1))

    @cached_property
    def _table(self):
        # every step's rows, and which of them are completed
        import numpy as np
        n = len(self._raw_xs) - 1
        return np.empty((n, kernels.NROWS, kernels.NSTATE)), np.zeros(n, dtype=bool)

    @cached_property
    def _key(self) -> np.ndarray:
        return self.xs if self.ascending else -self.xs

    def _fill(self, idx: np.ndarray) -> np.ndarray:
        """The (steps, NROWS, NSTATE) table, with the steps ``idx`` completed."""
        import numpy as np
        conts, done = self._table
        # a mask, not np.unique, which imports numpy.ma on its first call
        todo = np.zeros_like(done)
        todo[idx] = True
        todo = np.flatnonzero(todo & ~done).tolist()
        if todo:
            xs, recs, m = self._raw_xs, self._records, kernels.NREC
            rows = [_dense_rows(self._dense, xs[i], recs[m * i:m * i + m], *self._params)
                    for i in todo]
            conts[todo] = np.reshape(rows, (-1, kernels.NROWS, kernels.NSTATE))
            done[todo] = True
        return conts

    def _rows(self, idx: np.ndarray, cols) -> np.ndarray:
        # (NROWS, components, n): a query takes the steps of the components it
        # reads, so each row it computes on is contiguous along the queries
        return self._fill(idx).transpose(1, 2, 0)[:, cols].take(idx, axis=-1)

    def _locate(self, x: np.ndarray):
        import numpy as np
        self._check_range(x)
        key = x if self.ascending else -x
        idx = np.searchsorted(self._key, key, side="right") - 1
        idx = np.clip(idx, 0, len(self.xs) - 2)
        h = self.xs[idx + 1] - self.xs[idx]
        # theta = 0 on the zero-length step of a chart that took no step
        theta = np.divide(x - self.xs[idx], h, out=np.zeros_like(h), where=h != 0.0)
        return idx, theta

    def _check_range(self, x: np.ndarray):
        import numpy as np
        lo = min(self.x_start, self.x_end)
        hi = max(self.x_start, self.x_end)
        pad = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
        if np.any(x < lo - pad) or np.any(x > hi + pad):
            raise OutOfRange(f"query outside covered range [{lo}, {hi}]")

    def eval_many(self, x, cols=slice(None)) -> np.ndarray:
        import numpy as np
        idx, th = self._locate(np.atleast_1d(np.asarray(x, dtype=float)))
        return _interpolant(self._rows(idx, cols), th).T

    def deriv_many(self, x, cols=slice(None)) -> np.ndarray:
        """Derivative of the components ``cols`` selects with respect to
        the independent variable; shapes as for ``eval_many``."""
        import numpy as np
        idx, th = self._locate(np.atleast_1d(np.asarray(x, dtype=float)))
        h = self.xs[idx + 1] - self.xs[idx]
        _, r2, r3, r4, r5, r6, r7, r8 = self._rows(idx, cols)
        # the nested form of ``_interpolant`` differentiated from the
        # inside out: a level v = r + t w, where t is theta or 1 - theta and
        # w the level inside it, has the derivative dv = +-w + t dw
        u = 1.0 - th
        v = r7 + th * r8
        dv = r8
        v, dv = r6 + u * v, u * dv - v
        v, dv = r5 + th * v, v + th * dv
        v, dv = r4 + u * v, u * dv - v
        v, dv = r3 + th * v, v + th * dv
        v, dv = r2 + u * v, u * dv - v
        dth = v + th * dv
        # a zero-length step has no derivative to give
        return np.divide(dth, h, out=np.full_like(dth, np.nan), where=h != 0.0).T


@dataclass(frozen=True)
class Event:
    """Located event: ``x`` is r on chart A and z on chart B, and ``state``
    the chart's NSTATE state components there, a tuple of floats."""

    kind: str
    chart: str
    x: float
    state: tuple[float, ...]


@dataclass
class Trajectory:
    """Dense, event-annotated solution spanning both charts.

    ``axis_coeffs`` is the axis series chart A starts from (see
    ``axis_coefficients``), computed when not given.
    """

    params: HelfrichParams
    w0p: float
    cfg: SolverConfig
    chart_a: DenseSegment
    chart_b: DenseSegment | None
    events: list[Event]
    axis_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.axis_coeffs:
            self.axis_coeffs = axis_coefficients(self.params, self.w0p)

    @property
    def status(self) -> str:
        """Why the run stopped: the kind of its last event."""
        return self.events[-1].kind

    def first_event(self, kind: str) -> Event | None:
        return next((ev for ev in self.events if ev.kind == kind), None)

    def series_eval(self, r, deriv: bool = False) -> np.ndarray:
        """Axis-series state on [0, chart_a.x_start), or with ``deriv`` its
        r-derivative, shape (n, NSTATE), laid out as chart-A states."""
        import numpy as np
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return np.stack(axis_series(self.axis_coeffs, r, deriv), axis=1)

    def eval_a(self, r, cols=slice(None), deriv: bool = False) -> np.ndarray:
        """Chart-A state at radii r in [0, chart_a.x_end], or with ``deriv``
        its r-derivative: the axis series below chart_a.x_start and the
        dense output from there on; ``cols`` and the shapes as for
        ``DenseSegment.eval_many``."""
        import numpy as np
        r = np.atleast_1d(np.asarray(r, dtype=float))
        seg = self.chart_a
        inside = r < seg.x_start
        dense = (seg.deriv_many if deriv else seg.eval_many)(r[~inside], cols)
        out = np.empty((len(r),) + dense.shape[1:])
        out[inside] = self.series_eval(r[inside], deriv)[:, cols]
        out[~inside] = dense
        return out


def _rms(v, sc) -> float:
    """Root mean square of v_i / sc_i, summed in component order as numpy's
    ``mean`` does (the builtin ``sum`` compensates from Python 3.12 on)."""
    total = 0.0
    for a, b in zip(v, sc):
        total += (a / b) * (a / b)
    return math.sqrt(total / len(v))


def _initial_step(rhs, x, y, f, direction, rtol, atol, c0, lam, p, h_cap):
    """First step size for an 8th-order pair from the start state ``y`` and
    its derivative ``f``, sequences of NSTATE floats, at most ``h_cap`` > 0; a
    norm that is not finite is InvalidParams."""
    sc = [atol + rtol * abs(v) for v in y]
    d0 = _rms(y, sc)
    d1 = _rms(f, sc)
    if not (math.isfinite(d0) and math.isfinite(d1)):
        raise InvalidParams(f"scaled start state or right-hand side not finite at x={x!r}")
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_cap)
    hd = h0 * direction
    f1 = rhs(x + hd, [v + hd * fv for v, fv in zip(y, f)], c0, lam, p)
    d2 = _rms([a - b for a, b in zip(f1, f)], sc) / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.125
    return min(100.0 * h0, h1, h_cap)


def _interpolant(cont, th):
    """The degree-7 continuous extension at theta from its NROWS rows
    ``cont``: y + t(F0 + (1-t)(F1 + t(F2 + ... (F5 + t F6)))), the nesting
    of scipy's DOP853 dense output."""
    r1, r2, r3, r4, r5, r6, r7, r8 = cont
    u = 1.0 - th
    return r1 + th * (r2 + u * (r3 + th * (r4 + u * (r5 + th * (r6 + u * (r7 + th * r8))))))


def _dense_rows(dense, x, rec, c0, lam, p):
    """The NROWS * NSTATE dense rows of the accepted step that starts at x
    and has the record ``rec``, from the chart's ``kernels.dense_a`` or
    ``dense_b``; all NaN where a stage there divides by zero.  Only chart
    B's can, by its 1/s or 1/u at exactly 0 (chart A's divides by r > 0
    and by P >= 1): where the eager step rejected such a step, the step is
    kept and its interpolant is NaN."""
    try:
        return dense(x, rec, c0, lam, p)
    except ZeroDivisionError:
        return [math.nan] * (kernels.NROWS * kernels.NSTATE)


def _bisect_step(c, target, h, x0, tol, lo=0.0, hi=1.0):
    """Theta in [lo, hi] where one component's step polynomial, with the
    NROWS coefficients ``c``, crosses ``target``; bisects until |h| times
    the bracket <= tol (1 + |x0|)."""
    glo = _interpolant(c, lo) - target
    h_abs = abs(h)
    bound = tol * (1.0 + abs(x0))
    for _ in range(200):
        if abs(hi - lo) * h_abs <= bound:
            break
        mid = 0.5 * (lo + hi)
        gm = _interpolant(c, mid) - target
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _run_chart(step_fn, dense_fn, rhs_fn, chart, x0, y0, direction, x_limit, params, cfg,
               event_table, steps_budget):
    """Adaptive loop on one chart.

    ``event_table`` holds one (kind, component, target, downward,
    terminal) row per event; hits inside one step are recorded by theta,
    and in table order where theta ties.  The loop keeps each accepted
    step's record and completes its dense output with ``dense_fn`` only
    on a step where an event row changes sign, to bisect it.  Returns (segment, events,
    steps_used); the last event ends the chart: a terminal row's, or
    ``Aborted`` when the step budget or x_limit did.
    """
    c0, lam, p = params.c0, params.lam, params.p
    rtol, atol = cfg.rel_tol, cfg.abs_tol

    # the loop runs on Python floats, which raise where ndarrays give inf
    x, x_limit = float(x0), float(x_limit)
    y = [float(v) for v in y0]
    try:
        f = rhs_fn(x, y, c0, lam, p)
        finite = all(map(math.isfinite, f))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise InvalidParams(f"right-hand side not finite at start of chart {chart}")
    h_cap = abs(x_limit - x)
    # a chart that starts on its limit takes no step and ends Aborted below
    h = _initial_step(rhs_fn, x, y, f, direction, rtol, atol, c0, lam, p,
                      h_cap) if h_cap > 0.0 else 0.0
    h = max(h, 1e-13 * (1.0 + abs(x)))
    # chart A's x is the radius, its distance to the axis singularity at
    # r = 0.  No step there is longer than x, because a longer one leaves
    # the interpolant off near the axis; and its step-size floor is
    # relative to x alone, so that a start closer to the axis than the
    # absolute floor 1e-14 can still step out
    axis_cap = chart == "A"
    floor_abs = 0.0 if axis_cap else 1.0

    xs = [x]
    records = array("d")  # kernels.NREC floats per accepted step, flat
    events: list[Event] = []
    err_prev = 1e-4
    steps = 0
    rejected = False

    # min and max are written out as conditional expressions that return
    # the builtins' values: ``b if b < a else a`` is min(a, b) and
    # ``b if b > a else a`` is max(a, b)
    while True:
        h_min = 1e-14 * (floor_abs + abs(x))
        remaining = (x_limit - x) * direction
        # the budget is tested before the step size, x_limit after it
        if steps >= steps_budget or remaining <= h_min <= h:
            events.append(Event(ABORTED, chart, x, tuple(y)))
            return _make_segment(xs, records, x, y, dense_fn, params), events, steps
        if h < h_min:
            raise StepUnderflow(f"step size {h!r} underflow at x={x!r} (chart {chart})")
        h_use = remaining if remaining < h else h
        if axis_cap:
            if h_use > x:
                h_use = x
        elif y[1] * y[2] > 0.0 and 2.0 * h_use * abs(y[2]) > abs(y[1]):
            # chart B nears the equator, the removable 1/s pole of rhs_b,
            # which s' = q puts d = |s/q| ahead.  Stages next to the pole
            # spoil the step and its dense output, so a step either stays
            # within d/2 of its start or crosses with the pole at theta =
            # EQUATOR_THETA
            d = abs(y[1] / y[2])
            h_use = d / EQUATOR_THETA if h_use * EQUATOR_THETA >= d else 0.5 * d

        try:
            y1, f1, err, rec = step_fn(x, y, direction * h_use, f, c0, lam, p,
                                        rtol, atol)
        except (OverflowError, ZeroDivisionError):
            # a stage left the float range (ndarrays would give inf or nan)
            err = math.inf
        steps += 1
        if not math.isfinite(err):  # also NaN when the new state is not finite
            err = math.inf

        if err > 1.0:
            rejected = True
            fac = _SAFETY * err ** (-_ALPHA) if math.isfinite(err) else 0.1
            fac = fac if fac > 0.1 else 0.1
            h = h_use * (fac if fac < 0.9 else 0.9)
            continue

        hd = direction * h_use
        records.fromlist(rec)
        x_new = x + hd
        xs.append(x_new)

        # event scan on this step; component i of its dense output is
        # cont[i::NSTATE]
        hits = cont = None
        for kind, i, target, downward, terminal in event_table:
            g0 = y[i] - target
            g1 = y1[i] - target
            if (g0 > 0.0 >= g1) if downward else (g0 < 0.0 <= g1):
                if cont is None:
                    cont = _dense_rows(dense_fn, x, rec, c0, lam, p)
                th = _bisect_step(cont[i::kernels.NSTATE], target, hd, x, cfg.event_tol)
                if hits is None:
                    hits = []
                hits.append((th, kind, terminal))
        if hits is not None:
            hits.sort(key=lambda hit: hit[0])  # stable: ties keep table order
            for th, kind, terminal in hits:
                x_ev = x + th * hd
                y_ev = tuple([_interpolant(cont[i::kernels.NSTATE], th)
                              for i in range(kernels.NSTATE)])
                events.append(Event(kind, chart, x_ev, y_ev))
                if terminal:
                    return _make_segment(xs, records, x_ev, y, dense_fn, params), events, steps

        x, y, f = x_new, y1, f1

        fac = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA if err > 0.0 else _FAC_MAX
        fac = fac if fac > _FAC_MIN else _FAC_MIN
        fac = fac if fac < _FAC_MAX else _FAC_MAX
        if rejected:
            fac = fac if fac < 1.0 else 1.0
            rejected = False
        h = h_use * fac
        err_prev = 1e-4 if 1e-4 > err else err


def _make_segment(xs, records, x_end, y, dense, params) -> DenseSegment:
    if not records:
        # a chart that took no step: one zero-length step from y to y, with
        # zero stages, whose interpolant is y
        xs = [xs[0], xs[0]]
        records = array("d", [0.0, *y, *y] + [0.0] * (kernels.NREC - 1 - 2 * kernels.NSTATE))
    return DenseSegment(xs, records, x_end, dense, (params.c0, params.lam, params.p))


def integrate(params: HelfrichParams, w0p: float,
              cfg: SolverConfig | None = None) -> Trajectory:
    """Integrate the shape equation from the axis until a terminal event.

    Chart A starts at r = eps from the axis series of ``axis_coefficients``,
    computed once here and kept on the trajectory, at the radius
    ``SolverConfig.eps_start`` gives or selects.

    Terminal outcomes: ``Equator`` (equator reached regularly in chart B),
    ``BlowUpPositive`` (w reached +w_switch), or ``Aborted`` (radius or
    step budget exhausted).
    """
    if not (w0p > 0.0):
        raise InvalidSlope(f"w0p must be > 0, got {w0p!r}")
    if not (params.p > 0.0):
        raise InvalidParams(f"p must be > 0 for the blow-down analysis, got {params.p!r}")
    cfg = cfg or SolverConfig()

    a = axis_coefficients(params, float(w0p))
    eps = cfg.eps_start or _default_eps(params, w0p, a, cfg.rel_tol)
    r_max = cfg.r_max or 1e3 * math.sqrt(w0p / params.p + 1.0)

    # (kind, component, target, downward, terminal)
    table_a = [
        (MAX_OF_W, 1, 0.0, True, False),
        (ZERO_OF_W, 0, 0.0, True, False),
        (CHART_SWITCH, 0, -cfg.w_switch, True, True),
        (BLOWUP_POSITIVE, 0, +cfg.w_switch, False, True),
    ]
    seg_a, events, used = _run_chart(
        kernels.dopri5_step_a, kernels.dense_a, kernels.rhs_a, "A",
        eps, series_start(params, w0p, eps, a), +1, r_max, params, cfg, table_a,
        cfg.max_steps,
    )
    term = events[-1]
    if term.kind != CHART_SWITCH:
        return Trajectory(params, w0p, cfg, seg_a, None, events, a)

    # chart switch: w < 0 guaranteed by the event definition
    z_sw = term.state[2]
    z_limit = z_sw - cfg.w_switch * r_max  # finiteness cap for the descent
    seg_b, events_b, _ = _run_chart(
        kernels.dopri5_step_b, kernels.dense_b, kernels.rhs_b, "B",
        z_sw, chart_switch(term.x, term.state), -1, z_limit, params, cfg,
        [(EQUATOR, 1, 0.0, False, True)], cfg.max_steps - used,
    )
    events.extend(events_b)
    return Trajectory(params, w0p, cfg, seg_a, seg_b, events, a)

