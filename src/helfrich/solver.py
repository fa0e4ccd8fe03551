"""Initial-value solver for the axisymmetric shape equation.

The profile is integrated in two coordinate charts:

* chart A: graph coordinates, w(r) = z'(r), from a series start at the
  singular axis r = 0 out to the vertical-tangent region;
* chart B: inverse-graph coordinates u(z) = r(z), through the vertical
  tangent down to the equator, where u'(z) = 0 is a regular point.

An embedded Dormand-Prince 5(4) pair with a proportional-integral step
controller supplies a quartic continuous extension on every accepted
step; events (maximum of w, zero of w, chart switch, equator, positive
blow-up) are located on the dense output by bisection.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import astuple, dataclass

import numpy as np

from . import kernels
from .cubic import HelfrichParams, eval_q
from .errors import (
    BadSwitch,
    EpsTooLarge,
    InvalidParams,
    InvalidSlope,
    NonPositiveRadius,
    OutOfRange,
    SingularDenominator,
    StepUnderflow,
)

__all__ = [
    "SolverConfig",
    "ChartAState",
    "ChartBState",
    "Event",
    "Trajectory",
    "DenseSegment",
    "rhs_chart_a",
    "rhs_chart_b",
    "rhs_kappa",
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
_ALPHA = 0.17  # PI controller exponents for a 5th-order pair
_BETA = 0.04
_FAC_MIN = 0.2
_FAC_MAX = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Integrator tolerances and chart-handling thresholds.

    ``eps_start=None`` selects min(1e-5, 1e-3 sqrt(32 w0p / (3p)));
    ``r_max=None`` selects 1e3 sqrt(w0p/p + 1).
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
        if self.eps_start is not None and not (self.eps_start > 0.0):
            raise InvalidParams(f"eps_start must be > 0, got {self.eps_start!r}")
        if not (1.0 < self.w_switch < math.inf):
            raise InvalidParams(f"w_switch must be finite and > 1, got {self.w_switch!r}")
        if self.r_max is not None and not (0.0 < self.r_max < math.inf):
            raise InvalidParams(f"r_max must be finite and > 0, got {self.r_max!r}")
        if not (self.max_steps >= 1):
            raise InvalidParams(f"max_steps must be >= 1, got {self.max_steps!r}")
        if not (0.0 < self.event_tol < math.inf):
            raise InvalidParams(f"event_tol must be finite and > 0, got {self.event_tol!r}")


class _ChartState:
    """Conversion between a chart state and (x, six-vector) arrays."""

    def to_array(self) -> np.ndarray:
        return np.array(astuple(self)[1:])

    @classmethod
    def from_array(cls, x: float, y: np.ndarray):
        return cls(x, *y)


@dataclass(frozen=True)
class ChartAState(_ChartState):
    """Graph-chart state at radius r."""

    r: float
    w: float
    wp: float
    z: float
    area_acc: float = 0.0
    vol_acc: float = 0.0
    energy_acc: float = 0.0


@dataclass(frozen=True)
class ChartBState(_ChartState):
    """Inverse-chart state at height z.

    ``up`` = u'(z) = 1/w and ``upp`` = u''(z) = -w'/w^3.  The equation
    for u(z) is third order, so u'' is part of the dynamical state; it
    equals the longitudinal curvature at the equator.
    """

    z: float
    u: float
    up: float
    upp: float
    area_acc: float = 0.0
    vol_acc: float = 0.0
    energy_acc: float = 0.0


def _rhs(kernel, x: float, state, params: HelfrichParams) -> np.ndarray:
    # ndarray elements keep numpy's inf/nan results where Python floats raise
    return np.array(kernel(x, state.to_array(), params.c0, params.lam, params.p))


def rhs_chart_a(state: ChartAState, params: HelfrichParams) -> np.ndarray:
    """Derivatives of (w, wp, z, area, vol, energy) with respect to r."""
    if state.r <= 0.0:
        raise NonPositiveRadius(f"r must be > 0, got {state.r!r}")
    return _rhs(kernels.rhs_a, state.r, state, params)


def rhs_chart_b(state: ChartBState, params: HelfrichParams) -> np.ndarray:
    """Derivatives of (u, up, upp, area, vol, energy) with respect to z."""
    if state.u <= 0.0:
        raise NonPositiveRadius(f"u must be > 0, got {state.u!r}")
    return _rhs(kernels.rhs_b, state.z, state, params)


def rhs_kappa(r: float, kappa: float, kappap: float, params: HelfrichParams) -> float:
    """Second derivative of the meridional curvature kappa(r).

    Valid while r^2 kappa^2 < 1 (profile representable as a graph).
    """
    if r <= 0.0:
        raise NonPositiveRadius(f"r must be > 0, got {r!r}")
    denom = 1.0 - r * r * kappa * kappa
    if abs(denom) < 1e-12:
        raise SingularDenominator(f"1 - r^2 kappa^2 = {denom!r} too close to zero")
    rq = r * eval_q(kappa, params)
    return (
        -kappa * (r * kappap + kappa) ** 2 / (2.0 * denom)
        - 3.0 * kappap / r
        + rq / (2.0 * r * denom)
    )


def series_coefficient(params: HelfrichParams, w0p: float) -> float:
    """Cubic coefficient a3 of the axis expansion w = w0p r + a3 r^3 + ...

    Obtained by matching the O(r^2) terms of the shape equation; the
    residual-order test in the suite validates the exponent.
    """
    return (eval_q(w0p, params) + 7.0 * w0p ** 3) / 16.0


def axis_series(params: HelfrichParams, w0p: float, a3: float, r):
    """Truncated axis series (w, wp, z, area, vol, energy) at r.

    ``r`` may be a scalar or an ndarray; the six values have its type.
    """
    return (
        w0p * r + a3 * r ** 3,
        w0p + 3.0 * a3 * r ** 2,
        0.5 * w0p * r ** 2 + 0.25 * a3 * r ** 4,
        0.5 * r ** 2 + 0.125 * w0p ** 2 * r ** 4,
        0.25 * w0p * r ** 4 + a3 * r ** 6 / 6.0,
        0.5 * ((2.0 * w0p + params.c0) ** 2 + params.lam) * r ** 2,
    )


def series_start(params: HelfrichParams, w0p: float, eps: float) -> ChartAState:
    """Truncated-series state at r = eps, clearing the axis singularity."""
    if not (w0p > 0.0):
        raise InvalidSlope(f"w0p must be > 0, got {w0p!r}")
    if not (eps > 0.0):
        raise EpsTooLarge(f"eps must be > 0, got {eps!r}")
    if params.p > 0.0 and eps >= 0.1 * math.sqrt(w0p / params.p + 1.0):
        raise EpsTooLarge(f"eps={eps!r} outside the series region")
    a3 = series_coefficient(params, w0p)
    if abs(a3) * eps ** 3 > 0.01 * w0p * eps:
        raise EpsTooLarge(f"series correction too large at eps={eps!r}")
    return ChartAState(eps, *axis_series(params, w0p, a3, eps))


def chart_switch(a: ChartAState) -> ChartBState:
    """Convert a graph-chart state to the inverse chart at the same point."""
    if a.w >= 0.0:
        raise BadSwitch(f"chart switch requires w < 0, got w={a.w!r}")
    up = 1.0 / a.w
    upp = -a.wp / a.w ** 3
    return ChartBState(a.z, a.r, up, upp, a.area_acc, a.vol_acc, a.energy_acc)


class DenseSegment:
    """Quartic continuous extension over the accepted steps of one chart.

    ``xs`` holds the step nodes (ascending for chart A, descending for
    chart B); ``conts[i]`` the five dense-output vectors of step i.
    """

    def __init__(self, xs: np.ndarray, conts: np.ndarray, x_end: float):
        self.xs = np.asarray(xs, dtype=float)
        self.conts = np.asarray(conts, dtype=float)
        self.ascending = bool(self.xs[-1] >= self.xs[0])
        # trajectory may terminate mid-step at an event
        self.x_end = float(x_end)
        self._key = self.xs if self.ascending else -self.xs

    @property
    def x_start(self) -> float:
        return float(self.xs[0])

    def _locate(self, x: np.ndarray):
        self._check_range(x)
        key = x if self.ascending else -x
        idx = np.searchsorted(self._key, key, side="right") - 1
        idx = np.clip(idx, 0, len(self.xs) - 2)
        h = self.xs[idx + 1] - self.xs[idx]
        # theta = 0 on the zero-length step of a chart that took no step
        theta = np.divide(x - self.xs[idx], h, out=np.zeros_like(h), where=h != 0.0)
        return idx, theta

    def _check_range(self, x: np.ndarray):
        lo = min(self.x_start, self.x_end)
        hi = max(self.x_start, self.x_end)
        pad = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
        if np.any(x < lo - pad) or np.any(x > hi + pad):
            raise OutOfRange(f"query outside covered range [{lo}, {hi}]")

    def eval_many(self, x) -> np.ndarray:
        idx, th = self._locate(np.atleast_1d(np.asarray(x, dtype=float)))
        return _quartic(self.conts[idx].swapaxes(0, 1), th[:, None])

    def eval(self, x: float) -> np.ndarray:
        return self.eval_many(np.array([x]))[0]

    def deriv_many(self, x) -> np.ndarray:
        """State derivative with respect to the independent variable."""
        idx, th = self._locate(np.atleast_1d(np.asarray(x, dtype=float)))
        h = (self.xs[idx + 1] - self.xs[idx])[:, None]
        r2, r3, r4, r5 = (self.conts[idx, k, :] for k in range(1, 5))
        th = th[:, None]
        dth = (
            r2
            + (1.0 - 2.0 * th) * r3
            + th * (2.0 - 3.0 * th) * r4
            + 2.0 * th * (1.0 - th) * (1.0 - 2.0 * th) * r5
        )
        # a zero-length step has no derivative to give
        return np.divide(dth, h, out=np.full_like(dth, np.nan), where=h != 0.0)

    def deriv(self, x: float) -> np.ndarray:
        return self.deriv_many(np.array([x]))[0]

    def find_crossing(self, component: int, target: float, x_lo=None, x_hi=None,
                      tol: float = 1e-12) -> float:
        """First x where state[component] crosses ``target``.

        The step nodes inside [x_lo, x_hi] bracket the first sign change;
        that step's polynomial is then bisected.
        """
        lo = self.x_start if x_lo is None else x_lo
        hi = self.x_end if x_hi is None else x_hi
        sgn = 1.0 if self.ascending else -1.0
        inner = self.xs[(self._key > sgn * lo) & (self._key < sgn * hi)]
        xk = np.concatenate([[lo], inner, [hi]])
        g = self.eval_many(xk)[:, component] - target
        if g[0] == 0.0:
            return lo
        change = np.nonzero(g[:-1] * g[1:] <= 0.0)[0]
        if len(change) == 0:
            raise OutOfRange("no crossing in the requested range")
        a, b = xk[change[0]], xk[change[0] + 1]
        (i,), (th_a,) = self._locate(np.array([a]))
        h = self.xs[i + 1] - self.xs[i]
        th = _bisect_step(self.conts[i, :, component].tolist(), target, h,
                          self.xs[i], tol, th_a, (b - self.xs[i]) / h)
        return self.xs[i] + th * h


@dataclass(frozen=True)
class Event:
    """Located event: ``x`` is r on chart A and z on chart B."""

    kind: str
    chart: str
    x: float
    state: np.ndarray


@dataclass
class Trajectory:
    """Dense, event-annotated solution spanning both charts."""

    params: HelfrichParams
    w0p: float
    cfg: SolverConfig
    chart_a: DenseSegment
    chart_b: DenseSegment | None
    events: list[Event]
    status: str
    eps_start: float

    @property
    def a3(self) -> float:
        """Cubic coefficient of the axis series."""
        return series_coefficient(self.params, self.w0p)

    def first_event(self, kind: str) -> Event | None:
        return next((ev for ev in self.events if ev.kind == kind), None)

    def series_eval(self, r) -> np.ndarray:
        """Series state on [0, eps_start), same layout as chart-A states."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return np.stack(axis_series(self.params, self.w0p, self.a3, r), axis=1)


def _initial_step(rhs, x, y, f, direction, rtol, atol, c0, lam, p, h_cap):
    sc = atol + rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_cap)
    y1 = y + h0 * direction * f
    f1 = np.array(rhs(x + h0 * direction, y1, c0, lam, p))
    d2 = float(np.sqrt(np.mean(((f1 - f) / sc) ** 2))) / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.2
    return min(100.0 * h0, h1, h_cap)


@dataclass
class _EventSpec:
    kind: str
    idx: int
    target: float
    cross: int  # +1 upward, -1 downward
    terminal: bool
    priority: int


def _quartic(cont, th):
    """Quartic continuous extension from its five vectors ``cont`` at theta."""
    r1, r2, r3, r4, r5 = cont
    return r1 + th * (r2 + (1.0 - th) * (r3 + th * (r4 + (1.0 - th) * r5)))


def _bisect_step(c, target, h, x0, tol, lo=0.0, hi=1.0):
    """Theta in [lo, hi] where one component's step polynomial, with the
    five coefficients ``c``, crosses ``target``; bisects until |h| times
    the bracket <= tol (1 + |x0|)."""
    glo = _quartic(c, lo) - target
    for _ in range(200):
        if abs(hi - lo) * abs(h) <= tol * (1.0 + abs(x0)):
            break
        mid = 0.5 * (lo + hi)
        gm = _quartic(c, mid) - target
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _run_chart(step_fn, rhs_fn, chart, x0, y0, direction, x_limit, params, cfg,
               event_specs, steps_budget):
    """Adaptive loop on one chart.

    Returns (segment, events, steps_used, terminal_event_or_None); the
    event is None when the step budget or x_limit ended the chart.
    """
    c0, lam, p = params.c0, params.lam, params.p
    rtol, atol = cfg.rel_tol, cfg.abs_tol

    # the start runs on ndarrays, whose elements give inf where floats raise;
    # the loop carries Python floats
    x = float(x0)
    y = np.asarray(y0, dtype=float)
    f = np.array(rhs_fn(x, y, c0, lam, p))
    if not np.all(np.isfinite(f)):
        raise InvalidParams(f"right-hand side not finite at start of chart {chart}")

    h_cap = abs(x_limit - x)
    h = _initial_step(rhs_fn, x, y, f, direction, rtol, atol, c0, lam, p, h_cap)
    h = max(h, 1e-13 * (1.0 + abs(x)))
    y, f = y.tolist(), f.tolist()

    xs = [x]
    conts = array("d")  # five dense-output rows per accepted step, flat
    events: list[Event] = []
    err_prev = 1e-4
    steps = 0
    rejected = False

    while True:
        if steps >= steps_budget:
            events.append(Event(ABORTED, chart, x, np.array(y)))
            return _make_segment(xs, conts, x, y), events, steps, None
        if h < 1e-14 * (1.0 + abs(x)):
            raise StepUnderflow(f"step size {h!r} underflow at x={x!r} (chart {chart})")
        remaining = (x_limit - x) * direction
        if remaining <= 1e-14 * (1.0 + abs(x)):
            events.append(Event(ABORTED, chart, x, np.array(y)))
            return _make_segment(xs, conts, x, y), events, steps, None
        h_use = min(h, remaining)

        try:
            y1, f1, err, cont = step_fn(x, y, direction * h_use, f, c0, lam, p,
                                        rtol, atol)
        except (OverflowError, ZeroDivisionError):
            # a stage left the float range (ndarrays would give inf or nan)
            y1, err = (), math.inf
        steps += 1
        if not (all(map(math.isfinite, y1)) and math.isfinite(err)):
            err = math.inf

        if err > 1.0:
            rejected = True
            fac = _SAFETY * err ** (-_ALPHA) if math.isfinite(err) else 0.1
            h = h_use * min(0.9, max(0.1, fac))
            continue

        hd = direction * h_use
        for row in cont:
            conts.fromlist(row)
        x_new = x + hd
        xs.append(x_new)

        # event scan on this step
        hits = []
        for spec in event_specs:
            g0 = y[spec.idx] - spec.target
            g1 = y1[spec.idx] - spec.target
            crossed = (g0 > 0.0 >= g1) if spec.cross < 0 else (g0 < 0.0 <= g1)
            if crossed:
                th = _bisect_step([row[spec.idx] for row in cont], spec.target, hd,
                                  x, cfg.event_tol)
                hits.append((th, spec.priority, spec))
        hits.sort(key=lambda t: (t[0], t[1]))
        for th, _, spec in hits:
            x_ev = x + th * hd
            y_ev = np.array([_quartic(c, th) for c in zip(*cont)])
            events.append(Event(spec.kind, chart, x_ev, y_ev))
            if spec.terminal:
                return _make_segment(xs, conts, x_ev, y), events, steps, events[-1]

        x, y, f = x_new, y1, f1

        fac = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA if err > 0.0 else _FAC_MAX
        fac = min(_FAC_MAX, max(_FAC_MIN, fac))
        if rejected:
            fac = min(1.0, fac)
            rejected = False
        h = h_use * fac
        err_prev = max(err, 1e-4)


def _make_segment(xs, conts, x_end, y) -> DenseSegment:
    if not conts:
        # a chart that took no step: one zero-length step holding its state y
        xs = [xs[0], xs[0]]
        conts = array("d", list(y) + [0.0] * (4 * kernels.NSTATE))
    return DenseSegment(np.array(xs), np.frombuffer(conts).reshape(-1, 5, kernels.NSTATE),
                        x_end)


def integrate(params: HelfrichParams, w0p: float,
              cfg: SolverConfig | None = None) -> Trajectory:
    """Integrate the shape equation from the axis until a terminal event.

    Terminal outcomes: ``Equator`` (equator reached regularly in chart B),
    ``BlowUpPositive`` (w reached +w_switch), or ``Aborted`` (radius or
    step budget exhausted).
    """
    if not (w0p > 0.0):
        raise InvalidSlope(f"w0p must be > 0, got {w0p!r}")
    if not (params.p > 0.0):
        raise InvalidParams(f"p must be > 0 for the blow-down analysis, got {params.p!r}")
    cfg = cfg or SolverConfig()

    eps = cfg.eps_start
    if eps is None:
        eps = min(1e-5, 1e-3 * math.sqrt(32.0 * w0p / (3.0 * params.p)))
    r_max = cfg.r_max
    if r_max is None:
        r_max = 1e3 * math.sqrt(w0p / params.p + 1.0)

    start = series_start(params, w0p, eps)

    specs_a = [
        _EventSpec(MAX_OF_W, 1, 0.0, -1, False, 0),
        _EventSpec(ZERO_OF_W, 0, 0.0, -1, False, 1),
        _EventSpec(CHART_SWITCH, 0, -cfg.w_switch, -1, True, 2),
        _EventSpec(BLOWUP_POSITIVE, 0, +cfg.w_switch, +1, True, 3),
    ]
    seg_a, events, used, term = _run_chart(
        kernels.dopri5_step_a, kernels.rhs_a, "A",
        eps, start.to_array(), +1, r_max, params, cfg, specs_a, cfg.max_steps,
    )
    if term is None or term.kind == BLOWUP_POSITIVE:
        status = ABORTED if term is None else BLOWUP_POSITIVE
        return Trajectory(params, w0p, cfg, seg_a, None, events, status, eps)

    # chart switch: w < 0 guaranteed by the event definition
    b0 = chart_switch(ChartAState.from_array(term.x, term.state))
    z_limit = b0.z - cfg.w_switch * r_max  # finiteness cap for the descent
    specs_b = [_EventSpec(EQUATOR, 1, 0.0, +1, True, 0)]
    seg_b, events_b, _, term_b = _run_chart(
        kernels.dopri5_step_b, kernels.rhs_b, "B",
        b0.z, b0.to_array(), -1, z_limit, params, cfg, specs_b,
        cfg.max_steps - used,
    )
    events.extend(events_b)
    status = ABORTED if term_b is None else EQUATOR  # Equator is B's only terminal
    return Trajectory(params, w0p, cfg, seg_a, seg_b, events, status, eps)

