"""Initial-value solver for the axisymmetric shape equation.

The meridian is integrated in arc length s, the state (r, z, psi, psi',
gamma) of ``kernels``, from a series start next to the singular axis
r = 0 to a terminal event: the equator psi = -pi/2, a positive blow-up
of the slope w = tan psi, or the abort radius.  The form is regular
along the whole meridian, so one chart covers it.

The embedded DOP853 pair (8th order, with 5th- and 3rd-order error
estimates) and a proportional-integral step controller take the steps;
events are located by bisection on the 7th-order continuous extension of
the step they fall in, and the run ends on its terminal event with a
step of its own.  That dense output is built only where it is
read: the loop keeps each accepted step's record (see
``kernels._step_source``) and completes the dense output of a step in
which an event row changes sign, and the ``Trajectory``, the one record
of a run, keeps those rows and completes the other steps in the order a
run is read, from the axis out, up to the last one a query reads.  No
step is longer than its start radius, the distance to the axis
singularity.  Every view of a run is indexed by s, with the axis series
at r = s below the start (``Trajectory.by_arc_length``), or by step and
theta (``Trajectory.sample_steps``); events are the only crossings
located.

The loop runs on Python floats and packs each step's record into one
``bytearray``, 8 bytes a float: events and the start are tuples of
floats, and a ``Trajectory`` makes its ndarrays, and imports numpy, only
when a caller first reads them.  A run that is only classified imports
no numpy here; with the numba backend, numba's own import has loaded it
already.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from . import kernels
from .cubic import HelfrichParams
from .errors import (
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
    "axis_coefficients",
    "axis_series",
    "series_start",
    "integrate",
    "MAX_OF_W",
    "ZERO_OF_W",
    "STEEP",
    "EQUATOR",
    "BLOWUP_POSITIVE",
    "ABORTED",
]

MAX_OF_W = "MaxOfW"
ZERO_OF_W = "ZeroOfW"
# w falls through -w_switch: where the graph-form residual of a run ends
STEEP = "Steep"
EQUATOR = "Equator"
BLOWUP_POSITIVE = "BlowUpPositive"
ABORTED = "Aborted"

_SAFETY = 0.9
# PI controller exponents for an 8th-order pair, as dop853.f's expo1
_BETA = 0.04
_ALPHA = 1.0 / 8.0 - 0.2 * _BETA
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# an accepted step's record, kernels.NREC float64 as the loop stores it
_RECORD = struct.Struct(f"{kernels.NREC}d")


class _Config(NamedTuple):
    rel_tol: float = 5e-12
    abs_tol: float = 5e-14
    eps_start: float | None = None
    w_switch: float = 10.0
    r_max: float | None = None
    max_steps: int = 1_000_000
    event_tol: float = 1e-12


class SolverConfig(_Config):
    """Integrator tolerances and event thresholds.

    A run ends ``BlowUpPositive`` at w = +w_switch, and its graph-form
    residual (``analysis.el_residual``) ends at w = -w_switch (the
    ``Steep`` event).

    ``eps_start`` is the radius where the run starts from the axis series
    (see ``axis_coefficients``).  ``None`` selects the largest radius at
    which each of the series' last two terms, a9 r^9 and a11 r^11, is at
    most rel_tol/10 of w0p r, capped at 0.99 of both limits that
    ``series_start`` checks (0.1 sqrt(w0p/p + 1), and |a3| r^2 <= 0.01 w0p,
    which keeps w' near w0p up to the start) and never below
    min(1e-5, 1e-3 sqrt(32 w0p / (3p))).  ``r_max=None`` selects
    1e3 sqrt(w0p/p + 1).

    The checks run on every path to a new record: construction, ``_make``,
    ``_replace`` and unpickling (pickle protocol 2 and up).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.rel_tol < 1.0):
            raise InvalidParams(f"rel_tol must be in (0, 1), got {self.rel_tol!r}")
        if not (0.0 < self.abs_tol < math.inf):
            raise InvalidParams(f"abs_tol must be finite and > 0, got {self.abs_tol!r}")
        if self.eps_start is not None and not (0.0 < self.eps_start < math.inf):
            raise InvalidParams(f"eps_start must be finite and > 0, got {self.eps_start!r}")
        # the graph-form residual reads w(r) up to the Steep event, where
        # cos psi = 1/sqrt(1 + w_switch^2): 1e4 keeps that above 1e-4, away
        # from the vertical tangent where the graph form is singular
        if not (1.0 < self.w_switch <= 1e4):
            raise InvalidParams(f"w_switch must be in (1, 1e4], got {self.w_switch!r}")
        if self.r_max is not None and not (0.0 < self.r_max < math.inf):
            raise InvalidParams(f"r_max must be finite and > 0, got {self.r_max!r}")
        if not (self.max_steps >= 1):
            raise InvalidParams(f"max_steps must be >= 1, got {self.max_steps!r}")
        if not (0.0 < self.event_tol < math.inf):
            raise InvalidParams(f"event_tol must be finite and > 0, got {self.event_tol!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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


def _horner(cs, t):
    """sum cs[k] t^k."""
    total = cs[-1]
    for c in cs[-2::-1]:
        total = total * t + c
    return total


def _axis_slope(a, r):
    """t = r^2 and the slope w and w' of the axis series with odd
    coefficients ``a`` at r."""
    t = r * r
    return t, r * _horner(a, t), _horner([(2 * m + 1) * am for m, am in enumerate(a)], t)


def axis_series(a, r, deriv: bool = False):
    """The axis series with odd coefficients ``a`` = (a1, a3, ...) at r:
    the graph state (w, wp, z), with z = 0 on the axis, or with
    ``deriv`` its r-derivative (wp, wpp, w).

    ``r`` may be a scalar or an ndarray; the values have its type.
    """
    t, w, wp = _axis_slope(a, r)
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


def _slope_angle(m, w, wp):
    """psi = atan w, cos psi and psi' = w' cos^3 psi of the slope w and
    w', through the module ``m``: ``math`` or numpy."""
    psi = m.atan(w)
    cp = m.cos(psi)
    return psi, cp, wp * cp * cp * cp


def _arc_state(params: HelfrichParams, r, w, wp, z):
    """The state (r, z, psi, psi', gamma) at radius r, slope w, w' and
    height z: psi = atan w, psi' = w' cos^3 psi and gamma from H = 0,
    gamma cos psi = r [(sin psi / r + c0)^2 - psi'^2 + lambda - (p/2) r sin psi];
    floats through ``math``, ndarrays through numpy, where r = 0 gives the
    axis limit sin psi / r = w'."""
    if isinstance(r, float):
        m = math
    else:
        import numpy as m
    c0 = params.c0
    psi, cp, dpsi = _slope_angle(m, w, wp)
    sp = m.sin(psi)
    spr = sp / r if m is math else m.divide(sp, r, out=m.array(wp, dtype=float), where=r != 0.0)
    gam = r * ((spr + c0) * (spr + c0) - dpsi * dpsi + params.lam
               - 0.5 * params.p * r * sp) / cp
    return r, z, psi, dpsi, gam


def series_start(params: HelfrichParams, w0p: float, eps: float,
                 a: tuple[float, ...] | None = None) -> tuple[float, ...]:
    """Axis-series state at r = eps, clearing the axis singularity: a
    tuple of NSTATE floats laid out as in ``kernels`` (see ``_arc_state``).
    ``a`` is the series of ``axis_coefficients``, computed when not given.
    A start angle psi(eps) that is not > 0 is InvalidSlope."""
    if not (w0p > 0.0):
        raise InvalidSlope(f"w0p must be > 0, got {w0p!r}")
    if not (eps > 0.0):
        raise EpsTooLarge(f"eps must be > 0, got {eps!r}")
    if params.p > 0.0 and eps >= 0.1 * math.sqrt(w0p / params.p + 1.0):
        raise EpsTooLarge(f"eps={eps!r} outside the series region")
    a = a or axis_coefficients(params, w0p)
    if abs(a[1]) * eps ** 3 > 0.01 * w0p * eps:
        raise EpsTooLarge(f"series correction too large at eps={eps!r}")
    w, wp, z = axis_series(a, float(eps))
    state = _arc_state(params, float(eps), w, wp, z)
    if not (state[2] > 0.0):
        # w0p eps underflows: no run from here crosses psi = 0
        raise InvalidSlope(f"start angle psi(eps={eps!r}) = {state[2]!r} is not > 0 "
                           f"at w0p={w0p!r}")
    return state


class Event(NamedTuple):
    """Located event: ``x`` is the arc length s, and ``state`` the NSTATE
    state components there, a tuple of floats."""

    kind: str
    x: float
    state: tuple[float, ...]


class Trajectory:
    """Dense, event-annotated solution from the axis to its terminal event:
    the one record of a run.

    It holds the run's ``params``, ``w0p`` and ``cfg``; the ascending step
    nodes ``xs`` in the arc length s, from the start radius
    ``x_start`` = eps on; the steps' records ``records``, the
    ``kernels.NREC`` floats per step that the step kernel gives (h, the
    start state y, the new state and the stages its dense output reads),
    flat, in any contiguous buffer of float64: the loop packs them into a
    ``bytearray``, 8 bytes a float; the ``events``, the last of which ends
    the run and the range it covers, [x_start, events[-1].x], as a run may
    terminate mid-step at an event; ``axis_coeffs``, the axis series the
    run starts from (see ``axis_coefficients``), computed when not given;
    and ``rows``, the dense rows by step index that the loop completed
    already, those of the steps that hold an event, each the NROWS *
    NSTATE floats of ``kernels.dense_a`` in an ``array('d')``.

    A step's dense output, its ``kernels.NROWS`` rows (y and the
    interpolant's F0..F6), is completed from its record by
    ``kernels.dense_a`` once, in the order a run is read, from the axis
    out: a query completes each step up to the last one it touches, and
    takes the rows the loop completed as they are.  A completion that
    raises gives NaN rows (see ``_dense_rows``).

    The ndarrays ``xs``, shape (steps + 1,), and ``nodes``, shape (steps,
    NSTATE), the start state of each step, need no completion; ``conts``,
    shape (steps, NROWS, NSTATE), completes every step.  They are made,
    and numpy imported, when a caller first reads them or evaluates the
    run; ``x_start`` needs no numpy.

    ``eval_many(x, cols)`` and ``deriv_many(x, cols)`` evaluate only the
    state components ``cols`` selects: an int gives shape (n,), a slice
    or a list of k ints (n, k), and the default ``slice(None)`` all NSTATE,
    (n, NSTATE).  Each value
    is the one the full evaluation gives, bit for bit, at a fraction of
    the cost.
    """

    # ``chart_a``, the run itself, and ``chart_b``, None: the names
    # ``perfbench/spans.py`` reads in ``_count_solve``
    chart_b = None

    @property
    def chart_a(self) -> Trajectory:
        return self

    def __init__(self, params: HelfrichParams, w0p: float, cfg: SolverConfig,
                 xs, records, events: list[Event], axis_coeffs: tuple[float, ...] = (),
                 rows: dict[int, array] | None = None):
        self.params, self.w0p, self.cfg = params, w0p, cfg
        self._raw_xs, self._records, self.events = xs, records, events
        self._event_rows = rows or {}  # step index -> its completed dense rows
        self.x_start = float(xs[0])
        self.axis_coeffs = axis_coeffs or axis_coefficients(params, w0p)
        self._done = 0  # the steps 0.._done-1 are completed

    @property
    def status(self) -> str:
        """Why the run stopped: the kind of its last event."""
        return self.events[-1].kind

    def first_event(self, kind: str) -> Event | None:
        return next((ev for ev in self.events if ev.kind == kind), None)

    @property
    def switch(self) -> Event:
        """The end of the graph-form residual's samples: the first ``Steep``
        event, or the last event of a run that has none."""
        return self.first_event(STEEP) or self.events[-1]

    @cached_property
    def xs(self) -> np.ndarray:
        import numpy as np
        return np.asarray(self._raw_xs, dtype=float)

    @cached_property
    def nodes(self) -> np.ndarray:
        import numpy as np
        recs = np.frombuffer(self._records).reshape(-1, kernels.NREC)
        return recs[:, 1:1 + kernels.NSTATE]

    @property
    def conts(self) -> np.ndarray:
        return self._fill(len(self._raw_xs) - 1)

    @cached_property
    def _table(self) -> np.ndarray:
        import numpy as np
        return np.empty((len(self._raw_xs) - 1, kernels.NROWS, kernels.NSTATE))

    def _fill(self, n: int) -> np.ndarray:
        """The (steps, NROWS, NSTATE) table, with the steps 0..n-1 completed."""
        import numpy as np
        conts, todo = self._table, range(self._done, n)
        if todo:
            recs, size, done = self._records, _RECORD.size, self._event_rows
            rows = (done.pop(i, None) or _dense_rows(_RECORD.unpack_from(recs, size * i),
                                                     *self.params) for i in todo)
            flat = np.fromiter(chain.from_iterable(rows), float, len(todo) * kernels.NROWS
                               * kernels.NSTATE)
            conts[todo.start:todo.stop] = flat.reshape(-1, kernels.NROWS, kernels.NSTATE)
            self._done = todo.stop
        return conts

    def _rows(self, idx: np.ndarray, cols) -> np.ndarray:
        # (NROWS, components, n): a query takes the steps of the components it
        # reads, so each row it computes on is contiguous along the queries
        return self._fill(idx.max(initial=-1) + 1).transpose(1, 2, 0)[:, cols].take(idx, axis=-1)

    def _locate(self, x: np.ndarray):
        """The step index, theta and step length h of each query x."""
        import numpy as np
        lo, hi = self.x_start, self.events[-1].x
        pad = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
        if not np.all((x >= lo - pad) & (x <= hi + pad)):
            raise OutOfRange(f"query outside covered range [{lo}, {hi}]")
        idx = np.searchsorted(self.xs, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.xs) - 2)
        h = self.xs[idx + 1] - self.xs[idx]
        # theta = 0 on the zero-length step of a run that took no step
        theta = np.divide(x - self.xs[idx], h, out=np.zeros_like(h), where=h != 0.0)
        return idx, theta, h

    def eval_many(self, x, cols=slice(None)) -> np.ndarray:
        import numpy as np
        idx, th, _ = self._locate(np.atleast_1d(np.asarray(x, dtype=float)))
        return _interpolant(self._rows(idx, cols), th).T

    def deriv_many(self, x, cols=slice(None)) -> np.ndarray:
        """Derivative of the components ``cols`` selects with respect to
        the independent variable; shapes as for ``eval_many``."""
        import numpy as np
        idx, th, h = self._locate(np.atleast_1d(np.asarray(x, dtype=float)))
        dth = _interpolant_dtheta(self._rows(idx, cols), th)[1]
        # a zero-length step has no derivative to give
        return np.divide(dth, h, out=np.full_like(dth, np.nan), where=h != 0.0).T

    def by_arc_length(self, s, series, dense) -> np.ndarray:
        """``series`` of the arc lengths s below eps, taken as the radii
        r = s of the axis series, and ``dense`` of the others, in the order
        of s in [0, s_end]: OutOfRange below 0, and past s_end where
        ``dense`` reads the dense output.  ``dense`` is not called when no
        s lies at or past eps."""
        import numpy as np
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s < 0.0):
            raise OutOfRange("arc length below 0")
        inside = s < self.x_start
        if inside.all():
            return series(s)
        above = dense(s[~inside])
        out = np.empty((len(s),) + above.shape[1:])
        out[inside] = series(s[inside])
        out[~inside] = above
        return out

    def _axis_state(self, r: np.ndarray) -> np.ndarray:
        """The state at the radii r of the axis series, component-major:
        shape (NSTATE, len(r))."""
        import numpy as np
        return np.stack(_arc_state(self.params, r, *axis_series(self.axis_coeffs, r)))

    def _axis_angles(self, r: np.ndarray) -> np.ndarray:
        """r, psi and psi' at the radii r of the axis series, shape (3,
        len(r)): rows 0, 2 and 3 of ``_axis_state(r)`` bit for bit, with no
        z or gamma computed."""
        import numpy as np
        psi, _, dpsi = _slope_angle(np, *_axis_slope(self.axis_coeffs, r)[1:])
        return np.stack((r, psi, dpsi))

    def state_at(self, s, cols=slice(None)) -> np.ndarray:
        """The state (r, z, psi, psi', gamma) at arc lengths s in [0, s_end]:
        from the axis series at r = s below eps (see ``_arc_state``) and
        from the dense output from there on.  ``cols`` selects components
        as in ``eval_many``."""
        return self.by_arc_length(s, lambda r: self._axis_state(r)[cols].T,
                                  lambda x: self.eval_many(x, cols))

    def sample_steps(self, s_end: float, m: int, dr: float) -> np.ndarray:
        """r, psi and psi' on (0, s_end], s_end in [eps, s_end of the run],
        shape (samples, 3), in the order of s and with no search per
        sample: the axis series at the radii j dr < eps, j = 1, 2, ...;
        each step that starts before s_end at theta = j / m, j = 0..m-1;
        and the step that holds s_end at m >= 2 thetas evenly spaced on
        [0, theta(s_end)], so s_end is the last sample.  Only these steps
        are completed."""
        import numpy as np
        xs, x0 = self._raw_xs, self.x_start
        k = max(bisect_left(xs, s_end) - 1, 0)  # x_k < s_end <= x_k+1
        th = np.empty((k + 1, m))
        th[:k] = np.arange(m) / m
        th[k] = np.linspace(0.0, (s_end - xs[k]) / (xs[k + 1] - xs[k]), m)
        rows = self._fill(k + 1)[:k + 1].transpose(1, 2, 0)[:, [0, 2, 3], :, None]
        dense = _interpolant(rows, th)
        r = np.arange(1, math.ceil(x0 / dr) + 1) * dr
        r = r[r < x0]
        # component-major, so each component's samples are contiguous
        return np.concatenate([self._axis_angles(r), dense.reshape(3, -1)], axis=-1).T


def _rms(v, sc) -> float:
    """Root mean square of v_i / sc_i, summed in component order as numpy's
    ``mean`` does (the builtin ``sum`` compensates from Python 3.12 on)."""
    total = 0.0
    for a, b in zip(v, sc):
        total += (a / b) * (a / b)
    return math.sqrt(total / len(v))


def _initial_step(x, y, f, rtol, atol, c0, lam, p, h_cap):
    """First step size for an 8th-order pair from the start state ``y`` and
    its derivative ``f``, sequences of NSTATE floats, at most ``h_cap`` > 0,
    with one trial of ``kernels.rhs_a``; a norm that is not finite is
    InvalidParams."""
    sc = [atol + rtol * abs(v) for v in y]
    d0 = _rms(y, sc)
    d1 = _rms(f, sc)
    if not (math.isfinite(d0) and math.isfinite(d1)):
        raise InvalidParams(f"scaled start state or right-hand side not finite at x={x!r}")
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, h_cap)
    f1 = kernels.rhs_a([v + h0 * fv for v, fv in zip(y, f)], c0, lam, p)
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


def _interpolant_dtheta(cont, th):
    """``_interpolant`` and its theta-derivative, bit for bit its value: its
    nested form differentiated from the inside out.  A level v = r + t w,
    where t is theta or 1 - theta and w the level inside it, has the
    derivative dv = +-w + t dw."""
    r1, r2, r3, r4, r5, r6, r7, r8 = cont
    u = 1.0 - th
    v = r7 + th * r8
    dv = r8
    v, dv = r6 + u * v, u * dv - v
    v, dv = r5 + th * v, v + th * dv
    v, dv = r4 + u * v, u * dv - v
    v, dv = r3 + th * v, v + th * dv
    v, dv = r2 + u * v, u * dv - v
    return r1 + th * v, v + th * dv


def _dense_rows(rec, c0, lam, p):
    """The NROWS * NSTATE dense rows of the accepted step with the record
    ``rec``, from ``kernels.dense_a``; all NaN where a stage there divides
    by r = 0 or meets an infinite angle, where the eager step would have
    rejected the step: the step is kept and its interpolant is NaN."""
    try:
        return kernels.dense_a(rec, c0, lam, p)
    except (ArithmeticError, ValueError):
        return [math.nan] * (kernels.NROWS * kernels.NSTATE)


def _bisect_step(c, target, h, x0, tol, lo=0.0, hi=1.0):
    """Theta in [lo, hi] where one component's step polynomial, with the
    NROWS coefficients ``c``, crosses ``target``; bisects until |h| times
    the bracket <= tol (1 + |x0|).  The polynomial is ``_interpolant``'s,
    written out on the rows' floats, bit for bit its value; g > target is
    g - target > 0 for every pair of floats, and the side of lo keeps its
    sign as lo moves."""
    r1, r2, r3, r4, r5, r6, r7, r8 = c
    u = 1.0 - lo
    above = r1 + lo * (r2 + u * (r3 + lo * (r4 + u * (r5 + lo * (r6 + u * (r7 + lo * r8)))))) > target
    h_abs = abs(h)
    bound = tol * (1.0 + abs(x0))
    for _ in range(200):
        if abs(hi - lo) * h_abs <= bound:
            break
        mid = 0.5 * (lo + hi)
        u = 1.0 - mid
        if (r1 + mid * (r2 + u * (r3 + mid * (r4 + u * (r5 + mid * (r6 + u * (r7 + mid * r8))))))
                > target) == above:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _run(x0, y0, params, cfg, event_table, steps_budget):
    """Adaptive loop from the state ``y0`` at x0, with x rising, on the
    kernels ``kernels.dopri5_step_a``, ``dense_a`` and ``rhs_a``, read when
    it is called.

    ``event_table`` holds one (kind, component, target, downward,
    terminal) row per event; hits inside one step are recorded by theta,
    and in table order where theta ties.  The loop keeps each accepted
    step's record, packed as float64, and completes its dense output only
    on a step where an event row changes sign, to bisect it; it keeps those
    rows, which the ``Trajectory`` takes as they are.  A terminal row's hit
    ends the run: the step across it is taken again up to the hit, when
    that shorter step is accepted, and then it is the last step.  Returns
    ((xs, records, rows), events, steps_used), the step nodes, the flat
    records and the completed rows by step index as ``Trajectory`` takes
    them; the last event ends the run: a terminal row's, or ``Aborted``
    when the step budget did.
    """
    step = kernels.dopri5_step_a
    pack = _RECORD.pack
    c0, lam, p = params.c0, params.lam, params.p
    rtol, atol = cfg.rel_tol, cfg.abs_tol

    # the loop runs on Python floats, which raise where ndarrays give inf
    x = float(x0)
    y = [float(v) for v in y0]
    try:
        f = kernels.rhs_a(y, c0, lam, p)
        finite = all(map(math.isfinite, f))
    except (ArithmeticError, ValueError):
        finite = False
    if not finite:
        raise InvalidParams(f"right-hand side not finite at the start x={x!r}")
    # No step is longer than the radius it starts from, its distance to the
    # axis singularity at r = 0, because a longer one leaves the
    # interpolant off near the axis; and the step-size floor is relative to
    # x alone, so that a start closer to the axis than an absolute floor of
    # 1e-14 can still step out
    h = _initial_step(x, y, f, rtol, atol, c0, lam, p, y[0])
    h = max(h, 1e-13 * (1.0 + abs(x)))

    xs = [x]
    records = bytearray()  # kernels.NREC float64 per accepted step
    rows: dict[int, array] = {}
    events: list[Event] = []
    err_prev = 1e-4
    steps = 0
    rejected = False

    # min and max are written out as conditional expressions that return
    # the builtins' values: ``b if b < a else a`` is min(a, b) and
    # ``b if b > a else a`` is max(a, b)
    while True:
        if steps >= steps_budget:
            events.append(Event(ABORTED, x, tuple(y)))
            if not records:
                # a run that took no step: one zero-length step from y to y,
                # with zero stages, whose interpolant is y
                xs.append(x)
                records += pack(0.0, *y, *y, *[0.0] * (kernels.NREC - 1 - 2 * kernels.NSTATE))
            return (xs, records, rows), events, steps
        if h < 1e-14 * abs(x):
            raise StepUnderflow(f"step size {h!r} underflow at s={x!r}")
        h_use = y[0] if h > y[0] else h

        try:
            y1, f1, err, rec = step(y, h_use, f, c0, lam, p, rtol, atol)
        except (ArithmeticError, ValueError):
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

        records += pack(*rec)
        x_new = x + h_use
        xs.append(x_new)

        # event scan on this step; component i of its dense output is
        # cont[i::NSTATE]; on the finite states of an accepted step,
        # y > target is y - target > 0 and y <= target is y - target <= 0
        hits = cont = None
        for kind, i, target, downward, terminal in event_table:
            if (y[i] > target >= y1[i]) if downward else (y[i] < target <= y1[i]):
                if cont is None:
                    cont = _dense_rows(rec, c0, lam, p)
                th = _bisect_step(cont[i::kernels.NSTATE], target, h_use, x, cfg.event_tol)
                if hits is None:
                    hits = []
                hits.append((th, kind, terminal))
        if hits is not None:
            hits.sort(key=lambda hit: hit[0])  # stable: ties keep table order
            h_end = next((th * h_use for th, _, terminal in hits if terminal), 0.0)
            h_ev = h_use
            if h_end > 0.0:
                # the run ends on its terminal event with a step of its own,
                # whose interpolant is closer than the one of the step across
                # it, and the events of this step take their states from it
                try:
                    err, rec = step(y, h_end, f, c0, lam, p, rtol, atol)[2:]
                except (ArithmeticError, ValueError):
                    err = math.inf
                steps += 1
                if err <= 1.0:
                    records[-_RECORD.size:] = pack(*rec)
                    xs[-1] = x + h_end
                    cont, h_ev = _dense_rows(rec, c0, lam, p), h_end
            rows[len(xs) - 2] = array("d", cont)
            for th, kind, terminal in hits:
                x_ev = x + th * h_use
                if h_ev != h_use:
                    th = th * h_use / h_ev
                y_ev = tuple([_interpolant(cont[i::kernels.NSTATE], th)
                              for i in range(kernels.NSTATE)])
                events.append(Event(kind, x_ev, y_ev))
                if terminal:
                    return (xs, records, rows), events, steps

        x, y, f = x_new, y1, f1

        fac = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA if err > 0.0 else _FAC_MAX
        fac = fac if fac > _FAC_MIN else _FAC_MIN
        fac = fac if fac < _FAC_MAX else _FAC_MAX
        if rejected:
            fac = fac if fac < 1.0 else 1.0
            rejected = False
        h = h_use * fac
        err_prev = 1e-4 if 1e-4 > err else err


def integrate(params: HelfrichParams, w0p: float,
              cfg: SolverConfig | None = None) -> Trajectory:
    """Integrate the shape equation from the axis until a terminal event.

    The run starts at s = r = eps from the axis series of
    ``axis_coefficients``, computed once here and kept on the trajectory,
    at the radius ``SolverConfig.eps_start`` gives or selects.

    Events, by the state components: ``MaxOfW`` where psi' falls through
    0 (w' = psi' / cos^3 psi does), ``ZeroOfW`` where psi falls through 0,
    ``Steep`` where psi falls through -atan(w_switch), and the terminal
    ``Equator`` (psi falls through -pi/2), ``BlowUpPositive`` (psi rises
    through atan(w_switch)) and ``Aborted`` (r rises through r_max, or
    the step budget is spent).
    """
    if not (w0p > 0.0):
        raise InvalidSlope(f"w0p must be > 0, got {w0p!r}")
    if not (params.p > 0.0):
        raise InvalidParams(f"p must be > 0 for the blow-down analysis, got {params.p!r}")
    cfg = cfg or SolverConfig()

    a = axis_coefficients(params, float(w0p))
    eps = cfg.eps_start or _default_eps(params, w0p, a, cfg.rel_tol)
    r_max = cfg.r_max or 1e3 * math.sqrt(w0p / params.p + 1.0)
    psi_switch = math.atan(cfg.w_switch)

    # (kind, component, target, downward, terminal)
    table = [
        (MAX_OF_W, 3, 0.0, True, False),
        (ZERO_OF_W, 2, 0.0, True, False),
        (STEEP, 2, -psi_switch, True, False),
        (EQUATOR, 2, -0.5 * math.pi, True, True),
        (BLOWUP_POSITIVE, 2, psi_switch, False, True),
        (ABORTED, 0, r_max, False, True),
    ]
    # a start at or past the abort radius takes no step
    (xs, records, rows), events, _ = _run(eps, series_start(params, w0p, eps, a), params, cfg,
                                          table, cfg.max_steps if eps < r_max else 0)
    return Trajectory(params, w0p, cfg, xs, records, events, a, rows)
