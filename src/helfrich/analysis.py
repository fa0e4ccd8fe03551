"""Turn trajectories into landmarks, classifications, curvature geometry,
global totals, residual checks of the variational equation and the
closed cross-section curve.

The target shape is defined by three conditions on w = z':
C1 the profile slope is unimodal on (0, r0); C2 it blows down at a
finite equator radius; C3 the net displacement int_0^{r_inf} w dr is
strictly negative.  A solution satisfying all three closes up into a
biconcave surface after reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cubic import eval_q
from .errors import MissingEvent, NotBiconcave
from .solver import (
    ABORTED,
    BLOWUP_POSITIVE,
    EQUATOR,
    MAX_OF_W,
    ZERO_OF_W,
    Trajectory,
    axis_series,
    series_coefficient,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Landmarks",
    "Classification",
    "SurfaceTotals",
    "extract_landmarks",
    "classify",
    "curvature_geometry",
    "el_residual",
    "equator_identity_residual",
    "surface_totals",
    "profile_points",
    "mirror_quarter",
    "BICONCAVE",
    "MULTIMODAL",
    "NON_NEGATIVE_DISPLACEMENT",
    "INDETERMINATE",
]

BICONCAVE = "Biconcave"
MULTIMODAL = "Multimodal"
NON_NEGATIVE_DISPLACEMENT = "NonNegativeDisplacement"
INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Landmarks:
    """Key positions of one trajectory; absent events leave fields None.

    ``n_critical_points`` counts the sign changes of w' on (eps, r0), read
    from the ``MaxOfW`` events; it resolves sign changes one accepted
    step apart (see ``extract_landmarks``).
    """

    r_m: float | None
    w_max: float | None
    r0: float | None
    wp_r0: float | None
    z_r0: float | None
    r_inf: float | None
    z_inf: float | None
    n_critical_points: int | None


@dataclass(frozen=True)
class Classification:
    verdict: str
    c1: bool | None
    c2: bool | None
    c3: bool | None
    evidence: str


@dataclass(frozen=True)
class SurfaceTotals:
    area: float
    volume: float
    helfrich_energy: float


def extract_landmarks(traj: Trajectory) -> Landmarks:
    """Read landmarks and the count of critical points of w off the event
    list; no dense output is evaluated.

    Each ``MaxOfW`` event is a downward sign change of w', found when w'
    changes sign between the ends of an accepted step.  w' starts
    positive (the series start keeps it within 3% of w0p), and sign
    changes alternate, so the n ``MaxOfW`` events on (eps, r0) bring
    2n - 1 sign changes when w'(r0) < 0 and 2n otherwise.  Two sign
    changes inside one accepted step go unseen, as do tangencies of w'
    without a sign change.
    """
    ev_max = traj.first_event(MAX_OF_W)
    ev_zero = traj.first_event(ZERO_OF_W)
    ev_eq = traj.first_event(EQUATOR)

    r_m = w_max = r0 = wp_r0 = z_r0 = r_inf = z_inf = n_crit = None
    if ev_max is not None:
        r_m, w_max = ev_max.x, float(ev_max.state[0])
    if ev_zero is not None:
        r0 = ev_zero.x
        wp_r0 = float(ev_zero.state[1])
        z_r0 = float(ev_zero.state[2])
        n_max = sum(ev.kind == MAX_OF_W and ev.x < r0 for ev in traj.events)
        n_crit = 2 * n_max - (wp_r0 < 0.0)
    if ev_eq is not None:
        r_inf = float(ev_eq.state[0])
        z_inf = ev_eq.x
    return Landmarks(r_m, w_max, r0, wp_r0, z_r0, r_inf, z_inf, n_crit)


def classify(traj: Trajectory, landmarks: Landmarks) -> Classification:
    """Evaluate C1-C3 and return the verdict with its evidence."""
    if traj.status == ABORTED:
        return Classification(INDETERMINATE, None, None, None,
                              "run aborted before a terminal event")
    if traj.status == BLOWUP_POSITIVE:
        return Classification(BLOWUP_POSITIVE, None, False, None,
                              "w reached +w_switch: C2 fails (no blow-down)")
    # status Equator
    c2 = True
    c1 = landmarks.n_critical_points == 1
    c3 = landmarks.z_inf is not None and landmarks.z_inf < 0.0
    if not c1:
        return Classification(
            MULTIMODAL, c1, c2, c3,
            f"C1 fails: {landmarks.n_critical_points} critical points on (0, r0)")
    if not c3:
        return Classification(
            NON_NEGATIVE_DISPLACEMENT, c1, c2, c3,
            f"C3 fails: z_inf = {landmarks.z_inf}")
    return Classification(BICONCAVE, c1, c2, c3, "C1, C2, C3 all hold")


def _graph_curvatures(r, w, wp):
    import numpy as np
    P = 1.0 + w * w
    sq = np.sqrt(P)
    return w / (r * sq), wp / (P * sq)


def curvature_geometry(chart: str, x, y) -> tuple:
    """(kappa_m, kappa_l, H, K) at chart states ``y``, shape (NSTATE,) or
    (n, NSTATE): an ndarray, or a sequence of floats such as an event's
    state.

    Only the leading components are read, two on chart A and three on
    chart B, so ``y`` may hold just those.

    ``x`` is r on chart A and z on chart B, where the geometry does not
    depend on it.  For |s| <= 1e-6 the chart-B curvatures use the
    inverse-chart form.
    """
    import numpy as np
    y = np.asarray(y, dtype=float)
    if chart == "A":
        km, kl = _graph_curvatures(x, y[..., 0], y[..., 1])
    else:
        u, s, q = (np.asarray(y[..., k], dtype=float) for k in range(3))
        P = s * s + 1.0
        sq = np.sqrt(P)
        # element-wise libm pow: numpy's vectorized power can differ from
        # it in the last bit, and array and scalar evaluations must agree
        s3 = np.asarray(np.frompyfunc(pow, 2, 1)(s, 3), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            km, kl = _graph_curvatures(u, 1.0 / s, -q / s3)
        steep = np.abs(s) > 1e-6
        km = np.where(steep, km, -1.0 / (u * sq))
        kl = np.where(steep, kl, q / (P * sq))
    return km, kl, 0.5 * (km + kl), km * kl


def el_residual(traj: Trajectory) -> float:
    """Max normalized residual of the variational integrand on chart A.

    At 2000 samples, w and w' come from the dense output, w'' from its
    derivative; each sample's integrand is normalized by the largest
    individual term so the result is a relative defect.
    """
    import numpy as np
    seg = traj.chart_a
    rs = np.linspace(seg.x_start, seg.x_end, 2000)
    Y = seg.eval_many(rs, slice(0, 2))
    wpp = seg.deriv_many(rs, 1)
    w, wp = Y[:, 0], Y[:, 1]
    c0, lam, p = traj.params.c0, traj.params.lam, traj.params.p
    P = 1.0 + w * w
    sq = np.sqrt(P)
    terms = np.stack([
        -2.0 * rs * wpp / (P * P * sq),
        5.0 * rs * w * wp * wp / (P ** 3 * sq),
        -2.0 * wp / (P * P * sq),
        (2.0 * w + w ** 3) / (rs * P * sq),
        2.0 * c0 * w * w / P,
        (c0 ** 2 + lam) * rs * w / sq,
        -0.5 * p * rs * rs,
    ])
    resid = np.abs(terms.sum(axis=0)) / np.abs(terms).max(axis=0)
    return float(resid.max())


def equator_identity_residual(traj: Trajectory) -> float:
    """Relative defect of K(r_inf)^2 = (-1/r_inf) Q(-1/r_inf).

    K at the equator is the product of the meridional curvature -1/r_inf
    and the longitudinal curvature u''(z_inf).
    """
    ev = traj.first_event(EQUATOR)
    if ev is None:
        raise MissingEvent("no Equator event in trajectory")
    u = float(ev.state[0])
    K2 = float(curvature_geometry("B", ev.x, ev.state)[3]) ** 2
    target = (-1.0 / u) * eval_q(-1.0 / u, traj.params)
    return abs(K2 - target) / max(K2, 1e-30)


# 5-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(5)
# written out: importing numpy.polynomial costs start-up time and memory
_GL_X = (-0.906179845938664, -0.5384693101056831, 0.0,
         0.5384693101056831, 0.906179845938664)
_GL_W = (0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
         0.4786286704993663, 0.23692688505618928)


def _chart_quadratures(chart: str, seg, params) -> np.ndarray:
    """Integrals of the area, volume and energy densities over one chart.

    Each accepted step, the last one cut at ``x_end``, gets the 5-point
    Gauss-Legendre rule on its degree-7 interpolant.  The densities are
    those of the upper half in the chart's variable: r sqrt(1+w^2),
    r^2 w and [(2H+c0)^2 + lambda] r sqrt(1+w^2) per dr on chart A, and
    -u sqrt(1+s^2), u^2 and [(2H+c0)^2 + lambda] (-u sqrt(1+s^2)) per dz
    on chart B.
    """
    import numpy as np
    lo = seg.xs[:-1]
    span = np.append(seg.xs[1:-1], seg.x_end) - lo
    x = (lo[:, None] + span[:, None] * (0.5 + 0.5 * np.array(_GL_X))).ravel()
    y = seg.eval_many(x)
    H = curvature_geometry(chart, x, y)[2]
    if chart == "A":
        w = y[:, 0]
        area = x * np.sqrt(1.0 + w * w)
        vol = x * x * w
    else:
        u, s = y[:, 0], y[:, 1]
        area = -u * np.sqrt(s * s + 1.0)
        vol = u * u
    energy = ((2.0 * H + params.c0) ** 2 + params.lam) * area
    return (np.stack([area, vol, energy]).reshape(3, -1, 5) @ (0.5 * np.array(_GL_W))) @ span


def surface_totals(traj: Trajectory) -> SurfaceTotals:
    """Closed-surface area, enclosed volume, and bending energy.

    The series piece on [0, eps] and the quadrature of the dense output
    over both charts cover the upper half; the reflection doubles them.
    Volume uses the sign convention that makes a convex body positive.
    """
    if traj.first_event(EQUATOR) is None:
        raise MissingEvent("no Equator event in trajectory")
    import numpy as np
    params = traj.params
    a3 = series_coefficient(params, traj.w0p)
    area_acc, vol_acc, energy_acc = (
        np.array(axis_series(params, traj.w0p, a3, traj.chart_a.x_start)[3:])
        + _chart_quadratures("A", traj.chart_a, params)
        + _chart_quadratures("B", traj.chart_b, params))
    area = 4.0 * math.pi * float(area_acc)
    volume = -2.0 * math.pi * float(vol_acc)
    energy = 4.0 * math.pi * float(energy_acc) + params.p * volume
    return SurfaceTotals(area, volume, energy)


def profile_points(traj: Trajectory, cls: Classification) -> np.ndarray:
    """Closed mirrored cross-section curve (1025 points) of a biconcave solution.

    ``cls`` is the caller's classification of ``traj``.
    """
    if cls.verdict != BICONCAVE:
        raise NotBiconcave(f"classification is {cls.verdict}")
    return mirror_quarter(*_quarter_profile(traj, 256).T)


def mirror_quarter(r: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Close an axis-to-equator quarter (r, Z) by reflection in both axes.

    Returns a (4 len(r) - 3, 2) array tracing the curve through (0, Z(0)),
    (r_inf, 0), (0, -Z(0)), (-r_inf, 0) and back to (0, Z(0)).
    """
    import numpy as np
    ur = np.stack([r, Z], axis=1)
    lr = np.stack([r[::-1], -Z[::-1]], axis=1)
    ll = np.stack([-r, -Z], axis=1)
    ul = np.stack([-r[::-1], Z[::-1]], axis=1)
    return np.concatenate([ur, lr[1:], ll[1:], ul[1:]], axis=0)


def _quarter_profile(traj: Trajectory, m: int) -> np.ndarray:
    """(r, z - z_inf) samples from the axis to the equator, m + 1 points."""
    import numpy as np
    seg_a, seg_b = traj.chart_a, traj.chart_b
    m_b = max(8, m // 4)
    m_a = m - m_b
    rs = np.linspace(0.0, seg_a.x_end, m_a + 1)
    inside = rs < seg_a.x_start
    za = np.empty_like(rs)
    za[inside] = traj.series_eval(rs[inside])[:, 2]
    za[~inside] = seg_a.eval_many(rs[~inside], 2)
    a_part = np.stack([rs, za], axis=1)
    zs = np.linspace(seg_b.x_start, seg_b.x_end, m_b + 1)[1:]
    us = seg_b.eval_many(zs, 0)
    b_part = np.stack([us, zs], axis=1)
    quarter = np.concatenate([a_part, b_part], axis=0)
    quarter[:, 1] -= traj.first_event(EQUATOR).x
    quarter[-1, 1] = 0.0  # exact by the shift definition
    return quarter
