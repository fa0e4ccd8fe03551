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
from typing import TYPE_CHECKING, NamedTuple

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


class Landmarks(NamedTuple):
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


class Classification(NamedTuple):
    verdict: str
    c1: bool | None
    c2: bool | None
    c3: bool | None
    evidence: str


class SurfaceTotals(NamedTuple):
    area: float
    volume: float
    helfrich_energy: float


def extract_landmarks(traj: Trajectory) -> Landmarks:
    """Read landmarks and the count of critical points of w off the event
    list; no dense output is evaluated.

    Radii and heights are the event states' r and z, the slopes
    w = tan psi and w' = psi' / cos^3 psi of their angle psi and psi'.
    Each ``MaxOfW`` event is a downward sign change of w', found when psi'
    changes sign between the ends of an accepted step.  w' starts
    positive (``series_start`` keeps |a3| eps^2 <= 0.01 w0p, so w' is near
    w0p there), and sign changes alternate, so the n ``MaxOfW`` events on
    (eps, r0) bring 2n - 1 sign changes when w'(r0) < 0 and 2n otherwise.
    Two sign changes inside one accepted step go unseen, as do tangencies
    of w' without a sign change.
    """
    ev_max = traj.first_event(MAX_OF_W)
    ev_zero = traj.first_event(ZERO_OF_W)
    ev_eq = traj.first_event(EQUATOR)

    r_m = w_max = r0 = wp_r0 = z_r0 = r_inf = z_inf = n_crit = None
    if ev_max is not None:
        r_m, w_max = ev_max.state[0], math.tan(ev_max.state[2])
    if ev_zero is not None:
        r0, z_r0, psi, dpsi = ev_zero.state[:4]
        wp_r0 = dpsi / math.cos(psi) ** 3
        n_max = sum(ev.kind == MAX_OF_W and ev.x < ev_zero.x for ev in traj.events)
        n_crit = 2 * n_max - (wp_r0 < 0.0)
    if ev_eq is not None:
        r_inf, z_inf = ev_eq.state[:2]
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


def curvature_geometry(y) -> tuple:
    """(kappa_m, kappa_l, H, K) at states ``y`` (r, z, psi, psi', ...),
    shape (NSTATE,) or (n, NSTATE): an ndarray, or a sequence of floats
    such as an event's state.  kappa_m = sin psi / r and kappa_l = psi'.
    """
    import numpy as np
    y = np.asarray(y, dtype=float)
    km = np.sin(y[..., 2]) / y[..., 0]
    kl = y[..., 3]
    return km, kl, 0.5 * (km + kl), km * kl


def el_residual(traj: Trajectory) -> float:
    """Max normalized residual of the variational integrand in the graph
    form w(r).

    At 2000 arc lengths evenly spaced on (0, s_switch], up to the
    ``Steep`` event (``Trajectory.switch``), r, w, w' and w'' come from
    the axis series at r = s below the start and from the dense output
    beyond it: w = tan psi, w' = psi' / cos^3 psi and
    w'' = (psi'' + 3 psi'^2 tan psi) / cos^4 psi, with psi'' the
    derivative of the dense output.  Each sample's integrand is
    normalized by the largest individual term so the result is a
    relative defect.
    """
    import numpy as np

    def graph(s):
        r, psi, dpsi = traj.eval_many(s, [0, 2, 3]).T
        cp = np.cos(psi)
        w = np.sin(psi) / cp
        c3 = cp * cp * cp
        wpp = (traj.deriv_many(s, 3) + 3.0 * dpsi * dpsi * w) / (c3 * cp)
        return np.stack((r, dpsi / c3, wpp, w), axis=1)

    rs, wp, wpp, w = traj.by_arc_length(
        np.linspace(0.0, traj.switch.x, 2001)[1:],
        lambda r: np.column_stack((r, *axis_series(traj.axis_coeffs, r, deriv=True))),
        graph).T
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
    and the longitudinal curvature psi'(s_inf).
    """
    ev = traj.first_event(EQUATOR)
    if ev is None:
        raise MissingEvent("no Equator event in trajectory")
    r = float(ev.state[0])
    K2 = float(curvature_geometry(ev.state)[3]) ** 2
    target = (-1.0 / r) * eval_q(-1.0 / r, traj.params)
    return abs(K2 - target) / max(K2, 1e-30)


# 5-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(5)
# written out: importing numpy.polynomial costs start-up time and memory
_GL_X = (-0.906179845938664, -0.5384693101056831, 0.0,
         0.5384693101056831, 0.906179845938664)
_GL_W = (0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
         0.4786286704993663, 0.23692688505618928)


def _quadratures(lo, span, evaluate, params) -> np.ndarray:
    """Integrals of the area, volume and energy densities over the steps
    [lo, lo + span] of a variable x, with the states and ds/dx at x from
    ``evaluate``.

    Each step gets the 5-point Gauss-Legendre rule.  The densities are
    those of the upper half per unit arc length, r, r^2 sin psi and
    [(2H+c0)^2 + lambda] r, times ds/dx.
    """
    import numpy as np
    x = (lo[:, None] + span[:, None] * (0.5 + 0.5 * np.array(_GL_X))).ravel()
    y, ds = evaluate(x)
    area = y[:, 0] * ds
    vol = y[:, 0] * y[:, 0] * np.sin(y[:, 2]) * ds
    energy = ((2.0 * curvature_geometry(y)[2] + params.c0) ** 2 + params.lam) * area
    return (np.stack([area, vol, energy]).reshape(3, -1, 5) @ (0.5 * np.array(_GL_W))) @ span


def surface_totals(traj: Trajectory) -> SurfaceTotals:
    """Closed-surface area, enclosed volume, and bending energy.

    The axis series on [0, eps], one Gauss-Legendre step in r, and the
    quadrature of every accepted step's interpolant in s, the last one
    cut at the equator, cover the upper half; the reflection doubles
    them.  Volume uses the sign convention that makes a convex body
    positive.
    """
    if traj.first_event(EQUATOR) is None:
        raise MissingEvent("no Equator event in trajectory")
    import numpy as np
    params = traj.params

    def series(r):
        y = traj.state_at(r)
        return y, 1.0 / np.cos(y[:, 2])

    lo = traj.xs[:-1]
    area_acc, vol_acc, energy_acc = (
        _quadratures(np.zeros(1), np.array([traj.x_start]), series, params)
        + _quadratures(lo, np.append(traj.xs[1:-1], traj.events[-1].x) - lo,
                       lambda s: (traj.eval_many(s), 1.0), params))
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
    """(r, z - z_inf) samples from the axis to the equator, m + 1 points
    evenly spaced in arc length (``Trajectory.state_at``)."""
    import numpy as np
    ev = traj.first_event(EQUATOR)
    quarter = traj.state_at(np.linspace(0.0, ev.x, m + 1), slice(0, 2))
    quarter[:, 1] -= ev.state[1]
    quarter[-1, 1] = 0.0  # exact by the shift definition
    return quarter
