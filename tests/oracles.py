"""Reference computations used only by the tests.

Each one is independent of the package code path it cross-checks: a
fixed-step propagation for order studies, dense sampling for the closed-form
extrema of Q, and a triangle-sum for mesh area and volume.
"""

import numpy as np

from helfrich import kernels
from helfrich.cubic import HelfrichParams, eval_q


def fixed_step_chart_a(params: HelfrichParams, r0: float, y0: np.ndarray,
                       r1: float, n_steps: int) -> np.ndarray:
    """Fixed-step propagation of chart A (order studies and restarts)."""
    c0, lam, p = params.c0, params.lam, params.p
    h = (r1 - r0) / n_steps
    y = np.array(y0, dtype=float)
    f = np.empty_like(y)
    kernels.rhs_chart_a_arr(r0, y, c0, lam, p, f)
    x = r0
    for _ in range(n_steps):
        y, f, _, _ = kernels.dopri5_step_a(x, y, h, f, c0, lam, p, 1e-6, 1e-6)
        x += h
    return y


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
