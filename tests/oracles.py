"""Reference computations used only by the tests.

Each one is independent of the package code path it cross-checks: a
fixed-step propagation for order studies, dense sampling for the closed-form
extrema of Q, a triangle-sum for mesh area and volume, and the
element-by-element emitters that the array emitters must match byte for
byte.
"""

import math

import numpy as np

from helfrich import kernels
from helfrich.analysis import _quarter_profile
from helfrich.cubic import HelfrichParams, eval_q
from helfrich.export import PROFILE_COLUMNS, fmt17, profile_rows


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


def write_profile_csv_loops(path, traj) -> None:
    """profile.csv written one value at a time through ``fmt17``."""
    rows = profile_rows(traj)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(PROFILE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(fmt17(v) for v in row) + "\n")


def build_mesh_loops(traj, n_theta: int, n_profile: int):
    """Revolved mesh built ring by ring and face by face."""
    r_u, z_u = _quarter_profile(traj, n_profile).T  # n_profile + 1 points
    # full profile pole..equator..pole: 2 n_profile + 1 points
    r_full = np.concatenate([r_u, r_u[-2::-1]])
    z_full = np.concatenate([z_u, -z_u[-2::-1]])

    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    ct, st = np.cos(theta), np.sin(theta)

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
