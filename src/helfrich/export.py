"""File emitters: profile CSV, JSON reports, SVG cross-sections, OBJ meshes.

All output is deterministic for fixed input: floats are printed with 17
significant digits (shortest round-trip safe), separators and line ends
are fixed, and nothing carries timestamps.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass

import numpy as np

from .analysis import _quarter_profile, curvature_geometry
from .solver import Trajectory

__all__ = [
    "fmt17",
    "profile_rows",
    "write_profile_csv",
    "read_profile_csv",
    "write_json",
    "render_svg",
    "build_mesh",
    "write_obj",
]

PROFILE_COLUMNS = ("r", "z", "w", "kappa_m", "kappa_l", "H", "K")


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def write_json(path, payload) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def profile_rows(traj: Trajectory):
    """Profile samples as an (n, 7) array of (r, z, w, kappa_m, kappa_l, H, K).

    One row on the axis, 1024 on chart A and, if the run reached chart B,
    512 there.  Chart-B rows are emitted r-indexed; the final row sits at the
    equator, where w is -inf and the curvatures take their limit values.
    """
    w0p = traj.w0p
    rows = [np.array([[0.0, 0.0, 0.0, w0p, w0p, w0p, w0p * w0p]])]
    seg = traj.chart_a
    rs = np.linspace(seg.x_start, seg.x_end, 1024)
    Y = seg.eval_many(rs)
    geom = curvature_geometry("A", rs, Y, traj.params)[:4]
    rows.append(np.stack([rs, Y[:, 2], Y[:, 0], *geom], axis=1))
    if traj.chart_b is not None:
        segb = traj.chart_b
        zs = np.linspace(segb.x_start, segb.x_end, 513)[1:]
        Y = segb.eval_many(zs)
        u, s = Y[:, 0], Y[:, 1]
        with np.errstate(divide="ignore"):
            w = np.where(s != 0.0, 1.0 / s, -np.inf)
        geom = curvature_geometry("B", zs, Y, traj.params)[:4]
        rows.append(np.stack([u, zs, w, *geom], axis=1))
    return np.concatenate(rows)


def write_profile_csv(path, traj: Trajectory) -> None:
    rows = profile_rows(traj)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(PROFILE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(fmt17(v) for v in row) + "\n")


def read_profile_csv(path) -> dict[str, np.ndarray]:
    with open(path, "r", newline="\n") as fh:
        header = fh.readline().strip().split(",")
        data = [[] for _ in header]
        for line in fh:
            for i, tok in enumerate(line.strip().split(",")):
                data[i].append(float(tok))
    return {name: np.array(col) for name, col in zip(header, data)}


def _nice_tick(span: float) -> float:
    """Largest of {1, 2, 5} x 10^k giving at most ~8 ticks over span."""
    raw = span / 8.0
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for m in (1.0, 2.0, 5.0, 10.0):
        if mag * m >= raw:
            return mag * m
    return mag * 10.0


def render_svg(points: np.ndarray, annotation: str) -> str:
    """Deterministic 720-px-wide SVG of a closed curve with equal-aspect axes and ticks."""
    width = 720
    pts = np.asarray(points, dtype=float)
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    span_x = xmax - xmin
    span_y = ymax - ymin
    pad = 0.08 * max(span_x, span_y)
    xmin, xmax = xmin - pad, xmax + pad
    ymin, ymax = ymin - pad, ymax + pad
    scale = (width - 2.0) / (xmax - xmin)
    height = int(math.ceil((ymax - ymin) * scale)) + 30

    def X(x):
        return (x - xmin) * scale + 1.0

    def Y(y):
        return (ymax - y) * scale + 1.0

    f = lambda v: format(v, ".3f")
    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    # axes through the origin
    out.append(
        f'<line x1="{f(X(xmin))}" y1="{f(Y(0))}" x2="{f(X(xmax))}" y2="{f(Y(0))}" '
        'stroke="#888" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{f(X(0))}" y1="{f(Y(ymin))}" x2="{f(X(0))}" y2="{f(Y(ymax))}" '
        'stroke="#888" stroke-width="1"/>'
    )
    tick = _nice_tick(max(xmax - xmin, ymax - ymin))
    t = math.ceil(xmin / tick) * tick
    while t <= xmax:
        if abs(t) > 1e-12:
            out.append(
                f'<line x1="{f(X(t))}" y1="{f(Y(0) - 4)}" x2="{f(X(t))}" '
                f'y2="{f(Y(0) + 4)}" stroke="#888" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{f(X(t))}" y="{f(Y(0) + 16)}" font-size="11" '
                f'text-anchor="middle" fill="#444">{format(t, "g")}</text>'
            )
        t += tick
    t = math.ceil(ymin / tick) * tick
    while t <= ymax:
        if abs(t) > 1e-12:
            out.append(
                f'<line x1="{f(X(0) - 4)}" y1="{f(Y(t))}" x2="{f(X(0) + 4)}" '
                f'y2="{f(Y(t))}" stroke="#888" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{f(X(0) + 7)}" y="{f(Y(t) + 4)}" font-size="11" '
                f'fill="#444">{format(t, "g")}</text>'
            )
        t += tick
    d = "M " + " L ".join(f"{f(X(x))},{f(Y(y))}" for x, y in pts) + " Z"
    out.append(f'<path d="{d}" fill="none" stroke="#c22" stroke-width="1.6"/>')
    out.append(
        f'<text x="{f(width / 2)}" y="{f(height - 8)}" font-size="12" '
        f'text-anchor="middle" fill="#222">{annotation}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def build_mesh(traj: Trajectory, n_theta: int = 128, n_profile: int = 256):
    """Watertight triangle mesh of the revolved, reflected profile.

    Vertex count is n_theta * (2 n_profile - 1) + 2 (interior rings plus
    the two poles).
    """
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


def write_obj(path, verts: np.ndarray, faces: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fh:
        for v in verts:
            fh.write(f"v {fmt17(v[0])} {fmt17(v[1])} {fmt17(v[2])}\n")
        for f in faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
