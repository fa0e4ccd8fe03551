"""File emitters: profile CSV, JSON reports, SVG cross-sections, OBJ meshes.

All output is deterministic for fixed input: floats are printed with 17
significant digits (shortest round-trip safe), separators and line ends
are fixed, and nothing carries timestamps.
"""

from __future__ import annotations

import functools
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from .analysis import _quarter_profile, curvature_geometry, mirror_quarter
from .solver import EQUATOR, STEEP, Trajectory

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "fmt17",
    "profile_rows",
    "write_profile_csv",
    "read_profile_csv",
    "write_json",
    "render_svg",
    "Mesh",
    "build_mesh",
    "write_obj",
]

PROFILE_COLUMNS = ("r", "z", "w", "kappa_m", "kappa_l", "H", "K")
_CHUNK_ROWS = 4096  # rows per write: bounds the text held at once
_FACE_ROWS = 4 * _CHUNK_ROWS  # OBJ face lines per write, each about 20 bytes


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


@functools.cache
def _sorted_fields(cls):
    """The field names of ``cls``, sorted, when it is a record type, a
    tuple subclass with ``_fields`` as ``NamedTuple`` makes, else None:
    read once per type rather than once per object walked."""
    if issubclass(cls, tuple) and hasattr(cls, "_fields"):
        return tuple(sorted(cls._fields))
    return None


def write_json(path, payload) -> None:
    """``payload`` as JSON: the text ``json.dumps(x, sort_keys=True,
    indent=2)`` gives for its JSON-ready copy x, and a newline.  In x
    every named tuple (a ``NamedTuple`` record or a
    ``collections.namedtuple``) is the object of its fields, not the list
    of its values, an ndarray the list ``tolist`` gives, a numpy scalar
    its ``item()``, whose NaN reads ``NaN``, and any other float NaN is
    ``null``; any other object, a dataclass instance too, raises
    ``TypeError`` as ``json.dumps`` does.  The text is built in one walk
    (``_json_text``), with no copy made."""
    out: list[str] = []
    _json_text(payload, out, "\n")
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(out) + "\n")


def _json_float(x: float) -> str:
    """``json``'s text of a float: its repr, ``NaN``, ``Infinity`` or
    ``-Infinity``."""
    if x != x:
        return "NaN"
    if x == math.inf or x == -math.inf:
        return "Infinity" if x > 0.0 else "-Infinity"
    return float.__repr__(x)


def _json_text(obj, out: list, nl: str) -> None:
    """Append the JSON text of ``obj`` (see ``write_json``) to ``out``;
    ``nl`` is the newline and indentation of obj's depth."""
    t = type(obj)
    if t is float:
        out.append("null" if obj != obj else _json_float(obj))
    elif t is str:
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif t is int:
        out.append(int.__repr__(obj))
    elif (names := _sorted_fields(t)) is not None:
        _json_members([(name, getattr(obj, name)) for name in names], out, nl)
    elif isinstance(obj, dict):
        _json_members(sorted(obj.items()), out, nl)
    elif isinstance(obj, (list, tuple)):
        _json_elements(obj, out, nl)
    else:
        import numpy as np
        if isinstance(obj, np.ndarray):
            _json_elements(list(obj.tolist()), out, nl)
        elif isinstance(obj, np.generic):
            value = obj.item()
            if isinstance(value, float):
                out.append(_json_float(value))
            else:
                _json_text(value, out, nl)
        elif isinstance(obj, float):
            out.append("null" if obj != obj else _json_float(obj))
        elif isinstance(obj, str):
            out.append(encode_basestring_ascii(obj))
        elif isinstance(obj, int):
            out.append(int.__repr__(obj))
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _json_elements(seq, out: list, nl: str) -> None:
    if not seq:
        out.append("[]")
        return
    inner = nl + "  "
    sep = "," + inner
    out.append("[" + inner)
    for i, value in enumerate(seq):
        if i:
            out.append(sep)
        _json_text(value, out, inner)
    out.append(nl + "]")


def _json_members(items, out: list, nl: str) -> None:
    if not items:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "," + inner
    out.append("{" + inner)
    for i, (key, value) in enumerate(items):
        if i:
            out.append(sep)
        if isinstance(key, str):
            text = key
        elif isinstance(key, float):
            text = _json_float(key)
        elif key is None or isinstance(key, int):
            text = json.dumps(key)
        else:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        out.append(encode_basestring_ascii(text) + ": ")
        _json_text(value, out, inner)
    out.append(nl + "}")


def profile_rows(traj: Trajectory):
    """Profile samples as an (n, 7) array of (r, z, w, kappa_m, kappa_l, H, K).

    One row on the axis, 1024 rows spaced evenly in r on (0, r_switch],
    where the ``Steep`` event or the end of a run without one is, and, if
    the run passed that event, 512 spaced evenly in z from there to its
    end.  Rows below the start come from the axis series; w = tan psi, and
    on the final row of an equator run, where psi = -pi/2, w is -inf.
    """
    import numpy as np
    rs = np.linspace(0.0, traj.switch.state[0], 1025)[1:]
    Y = traj.arc_eval(rs)
    Y[:, 0] = rs  # the queried radii, which r(s(r)) gives to rounding
    parts = [Y]
    steep = traj.first_event(STEEP)
    if steep is not None:
        zs = np.linspace(steep.state[1], traj.events[-1].state[1], 513)[1:]
        Y = traj.chart_a.eval_many(traj.s_at_z(zs))
        Y[:, 1] = zs
        parts.append(Y)
    Y = np.concatenate(parts)
    w = np.sin(Y[:, 2]) / np.cos(Y[:, 2])
    if traj.status == EQUATOR:
        w[-1] = -np.inf
    w0p = traj.w0p
    return np.concatenate([[[0.0, 0.0, 0.0, w0p, w0p, w0p, w0p * w0p]],
                           np.stack([Y[:, 0], Y[:, 1], w, *curvature_geometry(Y)], axis=1)])


def write_profile_csv(path, traj: Trajectory) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(PROFILE_COLUMNS) + "\n")
        _write_rows(fh, ",".join(["%.17g"] * len(PROFILE_COLUMNS)) + "\n",
                    profile_rows(traj))


def read_profile_csv(path) -> dict[str, np.ndarray]:
    """Columns of a profile CSV by header name; a file without data rows
    gives one empty column per name."""
    import numpy as np
    with open(path, "r", newline="\n") as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    if not body.strip():
        return {name: np.empty(0) for name in header}
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return dict(zip(header, data.T))


def _nice_tick(span: float) -> float:
    """Largest of {1, 2, 5} x 10^k giving at most ~8 ticks over span."""
    raw = span / 8.0
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for m in (1.0, 2.0, 5.0, 10.0):
        if mag * m >= raw:
            return mag * m
    return mag * 10.0


def render_svg(points: np.ndarray, annotation: str) -> str:
    """Deterministic 720-px-wide SVG of a closed curve with equal-aspect axes
    and ticks, captioned with ``annotation`` (XML-escaped)."""
    import numpy as np
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
    # X and Y on the coordinate columns: the same IEEE operations per point
    xy = np.stack([X(pts[:, 0]), Y(pts[:, 1])], axis=1)
    d = "M " + " L ".join(["%.3f,%.3f"] * len(xy)) % tuple(xy.ravel().tolist()) + " Z"
    out.append(f'<path d="{d}" fill="none" stroke="#c22" stroke-width="1.6"/>')
    # the text xml.sax.saxutils.escape gives, without importing it (it pulls
    # in urllib.request: 30 ms and 6 MB of RSS per command)
    caption = annotation.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    out.append(
        f'<text x="{f(width / 2)}" y="{f(height - 8)}" font-size="12" '
        f'text-anchor="middle" fill="#222">{caption}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


class Mesh(NamedTuple):
    """Revolved surface: profile point i sits at height z[i] and radius
    r[min(i, len(z) - 1 - i)], the profile being mirrored at the equator.
    Points 0 and -1 are the poles, each other point is a ring of n_theta
    vertices, vertex k of a ring of radius r at (r cos_k, r sin_k) from
    the exactly symmetric ``_angle_table(n_theta)``; ``faces`` holds
    0-based indices into pole, rings, pole."""

    r: np.ndarray
    z: np.ndarray
    n_theta: int
    faces: np.ndarray

    @property
    def n_verts(self) -> int:
        return self.n_theta * (len(self.z) - 2) + 2


def build_mesh(traj: Trajectory, n_theta: int = 128, n_profile: int = 256) -> Mesh:
    """Watertight triangle mesh of the revolved, reflected profile:
    n_theta * (2 n_profile - 1) + 2 vertices."""
    import numpy as np
    r, Z = _quarter_profile(traj, n_profile).T  # n_profile + 1 points
    # pole..equator..pole: the first 2 n_profile + 1 points of the closed curve
    z = mirror_quarter(r, Z)[: 2 * len(r) - 1, 1]

    k = np.arange(n_theta, dtype=np.int64)
    k1 = (k + 1) % n_theta
    start = 1 + n_theta * np.arange(len(z) - 2, dtype=np.int64)[:, None]
    a, b = start[:-1] + k, start[:-1] + k1  # quad corners on ring j
    c, d = a + n_theta, b + n_theta  # and on ring j + 1
    last = start[-1, 0] + n_theta  # the far pole follows the last ring
    return Mesh(r, z, n_theta, np.concatenate([
        np.stack([np.zeros_like(k), 1 + k, 1 + k1], axis=1),
        np.stack([a, c, d, a, d, b], axis=-1).reshape(-1, 3),
        np.stack([np.full_like(k, last), start[-1] + k1, start[-1] + k], axis=1),
    ]))


def _write_rows(fh, fmt: str, rows) -> None:
    """Write ``fmt`` %-formatted with each row of a 2-D array, one ``write``
    per ``_CHUNK_ROWS`` rows."""
    import numpy as np
    rows = np.asarray(rows)
    for i in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[i:i + _CHUNK_ROWS]
        fh.write(fmt * len(chunk) % tuple(chunk.ravel().tolist()))


def write_obj(path, mesh: Mesh) -> None:
    """OBJ text of ``mesh``: its vertices (floats in ``%.17g``) and its
    faces as 1-based ``f a b c`` lines.  The vertex block formats, per
    radius, only the products of r with the distinct magnitudes of the
    angle table: 33 numbers at n_theta = 128, not 256."""
    with open(path, "w", newline="\n") as fh:
        _write_vertices(fh, mesh)
        _write_faces(fh, mesh.faces, mesh.n_verts)


def _write_faces(fh, faces, n_verts: int) -> None:
    """Face lines ``f a b c`` of the 1-based indices ``faces + 1``, the text
    ``"f %d %d %d\\n"`` gives, without formatting each index: row i of a
    table holds the decimal text of i = 1..n_verts, padded on the left with
    NUL bytes to one width, and each line is assembled from three table
    rows by ``take``; dropping the NULs leaves the text.  One ``write`` per
    ``_FACE_ROWS`` lines."""
    import numpy as np
    width = len(str(n_verts))
    idx = np.arange(n_verts + 1, dtype=np.min_scalar_type(n_verts))
    table = np.empty((n_verts + 1, width), np.uint8)
    for col in range(width):  # one digit column at a time, most significant first
        q = idx // 10 ** (width - 1 - col)
        table[:, col] = q % 10 + ord("0")
        table[q == 0, col] = 0  # a leading zero (row 0, never written, is all NUL)
    table = table.view(f"V{width}").ravel()
    line = np.dtype([("f", "S2"), ("a", table.dtype), ("s1", "S1"), ("b", table.dtype),
                     ("s2", "S1"), ("c", table.dtype), ("nl", "S1")])
    for i in range(0, len(faces), _FACE_ROWS):
        chunk = faces[i:i + _FACE_ROWS] + 1
        rec = np.empty(len(chunk), line)
        rec["f"], rec["s1"], rec["s2"], rec["nl"] = b"f ", b" ", b" ", b"\n"
        for name, col in zip("abc", chunk.T):
            rec[name] = table.take(col)
        text = rec.view(np.uint8)
        fh.write(text[text != 0].tobytes().decode("ascii"))


def _angle_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k / n, k = 0..n-1, with the n-gon's symmetry
    exact: each angle is reduced to the first octant in integers (in units
    of a quarter turn / n, angle k is m = 4k; its quadrant and remainder
    are ``divmod(m, n)``, and a remainder t past the octant reflects to
    n - t with cos and sin swapped), cos and sin are taken there and
    reflected back.  So c[n-k] = c[k], s[n-k] = -s[k], s is c rolled by a
    quarter turn when 4 divides n, cos = sin at 45 degrees, the axis
    entries are exactly 0 and +-1, and no entry is -0."""
    import numpy as np
    q, t = np.divmod(4 * np.arange(n, dtype=np.int64), n)
    flip = 2 * t > n
    u = np.where(flip, n - t, t)  # 0 <= u <= n/2: the first octant
    a = math.pi * u / (2 * n)
    c, s = np.cos(a), np.sin(a)
    s = np.where(2 * u == n, c, s)  # 45 degrees: one value for both
    c, s = np.where(flip, s, c), np.where(flip, c, s)
    cos = np.choose(q, [c, -s, -c, s]) + 0.0
    sin = np.choose(q, [s, c, -s, -c]) + 0.0
    return cos, sin


def _write_vertices(fh, mesh: Mesh) -> None:
    """Vertex lines from the distinct magnitudes of the angle table (33 at
    n_theta = 128): per radius r, the products r * |m| are formatted in one
    ``%.17g`` call and placed by one ``str.format`` template of the mesh,
    with a ``-`` for each negative table entry (r * -m is -(r * m) exactly),
    and ``z`` (in no ``%.17g`` text) as the z field.  Each ring fills in its
    z; the ring texts are freed before the faces."""
    import numpy as np
    xy = np.stack(_angle_table(mesh.n_theta), axis=1).ravel()
    mag, idx = np.unique(np.abs(xy), return_inverse=True)
    sign = np.where(xy < 0, "-", "").tolist()
    template = "".join(
        f"v {sx}{{{ix}}} {sy}{{{iy}}} z\n" for sx, ix, sy, iy in
        zip(sign[::2], idx[::2].tolist(), sign[1::2], idx[1::2].tolist()))
    fmt = "%.17g " * len(mag)
    r = mesh.r[1:, None]  # the axis radius 0 holds only the poles
    rings = [template.format(*(fmt % tuple(row)).split()) for row in (r * mag).tolist()]
    z = mesh.z.tolist()
    last = len(z) - 1
    fh.write("v 0 0 %.17g\n" % z[0])
    for i in range(1, last):
        fh.write(rings[min(i, last - i) - 1].replace("z", "%.17g" % z[i]))
    fh.write("v 0 0 %.17g\n" % z[last])
