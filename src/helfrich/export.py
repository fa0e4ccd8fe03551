"""File emitters: profile CSV, JSON reports, SVG cross-sections, OBJ meshes.

All output is deterministic for fixed input: floats are printed with
``%.17g`` (round-trip safe, not shortest: 0.1 is 0.10000000000000001),
separators and line ends are fixed, and nothing carries timestamps.
"""

from __future__ import annotations

import functools
import io
import math
import operator
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from .analysis import _quarter_profile, curvature_geometry, mirror_quarter
from .solver import EQUATOR, Trajectory

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
_CHUNK_ROWS = 4096  # OBJ vertex lines per write: bounds the text held at once
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
    indent=2)`` gives for its JSON-ready copy x, and a newline.  The
    payload holds str-keyed dicts, lists, tuples, named tuples (a
    ``NamedTuple`` record or a ``collections.namedtuple``), floats, ints,
    bools, str and None.  In x every named tuple is the object of its
    fields, not the list of its values, and a float NaN is ``null``; any
    other value or key, an ndarray, a numpy scalar or a dataclass
    instance too, raises ``TypeError``.  The text is built in one walk
    (``_json_text``), with no copy made."""
    out: list[str] = []
    _json_text(payload, out, "\n")
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(out) + "\n")


def _json_float(x: float) -> str:
    """``json``'s text of a float that is not NaN: its repr, ``Infinity``
    or ``-Infinity``."""
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
        _json_items([(name, getattr(obj, name)) for name in names], True, out, nl)
    elif isinstance(obj, dict):
        _json_items(sorted(obj.items()), True, out, nl)
    elif isinstance(obj, (list, tuple)):
        _json_items(obj, False, out, nl)
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _json_items(items, keyed: bool, out: list, nl: str) -> None:
    """Append a list's ``items``, or with ``keyed`` an object's (key,
    value) items, between brackets, one to a line indented from ``nl``."""
    opening, closing = "{}" if keyed else "[]"
    if not items:
        out.append(opening + closing)
        return
    inner = nl + "  "
    sep = opening + inner
    for value in items:
        out.append(sep)
        sep = "," + inner
        if keyed:
            key, value = value
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(encode_basestring_ascii(key) + ": ")
        _json_text(value, out, inner)
    out.append(nl + closing)


def profile_rows(traj: Trajectory):
    """Profile samples as an (n, 7) array of (r, z, w, kappa_m, kappa_l, H, K).

    One row on the axis and 1536 rows spaced evenly in arc length on
    (0, s_end], s_end the run's terminal event, whatever its status
    (``Trajectory.state_at``: the axis series at r = s below the start).
    w = tan psi, and on the final row of an equator run, where
    psi = -pi/2, w is -inf.
    """
    import numpy as np
    Y = traj.state_at(np.linspace(0.0, traj.events[-1].x, 1537)[1:])
    w = np.sin(Y[:, 2]) / np.cos(Y[:, 2])
    if traj.status == EQUATOR:
        w[-1] = -np.inf
    w0p = traj.w0p
    return np.concatenate([[[0.0, 0.0, 0.0, w0p, w0p, w0p, w0p * w0p]],
                           np.stack([Y[:, 0], Y[:, 1], w, *curvature_geometry(Y)], axis=1)])


def write_profile_csv(path, traj: Trajectory) -> None:
    with open(path, "wb") as fh:
        fh.write(",".join(PROFILE_COLUMNS).encode() + b"\n")
        _write_rows(fh, b",".join([b"%.17g"] * len(PROFILE_COLUMNS)) + b"\n",
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
    r[min(i, len(z) - 1 - i)] >= +0 (``_write_vertices``' signs need it),
    the profile being mirrored at the equator.  Points 0 and -1 are the
    poles, each other point a ring of n_theta vertices, vertex k of a ring
    of radius r at (r cos_k, r sin_k) from ``_angle_table(n_theta)``; the
    faces follow from n_theta and the ring count (``_write_faces``)."""

    r: np.ndarray
    z: np.ndarray
    n_theta: int

    @property
    def n_verts(self) -> int:
        return self.n_theta * (len(self.z) - 2) + 2

    @property
    def n_faces(self) -> int:
        return 2 * self.n_theta * (len(self.z) - 2)


def build_mesh(traj: Trajectory, n_theta: int = 128, n_profile: int = 256) -> Mesh:
    """Watertight triangle mesh of the revolved, reflected profile:
    n_theta * (2 n_profile - 1) + 2 vertices."""
    r, Z = _quarter_profile(traj, n_profile).T  # n_profile + 1 points
    # pole..equator..pole: the first 2 n_profile + 1 points of the closed curve
    return Mesh(r, mirror_quarter(r, Z)[: 2 * len(r) - 1, 1], n_theta)


def _write_rows(fh, fmt: bytes, rows) -> None:
    """Write the bytes ``fmt`` %-formatted with each row of the 2-D array
    ``rows`` to the binary file ``fh``, in one ``%`` and one ``write``: a
    profile's 1,537 rows are about 0.22 MB of text."""
    fh.write(fmt * len(rows) % tuple(rows.ravel().tolist()))


def write_obj(path, mesh: Mesh) -> None:
    """OBJ text of ``mesh`` as bytes: vertices in ``%.17g`` (per radius, r
    times the angle table's 33 magnitudes at n_theta = 128, in a signed ring
    template), faces as 1-based ``f a b c`` lines with no index formatted.
    It holds one ring text per radius (1.4 MB at 128 x 256) and one chunk."""
    with open(path, "wb") as fh:
        _write_vertices(fh, mesh)
        _write_faces(fh, mesh.n_theta, len(mesh.z) - 2)


def _index_table(n_verts: int):
    """The decimal text of i = 1..n_verts in row i, NUL-padded on the left
    to one width (row 0 all NUL), one numpy void item per row: built with
    one axis per digit, column col holding axis col's digits."""
    import numpy as np
    width = len(str(n_verts))
    t = np.empty((n_verts // 10 ** (width - 1) + 1,) + (10,) * (width - 1) + (width,), np.uint8)
    for col in range(width):
        t[..., col] = np.arange(48, 48 + t.shape[col]).reshape((-1,) + (1,) * (width - 1 - col))
        t[(0,) * (col + 1)][..., col] = 0  # a leading zero
    return t.reshape(-1, width)[:n_verts + 1].view(f"V{width}").ravel()


def _write_faces(fh, n_theta: int, n_rings: int) -> None:
    """Face lines of ``n_rings`` rings of ``n_theta`` vertices between two
    poles, the bytes ``"f %d %d %d\\n"`` gives, with no index formatted:
    with M the ring rows of ``_index_table`` as a (n_rings, n_theta) matrix
    and R = M rolled by one vertex, band j's lines ``f a c d`` and ``f a d b``
    (a, b = M[j], R[j]; c, d = M[j + 1], R[j + 1]) are records filled by
    slices, one chunk of bands per write, with NULs to drop only in the pole
    fans and in a chunk whose smallest index is narrower than the table."""
    import numpy as np
    table = _index_table(n_theta * n_rings + 2)
    M = table[2:-1].reshape(n_rings, n_theta)
    R = np.roll(M, -1, axis=1)
    step = max(1, _FACE_ROWS // (2 * n_theta))  # bands per chunk
    rec = np.empty((max(1, min(step, n_rings - 1)), n_theta, 2), [
        ("f", "S2"), ("a", table.dtype), ("s1", "S1"), ("b", table.dtype), ("s2", "S1"),
        ("c", table.dtype), ("nl", "S1")])
    rec["f"], rec["s1"], rec["s2"], rec["nl"] = b"f ", b" ", b" ", b"\n"
    fan = rec[0, :, 0]
    fan["a"], fan["b"], fan["c"] = table[1], M[0], R[0]
    fh.write(fan.tobytes().translate(None, b"\0"))
    for j in range(0, n_rings - 1, step):
        k = min(j + step, n_rings - 1)
        rec["a"][:k - j] = M[j:k, :, None]
        rec["b"][:k - j, :, 0] = M[j + 1:k + 1]
        rec["c"][:k - j, :, 0] = rec["b"][:k - j, :, 1] = R[j + 1:k + 1]
        rec["c"][:k - j, :, 1] = R[j:k]
        narrow = 2 + n_theta * j < 10 ** (table.itemsize - 1)
        fh.write(rec[:k - j].tobytes().translate(None, b"\0") if narrow else rec[:k - j])
    fan["a"], fan["b"], fan["c"] = table[-1], R[-1], M[-1]
    fh.write(fan.tobytes().translate(None, b"\0"))


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
    """Vertex lines from the distinct magnitudes m of the angle table (33 at
    n_theta = 128): per radius r, one bytes ``%.17g`` call formats r * m and
    one itemgetter picks each x/y field's text into a ring template whose
    ``v %s %s z`` lines carry the table's signs as ``-`` bytes (r * -m is
    -(r * m) exactly: no entry is -0, r >= +0), ``z`` standing for the ring's
    z.  The rings are joined and written ``_CHUNK_ROWS`` lines or more at a time."""
    import numpy as np
    xy = np.stack(_angle_table(mesh.n_theta), axis=1)
    mag, idx = np.unique(np.abs(xy), return_inverse=True)
    pick = operator.itemgetter(*idx.ravel().tolist())  # 2 n_theta >= 2 keys: a tuple
    fmt, line = b"%.17g " * len(mag), b"v %s %s z\n" * mesh.n_theta
    line %= tuple(np.where(xy < 0.0, b"-%s", b"%s").ravel().tolist())
    texts = [b"v 0 0 z\n"]  # the poles', then one per ring radius (r[0] = 0 is the axis)
    for row in (mesh.r[1:, None] * mag).tolist():
        texts.append(line % pick((fmt % tuple(row)).split()))
    z, last = mesh.z.tolist(), len(mesh.z) - 1
    step = -(-_CHUNK_ROWS // mesh.n_theta)  # rings per write
    cuts = [0, *range(1 + step, last, step), len(z)]
    for lo, hi in zip(cuts, cuts[1:]):
        fh.write(b"".join([texts[min(i, last - i)].replace(b"z", b"%.17g" % z[i])
                           for i in range(lo, hi)]))
