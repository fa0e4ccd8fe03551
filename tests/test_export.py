"""The array emitters write the same bytes as element-by-element loops,
and the one-walk JSON writer the text of a JSON-ready copy dumped by
``json.dumps``."""

import dataclasses
import io
import json
import math
import tracemalloc
from collections import namedtuple

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helfrich import HelfrichParams, SolverConfig, bounds, cli, export, integrate
from helfrich.bounds import CheckRecord
from helfrich.export import (
    _CHUNK_ROWS,
    _FACE_ROWS,
    PROFILE_COLUMNS,
    Mesh,
    _angle_table,
    _index_table,
    _write_faces,
    _write_vertices,
    build_mesh,
    fmt17,
    profile_rows,
    read_profile_csv,
    render_svg,
    write_json,
    write_obj,
    write_profile_csv,
)
from oracles import (
    build_mesh_loops,
    json_via_copy,
    mesh_faces_loops,
    svg_path_loops,
    write_obj_loops,
    write_profile_csv_loops,
)
from test_golden import GOLDEN


@pytest.fixture(scope="module")
def blowup_traj():
    # a run that blows up to +w_switch
    return integrate(HelfrichParams(5.0, 0.0, 0.1), 1.0)


@pytest.mark.parametrize("status", ["BlowUpPositive", "Aborted"])
def test_profile_rows_of_a_run_without_equator(status, blowup_traj):
    """A run that ends without an equator gets the layout of every run:
    the axis row and 1536 rows evenly in arc length up to its terminal
    event, r rising along them, and the last row at that event's r and z."""
    traj = (blowup_traj if status == "BlowUpPositive"
            else integrate(HelfrichParams(1.0, 0.25, 1.0), 0.05, SolverConfig(max_steps=10)))
    assert traj.status == status
    rows = profile_rows(traj)
    assert rows.shape == (1 + 1536, len(PROFILE_COLUMNS))
    assert np.all(np.diff(rows[:, 0]) > 0.0)
    assert rows[-1, :2] == pytest.approx(traj.events[-1].state[:2], rel=1e-14, abs=0.0)
    assert np.isfinite(rows).all()


@pytest.mark.parametrize("n_theta, n_profile", [
    (3, 8), (7, 9), (128, 256), (1, 1), (2, 1), (5, 1), (1, 5), (100, 60), (40, 700)])
def test_mesh_obj_bytes_match_loops(ref_traj, n_theta, n_profile, tmp_path):
    mesh = build_mesh(ref_traj, n_theta, n_profile)
    ref_verts, ref_faces = build_mesh_loops(ref_traj, n_theta, n_profile)
    write_obj(tmp_path / "new.obj", mesh)
    write_obj_loops(tmp_path / "ref.obj", ref_verts, ref_faces)
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_angle_table_within_3_ulp_of_mpmath():
    """Every entry is within 3 ulp of the 40-digit value, and exactly 0 or
    +-1 where that is the true value (the axis angles, 4k a multiple of n)."""
    worst = 0.0
    with mpmath.workdps(40):
        for n in [*range(3, 200), 256, 1000]:
            cos, sin = _angle_table(n)
            for k in range(n):
                theta = 2 * mpmath.pi * k / n
                for got, true in ((cos[k], mpmath.cos(theta)), (sin[k], mpmath.sin(theta))):
                    if 4 * k % n == 0:
                        assert got == int(mpmath.nint(true)), (n, k)
                    else:
                        worst = max(worst, float(abs(got - true)) / math.ulp(float(true)))
    assert worst <= 3.0, worst


def test_angle_table_symmetries_bit_exact():
    """c[n-k] = c[k], s[n-k] = -s[k], s is c a quarter turn on when 4 | n,
    cos = sin at 45 degrees when 8 | n, and no entry is -0."""
    for n in [*range(3, 200), 256, 1000]:
        cos, sin = _angle_table(n)
        k = np.arange(1, n)
        assert cos[n - k].tobytes() == cos[k].tobytes(), n
        assert sin[n - k].tobytes() == (0.0 - sin[k]).tobytes(), n  # 0.0 - 0.0 is +0
        if n % 4 == 0:
            assert sin.tobytes() == np.roll(cos, n // 4).tobytes(), n
        if n % 8 == 0:
            assert cos[n // 8] == sin[n // 8], n
        both = np.concatenate([cos, sin])
        assert not np.signbit(both[both == 0]).any(), n


def test_default_mesh_obj_has_33_magnitudes_and_no_negative_zero(ref_traj, tmp_path):
    cos, sin = _angle_table(128)
    assert len(np.unique(np.abs(np.concatenate([cos, sin])))) == 33
    write_obj(tmp_path / "mesh.obj", build_mesh(ref_traj))
    with open(tmp_path / "mesh.obj") as fh:
        fields = [tok for line in fh if line.startswith("v ") for tok in line.split()[1:]]
    assert len(fields) == 3 * (128 * 511 + 2)
    assert "-0" not in fields and "0" in fields


@pytest.mark.parametrize("n_theta", [1, 2, 3, 4, 5, 6, 8, 12, 128])
def test_vertex_block_matches_percent_g(n_theta):
    """The vertex block is the text ``"v %.17g %.17g %.17g\\n"`` gives over
    r[min(i, last - i)] * (cos, sin) and z[i], with the poles at (0, 0, z),
    where the products take exponent form (1e-7, 3e-5, 2.5e20), integer
    form (1.0, 3.0) and a sign, and the heights are negative or tiny.  A
    ring of radius 0.0 reads ``-0`` where the table entry is negative and
    ``0`` where it is exactly 0, as ``%.17g`` of the products gives."""
    r = np.array([0.0, 1e-7, 3e-5, 0.0, 1.0, 3.0, 0.7, 2.5e20])
    z = np.array([1e-300, -0.25, 3e-5, 0.5, -1e-300, 0.0, -7.5, 2.5e20,
                  -1e-7, 1.0, 5e-324, -3.0, 0.125, -2.0, -1e-300])
    assert len(z) == 2 * len(r) - 1
    cos, sin = _angle_table(n_theta)
    last = len(z) - 1
    want = ["v 0 0 %.17g\n" % z[0]]
    for i in range(1, last):
        ri = r[min(i, last - i)]
        want += ["v %.17g %.17g %.17g\n" % (ri * c, ri * s, z[i]) for c, s in zip(cos, sin)]
    want.append("v 0 0 %.17g\n" % z[last])
    fh = io.BytesIO()
    _write_vertices(fh, Mesh(r, z, n_theta))
    assert fh.getvalue() == "".join(want).encode()
    assert b"e-" in fh.getvalue() and b"e+" in fh.getvalue()
    zero_ring = "".join("v %s %s 0.5\n" % ("-0" if c < 0.0 else "0", "-0" if s < 0.0 else "0")
                        for c, s in zip(cos, sin))
    assert zero_ring.encode() in fh.getvalue()
    assert (b"v -0 " in fh.getvalue()) == (cos < 0.0).any()


class _WriteLog(io.BytesIO):
    """A binary file that keeps the bytes of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, b):
        self.writes.append(bytes(memoryview(b)))
        return super().write(b)


def test_write_obj_writes_the_vertex_block_in_chunks(ref_traj, monkeypatch):
    """On the default mesh the vertex block takes at most
    ceil(n_verts / _CHUNK_ROWS) + 2 writes, and each vertex write but the
    last holds at least ``_CHUNK_ROWS`` lines: no write per ring."""
    log = _WriteLog()
    monkeypatch.setattr(export, "open", lambda path, mode: log, raising=False)
    mesh = build_mesh(ref_traj)
    write_obj("mesh.obj", mesh)
    n = sum(w.startswith(b"v ") for w in log.writes)  # vertex writes, then face writes
    assert all(w.startswith(b"v ") and b"\nf " not in w for w in log.writes[:n])
    lines = [w.count(b"\n") for w in log.writes[:n]]
    assert sum(lines) == mesh.n_verts == 65_410
    assert len(lines) <= -(-mesh.n_verts // _CHUNK_ROWS) + 2
    assert min(lines[:-1]) >= _CHUNK_ROWS


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_theta=st.integers(3, 48), n_profile=st.integers(8, 48))
def test_mesh_obj_bytes_match_loops_property(ref_traj, n_theta, n_profile, tmp_path):
    """The format-once writer matches the vertex-by-vertex oracle at odd and
    even sizes, and the oracle's mesh has the mirror symmetry the writer
    relies on: ring j and ring 2 n_profile - 2 - j have bit-equal x and y."""
    ref_verts, ref_faces = build_mesh_loops(ref_traj, n_theta, n_profile)
    rings = ref_verts[1:-1].reshape(2 * n_profile - 1, n_theta, 3)
    assert rings[:, :, :2].tobytes() == rings[::-1, :, :2].tobytes()
    mesh = build_mesh(ref_traj, n_theta, n_profile)
    assert mesh.n_verts == len(ref_verts)
    write_obj(tmp_path / "new.obj", mesh)
    write_obj_loops(tmp_path / "ref.obj", ref_verts, ref_faces)
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


@pytest.mark.parametrize("which", ["biconcave", "blowup"])
def test_profile_csv_bytes_match_loops(which, ref_traj, blowup_traj, tmp_path):
    traj = ref_traj if which == "biconcave" else blowup_traj
    write_profile_csv(tmp_path / "new.csv", traj)
    write_profile_csv_loops(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_rows_bytes_match_fmt17_on_special_values():
    """``_write_rows`` with the bytes profile template writes, for values no
    run produces (+-inf, nan, +-0, the smallest subnormal, 1e300, 1/3,
    -2.5e-7), the text the per-value ``fmt17`` loop writes, on more rows
    than a profile holds."""
    values = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e300, 1 / 3, -2.5e-7]
    rows = np.resize(np.array(values), (_CHUNK_ROWS + 3, len(PROFILE_COLUMNS)))
    fh = io.BytesIO()
    export._write_rows(fh, b",".join([b"%.17g"] * len(PROFILE_COLUMNS)) + b"\n", rows)
    want = "".join(",".join(fmt17(v) for v in row) + "\n" for row in rows)
    assert fh.getvalue() == want.encode()
    assert set(want[:-1].replace("\n", ",").split(",")) == {
        "inf", "-inf", "nan", "0", "-0", "4.9406564584124654e-324", "1.0000000000000001e+300",
        "0.33333333333333331", "-2.4999999999999999e-07"}


def test_read_profile_csv_round_trip_bit_exact(ref_traj, tmp_path):
    write_profile_csv(tmp_path / "profile.csv", ref_traj)
    assert (tmp_path / "profile.csv").read_bytes().startswith(b"r,z,w,kappa_m,kappa_l,H,K\n0,0,0,")
    cols = read_profile_csv(tmp_path / "profile.csv")
    rows = profile_rows(ref_traj)
    assert list(cols) == list(PROFILE_COLUMNS)
    for i, name in enumerate(PROFILE_COLUMNS):
        assert cols[name].tobytes() == rows[:, i].tobytes()


def _factor(m):
    """(n_theta, n_bands) with n_theta * n_bands = m and n_theta its
    smallest factor above 1: a ring of several vertices where m allows."""
    n_theta = next(k for k in range(2, m + 1) if m % k == 0)
    return n_theta, m // n_theta


def _width_cases():
    """(n_theta, n_rings, face_rows) at which the 1-based indices reach
    each power of ten 10^e, e = 1..5, or stop just below it: n_verts is
    10^e - 1 or 10^e at the default chunk size, or a chunk of bands
    starts at index 10^e - 1 or 10^e of a mesh whose widest index has
    e + 1 digits (its second chunk, with n_theta * bands = 10^e - 3 or
    10^e - 2 per chunk).  And a mesh of one ring (no band), of one vertex
    per ring, of exactly one chunk and of one chunk and one band."""
    cases = []
    for e in range(1, 6):
        for t in (10 ** e - 1, 10 ** e):
            n_theta, m = _factor(t - 2)
            cases += [(n_theta, m, _FACE_ROWS), (n_theta, 2 * m + 1, 2 * n_theta * m)]
    step = _FACE_ROWS // 256
    return cases + [(128, 1, _FACE_ROWS), (1, 5, _FACE_ROWS), (128, step + 1, _FACE_ROWS),
                    (128, step + 2, _FACE_ROWS)]


@pytest.mark.parametrize("rows", [0, 1, _FACE_ROWS, _FACE_ROWS + 1])
@pytest.mark.parametrize("n_verts", [1, 9, 10, 99, 100, 9999, 10000, 99999, 100000])
def test_face_lines_match_percent_d(n_verts, rows):
    """The index table holds the text of every index: face lines assembled
    from three of its rows each by ``take``, NULs dropped, are the text
    ``"f %d %d %d\\n"`` gives at every digit-width boundary of the 1-based
    indices, for both extreme indices, and for 0, 1, ``_FACE_ROWS`` and
    ``_FACE_ROWS + 1`` lines."""
    rng = np.random.default_rng(n_verts * 7 + rows)
    faces = rng.integers(1, n_verts + 1, size=(rows, 3), dtype=np.int64)
    if rows:
        faces[0, 0], faces[-1, -1] = 1, n_verts
    table = _index_table(n_verts)
    assert table[0].tobytes() == bytes(table.itemsize)
    rec = np.empty(rows, [("f", "S2"), ("a", table.dtype), ("s1", "S1"), ("b", table.dtype),
                          ("s2", "S1"), ("c", table.dtype), ("nl", "S1")])
    rec["f"], rec["s1"], rec["s2"], rec["nl"] = b"f ", b" ", b" ", b"\n"
    for name, col in zip("abc", faces.T):
        rec[name] = table.take(col)
    want = "".join("f %d %d %d\n" % tuple(row) for row in faces.tolist())
    assert rec.tobytes().replace(b"\0", b"") == want.encode()


@pytest.mark.parametrize("n_theta, n_rings, face_rows", _width_cases())
def test_face_block_matches_percent_d(n_theta, n_rings, face_rows, monkeypatch):
    """The ring-structure face writer gives the bytes ``"f %d %d %d\\n"``
    gives over the face-by-face oracle's faces, on each side of every
    digit-width boundary of the 1-based indices, for the whole mesh and
    for the first index of a chunk of bands, where the writer decides
    whether the chunk holds NUL padding to drop."""
    monkeypatch.setattr(export, "_FACE_ROWS", face_rows)
    n_verts = n_theta * n_rings + 2
    faces = mesh_faces_loops(n_theta, n_rings)
    assert faces.min() == 0 and faces.max() == n_verts - 1
    fh = io.BytesIO()
    _write_faces(fh, n_theta, n_rings)
    want = "".join("f %d %d %d\n" % tuple(row) for row in (faces + 1).tolist())
    assert fh.getvalue() == want.encode()


def test_write_obj_traced_peak_below_3_mb(ref_traj, tmp_path):
    """The OBJ writer holds the ring text of every radius (1.4 MB on the
    default 128 x 256 mesh) and one write chunk: its traced allocations
    peak below 3 MB (formatting the whole face block with %d per row chunk
    peaked at 3.6 MB)."""
    mesh = build_mesh(ref_traj)
    tracemalloc.start()
    try:
        write_obj(tmp_path / "mesh.obj", mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def test_build_mesh_and_write_obj_traced_peak_below_3_mb(ref_traj, tmp_path):
    """Building the default 128 x 256 mesh and writing it peak below 3 MB
    together: the mesh holds no face-index array (the 130,816 x 3 int64
    faces and their gathers peaked at 8.4 MB), and the faces are written
    from the ring structure one chunk of bands at a time."""
    tracemalloc.start()
    try:
        mesh = build_mesh(ref_traj)
        write_obj(tmp_path / "mesh.obj", mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_faces == 130_816
    assert peak < 3_000_000, peak


@st.composite
def _closed_curves(draw):
    """n points on a star-shaped closed curve about a random centre."""
    n = draw(st.integers(3, 200))
    radii = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    cx, cy = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    theta = 2.0 * np.pi * np.arange(n) / n
    r = np.array(radii)
    return np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta)], axis=1)


@settings(max_examples=100, deadline=None)
@given(points=_closed_curves())
def test_svg_path_matches_per_point_loop(points):
    """The path formatted in one call is the per-point formatting's text."""
    svg = render_svg(points, "curve")
    path = next(line for line in svg.splitlines() if line.startswith("<path "))
    assert path.startswith(f'<path d="{svg_path_loops(points)}" ')



def _json_bytes(tmp_path, payload) -> bytes:
    write_json(tmp_path / "out.json", payload)
    return (tmp_path / "out.json").read_bytes()


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_json_of_golden_payloads_matches_json_dumps(command, monkeypatch, tmp_path):
    """The payloads of the golden ``verify`` and ``solve`` commands, run
    with one worker: a forked worker writes solve's report.json, and the
    payload it captures would stay in that process."""
    payloads = []

    def capture(path, payload, _write=write_json):
        payloads.append(payload)
        _write(path, payload)

    monkeypatch.setattr(cli, "write_json", capture)
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 1)
    assert cli.main([*GOLDEN[command][0], "--out", str(tmp_path)]) == 0
    assert len(payloads) == 1
    assert _json_bytes(tmp_path, payloads[0]) == (json_via_copy(payloads[0]) + "\n").encode()


@pytest.mark.parametrize("payload", [
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.1],
    {"nan": math.nan, "inf": {"pos": math.inf, "neg": -math.inf}, "zero": -0.0},
    [{}, [], (), {"a": {}, "b": [], "c": ()}],
    {},
    [],
    (),
    {"m": np.array([[1.0, np.nan], [-np.inf, -0.0]]).tolist(), "e": np.empty((0, 2)).tolist()},
    [x.item() for x in (np.float64(0.1), np.float64(np.nan), np.float64(-np.inf),
                        np.int64(-7), np.bool_(True), np.bool_(False), np.float32(0.1))],
    {"np_nan": np.float64(np.nan).item(), "py_nan": math.nan},
    [True, False, 1, 0, -1, None, 2 ** 70],
    {"t": True, "one": 1, "f": False, "zero": 0},
    ['quote " here', "back\\slash", "tab\tnew\nline", "\u00e9t\u00e9 \u03ba\u2032 \U0001d70b", ""],
    {'k"ey': 1, "\u00fc": 2, "b\\": 3, "A": 4, "a": 5},
    CheckRecord("X", True, 1.0, math.nan, -math.inf, 1e-8, "Pass", {"z": 1, "a": [2]}),
    {"records": (CheckRecord("Y", False, None, None, None, 0.0, "Skipped", {}),)},
], ids=["list0", "dict0", "list1", "dict1", "list2", "tuple", "dict2", "list3", "dict3",
        "list4", "dict4", "list5", "dict5", "CheckRecord", "dict6"])
def test_json_matches_json_dumps_of_a_jsonable_copy(payload, tmp_path):
    """NaN (null), +-inf and -0.0; empty containers; rows and scalars
    converted from numpy with ``tolist``/``item``; bools against ints; and
    strings with quotes, backslashes and non-ASCII characters, as values
    and as keys."""
    assert _json_bytes(tmp_path, payload) == (json_via_copy(payload) + "\n").encode()


# named tuples with no field, one field (whose values ``itemgetter`` would
# not give as a tuple) and fields out of sorted order
_Empty = namedtuple("_Empty", "")
_One = namedtuple("_One", "only")
_Three = namedtuple("_Three", "zeta alpha mid")

_json_payloads = st.recursive(
    st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.just(_Empty()), inner.map(_One), st.tuples(inner, inner, inner).map(lambda t: _Three(*t)),
        st.builds(CheckRecord, st.text(max_size=4), st.booleans(), inner, inner, inner,
                  st.floats(), st.sampled_from(["Pass", "Fail", "Skipped"]),
                  st.dictionaries(st.text(max_size=4), inner, max_size=3))),
    max_leaves=24)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_json_payloads)
def test_json_walk_matches_json_dumps_on_nested_payloads(payload, tmp_path):
    """Records of one type at several depths, each depth with its own
    indentation, and every container and scalar nested in any other: the
    text is ``json.dumps(x, sort_keys=True, indent=2)`` of the JSON-ready
    copy x."""
    assert _json_bytes(tmp_path, payload) == (json_via_copy(payload) + "\n").encode()


def test_json_writes_any_named_tuple_as_an_object_and_refuses_a_dataclass(tmp_path):
    """A named tuple that is not one of the package's records, here a
    ``collections.namedtuple``, is written as the object of its fields,
    like a record; a dataclass instance is refused, as ``json.dumps``
    refuses it."""
    Ring = namedtuple("Ring", "r z n_theta faces")
    ring = Ring([0.0, 1.0], (-0.5, 0.5), 4, [[0, 1, 2]])
    assert json.loads(_json_bytes(tmp_path, {"ring": ring})) == {"ring": {
        "faces": [[0, 1, 2]], "n_theta": 4, "r": [0.0, 1.0], "z": [-0.5, 0.5]}}

    @dataclasses.dataclass(frozen=True)
    class Point:
        x: float

    with pytest.raises(TypeError):
        write_json(tmp_path / "out.json", Point(1.0))


def test_json_refuses_what_json_dumps_refuses(tmp_path):
    for payload in ([object()], {"a": 1j}, {(1, 2): 3}):
        with pytest.raises(TypeError):
            json_via_copy(payload)
        with pytest.raises(TypeError):
            write_json(tmp_path / "out.json", payload)


@pytest.mark.parametrize("payload", [
    np.arange(3.0), {"x": np.float64(0.5)}, [np.int64(1)], {1: "one"}, {"a": {None: 0}},
], ids=["ndarray", "float64", "int64", "int_key", "none_key"])
def test_json_refuses_numpy_values_and_keys_that_are_not_str(payload, tmp_path):
    """No command's payload holds an ndarray, a numpy scalar or a key
    that is not a str, and the writer refuses each of them."""
    with pytest.raises(TypeError):
        write_json(tmp_path / "out.json", payload)
