"""The array emitters write the same bytes as element-by-element loops,
and the one-walk JSON writer the text of a JSON-ready copy dumped by
``json.dumps``."""

import dataclasses
import io
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helfrich import HelfrichParams, analysis, cli, integrate
from helfrich.bounds import CheckRecord
from helfrich.export import (
    _FACE_ROWS,
    PROFILE_COLUMNS,
    Mesh,
    _angle_table,
    _write_faces,
    build_mesh,
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
    svg_path_loops,
    write_obj_loops,
    write_profile_csv_loops,
)
from test_golden import GOLDEN


@pytest.fixture(scope="module")
def blowup_traj():
    # chart A only: the run blows up before the chart switch
    traj = integrate(HelfrichParams(5.0, 0.0, 0.1), 1.0)
    assert traj.chart_b is None
    return traj


@pytest.mark.parametrize("n_theta, n_profile", [(3, 8), (7, 9), (128, 256)])
def test_mesh_obj_bytes_match_loops(ref_traj, n_theta, n_profile, tmp_path):
    mesh = build_mesh(ref_traj, n_theta, n_profile)
    faces = mesh.faces
    ref_verts, ref_faces = build_mesh_loops(ref_traj, n_theta, n_profile)
    assert faces.dtype == ref_faces.dtype == np.int64
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


def test_read_profile_csv_round_trip_bit_exact(ref_traj, tmp_path):
    write_profile_csv(tmp_path / "profile.csv", ref_traj)
    cols = read_profile_csv(tmp_path / "profile.csv")
    rows = profile_rows(ref_traj)
    assert list(cols) == list(PROFILE_COLUMNS)
    for i, name in enumerate(PROFILE_COLUMNS):
        assert cols[name].tobytes() == rows[:, i].tobytes()


@pytest.mark.parametrize("rows", [0, 1, _FACE_ROWS, _FACE_ROWS + 1])
@pytest.mark.parametrize("n_verts", [1, 9, 10, 99, 100, 9999, 10000, 99999, 100000])
def test_face_lines_match_percent_d(n_verts, rows):
    """The digit-table face writer gives the text ``"f %d %d %d\\n"`` gives
    at every digit-width boundary of the 1-based indices, for both extreme
    indices, and for none, one, one chunk and one chunk plus one rows."""
    rng = np.random.default_rng(n_verts * 7 + rows)
    faces = rng.integers(0, n_verts, size=(rows, 3), dtype=np.int64)
    if rows:
        faces[0, 0], faces[-1, -1] = 0, n_verts - 1
    fh = io.StringIO()
    _write_faces(fh, faces, n_verts)
    want = "".join("f %d %d %d\n" % tuple(row) for row in (faces + 1).tolist())
    assert fh.getvalue() == want


def test_write_obj_traced_peak_below_3_mb(ref_traj, tmp_path):
    """The OBJ writer holds one chunk of text at a time: on the default
    128 x 256 mesh its traced allocations peak below 3 MB (formatting the
    whole face block with %d per row chunk peaked at 3.6 MB)."""
    mesh = build_mesh(ref_traj)
    tracemalloc.start()
    try:
        write_obj(tmp_path / "mesh.obj", mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
    """The payloads of the golden ``verify`` and ``solve`` commands."""
    payloads = []

    def capture(path, payload, _write=write_json):
        payloads.append(payload)
        _write(path, payload)

    monkeypatch.setattr(cli, "write_json", capture)
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
    np.arange(6.0).reshape(2, 3) / 7.0,
    {"m": np.array([[1.0, np.nan], [-np.inf, -0.0]]), "e": np.empty((0, 2))},
    [np.float64(0.1), np.float64(np.nan), np.float64(-np.inf), np.int64(-7),
     np.bool_(True), np.bool_(False), np.float32(0.1)],
    {"np_nan": np.float64(np.nan), "py_nan": math.nan},
    [True, False, 1, 0, -1, None, 2 ** 70],
    {"t": True, "one": 1, "f": False, "zero": 0},
    ['quote " here', "back\\slash", "tab\tnew\nline", "\u00e9t\u00e9 \u03ba\u2032 \U0001d70b", ""],
    {'k"ey': 1, "\u00fc": 2, "b\\": 3, "A": 4, "a": 5},
    CheckRecord("X", True, 1.0, math.nan, -math.inf, 1e-8, "Pass", {"z": 1, "a": [np.int64(2)]}),
    {"records": (CheckRecord("Y", False, None, None, None, 0.0, "Skipped", {}),)},
], ids=lambda p: type(p).__name__)
def test_json_matches_json_dumps_of_a_jsonable_copy(payload, tmp_path):
    """NaN (null from a float, NaN from a numpy scalar), +-inf and -0.0;
    empty containers; 2-D ndarrays; numpy scalars; bools against ints; and
    strings with quotes, backslashes and non-ASCII characters, as values
    and as keys."""
    assert _json_bytes(tmp_path, payload) == (json_via_copy(payload) + "\n").encode()


def test_json_writes_any_named_tuple_as_an_object_and_refuses_a_dataclass(tmp_path):
    """A named tuple that is not one of the package's records, here
    ``export.Mesh``, is written as the object of its fields, like a record;
    a dataclass instance is refused, as ``json.dumps`` refuses it."""
    mesh = Mesh(np.array([0.0, 1.0]), np.array([-0.5, 0.5]), 4, np.array([[0, 1, 2]]))
    assert json.loads(_json_bytes(tmp_path, {"mesh": mesh})) == {"mesh": {
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


def test_solve_with_svg_and_obj_computes_one_quarter_profile(monkeypatch, tmp_path):
    """``profile_points`` and ``build_mesh`` share the quarter profile."""
    calls = []

    def counted(traj, m, _samples=analysis._quarter_samples):
        calls.append(m)
        return _samples(traj, m)

    monkeypatch.setattr(analysis, "_quarter_samples", counted)
    assert cli.main([*GOLDEN["solve"][0], "--out", str(tmp_path)]) == 0
    assert calls == [256]
