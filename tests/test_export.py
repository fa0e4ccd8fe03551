"""The array emitters write the same bytes as element-by-element loops."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helfrich import HelfrichParams, integrate
from helfrich.export import (
    PROFILE_COLUMNS,
    build_mesh,
    profile_rows,
    read_profile_csv,
    write_obj,
    write_profile_csv,
)
from oracles import build_mesh_loops, write_obj_loops, write_profile_csv_loops


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
