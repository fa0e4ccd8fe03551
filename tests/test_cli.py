import json
import math
import shutil
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helfrich import cli
from helfrich.export import PROFILE_COLUMNS, fmt17
from oracles import mesh_area_volume

PAPER_FLAGS = ["--c0", "1", "--lambda", "0.25", "--p", "1"]
SOLVE_FLAGS = PAPER_FLAGS + ["--w0p", "0.05"]


def run_cli(args):
    return cli.main(args)


def test_solve_paper_params(tmp_path):
    code = run_cli(["solve", *SOLVE_FLAGS, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["classification"]["verdict"] == "Biconcave"
    assert report["equator_identity_residual"] <= 1e-4
    text = (tmp_path / "profile.csv").read_text()
    assert text.splitlines()[0] == ",".join(PROFILE_COLUMNS)


def test_profile_csv_roundtrip_bit_exact(tmp_path):
    run_cli(["solve", *SOLVE_FLAGS, "--out", str(tmp_path)])
    lines = (tmp_path / "profile.csv").read_text().splitlines()
    for line in lines[1:]:
        for tok in line.split(","):
            assert fmt17(float(tok)) == tok


def test_solve_rejects_negative_w0p(capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli(["solve", *PAPER_FLAGS, "--w0p", "-1"])
    assert ei.value.code == 64
    assert "--w0p" in capsys.readouterr().err


def test_solve_blowup_exit_code(tmp_path):
    code = run_cli(["solve", "--c0", "5", "--lambda", "0", "--p", "0.1",
                    "--w0p", "1", "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["classification"]["verdict"] == "BlowUpPositive"


@pytest.mark.parametrize("extra, name", [
    (["--w0p", "0.05", "--eps-start", "1"], "EpsTooLarge"),
    (["--w0p", "1e200"], "OverflowError"),
    (["--w0p", "0.05", "--out", "{dir}/taken"], "FileExistsError"),
])
def test_solver_error_exits_1_with_one_line(extra, name, tmp_path, capsys):
    """A solver error, a float overflow, or an --out that names an existing
    file ends the command with exit 1 and one message line instead of a
    traceback."""
    (tmp_path / "taken").write_text("")
    code = run_cli(["solve", *PAPER_FLAGS, "--out", str(tmp_path),
                    *(a.format(dir=tmp_path) for a in extra)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith(f"helfrich: {name}: ")
    assert "Traceback" not in err


def test_verify_small_sweep(tmp_path):
    code = run_cli(["verify", *PAPER_FLAGS, "--sweep-points", "5",
                    "--sweep-min", "1e-3", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "bounds_report.json").read_text())
    assert report["all_passed"]
    assert len(report["per_point"]) == 5


def test_verify_excludes_non_biconcave(tmp_path):
    # w0p = 2 has R(2) > 0 with c0 > 0: guaranteed positive blow-up
    code = run_cli(["verify", *PAPER_FLAGS, "--sweep-points", "4",
                    "--sweep-min", "0.02", "--sweep-max", "2",
                    "--out", str(tmp_path)])
    report = json.loads((tmp_path / "bounds_report.json").read_text())
    assert len(report["excluded"]) >= 1
    assert code == 0  # remaining checks pass


def test_verify_isolates_failing_points(tmp_path):
    # a fixed eps_start of 0.01 leaves the series region at the smallest w0p
    code = run_cli(["verify", *PAPER_FLAGS, "--eps-start", "0.01",
                    "--out", str(tmp_path)])
    report = json.loads((tmp_path / "bounds_report.json").read_text())
    errors = [e for e in report["excluded"]
              if e["classification"] == "Error:EpsTooLarge"]
    assert errors and len(errors) == len(report["excluded"])
    assert min(e["w0p"] for e in errors) == min(report["grid"])
    assert len(report["per_point"]) + len(errors) == len(report["grid"]) == 16
    assert sorted(report["asymptotics"]["excluded"]) == sorted(e["w0p"] for e in errors)
    assert code == 0  # the remaining points pass every check


@pytest.mark.parametrize("p", ["0", "-1"])
def test_verify_keeps_its_report_where_p_is_not_positive(p, tmp_path):
    """Every solve at p <= 0 is InvalidParams; the report is still written,
    with each point excluded and no limit constant."""
    code = run_cli(["verify", "--c0", "1", "--lambda", "0.25", "--p", p,
                    "--sweep-points", "3", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "bounds_report.json").read_text())
    assert report["per_point"] == []
    assert [e["classification"] for e in report["excluded"]] == ["Error:InvalidParams"] * 3
    limits = report["asymptotics"]["limits"]
    assert [limits[name]["limit_constant"]
            for name in ("rm2_over_w0p", "r02_over_w0p", "pos_area_ratio")] == [None] * 3


def test_verify_rejects_zero_points(capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli(["verify", *PAPER_FLAGS, "--sweep-points", "0"])
    assert ei.value.code == 64


def test_sweep_grid_shape(tmp_path):
    code = run_cli(["sweep", "--c0-range", "1:2:2", "--lambda-range",
                    "0.25:0.5:2", "--p-range", "1:1:1", "--w0p-range",
                    "0.02:0.06:3", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "phase.csv").read_text().splitlines()
    assert lines[0] == ("c0,lambda,p,w0p,classification,r_M,r0,wp_r0,"
                        "r_inf,z_inf,roots_all_positive")
    assert len(lines) == 13  # 12 cells + header
    assert all(line.split(",")[4] == "Biconcave" for line in lines[1:])


@pytest.mark.parametrize("flags, error_row", [
    # w0p = 0 is no slope the paper admits, so the cell is not expected biconcave
    (["--w0p-range", "0:0.05:2"], "1,0.25,1,0,Error:InvalidSlope,,,,,,true"),
    # c0^2 overflows in the cubic analysis
    (["--c0-range=1:1e160:2"],
     "1e+160,0.25,1,0.050000000000000003,Error:OverflowError,,,,,,false"),
])
def test_sweep_writes_error_rows_without_anomaly(flags, error_row, tmp_path):
    code = run_cli(["sweep", *flags, "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "phase.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and error_row in rows
    assert sum(",Biconcave," in row for row in rows) == 1


@pytest.mark.parametrize("w0p_range", ["1e103:1e103:1", "1e100:1e103:2"])
def test_sweep_overflowing_slope_has_one_verdict_on_any_axis(w0p_range, tmp_path):
    """w0p ** 3 overflows above about 5.6e102: the cell reads
    Error:OverflowError whether its axis holds one value or several, as
    ``solve`` at that slope exits with OverflowError."""
    assert run_cli(["sweep", f"--w0p-range={w0p_range}", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "phase.csv").read_text().splitlines()[1:]
    assert rows[-1].split(",")[3:5] == ["1e+103", "Error:OverflowError"]


@pytest.mark.parametrize("c0, lam, p, w0p, roots_all_positive", [
    # Q(0) = -p/2 > 0 forces a negative root (delta_minus = -4e-298)
    ("1e-10", "0", "-8e-298", "1e-320", "false"),
    # the only real root is p/2 > 0, next to a near-double root at -1
    ("1", "0", "1e-14", "0.05", "true"),
    # b^2 - 4ac of Q' overflows; the roots near -2e154 and -1.3e154 are negative
    ("1e154", "-1e308", "1", "0.05", "false"),
    ("0", "-1.7e308", "1", "0.05", "false"),
])
def test_sweep_roots_column_reads_delta_minus(c0, lam, p, w0p, roots_all_positive,
                                              tmp_path):
    """phase.csv and the anomaly rule read the sign of delta_minus, the
    test check_single applies, also where Q is at rounding level at a
    critical point."""
    code = run_cli(["sweep", f"--c0-range={c0}:{c0}:1", f"--lambda-range={lam}:{lam}:1",
                    f"--p-range={p}:{p}:1", f"--w0p-range={w0p}:{w0p}:1",
                    "--out", str(tmp_path)])
    assert code == 0
    row = (tmp_path / "phase.csv").read_text().splitlines()[1]
    assert row.split(",")[-1] == roots_all_positive


def test_sweep_rule_reads_the_root_at_a_huge_pressure(tmp_path):
    """At p = 1e200 the smallest root of Q = t^3 - p/2 is 3.7e66, so no
    w0p up to 1e100 is expected Biconcave: the Error:EpsTooLarge cell at
    w0p = 1e100 is no anomaly."""
    code = run_cli(["sweep", "--c0-range", "0:0:1", "--lambda-range", "0:0:1",
                    "--p-range", "1e200:1e200:1", "--w0p-range", "1e60:1e100:2",
                    "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "phase.csv").read_text().splitlines()[1:]
    assert rows[-1].split(",")[3:5] == ["1e+100", "Error:EpsTooLarge"]


def test_sweep_overflowing_start_is_invalid_params(tmp_path, capsys):
    """A right-hand side whose scaled norm overflows at the chart start is
    InvalidParams, with no numpy warning (pytest turns one into an error).
    The cell is one the rule expects Biconcave, so the sweep exits 3."""
    code = run_cli(["sweep", "--p-range", "1:1e300:2", "--out", str(tmp_path)])
    assert code == 3
    rows = (tmp_path / "phase.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["Biconcave", "Error:InvalidParams"]
    assert "Warning" not in capsys.readouterr().err


def test_sweep_anomaly_exit_code(tmp_path, monkeypatch):
    from helfrich.bounds import PhaseCell
    monkeypatch.setattr(cli, "phase_sweep", lambda grid, cfg: [
        PhaseCell(1.0, 0.25, 1.0, 0.01, "Aborted", True, True)])
    code = run_cli(["sweep", "--out", str(tmp_path)])
    assert code == 3


def test_sweep_bad_range(capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli(["sweep", "--c0-range", "1:2"])
    assert ei.value.code == 64


_TINY, _HUGE = 5e-324, 1.7976931348623157e308


@settings(max_examples=400, deadline=None)
@given(a=st.floats(allow_nan=False, allow_infinity=False),
       b=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(2, 60))
@example(a=1.0, b=2.0, n=2)
@example(a=0.25, b=0.25, n=5)  # a == b
@example(a=3.0, b=-2.0, n=7)  # descending
@example(a=-0.0, b=0.0, n=3)
@example(a=0.0, b=-0.0, n=3)
@example(a=-0.0, b=-0.0, n=2)
@example(a=-0.0, b=1.0, n=4)
@example(a=0.0, b=_TINY, n=3)  # the step rounds to 0: numpy's subnormal branch
@example(a=-_TINY, b=2.2250738585072014e-308, n=11)
@example(a=-_HUGE, b=_HUGE, n=3)  # stop - start overflows
@example(a=_HUGE, b=-_HUGE, n=2)
@example(a=_HUGE, b=_HUGE / 3, n=9)
def test_parse_range_equals_numpy_linspace_bit_for_bit(a, b, n):
    """A sweep axis holds the values numpy.linspace gives, in Python floats,
    wherever stop - start is finite; where it overflows, numpy gives NaN
    and inf values, and the range is a usage error."""
    spec = f"{a!r}:{b!r}:{n}"
    if not math.isfinite(b - a):
        with pytest.raises(SystemExit) as ei:
            cli._parse_range(cli.build_parser(), spec, "--c0-range")
        assert ei.value.code == 64
        return
    got = cli._parse_range(None, spec, "--c0-range")
    assert all(type(v) is float and math.isfinite(v) for v in got)
    with np.errstate(all="ignore"):
        want = np.linspace(a, b, n)
    assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))


def test_plot_solve_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["plot", *SOLVE_FLAGS, "--out", str(out1)]) == 0
    assert run_cli(["plot", *SOLVE_FLAGS, "--out", str(out2)]) == 0
    svg1 = (out1 / "profile.svg").read_bytes()
    svg2 = (out2 / "profile.svg").read_bytes()
    assert svg1 == svg2
    assert svg1.startswith(b"<svg")
    assert b"path" in svg1


def test_plot_from_csv(tmp_path):
    run_cli(["solve", *SOLVE_FLAGS, "--out", str(tmp_path)])
    code = run_cli(["plot", "--in", str(tmp_path / "profile.csv"),
                    "--out", str(tmp_path / "svg")])
    assert code == 0
    assert (tmp_path / "svg" / "profile.svg").exists()


def test_plot_escapes_file_name_annotation(tmp_path):
    """A file name with XML markup characters gives a well-formed SVG whose
    caption is the name itself."""
    run_cli(["solve", *SOLVE_FLAGS, "--out", str(tmp_path)])
    src = tmp_path / "x<&y.csv"
    shutil.copy(tmp_path / "profile.csv", src)
    assert run_cli(["plot", "--in", str(src), "--out", str(tmp_path / "svg")]) == 0
    root = ET.parse(tmp_path / "svg" / "profile.svg").getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[-1] == "x<&y.csv"


def test_plot_rejects_blowup(tmp_path):
    code = run_cli(["plot", "--c0", "5", "--lambda", "0", "--p", "0.1",
                    "--w0p", "1", "--out", str(tmp_path)])
    assert code == 2


def test_mesh_default_resolution(tmp_path, capsys):
    code = run_cli(["mesh", *SOLVE_FLAGS, "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.endswith("(65410 vertices, 130816 faces)\n")
    verts, faces = _read_obj(tmp_path / "mesh.obj")
    n_theta, n_prof = 128, 256
    assert len(verts) == n_theta * (2 * n_prof - 1) + 2 == 65410
    assert len(faces) == 2 * n_theta * (2 * n_prof - 1) == 130816
    # Euler characteristic via the edge set
    edges = set()
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edges.add((min(a, b), max(a, b)))
    V, E, F = len(verts), len(edges), len(faces)
    assert V - E + F == 2
    # watertight: every edge borders exactly two triangles
    from collections import Counter
    cnt = Counter()
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            cnt[(min(a, b), max(a, b))] += 1
    assert set(cnt.values()) == {2}
    # quadrature comparison
    from helfrich import integrate, surface_totals, HelfrichParams
    tot = surface_totals(integrate(HelfrichParams(1.0, 0.25, 1.0), 0.05))
    area, volume = mesh_area_volume(np.array(verts), np.array(faces))
    assert abs(area - tot.area) / tot.area <= 0.01
    assert abs(volume - tot.volume) / tot.volume <= 0.01


def _read_obj(path):
    verts, faces = [], []
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts[0] == "v":
            verts.append([float(v) for v in parts[1:]])
        elif parts[0] == "f":
            faces.append([int(v) - 1 for v in parts[1:]])
    return verts, faces


def test_mesh_rejects_blowup(tmp_path):
    code = run_cli(["mesh", "--c0", "5", "--lambda", "0", "--p", "0.1",
                    "--w0p", "1", "--out", str(tmp_path)])
    assert code == 2


def test_solve_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["solve", *SOLVE_FLAGS, "--format", "csv,json,svg", "--out", str(out1)])
    run_cli(["solve", *SOLVE_FLAGS, "--format", "csv,json,svg", "--out", str(out2)])
    for name in ("profile.csv", "report.json", "profile.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "env_out"))
    run_cli(["solve", *SOLVE_FLAGS])
    assert (tmp_path / "env_out" / "report.json").exists()


def test_config_file_and_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c0": 1, "lambda": 0.25, "p": 1, "w0p": 0.05}))
    assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    cfg.write_text(json.dumps({"c0": 1, "nonsense": 2}))
    with pytest.raises(SystemExit) as ei:
        run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert ei.value.code == 64


@pytest.mark.parametrize("key, value", [
    ("max-steps", 1.9), ("max-steps", 1000.0), ("max-steps", True), ("max-steps", "5"),
    ("rel-tol", True), ("c0", False),
])
def test_config_values_typed_like_flags(key, value, tmp_path, capsys):
    """A config value takes its flag's type: an int option only a JSON
    integer, a number option no boolean.  {"max-steps": 1.9} once became
    a budget of 1 step and the solve exited 2, where --max-steps 1.9
    exits 64."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c0": 1, "lambda": 0.25, "p": 1, "w0p": 0.05, key: value}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as ei:
        run_cli(["solve", "--config", str(cfg), "--out", str(out)])
    assert ei.value.code == 64
    assert f"config key {key!r} has invalid value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["plot", "--c0", "1"], "--lambda is required"),
    (["sweep", "--c0-range", "1:2"], "--c0-range"),
    (["sweep", "--c0-range=nan:1:1"], "--c0-range"),
    (["sweep", "--w0p-range=0.01:inf:2"], "--w0p-range"),
    (["solve", "--c0", "nan", "--lambda", "0.25", "--p", "1", "--w0p", "0.05"], "--c0"),
    (["solve", "--c0", "1", "--lambda=-inf", "--p", "1", "--w0p", "0.05"], "--lambda"),
    (["mesh", "--c0", "1", "--lambda", "0.25", "--p", "nan", "--w0p", "0.05"], "--p"),
    (["solve", *PAPER_FLAGS, "--w0p", "inf"], "--w0p"),
    (["solve", *SOLVE_FLAGS, "--rel-tol", "-1"], "rel_tol"),
    (["solve", "--config", "{cfg}"], "unknown format '5'"),
    (["plot", "--in", "{dir}/missing.csv"], "--in: cannot read"),
    (["plot", "--in", "{csv}"], "--in"),
    (["mesh", *SOLVE_FLAGS, "--segments-theta", "0"], "--segments-theta must be >= 3"),
    (["mesh", *SOLVE_FLAGS, "--segments-theta", "2"], "--segments-theta must be >= 3"),
    (["mesh", *SOLVE_FLAGS, "--segments-profile", "6"], "--segments-profile must be >= 8"),
    (["mesh", *SOLVE_FLAGS, "--segments-profile", "7"], "--segments-profile must be >= 8"),
    (["verify", *PAPER_FLAGS, "--sweep-max", "inf", "--sweep-points", "3"],
     "--sweep-max must be finite"),
    (["verify", *PAPER_FLAGS, "--sweep-min", "nan"], "--sweep-min must be finite"),
    (["plot", "--in", "{dir}/header_only.csv"], "--in: cannot read"),
    (["solve", *SOLVE_FLAGS, "--abs-tol", "nan"], "abs_tol"),
    (["solve", *SOLVE_FLAGS, "--w-switch", "inf"], "w_switch"),
    (["solve", *SOLVE_FLAGS, "--r-max", "nan"], "r_max"),
    (["solve", *SOLVE_FLAGS, "--event-tol", "inf"], "event_tol"),
    (["solve", *SOLVE_FLAGS, "--max-steps", "0"], "max_steps"),
    (["solve", *SOLVE_FLAGS, "--eps-start", "inf"], "eps_start"),
    (["solve", *SOLVE_FLAGS, "--w-switch", "1e6"], "w_switch"),
    (["solve", "--config", "{dir}/missing.json"], "cannot read config file"),
    (["solve", "--config", "{dir}/list.json"], "must hold a JSON object"),
    (["verify", *PAPER_FLAGS, "--sweep-min", "0.5", "--sweep-max", "0.1"],
     "--sweep-min/--sweep-max must satisfy 0 < min <= max"),
    (["sweep", "--c0-range", "a:1:2"], "--c0-range must be start:stop:count"),
    (["sweep", "--w0p-range", "0.01:0.1:0"], "--w0p-range: count must be >= 1"),
    (["sweep", "--c0-range=-1e308:1e308:3"], "--c0-range: stop - start must be finite"),
    (["sweep", "--lambda-range=1e308:-1e308:2"], "--lambda-range: stop - start must be finite"),
    (["sweep", "--p-range=-1e308:1e308:3"], "--p-range: stop - start must be finite"),
    (["sweep", "--w0p-range=-1e308:1e308:3"], "--w0p-range: stop - start must be finite"),
])
def test_usage_errors_exit_64_and_write_nothing(argv, message, tmp_path, capsys):
    """Non-finite values, bad config values, bad grids, unreadable inputs
    and too coarse meshes are usage errors, and a usage error leaves no
    output directory behind."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c0": 1, "lambda": 0.25, "p": 1, "w0p": 0.05,
                               "format": 5}))
    csv = tmp_path / "no_rzw.csv"
    csv.write_text("a,b\n1,2\n")
    (tmp_path / "header_only.csv").write_text("r,z,w\n")
    (tmp_path / "list.json").write_text("[1, 2]")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(SystemExit) as ei:
        warnings.simplefilter("always")
        run_cli([a.format(cfg=cfg, csv=csv, dir=tmp_path) for a in argv]
                + ["--out", str(out)])
    assert ei.value.code == 64
    err = capsys.readouterr().err
    assert message in err
    assert "Warning" not in err and not caught, [str(w.message) for w in caught]
    assert not out.exists()


def test_no_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli([])
    assert ei.value.code == 64
    assert "a subcommand is required" in capsys.readouterr().err


def test_plot_of_a_blowup_profile_is_not_biconcave(tmp_path, capsys):
    """``plot --in`` on the profile.csv of a BlowUpPositive solve, which
    does not descend to an equator, exits 2 and draws nothing."""
    solved, out = tmp_path / "solved", tmp_path / "plot"
    assert run_cli(["solve", "--c0", "5", "--lambda", "0", "--p", "0.1", "--w0p", "1",
                    "--out", str(solved)]) == 2
    capsys.readouterr()
    assert run_cli(["plot", "--in", str(solved / "profile.csv"), "--out", str(out)]) == 2
    assert "plot: input profile is not biconcave" in capsys.readouterr().err
    assert not (out / "profile.svg").exists()


def _run_recorded(argv, out, capsys):
    """Exit code, standard output and error, and every output file's bytes
    of one ``main`` call writing to ``out``."""
    try:
        code = cli.main([*argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, capsys.readouterr(), files


def test_parser_shared_across_commands_gives_fresh_parser_results(tmp_path, capsys):
    """One process runs a usage error, a solve and a sweep on the parser
    built once; each gives the exit code, messages and bytes that a parser
    built for it alone gives."""
    runs = [["solve", *PAPER_FLAGS, "--w0p", "inf"],
            ["solve", *SOLVE_FLAGS, "--format", "csv,json,svg"],
            ["sweep", "--w0p-range", "0.02:0.06:2"]]
    outs = [tmp_path / f"run{i}" for i in range(len(runs))]
    shared = [_run_recorded(argv, out, capsys) for argv, out in zip(runs, outs)]
    assert [code for code, _, _ in shared] == [64, 0, 0]
    for argv, out, want in zip(runs, outs, shared):
        shutil.rmtree(out, ignore_errors=True)
        cli.build_parser.cache_clear()
        assert _run_recorded(argv, out, capsys) == want, argv


def test_solve_without_a_step_exits_2_without_warning(tmp_path, capsys):
    """An r_max below eps_start, or equal to it, leaves the run without a
    step; its one zero-length step evaluates to the start state, and
    the axis series covers the profile below it, silently.  (At r_max =
    eps_start the first step size once divided by its zero cap and the
    command ended in ZeroDivisionError.)"""
    for r_max in ("1e-6", "1e-5"):
        out = tmp_path / r_max
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["solve", *SOLVE_FLAGS, "--eps-start", "1e-5",
                            "--r-max", r_max, "--out", str(out)])
        assert code == 2, r_max
        err = capsys.readouterr().err
        assert "Warning" not in err and "Error" not in err, r_max
        assert not caught, [str(w.message) for w in caught]
        assert json.loads((out / "report.json").read_text())["status"] == "Aborted"
        rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        assert np.all((rows[1:, 0] > 0.0) & (rows[1:, 0] <= 1e-5)) and rows[-1, 0] == 1e-5
        assert np.all(rows[1:, 2] > 0.0)


def _opt_values(opt, i):
    """Distinct flag and config values of an option's type."""
    if opt.conv is str:
        return f"flag-{i}", f"cfg-{i}"
    return opt.conv(2 + i), opt.conv(100 + i)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_config_precedence_property(data, tmp_path_factory):
    """For every subcommand's option table and any key subsets: flag beats
    config file beats default, and a key outside the table exits 64."""
    parser = cli.build_parser()
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    all_keys = {o.flag.lstrip("-") for _, table, _ in cli.COMMANDS.values()
                for o in table}
    for command, (_, table, _) in cli.COMMANDS.items():
        opts = [o for o in table if o.dest != "config"]
        keys = [o.flag.lstrip("-") for o in opts]
        flag_keys = data.draw(st.sets(st.sampled_from(keys)), label=f"{command} flags")
        cfg_keys = data.draw(st.sets(st.sampled_from(keys)), label=f"{command} config")
        argv, config = [command], {}
        for i, (o, k) in enumerate(zip(opts, keys)):
            flag_val, cfg_val = _opt_values(o, i)
            if k in flag_keys:
                argv.append(f"{o.flag}={flag_val!s}")
            if k in cfg_keys:
                config[k] = cfg_val
        resolved = cli._resolve(parser, parser.parse_args(argv), opts, config)
        for i, (o, k) in enumerate(zip(opts, keys)):
            flag_val, cfg_val = _opt_values(o, i)
            want = flag_val if k in flag_keys else cfg_val if k in cfg_keys else o.default
            assert resolved[o.dest] == want

        unknown = sorted(all_keys - set(keys) | {"config", "nonsense"})
        path.write_text(json.dumps({data.draw(st.sampled_from(unknown)): 1}))
        with pytest.raises(SystemExit) as ei:
            cli.main([command, "--config", str(path)])
        assert ei.value.code == 64
