import math
import os
import time

import numpy as np
import pytest

from helfrich import (
    HelfrichParams,
    SolverConfig,
    analyze_cubic,
    asymptotic_sweep,
    check_single,
    derived_constants,
    extract_landmarks,
    integrate,
    phase_sweep,
)
from helfrich import bounds, cli
from helfrich.analysis import BICONCAVE, Landmarks
from helfrich.cubic import eval_r
from helfrich.errors import MissingEvent
from helfrich.solver import MAX_OF_W, ZERO_OF_W
from oracles import pointwise_r_grid, pointwise_s_grid

PAPER = HelfrichParams(1.0, 0.25, 1.0)
CHECK_IDS = [
    "R0Upper",
    "WpR0Upper",
    "AreaPosUpper",
    "KappaMonotone",
    "KappaPrimeBound",
    "KappaBound",
    "XiFloor",
    "RInfUpper",
    "NegAreaLower",
    "WprimeOrdBounded",
    "ZInfNegative",
    "IntVLowerRatio",
]


def _record(report, check_id):
    """The record of ``report`` with id ``check_id``."""
    return next(rec for rec in report.records if rec.check_id == check_id)


@pytest.fixture(scope="module")
def ref_report(ref_traj, ref_landmarks):
    return check_single(ref_traj, ref_landmarks)


def test_all_checks_present_and_pass(ref_report):
    assert [rec.check_id for rec in ref_report.records] == CHECK_IDS
    for rec in ref_report.records:
        assert rec.status == "Pass", rec
    assert ref_report.passed


def test_skipped_never_passes_hypothesis_rule(ref_report):
    for rec in ref_report.records:
        if not rec.hypothesis_satisfied:
            assert rec.status == "Skipped"


def test_delta_definition():
    dc = derived_constants(PAPER, 0.05)
    assert dc.delta == min(dc.delta_plus / 8.0, dc.delta_minus / 2.0)


def test_b_lower_bound_chain(ref_report, ref_landmarks):
    """B = sqrt(delta r0^2 |w'(r0)|) >= sqrt(delta delta_plus / 8) r0^2."""
    rec = _record(ref_report, "NegAreaLower")
    dc = derived_constants(PAPER, 0.05)
    B = math.sqrt(dc.delta * ref_landmarks.r0 ** 2 * abs(ref_landmarks.wp_r0))
    assert B >= rec.info["b_lower_chain"] - 1e-12
    assert B >= dc.delta * ref_landmarks.r0 ** 2 / math.sqrt(2.0) - 1e-12


def test_neg_area_precondition(ref_report):
    rec = _record(ref_report, "NegAreaLower")
    assert rec.info["b_times_x"] <= math.pi / 2.0 * (1.0 + 1e-9)
    # chain: actual >= log bound >= quadratic bound
    assert rec.rhs >= rec.lhs - rec.tol
    assert rec.lhs >= rec.info["quad_bound"] - 1e-12


def test_neg_area_precondition_violation_is_a_failed_record(ref_traj, ref_landmarks):
    """B (r_inf - r0) >= pi/2 cannot hold on a valid run; landmarks that
    give it are a solver defect, reported as a failed NegAreaLower record
    with lhs B x, rhs pi/2, no tolerance and the reason.  Here r_inf is
    moved to r0 + 2 pi / B, so B x is 2 pi."""
    lm = ref_landmarks
    dc = derived_constants(PAPER, 0.05)
    B = math.sqrt(dc.delta * lm.r0 ** 2 * abs(lm.wp_r0))
    lm = lm._replace(r_inf=lm.r0 + 2.0 * math.pi / B)
    rec = _record(check_single(ref_traj, lm), "NegAreaLower")
    bx = B * (lm.r_inf - lm.r0)
    assert bx == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert rec == bounds.CheckRecord(
        "NegAreaLower", True, bx, math.pi / 2.0, math.pi / 2.0 - bx, 0.0, "Fail",
        {"reason": "B(r_inf - r0) >= pi/2"})
    assert type(rec.lhs) is type(rec.rhs) is type(rec.margin) is float


def test_informational_variants_reported(ref_report):
    assert "variant_64_bound" in _record(ref_report, "R0Upper").info
    assert "variant_delta32_bound" in _record(ref_report, "AreaPosUpper").info
    assert "variant_quarter_delta_bound" in _record(ref_report, "RInfUpper").info
    # the adopted area-bound constant is the one consistent with the
    # small-slope limit 8/p
    dc = derived_constants(PAPER, 1e-6)
    assert math.isclose(4.0 * 1e-12 / (dc.delta_plus * math.sqrt(dc.xi)) / 1e-12,
                        8.0 / PAPER.p, rel_tol=1e-4)


def test_check_single_requires_equator(blowup_traj):
    with pytest.raises(MissingEvent):
        check_single(blowup_traj, extract_landmarks(blowup_traj))


def test_check_single_requires_r0(ref_traj, ref_landmarks):
    with pytest.raises(MissingEvent, match="ZeroOfW"):
        check_single(ref_traj, ref_landmarks._replace(r0=None))


def test_r_max_on_interval_takes_the_interior_vertex():
    """R = -2 t^2 + t - 1/2 at c0 = -1, lambda = 0, p = 1 peaks at its
    vertex -(c0^2 + lambda) / (4 c0) = 1/4, inside [0, w0p] = [0, 0.5],
    above both ends; a dense scan of R finds the same maximum."""
    params, w0p = HelfrichParams(-1.0, 0.0, 1.0), 0.5
    scan = float(np.max(eval_r(np.linspace(0.0, w0p, 100_001), params)))
    got = bounds._r_max_on_interval(params, w0p)
    assert got == -0.375 and got == pytest.approx(scan, rel=0.0, abs=1e-15)
    assert got > max(eval_r(0.0, params), eval_r(w0p, params))


def test_checks_skip_when_roots_not_all_positive():
    # (t+1)(t^2 - t - 1): a negative root makes delta_minus <= 0
    params = HelfrichParams(0.0, -2.0, 2.0)
    ca = analyze_cubic(params)
    assert not ca.all_roots_positive
    traj = integrate(params, 0.05)
    lm = extract_landmarks(traj)
    if lm.r_inf is None:
        pytest.skip("no equator outside the guaranteed regime")
    rep = check_single(traj, lm)
    skipped = {rec.check_id for rec in rep.records if rec.status == "Skipped"}
    assert {"R0Upper", "WpR0Upper", "RInfUpper", "NegAreaLower"} <= skipped
    for rec in rep.records:
        if not rec.hypothesis_satisfied:
            assert rec.status == "Skipped"


def test_check_single_needs_no_root_isolation(ref_traj, ref_landmarks, ref_report,
                                             monkeypatch):
    """The hypotheses are read off the derived constants alone."""
    def refuse(params):
        raise AssertionError("analyze_cubic called")

    monkeypatch.setattr(bounds, "analyze_cubic", refuse)
    assert check_single(ref_traj, ref_landmarks) == ref_report


def test_kappa_prime_bound_holds_at_small_slope_next_to_the_axis():
    """At w0p = 1e-4, with chart A started at r = 1e-5, a first chart-A
    step from there to about 1e-4, ten times the start radius, left the
    interpolant off near the axis, and KappaPrimeBound failed with
    lhs 5.7e-8 against tol 1e-8.  No chart-A step is longer than the radius
    it starts from, and the check passes with its usual margin."""
    traj = integrate(HelfrichParams(-1.924297712971017, -0.9211122702013553,
                                    1.8286734499794792), 1e-4,
                     SolverConfig(eps_start=1e-5))
    xs = traj.xs
    assert xs[0] == 1e-5
    assert all(xs[1:] - xs[:-1] <= xs[:-1])
    rec = _record(check_single(traj, extract_landmarks(traj)), "KappaPrimeBound")
    assert rec.hypothesis_satisfied and rec.status == "Pass", rec
    assert rec.lhs < 0.0


def test_check_single_inverts_no_radius(ref_traj, ref_landmarks, ref_report):
    """The pointwise checks sample arc length, which the package maps to no
    radius: the report is reproduced, and a small-slope run passes."""
    assert check_single(ref_traj, ref_landmarks) == ref_report
    traj = integrate(PAPER, 1e-3)
    assert check_single(traj, extract_landmarks(traj)).passed


# (c0, lambda, p), w0p, eps_start: the reference point and the top of its sweep,
# the small-slope cell next to the axis above, two other parameter sets,
# and one whose hypotheses fail, so that three of the four are Skipped
_ORACLE_CELLS = [
    ((1.0, 0.25, 1.0), 0.05, None),
    ((1.0, 0.25, 1.0), 0.1, None),
    ((-1.924297712971017, -0.9211122702013553, 1.8286734499794792), 1e-4, 1e-5),
    ((2.0, 1.0, 0.5), 0.01, None),
    ((0.5, 0.5, 3.0), 1e-3, None),
    ((0.0, -2.0, 2.0), 0.05, None),
]


@pytest.mark.parametrize("params, w0p, eps", _ORACLE_CELLS)
def test_pointwise_checks_agree_with_the_r_grid(params, w0p, eps):
    """The arc-length samples give every pointwise record the status of
    the former r-grid evaluation, which inverted r(s) at 4000 radii, and
    an lhs within the checks' slack of it."""
    traj = integrate(HelfrichParams(*params), w0p, SolverConfig(eps_start=eps))
    lm = extract_landmarks(traj)
    got = {rec.check_id: rec for rec in check_single(traj, lm).records}
    want = pointwise_r_grid(traj, lm)
    for check_id, rec in want.items():
        new = got[check_id]
        assert (new.hypothesis_satisfied, new.status) == (rec.hypothesis_satisfied, rec.status)
        assert (new.lhs is None) == (rec.lhs is None)
        if rec.lhs is not None:
            assert abs(new.lhs - rec.lhs) <= bounds._PTWISE_TOL, (check_id, new.lhs, rec.lhs)


@pytest.mark.parametrize("params, w0p, eps", _ORACLE_CELLS)
def test_pointwise_checks_agree_with_the_even_s_grid(params, w0p, eps):
    """The per-step samples give every pointwise record the status of the
    former evaluation at 4000 evenly spaced arc lengths, and an lhs within
    the checks' slack of it."""
    traj = integrate(HelfrichParams(*params), w0p, SolverConfig(eps_start=eps))
    lm = extract_landmarks(traj)
    got = {rec.check_id: rec for rec in check_single(traj, lm).records}
    want = pointwise_s_grid(traj, lm, 4000)
    assert len(want) == 4
    for check_id, rec in want.items():
        new = got[check_id]
        assert (new.hypothesis_satisfied, new.status) == (rec.hypothesis_satisfied, rec.status)
        assert (new.lhs is None) == (rec.lhs is None)
        if rec.lhs is not None:
            assert abs(new.lhs - rec.lhs) <= bounds._PTWISE_TOL, (check_id, new.lhs, rec.lhs)


def test_xi_floor_reads_the_peak_of_w(ref_traj, ref_landmarks):
    """sin^2 psi peaks on (0, r0] where w does, at the MaxOfW event, so
    XiFloor's lhs is xi - cos^2 psi there, above the value of the former
    4000-point grid, whose samples fall beside the peak."""
    ev = ref_traj.first_event(MAX_OF_W)
    assert ev.x < ref_traj.first_event(ZERO_OF_W).x
    xi = derived_constants(PAPER, 0.05).xi
    got = {rec.check_id: rec for rec in check_single(ref_traj, ref_landmarks).records}
    assert got["XiFloor"].lhs == pytest.approx(xi - (1.0 - math.sin(ev.state[2]) ** 2),
                                               rel=0.0, abs=1e-15)
    grid = pointwise_s_grid(ref_traj, ref_landmarks, 4000)["XiFloor"].lhs
    assert got["XiFloor"].lhs - grid > 1e-12


def test_overflowing_point_is_an_error_verdict():
    traj, lm, verdict = bounds.solve_and_classify(PAPER, 1e200)
    assert (traj, verdict) == (None, "Error:OverflowError")
    assert all(v is None for v in lm._asdict().values())


def test_reports_are_reproducible(ref_traj, ref_landmarks):
    a = check_single(ref_traj, ref_landmarks)
    b = check_single(ref_traj, ref_landmarks)
    assert a == b


def test_asymptotic_sweep_reference(sweep_runs):
    runs = [(w0p, cls.verdict, lm) for w0p, _, lm, cls in sweep_runs]
    rep = asymptotic_sweep(PAPER, runs=runs)
    assert not rep.excluded
    assert not rep.band_failures
    assert rep.neg_area_ratio_inf > 0.0
    assert rep.passed
    good = [r for r in rep.records if r.classification == BICONCAVE]
    for r in good:
        assert r.rm2_over_w0p <= r.r02_over_w0p  # r_M < r0
    smallest = good[-1]
    assert math.isclose(smallest.rm2_over_w0p, 32.0 / 3.0, rel_tol=2e-3)
    assert math.isclose(smallest.r02_over_w0p, 32.0, rel_tol=2e-3)
    assert math.isclose(smallest.slope_ratio, -2.0, rel_tol=2e-3)
    assert smallest.pos_area_ratio <= 8.0 * 1.1


def _ratio_landmarks(w0p, rm2, r02, slope, pos, neg=1.0):
    """Landmarks whose ratios r_M^2/w0p, r0^2/w0p, w'(r0)/w0p,
    z(r0)/w0p^2 and the negative area over w0p take the given values."""
    z_r0 = pos * w0p ** 2
    return Landmarks(math.sqrt(rm2 * w0p), None, math.sqrt(r02 * w0p), slope * w0p, z_r0,
                     None, z_r0 - neg * w0p, 1)


def test_asymptotic_sweep_reports_each_band_failure():
    """At p = 1 the bands are rm2/w0p >= 0.9 * 32/3, r0^2/w0p <= 1.1 * 32,
    w'(r0)/w0p in [-2.2, -0.6] and the positive-area ratio <= 8.8: a run
    at w0p = 1e-2 outside all four reports each, and the sweep fails; runs
    inside every band report nothing."""
    bad = _ratio_landmarks(1e-2, rm2=5.0, r02=40.0, slope=-3.0, pos=10.0)
    rep = asymptotic_sweep(PAPER, [(1e-2, BICONCAVE, bad)])
    assert rep.band_failures == (
        "rm2/w0p=5 below band at w0p=0.01",
        "r0^2/w0p=40 above band at w0p=0.01",
        "wp(r0)/w0p=-3 outside band at w0p=0.01",
        "pos-area ratio 10 above 8.8/p at w0p=0.01",
    )
    assert not rep.passed

    runs = [(w0p, BICONCAVE, _ratio_landmarks(w0p, 32.0 / 3.0, 32.0, -1.0, 8.0))
            for w0p in (1e-2, 1e-3)]
    rep = asymptotic_sweep(PAPER, runs)
    assert rep.band_failures == () and rep.neg_area_ratio_inf > 0.0 and rep.passed


def test_phase_sweep_grid_and_expectations():
    import itertools
    grid = list(itertools.product([1.0, 2.0], [0.25, 0.5], [1.0],
                                  [0.01, 0.02, 0.04]))
    cells = phase_sweep(grid)
    assert len(cells) == 12
    for c in cells:
        assert c.roots_all_positive  # c0, lam, p > 0
        assert c.classification == BICONCAVE
        assert not c.anomaly


def test_phase_sweep_blowup_cell():
    cells = phase_sweep([(5.0, 0.0, 0.1, 1.0)])
    assert cells[0].classification == "BlowUpPositive"
    assert not cells[0].anomaly  # w0p above the smallest root: no guarantee


def test_phase_sweep_above_root_never_anomaly():
    params = HelfrichParams(1.0, 0.25, 1.0)
    root = analyze_cubic(params).smallest_root
    cells = phase_sweep([(1.0, 0.25, 1.0, root * 1.5)])
    assert not cells[0].anomaly


def _analysis_per_cell(grid):
    """The cubic analyses of ``bounds._cubic_analyses``, made once per cell."""
    out = []
    for c0, lam, p, _ in grid:
        try:
            out.append(analyze_cubic(HelfrichParams(c0, lam, p)))
        except ArithmeticError as exc:
            out.append(exc)
    return out


def test_phase_sweep_analyses_each_parameter_set_once(monkeypatch):
    """A 2 x 1 x 2 x 3 grid has 4 parameter sets for its 12 cells: with one
    worker, the sweep analyses Q 4 times, and its rows are those of an
    analysis per cell.  0.0 and -0.0 are two sets."""
    import itertools
    calls = []

    def counted(params):  # the sweep calls it by this name
        calls.append(params)
        return analyze_cubic(params)

    monkeypatch.setattr(bounds, "analyze_cubic", counted)
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 1)
    grid = list(itertools.product([1.0, 2.0], [0.25], [0.5, 1.0], [0.01, 0.02, 0.04]))
    cells = phase_sweep(grid)
    assert len(calls) == 4
    assert cells == [bounds._phase_cell(cell, None, ca)
                     for cell, ca in zip(grid, _analysis_per_cell(grid))]
    calls.clear()
    phase_sweep([(0.0, 0.25, 1.0, 0.05), (-0.0, 0.25, 1.0, 0.05), (0.0, 0.25, 1.0, 0.05)])
    assert [math.copysign(1.0, params.c0) for params in calls] == [1.0, -1.0]


def _sweep_csv(argv, out):
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 0
    return (out / "phase.csv").read_bytes()


def test_overflowing_parameter_set_is_an_error_row_on_each_of_its_cells(tmp_path):
    """c0 = 1e160 squares out of the float range: each of its three cells
    reads Error:OverflowError, and the cells of c0 = 1 are solved."""
    text = _sweep_csv(["--c0-range", "1:1e160:2", "--w0p-range", "0.01:0.05:3"], tmp_path)
    rows = [row.split(",") for row in text.decode().splitlines()[1:]]
    assert len(rows) == 6
    for row in rows:
        want = "Error:OverflowError" if row[0] == "1e+160" else BICONCAVE
        assert row[4] == want, row


def test_signed_zero_sets_write_the_bytes_of_an_analysis_per_cell(tmp_path, monkeypatch):
    """A c0 axis of 0.0 and -0.0 writes the phase.csv that analysing Q
    once per cell writes."""
    argv = ["--c0-range=0.0:-0.0:2", "--lambda-range=-1:0.5:2", "--w0p-range", "0.01:0.05:2"]
    once = _sweep_csv(argv, tmp_path / "once")
    assert b"\n-0," in once and b"\n0," in once
    monkeypatch.setattr(bounds, "_cubic_analyses", _analysis_per_cell)
    assert _sweep_csv(argv, tmp_path / "per_cell") == once


def _all_roots_positive_sets(rng, c0_range, lam_range, log10_p_range, n):
    """n draws of (params, t1), t1 the smallest root of Q, redrawn until
    every real root of Q is positive; p is log-uniform."""
    sets = []
    while len(sets) < n:
        params = HelfrichParams(rng.uniform(*c0_range), rng.uniform(*lam_range),
                                10.0 ** rng.uniform(*log10_p_range))
        ca = analyze_cubic(params)
        if ca.all_roots_positive:
            sets.append((params, ca.smallest_root))
    return sets


def test_no_biconcave_just_above_the_smallest_root():
    """Conjecture test, not a theorem: where every root of Q is positive,
    no verdict is Biconcave at w0p = 1.01 t1 or 1.1 t1, t1 the smallest
    root.  The sets are the first 25 seeded draws of the benchmark region
    and of the fuzz ranges.  The sharp form, no Biconcave at w0p >= t1,
    is false: on 50 + 50 such draws 3 and 28 sets are Biconcave at t1,
    and 3 and 6 at t1 (1 + 1e-6), all with t1 < 0.03 (README)."""
    import random
    sets = (_all_roots_positive_sets(random.Random(0), (-2, 3), (-1, 2), (-1, 1), 25)
            + _all_roots_positive_sets(random.Random(1), (-5, 5), (-3, 3), (-4, 2), 25))
    for params, t1 in sets:
        for factor in (1.01, 1.1):
            verdict = bounds.solve_and_classify(params, factor * t1)[2]
            assert verdict != BICONCAVE, (params, factor)


# _map_points: the worker count is forced through bounds._cpu_count


@pytest.fixture
def forks(monkeypatch):
    """Number of os.fork calls this process makes."""
    count = [0]
    real = os.fork

    def counted():
        count[0] += 1
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return count


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_points_keeps_input_order(monkeypatch, forks):
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 3)
    got = bounds._map_points(lambda x: (x * x, os.getpid()), range(10))
    assert [v for v, _ in got] == [x * x for x in range(10)]
    pids = [pid for _, pid in got]
    assert pids[0::3] == [os.getpid()] * 4  # this process computes share 0
    assert len(set(pids)) == 3
    assert forks[0] == 2
    _assert_no_child_left()


@pytest.mark.parametrize("exc_type", [ValueError, MissingEvent])
def test_map_points_child_error_reaches_caller(monkeypatch, exc_type):
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            raise exc_type(f"bad point {x}")
        return x

    with pytest.raises(exc_type, match=r"^bad point 1$") as ei:
        bounds._map_points(fn, [0, 1, 2, 3])
    assert type(ei.value) is exc_type
    _assert_no_child_left()


def test_map_points_parent_error_kills_children(monkeypatch):
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:
            raise RuntimeError("parent share failed")
        time.sleep(60)  # only a kill ends the child in time
        return x

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="parent share failed"):
        bounds._map_points(fn, [0, 1])
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


@pytest.mark.parametrize("cpus, n_items", [(1, 5), (4, 1), (4, 0)])
def test_map_points_serial_without_fork(monkeypatch, forks, cpus, n_items):
    monkeypatch.setattr(bounds, "_cpu_count", lambda: cpus)
    assert bounds._map_points(lambda x: x + 1, range(n_items)) == list(range(1, n_items + 1))
    assert forks[0] == 0


def test_map_points_serial_where_fork_is_missing(monkeypatch):
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert bounds._worker_count(10) == 1
    parent = os.getpid()
    assert bounds._map_points(lambda x: os.getpid(), range(3)) == [parent] * 3


def test_map_points_child_without_results_is_an_error(monkeypatch):
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            raise SystemExit(2)  # not an Exception: the child sends nothing
        return x

    with pytest.raises(ChildProcessError, match="without sending its results"):
        bounds._map_points(fn, [0, 1])
    _assert_no_child_left()


# solve's emitters: mesh.obj in this process, the text files in one worker

SOLVE_ALL = ["solve", "--format", "csv,json,svg,obj"]
BICONCAVE_FLAGS = ["--c0", "1", "--lambda", "0.25", "--p", "1", "--w0p", "0.05"]
BLOWUP_FLAGS = ["--c0", "5", "--lambda", "0", "--p", "0.1", "--w0p", "1"]


@pytest.mark.parametrize("flags, code, forked", [
    (BICONCAVE_FLAGS, 0, 1),
    (BLOWUP_FLAGS, 2, 0),  # no mesh: one job, no fork
])
def test_solve_files_do_not_depend_on_the_worker_count(flags, code, forked, monkeypatch,
                                                       forks, tmp_path):
    files = []
    for cpus in (1, 2):
        monkeypatch.setattr(bounds, "_cpu_count", lambda: cpus)
        out = tmp_path / str(cpus)
        assert cli.main([*SOLVE_ALL, *flags, "--out", str(out)]) == code
        files.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert files[0] == files[1]
    assert ("mesh.obj" in files[0]) == (code == 0)
    assert forks[0] == forked
    _assert_no_child_left()


@pytest.mark.parametrize("formats", ["csv,json", "obj"])
def test_solve_with_one_job_does_not_fork(formats, monkeypatch, forks, tmp_path):
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 2)
    assert cli.main(["solve", *BICONCAVE_FLAGS, "--format", formats,
                     "--out", str(tmp_path)]) == 0
    assert forks[0] == 0


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("taken", ["profile.csv", "mesh.obj"])
def test_solve_emitter_error_exits_1_with_one_line(taken, cpus, monkeypatch, tmp_path,
                                                   capsys):
    """A directory in the way of the worker's profile.csv or of this
    process's mesh.obj fails the command with exit 1 and one line.  The
    mesh, job 0, is written before the worker's error is raised; a failed
    mesh kills the worker."""
    monkeypatch.setattr(bounds, "_cpu_count", lambda: cpus)
    (tmp_path / taken).mkdir()
    assert cli.main([*SOLVE_ALL, *BICONCAVE_FLAGS, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("helfrich: IsADirectoryError: ")
    assert err.endswith(f"{taken}'\n") and len(err.splitlines()) == 1
    assert (tmp_path / "mesh.obj").is_file() == (taken == "profile.csv")
    _assert_no_child_left()
