"""Executable contracts for the quantitative estimates.

Every inequality the analysis proves about biconcave solutions becomes
a machine-checkable record with an explicit hypothesis flag, measured
margin, and tolerance.  A check whose hypothesis fails is reported
Skipped, never Pass.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from typing import NamedTuple

from .analysis import BICONCAVE, Landmarks, classify, extract_landmarks
from .cubic import HelfrichParams, analyze_cubic, derived_constants, eval_r
from .errors import HelfrichError, MissingEvent
from .solver import EQUATOR, MAX_OF_W, ZERO_OF_W, SolverConfig, Trajectory, integrate

__all__ = [
    "CheckRecord",
    "BoundsReport",
    "AsymptoticReport",
    "PhaseCell",
    "check_single",
    "solve",
    "solve_and_classify",
    "verify_point",
    "asymptotic_sweep",
    "phase_sweep",
]

_PTWISE_TOL = 1e-8  # slack for the re-asserted pointwise inequalities
# the pointwise checks' samples: this many per step of the run, and the
# axis series at the radii j s(r0) / _AXIS_DIVISIONS below the start
_STEP_NODES = 128
_AXIS_DIVISIONS = 4000
_BAND = 0.1  # relative band of the small-slope limit ratios
_BAND_W0P_MAX = 1e-2  # the band applies where w0p <= this


class CheckRecord(NamedTuple):
    """One inequality: pass iff margin = rhs - lhs >= -tol."""

    check_id: str
    hypothesis_satisfied: bool
    lhs: float | None
    rhs: float | None
    margin: float | None
    tol: float
    status: str  # Pass | Fail | Skipped
    info: dict


class BoundsReport(NamedTuple):
    w0p: float
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(rec.status != "Fail" for rec in self.records)


def _make(check_id, hyp, lhs, rhs, tol=None, info=None):
    """The record of lhs <= rhs, by default with the tolerance _PTWISE_TOL
    max(1, |lhs|, |rhs|), a missing rhs read as 0."""
    if tol is None:
        tol = _PTWISE_TOL * max(1.0, abs(lhs), abs(rhs or 0.0))
    if not hyp:
        return CheckRecord(check_id, False, lhs, rhs, None, tol, "Skipped", info or {})
    margin = rhs - lhs
    status = "Pass" if margin >= -tol else "Fail"
    return CheckRecord(check_id, True, float(lhs), float(rhs), float(margin),
                       tol, status, info or {})


def _r_max_on_interval(params: HelfrichParams, w0p: float) -> float:
    """max of the quadratic R on [0, w0p] (endpoints + interior vertex)."""
    cand = [0.0, w0p]
    if params.c0 != 0.0:
        v = -(params.c0 ** 2 + params.lam) / (4.0 * params.c0)
        if 0.0 < v < w0p:
            cand.append(v)
    return max(eval_r(t, params) for t in cand)


def check_single(traj: Trajectory, landmarks: Landmarks) -> BoundsReport:
    """Evaluate every single-run estimate on an equator-reaching trajectory,
    with the constants of -Q at the run's own parameters and slope.

    The pointwise checks on (0, r0] read r, psi and psi' off the run at
    ``_STEP_NODES`` samples per step up to s(r0), the ``ZeroOfW`` event's
    arc length, after the axis series at the radii j s(r0) /
    ``_AXIS_DIVISIONS`` below the start (``Trajectory.sample_steps``);
    XiFloor also reads psi at the ``MaxOfW`` events before s(r0)."""
    import numpy as np
    ev = traj.first_event(EQUATOR)
    if ev is None:
        raise MissingEvent("check_single requires an Equator trajectory")
    if landmarks.r0 is None:
        raise MissingEvent("check_single requires a ZeroOfW event")

    params, w0p = traj.params, traj.w0p
    consts = derived_constants(params, w0p)
    dp, xi, delta = consts.delta_plus, consts.xi, consts.delta
    # delta > 0: delta_plus > 0 and all real roots positive (Q < 0 on t <= 0)
    hyp = bool(delta > 0.0)
    hyp_xi = bool(hyp and xi > 0.0)

    r0, wp_r0, z_r0 = landmarks.r0, landmarks.wp_r0, landmarks.z_r0
    r_inf, z_inf = landmarks.r_inf, landmarks.z_inf
    int_neg = z_r0 - z_inf  # int_{r0}^{r_inf} |w|

    records = []

    rhs = 16.0 * w0p / dp if dp > 0.0 else None
    records.append(_make("R0Upper", hyp, r0 ** 2, rhs,
                         info={"variant_64_bound": (64.0 * w0p / dp) if dp > 0 else None}))

    rhs = -dp * r0 ** 2 / 8.0 if dp > 0.0 else None
    records.append(_make("WpR0Upper", hyp, wp_r0, rhs))

    if hyp_xi:
        rhs = 4.0 * w0p ** 2 / (dp * math.sqrt(xi))
        info = {"variant_delta32_bound": 4.0 * w0p ** 2 / (dp ** 1.5 * math.sqrt(xi))}
    else:
        rhs, info = None, {}
    records.append(_make("AreaPosUpper", hyp_xi, z_r0, rhs, info=info))

    # pointwise re-assertions on (0, r0], sampled step by step up to s(r0).
    # kappa = sin psi / r, its r-derivative psi'/r - sin psi / r^2 and
    # 1 - r^2 kappa^2 = cos^2 psi are read off the angle
    s0 = traj.first_event(ZERO_OF_W).x
    rs, psi, dpsi = traj.sample_steps(s0, _STEP_NODES, s0 / _AXIS_DIVISIONS).T
    sp = np.sin(psi)
    kap = sp / rs
    kap_p = dpsi / rs - sp / (rs * rs)

    hyp_mono = bool(_r_max_on_interval(params, w0p) < 0.0)
    # lhs, the largest rise of kappa between samples, is 3 c dr^2 near the axis
    # (kappa ~ w0p + c r^2): there it measures the spacing dr, not the run
    lhs = float(np.max(np.diff(kap)))
    records.append(_make("KappaMonotone", hyp_mono, lhs, 0.0, _PTWISE_TOL))

    # kappa' <= -(delta_plus/8) r: the linear form that integrates to the
    # kappa bound below and yields w'(r0) < -delta_plus r0^2 / 8 at r0.
    # Near the axis the margin shrinks like w0p^3 r while the evaluation
    # noise of kappa' grows like state-error / r^2, so the comparison
    # carries an r-dependent noise allowance there; its maximum there is the
    # first radius's value, below a peak near the axis that no grid resolves.
    if dp > 0:
        # state error ~ tolerance enters kappa' as dw'/r; rounding as dw/r^2
        tol_state = traj.cfg.abs_tol + traj.cfg.rel_tol * (w0p + abs(wp_r0))
        noise = (30.0 * tol_state / rs
                 + 50.0 * np.finfo(float).eps * (w0p + rs) / (rs * rs))
        lhs = float(np.max(kap_p + dp * rs / 8.0 - noise))
        info = {"variant_r2_bound_max": float(np.max(kap_p + dp * rs * rs / 8.0))}
    else:
        lhs, info = None, {}
    records.append(_make("KappaPrimeBound", hyp, lhs, 0.0, _PTWISE_TOL, info))

    lhs = float(np.max(kap - (w0p - dp * rs * rs / 16.0))) if dp > 0 else None
    records.append(_make("KappaBound", hyp, lhs, 0.0, _PTWISE_TOL))

    # max(xi - (1 - sin^2 psi)), taken at the largest sin^2 psi: on the
    # samples, or where w peaks on (0, r0], at the MaxOfW events there
    peak = max([float(np.max(sp * sp))] + [math.sin(e.state[2]) ** 2 for e in traj.events
                                           if e.kind == MAX_OF_W and e.x < s0])
    lhs = xi - (1.0 - peak) if hyp_xi else None
    records.append(_make("XiFloor", hyp_xi, lhs, 0.0, _PTWISE_TOL))

    B2 = delta * r0 ** 2 * abs(wp_r0)
    B = math.sqrt(B2) if B2 > 0.0 else 0.0
    x = r_inf - r0
    if hyp:
        rhs = math.pi / (2.0 * B)
        dproof = min(dp / 4.0, consts.delta_minus / 2.0)
        info = {"variant_quarter_delta_bound": math.pi / (2.0 * math.sqrt(dproof * r0 ** 2 * abs(wp_r0)))}
    else:
        rhs, info = None, {}
    records.append(_make("RInfUpper", hyp, x, rhs, info=info))

    if hyp and B * x < math.pi / 2.0 * (1.0 + 1e-9):
        bx = min(B * x, math.pi / 2.0 * (1.0 - 1e-15))
        log_bound = math.log(1.0 / math.cos(bx)) / B
        quad_bound = 0.5 * B * x * x
        info = {"b_times_x": B * x, "quad_bound": quad_bound,
                "b_lower_chain": math.sqrt(delta * dp / 8.0) * r0 ** 2}
        records.append(_make("NegAreaLower", True, log_bound, int_neg, info=info))
    elif hyp:
        # B x < pi/2 is guaranteed on valid runs; a violation is a solver defect
        records.append(_make("NegAreaLower", True, B * x, math.pi / 2.0, 0.0,
                             {"reason": "B(r_inf - r0) >= pi/2"}))
    else:
        records.append(_make("NegAreaLower", False, None, None, _PTWISE_TOL))

    # blow-down growth ratio w'^2 / (|w| (1+w^2)^(5/2)) = psi'^2 / |sin psi|
    # past the Steep event: there and at the start states of the later
    # steps, which need no dense output
    steep = traj.switch
    states = np.vstack([steep.state, traj.nodes[traj.xs[:-1] > steep.x]])
    ratio = states[:, 3] ** 2 / np.abs(np.sin(states[:, 2]))
    limit_est = ev.state[3] ** 2
    lhs = float(ratio.max())
    finite = bool(np.all(np.isfinite(ratio)))
    records.append(_make("WprimeOrdBounded", finite, lhs, 2.0 * limit_est,
                         info={"equator_limit": limit_est}))

    records.append(_make("ZInfNegative", True, z_inf, 0.0))

    ratio_v = int_neg / w0p
    records.append(_make("IntVLowerRatio", True, 0.0, ratio_v, _PTWISE_TOL,
                         {"int_neg": int_neg}))

    return BoundsReport(w0p, tuple(records))


class AsymptoticRecord(NamedTuple):
    w0p: float
    classification: str
    rm2_over_w0p: float | None = None
    r02_over_w0p: float | None = None
    slope_ratio: float | None = None
    pos_area_ratio: float | None = None
    neg_area_ratio: float | None = None


class AsymptoticReport(NamedTuple):
    """Small-slope trend of the landmark ratios against the limit bands."""

    records: tuple[AsymptoticRecord, ...]
    excluded: tuple[float, ...]
    band_failures: tuple[str, ...]
    limits: dict
    neg_area_ratio_inf: float | None

    @property
    def passed(self) -> bool:
        return not self.band_failures and (self.neg_area_ratio_inf or 0.0) > 0.0


def solve(params: HelfrichParams, w0p: float, cfg: SolverConfig | None = None):
    """Integrate, extract landmarks and classify one point.

    Returns (trajectory, landmarks, ``Classification``); solver errors
    propagate.
    """
    traj = integrate(params, w0p, cfg)
    lm = extract_landmarks(traj)
    return traj, lm, classify(traj, lm)


def solve_and_classify(params: HelfrichParams, w0p: float,
                       cfg: SolverConfig | None = None):
    """``solve`` returning (trajectory, landmarks, verdict); a
    ``HelfrichError`` or a float overflow is the verdict ``Error:<Name>``
    with no trajectory and empty landmarks, so one point ends no sweep."""
    try:
        traj, lm, cls = solve(params, w0p, cfg)
    except (HelfrichError, ArithmeticError) as exc:
        return None, Landmarks(*[None] * 8), _error_verdict(exc)
    return traj, lm, cls.verdict


def _error_verdict(exc: Exception) -> str:
    return f"Error:{type(exc).__name__}"


def verify_point(params: HelfrichParams, w0p: float,
                 cfg: SolverConfig | None = None):
    """Solve and classify one point of a w0p sweep and, if it is
    Biconcave, check its estimates.

    Returns (landmarks, verdict, ``BoundsReport`` or None); the trajectory
    stays with the caller, so a point computed in a worker process sends
    back only these.
    """
    traj, lm, verdict = solve_and_classify(params, w0p, cfg)
    if verdict != BICONCAVE:
        return lm, verdict, None
    return lm, verdict, check_single(traj, lm)


def _cpu_count() -> int:
    """CPUs in this process's affinity mask, or all of them where the
    platform has no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(n_items: int) -> int:
    """Processes ``_map_points`` spreads ``n_items`` over: one per CPU, at
    most one per item, and one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_cpu_count(), n_items))


def _map_points(fn, items) -> list:
    """``[fn(x) for x in items]``, computed on every available CPU.

    With n workers, n - 1 forked children compute the strides
    ``items[k::n]`` while this process computes ``items[0::n]``.  Each
    child pickles its results back through a pipe and ends with
    ``os._exit``: it never returns into the caller and never flushes the
    stdio buffers it inherited.  The results come back in input order.
    An exception raised in any share is raised here with its type and
    message.  Every child is reaped before this returns or raises, and is
    killed first if this process itself raised.  A child's in-memory
    effects are lost, so ``fn`` must not leave state the caller relies
    on, but the files a child writes are not: they stay, also where
    another share raised.  A fork copies only the calling thread: the
    package starts no threads, and a caller with threads that hold locks
    ``fn`` needs would hang a child.
    """
    items = list(items)
    n = _worker_count(len(items))
    if n < 2:
        return [fn(x) for x in items]
    pids, readers = [], []
    done = False
    try:
        for k in range(1, n):
            rfd, wfd = os.pipe()
            readers.append(rfd)
            try:
                if (pid := os.fork()) == 0:
                    _run_share(fn, items[k::n], wfd)  # never returns
            finally:
                os.close(wfd)
            pids.append(pid)
        shares = [[fn(x) for x in items[0::n]]]
        for rfd in readers:
            with os.fdopen(rfd, "rb", closefd=False) as fh:
                try:
                    ok, value = pickle.load(fh)
                except EOFError:
                    raise ChildProcessError(
                        "a worker process ended without sending its results") from None
            if not ok:
                raise value
            shares.append(value)
        done = True
    finally:
        for rfd in readers:
            os.close(rfd)
        for pid in pids:
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[i % n][i // n] for i in range(len(items))]


def _run_share(fn, share, wfd) -> None:
    """Child side of ``_map_points``: compute ``share``, send (True,
    results) or (False, exception) through ``wfd``, and end the process."""
    code = 1
    try:
        try:
            msg = (True, [fn(x) for x in share])
        except Exception as exc:
            msg = (False, exc)
        data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(wfd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def asymptotic_sweep(params: HelfrichParams, runs) -> AsymptoticReport:
    """Compare the landmark ratios of a w0p sweep toward zero with the
    limit constants 32/(3p), 32/p, -2, -2/3, and 8/p.

    ``runs`` holds one (w0p, verdict, landmarks) triple per grid point.
    Relative band of 10% applies only where w0p <= 1e-2; the positive-
    area ratio is checked at the two smallest grid points.
    """
    runs = sorted(runs, key=lambda t: -t[0])
    p = params.p
    # the limit constants, None where p <= 0 (every solve there is InvalidParams)
    rm2_lim, r02_lim, pos_lim = (32.0 / (3.0 * p), 32.0 / p, 8.0 / p) if p > 0.0 else (None,) * 3
    records = []
    excluded = []
    failures = []
    for w0p, verdict, lm in runs:
        if verdict != BICONCAVE:
            excluded.append(float(w0p))
            records.append(AsymptoticRecord(float(w0p), verdict))
            continue
        rec = AsymptoticRecord(
            float(w0p), verdict,
            rm2_over_w0p=lm.r_m ** 2 / w0p,
            r02_over_w0p=lm.r0 ** 2 / w0p,
            slope_ratio=lm.wp_r0 / w0p,
            pos_area_ratio=lm.z_r0 / w0p ** 2,
            neg_area_ratio=(lm.z_r0 - lm.z_inf) / w0p,
        )
        records.append(rec)
        if w0p <= _BAND_W0P_MAX:
            if rec.rm2_over_w0p < rm2_lim * (1.0 - _BAND):
                failures.append(f"rm2/w0p={rec.rm2_over_w0p:.4g} below band at w0p={w0p:g}")
            if rec.r02_over_w0p > r02_lim * (1.0 + _BAND):
                failures.append(f"r0^2/w0p={rec.r02_over_w0p:.4g} above band at w0p={w0p:g}")
            if not (-2.0 - 2.0 * _BAND <= rec.slope_ratio <= -2.0 / 3.0 + (2.0 / 3.0) * _BAND):
                failures.append(f"wp(r0)/w0p={rec.slope_ratio:.4g} outside band at w0p={w0p:g}")

    good = [r for r in records if r.classification == BICONCAVE]
    small = [r for r in good if r.w0p <= _BAND_W0P_MAX]
    for r in small[-2:]:  # two smallest points inside the asymptotic regime
        if r.pos_area_ratio > pos_lim * (1.0 + _BAND):
            failures.append(f"pos-area ratio {r.pos_area_ratio:.4g} above "
                            f"{8.0 * (1.0 + _BAND):g}/p at w0p={r.w0p:g}")

    neg_inf = min((r.neg_area_ratio for r in good), default=None)
    limits = {name: {"value": getattr(good[-1], name) if good else None, key: value}
              for name, key, value in (
                  ("rm2_over_w0p", "limit_constant", rm2_lim),
                  ("r02_over_w0p", "limit_constant", r02_lim),
                  ("slope_ratio", "limit_band", [-2.0, -2.0 / 3.0]),
                  ("pos_area_ratio", "limit_constant", pos_lim))}
    return AsymptoticReport(tuple(records), tuple(excluded), tuple(failures),
                            limits, neg_inf)


class PhaseCell(NamedTuple):
    c0: float
    lam: float
    p: float
    w0p: float
    classification: str
    roots_all_positive: bool
    anomaly: bool
    r_m: float | None = None
    r0: float | None = None
    wp_r0: float | None = None
    r_inf: float | None = None
    z_inf: float | None = None


def _phase_cell(cell, cfg: SolverConfig | None) -> PhaseCell:
    c0, lam, p, w0p = cell
    params = HelfrichParams(c0, lam, p)
    try:
        ca = analyze_cubic(params)
    except ArithmeticError as exc:
        return PhaseCell(c0, lam, p, w0p, _error_verdict(exc), False, False)
    _, lm, verdict = solve_and_classify(params, w0p, cfg)
    expected = ca.all_roots_positive and 0.0 < w0p <= 0.1 * ca.smallest_root
    return PhaseCell(
        c0, lam, p, w0p, verdict, ca.all_roots_positive,
        bool(expected and verdict != BICONCAVE),
        lm.r_m, lm.r0, lm.wp_r0, lm.r_inf, lm.z_inf,
    )


def phase_sweep(grid, cfg: SolverConfig | None = None) -> list[PhaseCell]:
    """Classify every (c0, lambda, p, w0p) cell of a finite grid.

    Cells where every real root of Q is positive (``delta_minus`` > 0, the
    hypothesis ``check_single`` applies) and 0 < w0p is at most a tenth
    of the smallest root, both read off one ``analyze_cubic`` call, are
    expected biconcave; such a cell that fails to classify Biconcave is
    flagged as an anomaly.  A cell whose cubic analysis overflows gets the
    verdict ``Error:<Name>``, as a failing solve does, with
    ``roots_all_positive`` false, and is no anomaly.
    The cells are solved side by side on every CPU (see ``_map_points``).
    """
    return _map_points(lambda cell: _phase_cell(cell, cfg), grid)
