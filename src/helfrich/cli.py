"""Command-line entry points: solve, verify, sweep, plot, mesh.

Exit codes: 0 success/Biconcave, 1 solver or check failure, 2 other
classification, 3 anomaly cells in a sweep, 64 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict
from collections import namedtuple

import numpy as np

from .analysis import (
    BICONCAVE,
    classify,
    el_residual,
    equator_identity_residual,
    extract_landmarks,
    profile_points,
    surface_totals,
)
from .bounds import asymptotic_sweep, check_single, phase_sweep, solve_and_classify
from .cubic import HelfrichParams, derived_constants
from .errors import HelfrichError, MissingEvent
from .export import (
    build_mesh,
    fmt17,
    read_profile_csv,
    render_svg,
    write_json,
    write_obj,
    write_profile_csv,
)
from .solver import EQUATOR, SolverConfig, integrate

EX_OK = 0
EX_ERROR = 1
EX_NOT_BICONCAVE = 2
EX_ANOMALY = 3
EX_USAGE = 64

Opt = namedtuple("Opt", "flag dest conv default help")

PARAM_OPTS = [
    Opt("--c0", "c0", float, None, "spontaneous curvature"),
    Opt("--lambda", "lam", float, None, "tensile stress"),
    Opt("--p", "p", float, None, "osmotic pressure difference"),
]
W0P_OPT = Opt("--w0p", "w0p", float, None, "initial slope w'(0) > 0")
SOLVER_OPTS = [
    Opt("--rel-tol", "rel_tol", float, 1e-10, "relative tolerance"),
    Opt("--abs-tol", "abs_tol", float, 1e-12, "absolute tolerance"),
    Opt("--eps-start", "eps_start", float, None, "series start radius"),
    Opt("--w-switch", "w_switch", float, 10.0, "|w| threshold for the chart switch"),
    Opt("--r-max", "r_max", float, None, "abort radius"),
    Opt("--max-steps", "max_steps", int, 1_000_000, "step budget"),
    Opt("--event-tol", "event_tol", float, 1e-12, "event location tolerance"),
]
SWEEP_OPTS = [
    Opt("--sweep-min", "sweep_min", float, 1e-4, "smallest w0p of the sweep"),
    Opt("--sweep-max", "sweep_max", float, 1e-1, "largest w0p of the sweep"),
    Opt("--sweep-points", "sweep_points", int, 16, "number of sweep points"),
]
MESH_OPTS = [
    Opt("--segments-theta", "segments_theta", int, 128, "angular segments"),
    Opt("--segments-profile", "segments_profile", int, 256, "profile segments per half"),
]
RANGE_OPTS = [
    Opt("--c0-range", "c0_range", str, "1:1:1", "c0 grid as start:stop:count"),
    Opt("--lambda-range", "lam_range", str, "0.25:0.25:1", "lambda grid"),
    Opt("--p-range", "p_range", str, "1:1:1", "p grid"),
    Opt("--w0p-range", "w0p_range", str, "0.05:0.05:1", "w0p grid"),
]

VALID_FORMATS = ("csv", "json", "svg", "obj")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _add_opts(sp, opts):
    for o in opts:
        sp.add_argument(o.flag, dest=o.dest, type=o.conv, default=None, help=o.help)


def _flag_key(flag: str) -> str:
    return flag.lstrip("-")


def _load_config(parser, path, allowed):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in allowed:
            parser.error(f"unknown config key {key!r}")
    return data


def _resolve(parser, args, opts, config):
    vals = {}
    for o in opts:
        v = getattr(args, o.dest)
        key = _flag_key(o.flag)
        if v is None and key in config:
            try:
                v = o.conv(config[key])
            except (TypeError, ValueError):
                parser.error(f"config key {key!r} has invalid value {config[key]!r}")
        if v is None:
            v = o.default
        vals[o.dest] = v
    return vals


def _require_params(parser, pv, need_w0p=True):
    for o in PARAM_OPTS + ([W0P_OPT] if need_w0p else []):
        if pv.get(o.dest) is None:
            parser.error(f"{o.flag} is required")
    if need_w0p and not (pv["w0p"] > 0.0):
        parser.error("--w0p must be > 0")


def _out_dir(args, config):
    out = getattr(args, "out", None)
    if out is None:
        out = config.get("out")
    if out is None:
        out = os.environ.get("OUTPUT_DIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _solver_config(parser, sv):
    try:
        return SolverConfig(**sv)
    except HelfrichError as exc:
        parser.error(str(exc))


def _report_payload(params, w0p, sv, traj, lm, cls):
    consts = derived_constants(params, w0p)
    payload = {
        "params": {"c0": params.c0, "lambda": params.lam, "p": params.p, "w0p": w0p},
        "config": sv,
        "status": traj.status,
        "landmarks": asdict(lm),
        "classification": asdict(cls),
        "derived_constants": asdict(consts),
        "el_residual": el_residual(traj),
        "equator_identity_residual": None,
        "totals": None,
        "bounds_report": None,
    }
    if traj.first_event(EQUATOR) is not None:
        payload["equator_identity_residual"] = equator_identity_residual(traj, params)
        payload["totals"] = asdict(surface_totals(traj))
        try:
            payload["bounds_report"] = asdict(check_single(traj, lm, params, consts))
        except MissingEvent:
            pass
    return payload


def _annotation(params, w0p):
    return (f"c0={params.c0:g}  lambda={params.lam:g}  p={params.p:g}  "
            f"w0p={w0p:g}")


def _cmd_solve(parser, args):
    allowed = {_flag_key(o.flag) for o in PARAM_OPTS + [W0P_OPT] + SOLVER_OPTS}
    allowed |= {"out", "format"}
    config = _load_config(parser, args.config, allowed)
    pv = _resolve(parser, args, PARAM_OPTS + [W0P_OPT], config)
    sv = _resolve(parser, args, SOLVER_OPTS, config)
    _require_params(parser, pv)
    fmt = args.format if args.format is not None else config.get("format", "csv,json")
    formats = [f.strip() for f in fmt.split(",") if f.strip()]
    for f in formats:
        if f not in VALID_FORMATS:
            parser.error(f"--format: unknown format {f!r}")
    out = _out_dir(args, config)

    params = HelfrichParams(pv["c0"], pv["lam"], pv["p"])
    cfg = _solver_config(parser, sv)
    traj = integrate(params, pv["w0p"], cfg)
    lm = extract_landmarks(traj)
    cls = classify(traj, lm)

    if "csv" in formats:
        write_profile_csv(os.path.join(out, "profile.csv"), traj)
    if "json" in formats:
        write_json(os.path.join(out, "report.json"),
                   _report_payload(params, pv["w0p"], sv, traj, lm, cls))
    if "svg" in formats and cls.verdict == BICONCAVE:
        pts = profile_points(traj)
        svg = render_svg(pts, _annotation(params, pv["w0p"]))
        with open(os.path.join(out, "profile.svg"), "w", newline="\n") as fh:
            fh.write(svg)
    if "obj" in formats and cls.verdict == BICONCAVE:
        verts, faces = build_mesh(traj)
        write_obj(os.path.join(out, "mesh.obj"), verts, faces)

    print(f"classification: {cls.verdict} ({cls.evidence})")
    return EX_OK if cls.verdict == BICONCAVE else EX_NOT_BICONCAVE


def _cmd_verify(parser, args):
    allowed = {_flag_key(o.flag) for o in PARAM_OPTS + SOLVER_OPTS + SWEEP_OPTS}
    allowed |= {"out"}
    config = _load_config(parser, args.config, allowed)
    pv = _resolve(parser, args, PARAM_OPTS, config)
    sv = _resolve(parser, args, SOLVER_OPTS, config)
    wv = _resolve(parser, args, SWEEP_OPTS, config)
    _require_params(parser, pv, need_w0p=False)
    if wv["sweep_points"] < 1:
        parser.error("--sweep-points must be >= 1")
    if not (0.0 < wv["sweep_min"] <= wv["sweep_max"]):
        parser.error("--sweep-min/--sweep-max must satisfy 0 < min <= max")
    out = _out_dir(args, config)

    params = HelfrichParams(pv["c0"], pv["lam"], pv["p"])
    cfg = _solver_config(parser, sv)
    grid = np.geomspace(wv["sweep_max"], wv["sweep_min"], wv["sweep_points"])

    per_point = []
    excluded = []
    runs = []
    all_pass = True
    for w0p in grid:
        w0p = float(w0p)
        traj, lm, verdict = solve_and_classify(params, w0p, cfg)
        runs.append((w0p, verdict, lm))
        if verdict != BICONCAVE:
            excluded.append({"w0p": w0p, "classification": verdict})
            continue
        report = check_single(traj, lm, params, derived_constants(params, w0p))
        all_pass &= report.passed
        per_point.append(asdict(report))

    asym = asymptotic_sweep(params, cfg=cfg, runs=runs)
    all_pass &= asym.passed

    payload = {
        "params": {"c0": params.c0, "lambda": params.lam, "p": params.p},
        "grid": [float(v) for v in grid],
        "per_point": per_point,
        "excluded": excluded,
        "asymptotics": asdict(asym),
        "all_passed": bool(all_pass),
    }
    write_json(os.path.join(out, "bounds_report.json"), payload)
    print(f"verify: {'all checks passed' if all_pass else 'FAILURES recorded'} "
          f"({len(per_point)} points, {len(excluded)} excluded)")
    return EX_OK if all_pass else EX_ERROR


def _parse_range(parser, spec, flag):
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error(f"{flag} must be start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        parser.error(f"{flag} must be start:stop:count, got {spec!r}")
    if count < 1:
        parser.error(f"{flag}: count must be >= 1")
    if count == 1:
        return [start]
    return list(np.linspace(start, stop, count))


def _cmd_sweep(parser, args):
    allowed = {_flag_key(o.flag) for o in RANGE_OPTS + SOLVER_OPTS} | {"out"}
    config = _load_config(parser, args.config, allowed)
    rv = _resolve(parser, args, RANGE_OPTS, config)
    sv = _resolve(parser, args, SOLVER_OPTS, config)
    out = _out_dir(args, config)
    cfg = _solver_config(parser, sv)

    grid = itertools.product(
        _parse_range(parser, rv["c0_range"], "--c0-range"),
        _parse_range(parser, rv["lam_range"], "--lambda-range"),
        _parse_range(parser, rv["p_range"], "--p-range"),
        _parse_range(parser, rv["w0p_range"], "--w0p-range"),
    )
    cells = phase_sweep(grid, cfg)

    path = os.path.join(out, "phase.csv")
    cols = ["c0", "lambda", "p", "w0p", "classification", "r_M", "r0",
            "wp_r0", "r_inf", "z_inf", "roots_all_positive"]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for c in cells:
            vals = [fmt17(c.c0), fmt17(c.lam), fmt17(c.p), fmt17(c.w0p),
                    c.classification]
            for v in (c.r_m, c.r0, c.wp_r0, c.r_inf, c.z_inf):
                vals.append("" if v is None else fmt17(v))
            vals.append("true" if c.roots_all_positive else "false")
            fh.write(",".join(vals) + "\n")
    n_anom = sum(c.anomaly for c in cells)
    print(f"sweep: {len(cells)} cells, {n_anom} anomalies -> {path}")
    return EX_ANOMALY if n_anom else EX_OK


def _profile_pts_from_csv(parser, path):
    cols = read_profile_csv(path)
    r, z, w = cols["r"], cols["z"], cols["w"]
    z_inf = z[-1]
    Z = z - z_inf
    # a biconcave profile descends to its equator with a steep tangent
    if not (Z[0] > 0.0 and abs(Z[-1]) < 1e-12 * (1 + abs(z_inf)) and w[-1] <= -5.0):
        return None
    x = np.concatenate([r, r[::-1][1:], r[1:], r[::-1][1:]])
    y = np.concatenate([Z, -Z[::-1][1:], -Z[1:], Z[::-1][1:]])
    sign = np.concatenate([np.ones(len(r)), np.ones(len(r) - 1),
                           -np.ones(len(r) - 1), -np.ones(len(r) - 1)])
    return np.stack([x * sign, y], axis=1)


def _cmd_plot(parser, args):
    allowed = {_flag_key(o.flag) for o in PARAM_OPTS + [W0P_OPT] + SOLVER_OPTS}
    allowed |= {"out", "in"}
    config = _load_config(parser, args.config, allowed)
    out = _out_dir(args, config)
    src = args.infile if args.infile is not None else config.get("in")

    if src is not None:
        pts = _profile_pts_from_csv(parser, src)
        if pts is None:
            print("plot: input profile is not biconcave", file=sys.stderr)
            return EX_NOT_BICONCAVE
        annotation = os.path.basename(src)
    else:
        pv = _resolve(parser, args, PARAM_OPTS + [W0P_OPT], config)
        sv = _resolve(parser, args, SOLVER_OPTS, config)
        _require_params(parser, pv)
        params = HelfrichParams(pv["c0"], pv["lam"], pv["p"])
        traj = integrate(params, pv["w0p"], _solver_config(parser, sv))
        cls = classify(traj, extract_landmarks(traj))
        if cls.verdict != BICONCAVE:
            print(f"plot: classification is {cls.verdict}", file=sys.stderr)
            return EX_NOT_BICONCAVE
        pts = profile_points(traj)
        annotation = _annotation(params, pv["w0p"])

    path = os.path.join(out, "profile.svg")
    with open(path, "w", newline="\n") as fh:
        fh.write(render_svg(pts, annotation))
    print(f"plot: wrote {path}")
    return EX_OK


def _cmd_mesh(parser, args):
    allowed = {_flag_key(o.flag) for o in PARAM_OPTS + [W0P_OPT] + SOLVER_OPTS + MESH_OPTS}
    allowed |= {"out"}
    config = _load_config(parser, args.config, allowed)
    pv = _resolve(parser, args, PARAM_OPTS + [W0P_OPT], config)
    sv = _resolve(parser, args, SOLVER_OPTS, config)
    mv = _resolve(parser, args, MESH_OPTS, config)
    _require_params(parser, pv)
    out = _out_dir(args, config)

    params = HelfrichParams(pv["c0"], pv["lam"], pv["p"])
    traj = integrate(params, pv["w0p"], _solver_config(parser, sv))
    cls = classify(traj, extract_landmarks(traj))
    if cls.verdict != BICONCAVE:
        print(f"mesh: classification is {cls.verdict}", file=sys.stderr)
        return EX_NOT_BICONCAVE
    verts, faces = build_mesh(traj, mv["segments_theta"], mv["segments_profile"])
    path = os.path.join(out, "mesh.obj")
    write_obj(path, verts, faces)
    print(f"mesh: wrote {path} ({len(verts)} vertices, {len(faces)} faces)")
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="helfrich",
                     description="axisymmetric vesicle shape-equation toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(sp, with_w0p=True):
        _add_opts(sp, PARAM_OPTS)
        if with_w0p:
            _add_opts(sp, [W0P_OPT])
        _add_opts(sp, SOLVER_OPTS)
        sp.add_argument("--out", dest="out", default=None,
                        help="output directory (default: $OUTPUT_DIR or .)")
        sp.add_argument("--config", dest="config", default=None,
                        help="JSON config file with flag names as keys")

    sp = sub.add_parser("solve", help="integrate one profile and emit files")
    common(sp)
    sp.add_argument("--format", dest="format", default=None,
                    help="comma list of csv,json,svg,obj (default csv,json)")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", help="run the estimate checks over a w0p sweep")
    common(sp, with_w0p=False)
    _add_opts(sp, SWEEP_OPTS)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="classify a parameter grid into phase.csv")
    _add_opts(sp, RANGE_OPTS)
    _add_opts(sp, SOLVER_OPTS)
    sp.add_argument("--out", dest="out", default=None)
    sp.add_argument("--config", dest="config", default=None)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("plot", help="render the mirrored cross-section as SVG")
    common(sp)
    sp.add_argument("--in", dest="infile", default=None,
                    help="existing profile.csv to plot instead of solving")
    sp.set_defaults(func=_cmd_plot)

    sp = sub.add_parser("mesh", help="emit a watertight OBJ of the revolved surface")
    common(sp)
    _add_opts(sp, MESH_OPTS)
    sp.set_defaults(func=_cmd_mesh)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.error("a subcommand is required (solve, verify, sweep, plot, mesh)")
    try:
        return args.func(parser, args)
    except HelfrichError as exc:
        print(f"helfrich: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_ERROR


if __name__ == "__main__":
    sys.exit(main())
