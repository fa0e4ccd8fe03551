"""Command-line entry points: solve, verify, sweep, plot, mesh.

Each subcommand is one entry of ``COMMANDS``; its option rows drive the
parser, the accepted config-file keys and the resolution of each value
(flag, then config key, then default).

Exit codes: 0 success/Biconcave, 1 solver or check failure, 2 other
classification, 3 anomaly cells in a sweep, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections import namedtuple

from .analysis import (
    BICONCAVE,
    el_residual,
    equator_identity_residual,
    mirror_quarter,
    profile_points,
    surface_totals,
)
from .bounds import (_map_points, asymptotic_sweep, check_single, phase_sweep, solve,
                     verify_point)
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
from .solver import EQUATOR, SolverConfig

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
# SOLVER_OPTS and MESH_OPTS take their defaults from SolverConfig and build_mesh
SOLVER_OPTS = [
    Opt("--rel-tol", "rel_tol", float, None, "relative tolerance"),
    Opt("--abs-tol", "abs_tol", float, None, "absolute tolerance"),
    Opt("--eps-start", "eps_start", float, None, "series start radius"),
    Opt("--w-switch", "w_switch", float, None,
        "slope w that ends a run as BlowUpPositive; -w_switch ends el_residual's samples"),
    Opt("--r-max", "r_max", float, None, "abort radius"),
    Opt("--max-steps", "max_steps", int, None, "step budget"),
    Opt("--event-tol", "event_tol", float, None, "event location tolerance"),
]
# every command takes these; --config names the file and is no config key
COMMON_OPTS = SOLVER_OPTS + [
    Opt("--out", "out", str, None, "output directory (default: $OUTPUT_DIR or .)"),
    Opt("--config", "config", str, None, "JSON config file with flag names as keys"),
]
SWEEP_OPTS = [
    Opt("--sweep-min", "sweep_min", float, 1e-4, "smallest w0p of the sweep"),
    Opt("--sweep-max", "sweep_max", float, 1e-1, "largest w0p of the sweep"),
    Opt("--sweep-points", "sweep_points", int, 16, "number of sweep points"),
]
MESH_OPTS = [
    Opt("--segments-theta", "n_theta", int, None, "angular segments"),
    Opt("--segments-profile", "n_profile", int, None, "profile segments per half"),
]
RANGE_OPTS = [
    Opt("--c0-range", "c0_range", str, "1:1:1", "c0 grid as start:stop:count"),
    Opt("--lambda-range", "lam_range", str, "0.25:0.25:1", "lambda grid"),
    Opt("--p-range", "p_range", str, "1:1:1", "p grid"),
    Opt("--w0p-range", "w0p_range", str, "0.05:0.05:1", "w0p grid"),
]
FORMAT_OPT = Opt("--format", "format", str, "csv,json",
                 "comma list of csv,json,svg,obj (default csv,json)")
IN_OPT = Opt("--in", "infile", str, None, "existing profile.csv to plot instead of solving")

VALID_FORMATS = ("csv", "json", "svg", "obj")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _key(opt: Opt) -> str:
    return opt.flag.lstrip("-")


def _load_config(parser, path, opts):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config file {path} must hold a JSON object")
    allowed = {_key(o) for o in opts} - {"config"}
    for key in data:
        if key not in allowed:
            parser.error(f"unknown config key {key!r}")
    return data


def _resolve(parser, args, opts, config):
    """Flag beats config key beats default; a config value passes the
    flag's converter, and a null one counts as unset.  A config value has
    its flag's type: a number option takes no JSON boolean, and an int
    option only a JSON integer."""
    vals = {}
    for o in opts:
        v, key = getattr(args, o.dest), _key(o)
        if v is None and config.get(key) is not None:
            raw = config[key]
            try:
                if (o.conv is not str and isinstance(raw, bool)
                        or o.conv is int and not isinstance(raw, int)):
                    raise TypeError
                v = o.conv(raw)
            except (TypeError, ValueError):
                parser.error(f"config key {key!r} has invalid value {raw!r}")
        vals[o.dest] = o.default if v is None else v
    return vals


def _params(parser, vals, opts=PARAM_OPTS + [W0P_OPT]):
    """Check that the options ``opts`` are given and finite; return the
    physical parameters."""
    for o in opts:
        if vals[o.dest] is None:
            parser.error(f"{o.flag} is required")
        if not math.isfinite(vals[o.dest]):
            parser.error(f"{o.flag} must be finite, got {vals[o.dest]!r}")
    if W0P_OPT in opts and not vals["w0p"] > 0.0:
        parser.error("--w0p must be > 0")
    return HelfrichParams(vals["c0"], vals["lam"], vals["p"])


def _given(vals, opts) -> dict:
    """The values of the options ``opts`` that a flag or config key set."""
    return {o.dest: vals[o.dest] for o in opts if vals[o.dest] is not None}


def _open_out(parser, vals):
    """Check the solver config, the last usage check, then create the
    output directory: a usage error writes nothing."""
    try:
        cfg = SolverConfig(**_given(vals, SOLVER_OPTS))
    except HelfrichError as exc:
        parser.error(str(exc))
    out = vals["out"] if vals["out"] is not None else os.environ.get("OUTPUT_DIR", ".")
    os.makedirs(out, exist_ok=True)
    return cfg, out


def _report_payload(traj, lm, cls):
    params, w0p = traj.params, traj.w0p
    payload = {
        "params": {"c0": params.c0, "lambda": params.lam, "p": params.p, "w0p": w0p},
        "config": traj.cfg,
        "status": traj.status,
        "landmarks": lm,
        "classification": cls,
        "derived_constants": derived_constants(params, w0p),
        "el_residual": el_residual(traj),
        "equator_identity_residual": None,
        "totals": None,
        "bounds_report": None,
    }
    if traj.first_event(EQUATOR) is not None:
        payload["equator_identity_residual"] = equator_identity_residual(traj)
        payload["totals"] = surface_totals(traj)
        try:
            payload["bounds_report"] = check_single(traj, lm)
        except MissingEvent:
            pass
    return payload


def _annotation(params, w0p):
    return (f"c0={params.c0:g}  lambda={params.lam:g}  p={params.p:g}  "
            f"w0p={w0p:g}")


def _cmd_solve(parser, v):
    params = _params(parser, v)
    formats = [f.strip() for f in v["format"].split(",") if f.strip()]
    for f in formats:
        if f not in VALID_FORMATS:
            parser.error(f"--format: unknown format {f!r}")
    cfg, out = _open_out(parser, v)
    traj, lm, cls = solve(params, v["w0p"], cfg)

    def write_text():
        if "csv" in formats:
            write_profile_csv(os.path.join(out, "profile.csv"), traj)
        if "json" in formats:
            write_json(os.path.join(out, "report.json"),
                       _report_payload(traj, lm, cls))
        if "svg" in formats and cls.verdict == BICONCAVE:
            svg = render_svg(profile_points(traj, cls), _annotation(params, v["w0p"]))
            with open(os.path.join(out, "profile.svg"), "w", newline="\n") as fh:
                fh.write(svg)

    # The emitters run as two jobs side by side (see _map_points).  The
    # mesh, the longer job, is job 0, which stays in this process: written
    # in a fresh fork child, mesh.obj took 33 ms against 23-30 ms here,
    # likely from copy-on-write faults on its multi-MB buffers.
    jobs = []
    if "obj" in formats and cls.verdict == BICONCAVE:
        jobs.append(lambda: write_obj(os.path.join(out, "mesh.obj"), build_mesh(traj)))
    if set(formats) - {"obj"}:
        jobs.append(write_text)
    # Every emitter needs numpy, which a solve does not import.  Imported
    # before the fork, it is imported once: a process's first command that
    # left it to the jobs imported it in both processes at once, and this
    # process's import took 140-190 ms there against 65-100 ms alone.
    import numpy  # noqa: F401
    _map_points(lambda job: job(), jobs)

    print(f"classification: {cls.verdict} ({cls.evidence})")
    return EX_OK if cls.verdict == BICONCAVE else EX_NOT_BICONCAVE


def _cmd_verify(parser, v):
    params = _params(parser, v, PARAM_OPTS + SWEEP_OPTS[:2])
    if v["sweep_points"] < 1:
        parser.error("--sweep-points must be >= 1")
    if not (0.0 < v["sweep_min"] <= v["sweep_max"]):
        parser.error("--sweep-min/--sweep-max must satisfy 0 < min <= max")
    cfg, out = _open_out(parser, v)
    import numpy as np
    grid = [float(w) for w in np.geomspace(v["sweep_max"], v["sweep_min"],
                                           v["sweep_points"])]
    points = _map_points(lambda w0p: verify_point(params, w0p, cfg), grid)

    per_point = []
    excluded = []
    runs = []
    all_pass = True
    for w0p, (lm, verdict, report) in zip(grid, points):
        runs.append((w0p, verdict, lm))
        if report is None:
            excluded.append({"w0p": w0p, "classification": verdict})
            continue
        all_pass &= report.passed
        per_point.append(report)

    asym = asymptotic_sweep(params, runs)
    all_pass &= asym.passed

    payload = {
        "params": {"c0": params.c0, "lambda": params.lam, "p": params.p},
        "grid": grid,
        "per_point": per_point,
        "excluded": excluded,
        "asymptotics": asym,
        "all_passed": bool(all_pass),
    }
    write_json(os.path.join(out, "bounds_report.json"), payload)
    print(f"verify: {'all checks passed' if all_pass else 'FAILURES recorded'} "
          f"({len(per_point)} points, {len(excluded)} excluded)")
    return EX_OK if all_pass else EX_ERROR


def _parse_range(parser, spec, flag):
    """The grid of a ``start:stop:count`` option as a list of floats.

    A count above 1 gives the values ``numpy.linspace(start, stop, count)``
    gives, bit for bit, from its formula in Python floats: start + i * step
    with step = (stop - start) / (count - 1), or start + (i / (count - 1))
    * (stop - start) where the step rounds to 0, and stop as the last value.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error(f"{flag} must be start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        parser.error(f"{flag} must be start:stop:count, got {spec!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        parser.error(f"{flag}: start and stop must be finite, got {spec!r}")
    if count < 1:
        parser.error(f"{flag}: count must be >= 1")
    if count == 1:
        return [start]
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:  # numpy's branch for a subnormal step
        values = [i / div * delta + start for i in range(div)]
    else:
        values = [i * step + start for i in range(div)]
    return values + [stop]


def _cmd_sweep(parser, v):
    axes = [_parse_range(parser, v[o.dest], o.flag) for o in RANGE_OPTS]
    cfg, out = _open_out(parser, v)
    cells = phase_sweep(itertools.product(*axes), cfg)

    path = os.path.join(out, "phase.csv")
    cols = ["c0", "lambda", "p", "w0p", "classification", "r_M", "r0",
            "wp_r0", "r_inf", "z_inf", "roots_all_positive"]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for c in cells:
            vals = [fmt17(c.c0), fmt17(c.lam), fmt17(c.p), fmt17(c.w0p),
                    c.classification]
            for x in (c.r_m, c.r0, c.wp_r0, c.r_inf, c.z_inf):
                vals.append("" if x is None else fmt17(x))
            vals.append("true" if c.roots_all_positive else "false")
            fh.write(",".join(vals) + "\n")
    n_anom = sum(c.anomaly for c in cells)
    print(f"sweep: {len(cells)} cells, {n_anom} anomalies -> {path}")
    return EX_ANOMALY if n_anom else EX_OK


def _profile_pts_from_csv(parser, path):
    """Closed curve of a biconcave profile.csv, or None for another shape."""
    try:
        cols = read_profile_csv(path)
        r, z, w = cols["r"], cols["z"], cols["w"]
        z_inf = z[-1]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        parser.error(f"--in: cannot read rows of r, z and w from {path} "
                     f"({type(exc).__name__}: {exc})")
    Z = z - z_inf
    # a biconcave profile descends to its equator with a steep tangent
    if not (Z[0] > 0.0 and abs(Z[-1]) < 1e-12 * (1 + abs(z_inf)) and w[-1] <= -5.0):
        return None
    return mirror_quarter(r, Z)


def _cmd_plot(parser, v):
    src = v["infile"]
    if src is not None:
        pts = _profile_pts_from_csv(parser, src)
        _, out = _open_out(parser, v)
        if pts is None:
            print("plot: input profile is not biconcave", file=sys.stderr)
            return EX_NOT_BICONCAVE
        annotation = os.path.basename(src)
    else:
        params = _params(parser, v)
        cfg, out = _open_out(parser, v)
        traj, _, cls = solve(params, v["w0p"], cfg)
        if cls.verdict != BICONCAVE:
            print(f"plot: classification is {cls.verdict}", file=sys.stderr)
            return EX_NOT_BICONCAVE
        pts = profile_points(traj, cls)
        annotation = _annotation(params, v["w0p"])

    path = os.path.join(out, "profile.svg")
    with open(path, "w", newline="\n") as fh:
        fh.write(render_svg(pts, annotation))
    print(f"plot: wrote {path}")
    return EX_OK


def _cmd_mesh(parser, v):
    params = _params(parser, v)
    # 3 angles close a ring; 8 profile segments is the stated floor, though
    # the arc-length samples of the profile would work from 1
    for o, least in zip(MESH_OPTS, (3, 8)):
        if v[o.dest] is not None and v[o.dest] < least:
            parser.error(f"{o.flag} must be >= {least}")
    cfg, out = _open_out(parser, v)
    traj, _, cls = solve(params, v["w0p"], cfg)
    if cls.verdict != BICONCAVE:
        print(f"mesh: classification is {cls.verdict}", file=sys.stderr)
        return EX_NOT_BICONCAVE
    mesh = build_mesh(traj, **_given(v, MESH_OPTS))
    path = os.path.join(out, "mesh.obj")
    write_obj(path, mesh)
    print(f"mesh: wrote {path} ({mesh.n_verts} vertices, {mesh.n_faces} faces)")
    return EX_OK


# name: (help, option rows in parser order, handler)
COMMANDS = {
    "solve": ("integrate one profile and emit files",
              PARAM_OPTS + [W0P_OPT] + COMMON_OPTS + [FORMAT_OPT], _cmd_solve),
    "verify": ("run the estimate checks over a w0p sweep",
               PARAM_OPTS + COMMON_OPTS + SWEEP_OPTS, _cmd_verify),
    "sweep": ("classify a parameter grid into phase.csv",
              RANGE_OPTS + COMMON_OPTS, _cmd_sweep),
    "plot": ("render the mirrored cross-section as SVG",
             PARAM_OPTS + [W0P_OPT] + COMMON_OPTS + [IN_OPT], _cmd_plot),
    "mesh": ("emit a watertight OBJ of the revolved surface",
             PARAM_OPTS + [W0P_OPT] + COMMON_OPTS + MESH_OPTS, _cmd_mesh),
}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = _Parser(prog="helfrich",
                     description="axisymmetric vesicle shape-equation toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (help_, opts, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for o in opts:
            sp.add_argument(o.flag, dest=o.dest, type=o.conv, default=None, help=o.help)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Usage errors exit 64 in a fixed order (config
    file, required parameters, command checks, solver config) before the
    output directory is created; a solver, arithmetic or file-system error
    after that prints one line and exits 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error(f"a subcommand is required ({', '.join(COMMANDS)})")
    _, opts, handler = COMMANDS[args.command]
    vals = _resolve(parser, args, opts, _load_config(parser, args.config, opts))
    try:
        return handler(parser, vals)
    except (HelfrichError, ArithmeticError, OSError) as exc:
        print(f"helfrich: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_ERROR


if __name__ == "__main__":
    sys.exit(main())
