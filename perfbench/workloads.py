"""Seeded command plans for the benchmark workloads, and their output checks.

The regions come from ``workloads.json`` beside this file, which also
records why each workload exists, which layer metric should move which
end-to-end metric, and which inputs are left out on purpose.

A plan is a list of commands.  Each command is a dict with the CLI
``argv`` (without ``--out``), the number of ``items`` it completes
(profiles, cells or w0p points) and what its outputs must hold.  The
program sees only the argv and the files it writes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import Counter

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")
# profile.csv: the axis row, 1024 chart-A rows and 512 chart-B rows
PROFILE_ROWS = 1 + 1024 + 512
PROFILE_COLUMNS = ["r", "z", "w", "kappa_m", "kappa_l", "H", "K"]
REPORT_KEYS = {"params", "config", "status", "landmarks", "classification",
               "derived_constants", "el_residual", "equator_identity_residual",
               "totals", "bounds_report"}
# default mesh: 128 angular segments, 2 x 256 - 1 interior rings and two poles
MESH_VERTS = 128 * (2 * 256 - 1) + 2
MESH_FACES = 2 * 128 * (2 * 256 - 1)
PHASE_COLUMNS = ["c0", "lambda", "p", "w0p", "classification", "r_M", "r0",
                 "wp_r0", "r_inf", "z_inf", "roots_all_positive"]
BOUNDS_KEYS = {"params", "grid", "per_point", "excluded", "asymptotics", "all_passed"}
SWEEP_COUNTS = (2, 1, 2, 3)  # c0, lambda, p, w0p values per sweep command
VERIFY_POINTS = 16


class OutputError(Exception):
    """A command's outputs are missing, unparsable or of the wrong shape."""


def _uniform(rng, lo_hi):
    lo, hi = float(lo_hi[0]), float(lo_hi[1])
    if len(lo_hi) > 2 and lo_hi[2] == "log":
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
    return rng.uniform(lo, hi)


def _params(rng, region, analyze_cubic, HelfrichParams):
    """Draw (c0, lambda, p) until every real root of Q is positive."""
    while True:
        c0 = _uniform(rng, region["c0"])
        lam = _uniform(rng, region["lambda"])
        p = _uniform(rng, region["p"])
        ca = analyze_cubic(HelfrichParams(c0, lam, p))
        if ca.all_roots_positive:
            return c0, lam, p, ca.smallest_root


def _solve_emit(rng, region, cubic):
    w_lo = float(region["w0p"][0])
    while True:
        c0, lam, p, root = _params(rng, region, *cubic)
        w_hi = min(1.0, 0.1 * root)
        if w_hi > w_lo:
            break
    w0p = 10.0 ** rng.uniform(math.log10(w_lo), math.log10(w_hi))
    argv = ["solve", f"--c0={c0!r}", f"--lambda={lam!r}", f"--p={p!r}",
            f"--w0p={w0p!r}", "--format=csv,json,svg,obj"]
    return {"argv": argv, "items": 1}


def _sweep(rng, region, cubic):
    argv = ["sweep"]
    for key, count in zip(("c0", "lambda", "p", "w0p"), SWEEP_COUNTS):
        ends = sorted(_uniform(rng, region[key]) for _ in range(2))
        stop = ends[1] if count > 1 else ends[0]
        argv.append(f"--{key}-range={ends[0]!r}:{stop!r}:{count}")
    return {"argv": argv, "items": math.prod(SWEEP_COUNTS)}


def _verify(rng, region, cubic):
    c0, lam, p, _ = _params(rng, region, *cubic)
    argv = ["verify", f"--c0={c0!r}", f"--lambda={lam!r}", f"--p={p!r}",
            "--sweep-min=1e-4", f"--sweep-points={VERIFY_POINTS}"]
    return {"argv": argv, "items": VERIFY_POINTS}


_GENERATORS = {"solve-emit": _solve_emit, "sweep": _sweep, "verify": _verify}


def load_spec() -> dict:
    """Workload name -> its record in ``workloads.json``."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def plan(spec: dict, name: str, seed: int, n_commands: int) -> list[dict]:
    """The first ``n_commands`` commands of workload ``name`` for ``seed``."""
    from helfrich.cubic import HelfrichParams, analyze_cubic

    rng = random.Random(f"{name}/{seed}")
    region = spec[name]["region"]
    gen = _GENERATORS[name]
    return [gen(rng, region, (analyze_cubic, HelfrichParams))
            for _ in range(n_commands)]


def _read(out_dir, fname):
    path = os.path.join(out_dir, fname)
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise OutputError(f"missing {fname}: {exc}") from None


def _json(out_dir, fname, keys):
    try:
        data = json.loads(_read(out_dir, fname))
    except ValueError as exc:
        raise OutputError(f"{fname} is not JSON: {exc}") from None
    if not isinstance(data, dict) or set(data) != keys:
        raise OutputError(f"{fname} keys differ from {sorted(keys)}")
    return data


def _check_solve_emit(cmd, out_dir, rc):
    from helfrich.export import read_profile_csv

    try:
        cols = read_profile_csv(os.path.join(out_dir, "profile.csv"))
    except (OSError, ValueError, IndexError) as exc:
        raise OutputError(f"profile.csv unreadable: {exc}") from None
    if list(cols) != PROFILE_COLUMNS or any(len(v) != PROFILE_ROWS for v in cols.values()):
        raise OutputError(f"profile.csv does not hold {PROFILE_ROWS} rows of {PROFILE_COLUMNS}")
    report = _json(out_dir, "report.json", REPORT_KEYS)
    verdict = report["classification"]["verdict"]
    if (rc == 0) != (verdict == "Biconcave"):
        raise OutputError(f"exit {rc} disagrees with verdict {verdict}")
    if verdict == "Biconcave":
        svg = _read(out_dir, "profile.svg")
        if not (svg.startswith(b"<svg ") and svg.endswith(b"</svg>\n")):
            raise OutputError("profile.svg is not a complete SVG document")
        obj = _read(out_dir, "mesh.obj")
        nv = obj.count(b"\nv ") + obj.startswith(b"v ")
        nf = obj.count(b"\nf ")
        if (nv, nf) != (MESH_VERTS, MESH_FACES):
            raise OutputError(f"mesh.obj has {nv} vertices and {nf} faces")
    return [verdict]


def _check_sweep(cmd, out_dir, rc):
    lines = _read(out_dir, "phase.csv").decode(errors="replace").splitlines()
    if not lines or lines[0].split(",") != PHASE_COLUMNS:
        raise OutputError("phase.csv header differs")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != cmd["items"] or any(len(r) != len(PHASE_COLUMNS) for r in rows):
        raise OutputError(f"phase.csv does not hold {cmd['items']} rows of {len(PHASE_COLUMNS)} columns")
    try:
        for r in rows:
            list(map(float, r[:4]))
    except ValueError as exc:
        raise OutputError(f"phase.csv has a bad number: {exc}") from None
    return [r[4] for r in rows]


def _check_verify(cmd, out_dir, rc):
    report = _json(out_dir, "bounds_report.json", BOUNDS_KEYS)
    if len(report["grid"]) != cmd["items"]:
        raise OutputError(f"grid holds {len(report['grid'])} points, {cmd['items']} requested")
    if len(report["per_point"]) + len(report["excluded"]) != cmd["items"]:
        raise OutputError("per_point and excluded do not cover the grid")
    if (rc == 0) != bool(report["all_passed"]):
        raise OutputError(f"exit {rc} disagrees with all_passed={report['all_passed']}")
    verdicts = ["report:" + ("passed" if report["all_passed"] else "failures")]
    verdicts += ["point:Biconcave"] * len(report["per_point"])
    verdicts += ["point:" + e["classification"] for e in report["excluded"]]
    return verdicts


_CHECKS = {"solve-emit": _check_solve_emit, "sweep": _check_sweep, "verify": _check_verify}


def check(name: str, cmd: dict, out_dir: str, rc: int) -> tuple[list[str], str]:
    """Verdicts and sha256 of one command's outputs; raise OutputError on a miss."""
    try:
        verdicts = _CHECKS[name](cmd, out_dir, rc)
    except (KeyError, TypeError) as exc:
        raise OutputError(f"output lacks an expected field: {exc!r}") from None
    h = hashlib.sha256()
    for fname in sorted(os.listdir(out_dir)):
        h.update(fname.encode() + b"\0" + _read(out_dir, fname) + b"\0")
    return verdicts, h.hexdigest()


def output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def fingerprint(digests: list[str], verdicts: list[list[str]]) -> tuple[str, dict]:
    """Digest over the per-command digests, in plan order, and verdict counts."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest(), dict(sorted(Counter(v for vs in verdicts for v in vs).items()))
