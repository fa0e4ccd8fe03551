#!/usr/bin/env python3
"""Benchmark of the helfrich command line, one workload per run.

    python3 perfbench/run.py --workload solve-emit|sweep|verify \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The script draws the workload's commands
from ``--seed`` (see ``workloads.json``), then drives
``helfrich.cli.main(argv)`` in child processes that import the package
from ``src/``, single-threaded.  Outputs of every command are checked;
a missing, unparsable or misshapen output, an exception other than
``HelfrichError`` or an exit code outside {0, 1, 2, 3} fails the
command's items.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh interpreters, each importing helfrich and running the
first command), command wall time at the median and at the highest
percentile with at least ten samples beyond it, items per second, CPU
seconds per item and peak RSS.  The times are adjusted to a reference
host speed (see ``REF_S``), because the host's speed drifts with other
tenants' load; the unadjusted figures are printed beside them.  ``--trace 1`` reports per-layer metrics
from a run in which each command runs untraced and then traced (see
``spans.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run's context, its output fingerprint and every
metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_SAMPLES = 5      # fresh interpreters per run; set-up time is their median
MIN_COMMANDS = 8       # commands every run completes; the fingerprint covers them
DEADLINE_S = 170.0     # a run ends, with or without a result, before 180 s
TAIL_BEYOND = 10       # samples beyond the reported tail percentile
CHILD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# Reference-loop time (child.reference_s) that the reported times are scaled
# to: about its uncontended median on the 2-CPU Xeon the benchmark was
# defined on.  Each command's wall and CPU time is multiplied by REF_S over
# the mean of the loop's times just before and just after the command.
REF_S = 0.004

UNITS = {"items_per_s": "1/s", "cpu_s_per_item": "s", "peak_rss_mb": "MB",
         "export.bytes_out": "B", "solver.accept_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us"):
        return "us"
    return "s" if name.endswith("_s") else "count"


def _child(mode, plan_path, result_path, deadline):
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode, plan_path, result_path],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def _tail(walls):
    """Wall time with TAIL_BEYOND samples beyond it, and its percentile."""
    s = sorted(walls)
    k = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def _end_to_end(res, children, walls):
    """End-to-end metrics, with every time adjusted to the reference host speed."""
    adj = _adjusted(walls, res["refs"])
    tail, pct = _tail(adj)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * REF_S / r["setup_ref"] for r in children),
        "cmd_p50_s": statistics.median(adj),
        "cmd_tail_s": tail,
        "items_per_s": res["items"] / sum(adj),
        "cpu_s_per_item": sum(_adjusted(res["cpus"], res["refs"])) / max(res["items"], 1),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw_tail, _ = _tail(walls)
    notes = [
        f"cmd_tail_s is p{pct:.1f} of {len(walls)} commands "
        f"({round(len(walls) * (1 - pct / 100))} beyond it)",
        f"host speed: reference loop median {1e3 * statistics.median(res['refs']):.3f} ms "
        f"against {1e3 * REF_S:g} ms; unadjusted setup_s "
        f"{statistics.median(r['setup_s'] for r in children):.4f} s, cmd_p50_s "
        f"{statistics.median(walls):.4f} s, cmd_tail_s {raw_tail:.4f} s, items_per_s "
        f"{res['items'] / sum(walls):.4f} 1/s",
    ]
    return metrics, notes


def _adjusted(walls, refs):
    return [w * REF_S / r for w, r in zip(walls, refs)]


def _layer_metrics(res, walls):
    """Per-layer metrics of the traced commands, as measured, and the tracing overhead."""
    tw = res["traced_walls"]
    metrics = dict(res["layers"])
    metrics["export.bytes_out"] = res["bytes_out"]
    metrics["trace.wall_s"] = statistics.fmean(tw)
    metrics["trace.self_sum_s"] = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    # both medians are adjusted to the reference host speed, like cmd_p50_s
    metrics["trace.overhead_s"] = (statistics.median(_adjusted(tw, res["traced_refs"]))
                                   - statistics.median(_adjusted(walls, res["refs"])))
    metrics["trace.commands"] = len(tw)
    return metrics


def run(args, spec, work):
    deadline = time.monotonic() + DEADLINE_S
    plan = {"workload": args.workload, "seconds": args.seconds, "min_commands": MIN_COMMANDS,
            "out_dir": os.path.join(work, "out"),
            "spans_path": os.path.join(WORK, f"spans-{args.workload}.csv"),
            "commands": workloads.plan(spec, args.workload, args.seed,
                                       MIN_COMMANDS + 20 * args.seconds)}
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)

    children = []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            children.append(_child("setup", plan_path, os.path.join(work, f"setup{k}.json"),
                                 deadline))
    res = _child("trace" if args.trace else "measure", plan_path,
                 os.path.join(work, "result.json"), deadline)
    children.append(res)

    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    failures = [f for r in children for f in r["failures"]]
    digests = {r["setup_digest"] for r in children} | {res["first_digest"]}
    if len(digests) != 1:
        failures.append(f"first command gave {len(digests)} different outputs across processes")
    if res.get("trace_mismatch"):
        failures.append(f"traced outputs differ from untraced ones at commands "
                        f"{res['trace_mismatch']}")

    walls = res["walls"]
    if args.trace:
        metrics = _layer_metrics(res, walls)
        notes = [f"spans written to {os.path.relpath(plan['spans_path'], ROOT)}; bindings "
                 f"not found: {', '.join(res['missing_bindings']) or 'none'}"]
        notes += [f"self time {layer:8s} {metrics[layer + '.self_s']:.4f} s "
                  f"{100 * metrics[layer + '.self_s'] / metrics['trace.wall_s']:5.1f}% "
                  f"of the traced wall time" for layer in LAYERS]
    else:
        metrics, notes = _end_to_end(res, children, walls)
    context = dict(res["context"], workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, setup_samples=len(children))
    print("context " + json.dumps(context, sort_keys=True))
    print(f"fingerprint sha256={res['fingerprint']} over the first {MIN_COMMANDS} commands; "
          f"verdicts {json.dumps(res['verdicts'], sort_keys=True)}")
    for note in notes:
        print(note)
    for f in failures[:10]:
        print(f"FAILED {f}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {_unit(name)}")
    print(json.dumps({
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": _unit(n)} for n, v in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "helfrich", "cli.py")):
        print(f"perfbench: no helfrich package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = workloads.load_spec()
    if args.workload not in spec:
        ap.error(f"--workload must be one of {', '.join(spec)}")
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        run(args, spec, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
