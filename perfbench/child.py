"""Warm child process of the benchmark: runs one workload's commands
through ``helfrich.cli.main(argv)`` and checks every command's outputs.

    python3 child.py setup|measure|trace PLAN_JSON RESULT_JSON

Every mode first times a fresh ``import helfrich`` plus the plan's first
command: that is one set-up sample.  ``setup`` stops there.  ``measure``
then runs the plan's commands in order until the timed commands add up
to the plan's ``seconds`` (and at least ``min_commands`` ran, so that the
fingerprint always covers the same commands).  ``trace`` runs each
command twice, untraced and then traced, and adds the span totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads


def reference_s():
    """Time a fixed mix of interpreter, numpy and float-formatting work.

    The host shares its cores with other tenants, and its speed drifts by
    up to half over tens of seconds.  This loop runs between commands so
    that each command's time can be read against the host speed of the
    moment.
    """
    # imported here so that a set-up sample times helfrich's own numpy import
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += i * 0.5
    a = np.linspace(0.0, 1.0, 1000)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0) - 0.5
    "".join(format(x, ".17g") for x in a.tolist())
    return time.perf_counter() - t0


def _clear(out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)


class Runner:
    """Runs commands of one plan and counts attempted and failed items."""

    def __init__(self, plan):
        self.name = plan["workload"]
        self.out_dir = plan["out_dir"]
        self.commands = plan["commands"]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, i, main, call=None):
        """Run command ``i``.

        Returns (wall_s, cpu_s, output digest, verdicts, items completed);
        a failed command has digest None and completes no items.
        """
        cmd = self.commands[i]
        _clear(self.out_dir)
        argv = cmd["argv"] + [f"--out={self.out_dir}"]
        call = call or (lambda m, a: m(a))
        self.attempted += cmd["items"]
        problem = None
        err = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = call(main, argv)
        except (Exception, SystemExit) as exc:  # any escape from main is a failed item
            problem = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if problem is None and rc not in (0, 1, 2, 3):
            problem = f"exit {rc}: {err.getvalue().strip()}"
        digest, verdicts = None, []
        if problem is None:
            try:
                verdicts, digest = workloads.check(self.name, cmd, self.out_dir, rc)
            except workloads.OutputError as exc:
                problem = str(exc)
        if problem is not None:
            self.failed += cmd["items"]
            self.failures.append(f"{' '.join(cmd['argv'])}: {problem}")
            return wall, cpu, digest, verdicts, 0
        return wall, cpu, digest, verdicts, cmd["items"]


def main():
    mode, plan_path, result_path = sys.argv[1:4]
    with open(plan_path) as fh:
        plan = json.load(fh)
    runner = Runner(plan)

    t0 = time.perf_counter()
    import helfrich
    import helfrich.cli

    import_s = time.perf_counter() - t0
    first = runner.run(0, helfrich.cli.main)
    result = {"setup_s": import_s + first[0],
              "setup_ref": statistics.median(reference_s() for _ in range(5)),
              "setup_digest": first[2]}
    if mode != "setup":
        result.update(_measure(runner, plan, helfrich.cli.main, mode == "trace"))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["context"] = _context()
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures[:10])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def _run_between_references(runner, i, main, call=None):
    """Run command ``i`` between two reference loops; add their mean time."""
    before = reference_s()
    record = runner.run(i, main, call)
    return record + (0.5 * (before + reference_s()),)


def _measure(runner, plan, main, traced):
    import spans

    tracer = spans.Tracer() if traced else None
    walls, cpus, refs, items, digests, verdicts = [], [], [], 0, [], []
    traced_walls, traced_refs, bytes_out, mismatch = [], [], 0, []
    i, spent = 0, 0.0
    while (spent < plan["seconds"] or i < plan["min_commands"]) and i < len(runner.commands):
        wall, cpu, digest, v, n, ref = _run_between_references(runner, i, main)
        spent += wall
        walls.append(wall)
        cpus.append(cpu)
        refs.append(ref)
        items += n
        if i < plan["min_commands"]:
            digests.append(digest or "failed")
            verdicts.append(v)
        if tracer is not None:
            bytes_out += workloads.output_bytes(runner.out_dir)
            tracer.install()
            try:
                t_wall, _, t_digest, _, _, t_ref = _run_between_references(
                    runner, i, main, lambda m, a, k=i: tracer.run(k, m, a))
            finally:
                tracer.uninstall()
            spent += t_wall
            traced_walls.append(t_wall)
            traced_refs.append(t_ref)
            if t_digest != digest:
                mismatch.append(i)
        i += 1
    fp, counts = workloads.fingerprint(digests, verdicts)
    out = {"walls": walls, "cpus": cpus, "refs": refs, "items": items, "fingerprint": fp,
           "verdicts": counts, "first_digest": digests[0]}
    if tracer is not None:
        tracer.write(plan["spans_path"])
        out.update(
            traced_walls=traced_walls, traced_refs=traced_refs,
            bytes_out=bytes_out / len(traced_walls),
            layers=spans.layer_metrics(tracer.totals(), tracer.solves, len(traced_walls)),
            missing_bindings=sorted(tracer.missing), trace_mismatch=mismatch)
    return out


def _context():
    import numpy
    import platform

    import helfrich.kernels

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        # a numba dispatcher keeps the Python source function as ``py_func``
        "backend": "numba" if any(hasattr(f, "py_func") for f in vars(helfrich.kernels).values())
                   else "python",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    main()
