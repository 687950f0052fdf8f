"""Benchmark of the bernstein toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload sparse-cli --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each run starts fresh single-threaded worker processes, one at a time:
one sets up the seeded job list and times passes over it (at least
three, until ``--seconds`` is spent), and four more only set up, so
that ``setup_s`` is a median of five.  Every job's verdict is checked
against the frozen verdicts in ``expected.json``.

Times are reported in reference seconds: each job time is scaled by the
core speed probed around it (``speed.py``), because on a virtual machine
that shares its cores, such as the reference machine named there, the
same work runs up to twice as slowly in phases that outlast a run.  A job's time is its median over passes;
``wall_s`` is the sum over the job list, ``job_p50_s`` and
``job_p90_s`` are quantiles over jobs.

With ``--trace 1`` a single worker times untraced passes for half the
budget, then one pass with every public function of the package
wrapped (``tracer.py``), and reports the per-layer metrics of
``layer_map.json`` instead of the end-to-end ones.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is a run header (machine, Python, seed, ``src`` line
count).  A full record, and with tracing a Chrome trace-event file, are
written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sparse-cli", "dense-verify", "dense-refute", "large-sparse")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
                    "job_p90_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def src_line_count():
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_worker(args, workdir, deadline, setup_only=False, trace_out=None):
    """Start one worker, wait for it, return (its result, its set-up time
    in reference seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if args.short:
        cmd.append("--short")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{err}")
    result = json.loads(out.splitlines()[-1])
    setup = (result["first_job_monotonic"] - start) * result["setup_scale"]
    return result, setup


def end_to_end(measured, setups):
    """End-to-end metrics in reference seconds (see ``speed.py``).

    A job's time is the median over passes of its scaled time; the
    wall time of the job list is the sum of those.
    """
    scaled = [[t * f for t, f in zip(times, scales)] for times, scales
              in zip(measured["job_times"], measured["job_scales"])]
    per_job = [statistics.median(col) for col in zip(*scaled)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": statistics.quantiles(per_job, n=10,
                                          method="inclusive")[8],
        "peak_rss_mb": measured["max_rss_kb"] / 1024,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="first job of each command only (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bernstein", "__init__.py")):
        print(f"error: no bernstein package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    trace_out = os.path.join(OUT, f"trace-{tag}.json") if args.trace else None
    os.makedirs(OUT, exist_ok=True)
    try:
        measured, setup = run_worker(args, workdir, deadline,
                                     trace_out=trace_out)
        setups = [setup]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, workdir, deadline,
                                         setup_only=True)[1])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = measured["failures"]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        with open(os.path.join(HERE, "layer_map.json"),
                  encoding="utf-8") as fh:
            units = {name: spec["unit"] for name, spec in json.load(fh).items()}
        values = measured["layers"]
    else:
        units = END_TO_END_UNITS
        values = end_to_end(measured, setups)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    header = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "src_lines": src_line_count(), "jobs": measured["jobs"],
              "passes": len(measured["job_times"]),
              "pass_walls_measured_s": [sum(t) for t in measured["job_times"]],
              "setup_samples": setups}
    result = {"correct": not failures, "attempted": measured["attempted"],
              "failed": len(failures), "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"header": header, "result": result,
                   "job_times": measured["job_times"],
                   "job_scales": measured["job_scales"], "failures": failures,
                   "trace_file": trace_out}, fh, indent=1)
    print(json.dumps({"header": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
