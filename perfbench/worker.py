"""One benchmark worker process: set up a workload, then run its job
list in timed passes until the time budget is spent.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import speed


def run_passes(jobs, seconds, min_passes):
    """Timed passes until the next one would end after the budget.

    Returns (job seconds per pass, scale factors per pass, failures).
    """
    from jobs import check, timed_pass
    track = speed.SpeedTrack()
    times, scales, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        job_times, job_scales, outcomes = timed_pass(jobs, speed=track)
        times.append(job_times)
        scales.append(job_scales)
        for job, outcome in zip(jobs, outcomes):
            error = check(job, outcome)
            if error:
                failures.append(f"{job.name}: {error}")
        typical = statistics.median(sum(t) for t in times)
        if len(times) >= min_passes and \
                time.perf_counter() + typical > deadline:
            return times, scales, failures


def traced_pass(jobs, trace_path, untraced_wall):
    """One pass with every public function of the package wrapped.

    Returns (per-layer metrics, failures).  The metrics are taken before
    the verdicts are checked, because checking calls wrapped functions.
    ``untraced_wall`` is in reference seconds; the traced wall is scaled
    by the core speed probed before and after the pass.
    """
    from jobs import check, timed_pass
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    before = speed.current_scale()
    job_times, _, outcomes = timed_pass(jobs, on_job=tracer.job)
    scale = (before + speed.current_scale()) / 2
    metrics = tracer.metrics(sum(job_times), sum(job_times) * scale
                             / untraced_wall)
    tracer.write_chrome_trace(trace_path)
    failures = [f"{job.name}: {error}" for job, outcome in zip(jobs, outcomes)
                if (error := check(job, outcome))]
    return metrics, failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    import jobs as jobs_mod
    jobs = jobs_mod.prepare(args.workload, args.seed, args.workdir,
                            short=args.short)
    first_job = time.monotonic()
    result = {"first_job_monotonic": first_job, "jobs": len(jobs),
              "setup_scale": speed.current_scale()}
    if not args.setup_only:
        budget = args.seconds / 2 if args.trace else args.seconds
        times, scales, failures = run_passes(
            jobs, budget, min_passes=2 if args.trace else 3)
        result.update(job_times=times, job_scales=scales,
                      attempted=len(jobs) * len(times), failures=failures)
        if args.trace:
            untraced = statistics.median(
                sum(t * f for t, f in zip(pass_times, pass_scales))
                for pass_times, pass_scales in zip(times, scales))
            result["layers"], traced_failures = traced_pass(
                jobs, args.trace_out, untraced)
            result["attempted"] += len(jobs)
            result["failures"] += traced_failures
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
