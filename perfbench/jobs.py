"""Job lists of the four workloads, how one job runs and how its verdict
is checked.

A job is one in-process ``bernstein.cli.main([..., "--json"])`` call or
one call of the library pipeline the CLI would use.  Inputs come from
the workload seed; the verdicts they must produce come from
``expected.json``, which holds the basis-invariant verdicts of the
native algebras.  A dense job is checked against its native twin's
frozen verdicts, so a wrong answer on either basis counts as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

from bernstein import catalog, cli, fileformat, groebner, train
from bernstein.groebner import Presentation

import pool
from dense import DenseTwin, element_spec

HERE = os.path.dirname(os.path.abspath(__file__))

CHECK_FIELDS = ("dim", "bernstein", "type", "nuclear", "exceptional",
                "jordan", "annihilator_dim", "generic_degree")
TRAIN_FIELDS = ("dim", "bernstein", "train", "rank", "coefficients",
                "nil_index", "locally_train", "bounds")
ENGEL_FIELDS = ("sq_sq_zero", "nil_index", "engel_index", "tree_sums_upto",
                "bounds")
ELEMENT_FIELDS = ("degree", "minimal_poly", "right_nil_index", "weight",
                  "minimal_poly_shape_ok", "train_rank")


@dataclass
class Job:
    """One unit of timed work with the verdict it must produce.

    ``argv`` makes a CLI job; otherwise ``call`` is a library job that
    returns a verdict dict.  ``expect`` maps payload fields to values;
    ``verify`` is an extra check on the payload returning an error
    message or None.
    """
    name: str
    command: str
    expect: dict
    argv: list | None = None
    call: object = None
    verify: object = None
    table: object = field(default=None, repr=False)


@dataclass
class Outcome:
    payload: object = None
    exit_code: int | None = None
    error: str | None = None


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def execute(job):
    """Run a job once; never raises for a failure of the program."""
    if job.argv is None:
        try:
            return Outcome(payload=job.call())
        except Exception as exc:  # a crash is a failed job, not a crash
            return Outcome(error=f"{type(exc).__name__}: {exc}")
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv + ["--json"])
    except Exception as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    lines = out.getvalue().splitlines()
    payload = None
    if lines:
        try:
            payload = json.loads(lines[-1])
        except ValueError:
            payload = None
    return Outcome(payload=payload, exit_code=code,
                   error=err.getvalue().strip() or None)


def check(job, outcome):
    """Error message when the outcome is wrong, else None."""
    if job.argv is not None and outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}: {outcome.error}"
    if outcome.error and job.argv is None:
        return outcome.error
    payload = outcome.payload
    if not isinstance(payload, dict):
        return "no JSON verdict"
    for key, value in job.expect.items():
        got = payload.get(key, "<missing>")
        if got != value:
            return f"{key}: expected {value!r}, got {got!r}"
    if job.verify is not None:
        try:
            return job.verify(job, payload)
        except Exception as exc:
            return f"verdict check raised {type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------- inputs

def presentation(spec):
    """Nil-power presentation for (generators, power)."""
    return catalog.nil_power_presentation(*spec)


def reshaped(pres, rng):
    """The same relations, each scaled by a nonzero rational and listed
    in a shuffled order; the ideal and so every verdict are unchanged."""
    rels = []
    for rel in pres.relations:
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5)))
        rels.append(rel.scale(c))
    rng.shuffle(rels)
    return Presentation(pres.generators, tuple(rels))


def _file_name(text):
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


class Inputs:
    """Writes a workload's input files into its work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def _path(self, stem):
        self.count += 1
        return os.path.join(self.workdir,
                            f"{self.count:03d}-{_file_name(stem)}.json")

    def algebra(self, table, stem):
        path = self._path(stem)
        fileformat.save_algebra(table, path)
        return path

    def presentation(self, pres, stem):
        path = self._path(stem)
        fileformat.save_presentation(pres, path)
        return path


# ------------------------------------------------------------ workloads

def sparse_cli(seed, inputs, expected):
    """CLI jobs on native catalog algebras, each loading a fresh file."""
    rng = random.Random(f"sparse-cli:{seed}")
    algebras = expected["algebras"]
    jobs = []
    for key in pool.SPARSE:
        frozen = algebras[key]
        table = pool.build(key)
        path = inputs.algebra(table, key)
        jobs.append(Job(f"check {key}", "check", frozen["check"],
                        argv=["check", path]))
        if key in pool.GENERIC_DEGREE:
            jobs.append(Job(f"check --generic-degree {key}", "check",
                            frozen["check_generic_degree"],
                            argv=["check", path, "--generic-degree"]))
        jobs.append(Job(f"train {key}", "train", frozen["train"],
                        argv=["train", path]))
        if key not in pool.SLOW_ENGEL:
            jobs.append(Job(f"engel {key}", "engel", frozen["engel"],
                            argv=["engel", path]))
        jobs.append(Job(f"construct {key}", "construct", {},
                        argv=["construct"] + pool.construct_args(key),
                        verify=_construct_matches(frozen["construct"])))
        for item in frozen["elements"]:
            coords, verdict = scaled_element(item, rng.choice(SCALES))
            spec = element_spec(table.labels, coords)
            jobs.append(Job(f"element {key} [{spec}]", "element", verdict,
                            argv=["element", path, spec]))
    for spec in pool.PRESENTATIONS:
        pres = reshaped(presentation(spec[:2]), rng)
        path = inputs.presentation(pres, f"nil{spec}")
        jobs.append(Job(f"groebner {spec}", "groebner",
                        expected["groebner"][repr(list(spec))],
                        argv=["groebner", path, "--max-deg", str(spec[2])]))
    jobs.append(Job("kurosh-demo", "kurosh-demo", expected["kurosh"],
                    argv=["kurosh-demo"]))
    return jobs, rng


SCALES = tuple(Fraction(c) for c in (1, -1, 2, -2, "1/2", "-1/2"))


def scaled_element(item, c):
    """Native coordinates of c times a frozen element, and its verdict.

    With p the minimal polynomial of a, of degree D, c*a has the monic
    minimal polynomial with coefficients p_k c^(D-k).  Its weight is c
    times the weight; degree, nil index, train rank and the shape check
    do not change.
    """
    coords = [c * Fraction(x) for x in item["coords"]]
    verdict = dict(item["verdict"])
    poly = [Fraction(p) for p in verdict["minimal_poly"]]
    top = len(poly) - 1
    verdict["minimal_poly"] = [str(p * c ** (top - k))
                               for k, p in enumerate(poly)]
    if "weight" in verdict:
        verdict["weight"] = str(c * Fraction(verdict["weight"]))
    return coords, verdict


def _construct_matches(frozen):
    def verify(job, payload):
        table = payload.get("table") or {}
        if table.get("basis") != frozen["basis"]:
            return "constructed basis differs"
        if len(table.get("products", ())) != frozen["products"]:
            return "constructed product count differs"
        return None
    return verify


def _dense_jobs(workload, groups, seed, inputs, expected, verify_check):
    rng = random.Random(f"{workload}:{seed}")
    algebras = expected["algebras"]
    jobs = []
    for command, keys in groups.items():
        for pos, key in enumerate(keys):
            frozen = algebras[key]
            twin = DenseTwin(pool.build(key), f"{seed}:{command}:{pos}")
            path = inputs.algebra(twin.table, f"dense-{key}")
            name = f"{command} {twin.table.name}"
            if command == "element":
                item = frozen["elements"][pos % len(frozen["elements"])]
                coords, verdict = scaled_element(item, rng.choice(SCALES))
                jobs.append(Job(name, command, verdict,
                                argv=["element", path, twin.spec(coords)]))
                continue
            job = Job(name, command, frozen[command],
                      argv=[command, path], table=twin.table)
            if command == "check" and verify_check:
                job.verify = _witness_holds
            jobs.append(job)
    return jobs, rng


def dense_verify(seed, inputs, expected):
    """Dense twins with positive verdicts."""
    return _dense_jobs("dense-verify", pool.DENSE_VERIFY, seed, inputs,
                       expected, verify_check=False)


def dense_refute(seed, inputs, expected):
    """Dense twins with negative verdicts; every `check` witness is
    re-evaluated on the twin."""
    return _dense_jobs("dense-refute", pool.DENSE_REFUTE, seed, inputs,
                       expected, verify_check=True)


def _witness_holds(job, payload):
    """The witness x must give the reported nonzero defect
    (x^2)^2 - w(x)^2 x^2 when evaluated on the table."""
    witness = payload.get("witness") or {}
    table = job.table
    x = table.element_from({lab: Fraction(c) for lab, c in
                            witness["elements"][0].items()})
    sq = x * x
    defect = sq * sq - sq.scale(x.weight() ** 2)
    value = table.element_from({lab: Fraction(c) for lab, c in
                                witness["value"].items()})
    if defect != value or value.is_zero():
        return "witness does not reproduce the reported defect"
    return None


def pipeline_verdict(pres, spec):
    """Completion, truncation, baric extension and train analysis of a
    presentation; every step is a public library entry point."""
    _, _, max_deg, trunc = spec
    state = groebner.buchberger_truncated(pres, max_deg)
    ctable = groebner.truncated_algebra_table(state, trunc)
    s_indices = [i for i, w in enumerate(ctable.words) if len(w) == 1]
    algebra = catalog.from_associative(ctable, s_indices)
    report = train.train_analysis(algebra)
    op_index = train.operator_nilpotency_check(algebra, carrier="U")
    return {"assoc_dim": ctable.dim, "dim": algebra.dim,
            "hilbert": groebner.hilbert_counts(state, trunc),
            "basis_size": len(state.basis),
            "train": report.is_train, "rank": report.rank,
            "coefficients": [str(c) for c in report.train_coeffs or ()],
            "nil_index": report.nil_index_N, "operator_index": op_index}


def engel_report_verdict(key):
    report = train.engel_yagzhev_report(pool.build(key))
    return {"sq_sq_zero": report.satisfies_sq_sq_zero,
            "nil_index": report.nil_bounded_index,
            "engel_index": report.engel_index,
            "tree_sums_upto": report.yagzhev_verified_upto}


def large_sparse(seed, inputs, expected):
    """Library pipelines that build and analyse big sparse tables."""
    rng = random.Random(f"large-sparse:{seed}")
    jobs = []
    for spec in pool.PIPELINES:
        sub = random.Random(f"large-sparse:{seed}:{spec}")

        def call(spec=spec, sub_seed=sub.random()):
            pres = reshaped(presentation(spec[:2]), random.Random(sub_seed))
            return pipeline_verdict(pres, spec)
        jobs.append(Job(f"pipeline {spec}", "pipeline",
                        expected["pipelines"][repr(list(spec))], call=call))
    for key in pool.ENGEL_REPORTS:
        jobs.append(Job(f"engel_yagzhev_report {key}", "engel_report",
                        expected["engel_reports"][key],
                        call=lambda key=key: engel_report_verdict(key)))
    return jobs, rng


WORKLOADS = {
    "sparse-cli": sparse_cli,
    "dense-verify": dense_verify,
    "dense-refute": dense_refute,
    "large-sparse": large_sparse,
}


def prepare(workload, seed, workdir, short=False, expected=None):
    """The seeded job list of a workload, its input files written.

    ``short`` keeps the first job of each command, for the benchmark's
    own tests.
    """
    expected = expected or load_expected()
    jobs, rng = WORKLOADS[workload](seed, Inputs(workdir), expected)
    if short:
        seen = set()
        jobs = [j for j in jobs
                if j.command not in seen and not seen.add(j.command)]
    rng.shuffle(jobs)
    return jobs


def timed_pass(jobs, on_job=None, speed=None):
    """Run every job once.

    Returns (job seconds, scale factors, outcomes).  With a
    ``speed.SpeedTrack`` the core speed is probed between jobs and each
    job gets the factor that scales its time to the reference speed;
    without one every factor is 1.
    """
    times, before, outcomes = [], [], []
    for job in jobs:
        if speed is not None:
            speed.maybe_sample()
            before.append(len(speed.samples) - 1)
        start = time.perf_counter()
        if on_job is None:
            outcomes.append(execute(job))
        else:
            with on_job(job):
                outcomes.append(execute(job))
        times.append(time.perf_counter() - start)
    if speed is None:
        return times, [1.0] * len(times), outcomes
    speed.sample()
    return times, [speed.scale(b, b + 1) for b in before], outcomes
