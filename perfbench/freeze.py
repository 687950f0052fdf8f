"""Freeze the basis-invariant verdicts of every native algebra, Gröbner
presentation and library pipeline the benchmark uses into
``expected.json``.

Run from the repository root after a deliberate change of verdicts:

    PYTHONPATH=src python3 perfbench/freeze.py

The benchmark never recomputes these; every job, native or dense, is
checked against them.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
from fractions import Fraction

from bernstein import fileformat

import pool
from dense import element_spec
from jobs import (CHECK_FIELDS, ELEMENT_FIELDS, ENGEL_FIELDS, TRAIN_FIELDS,
                  Job, check, engel_report_verdict, execute, pipeline_verdict,
                  presentation)

ELEMENTS_PER_ALGEBRA = 4
HERE = os.path.dirname(os.path.abspath(__file__))


def run_cli(argv):
    """JSON verdict of one CLI call, as the benchmark runs it."""
    job = Job(" ".join(argv), argv[0], {}, argv=list(argv))
    outcome = execute(job)
    error = check(job, outcome)
    if error:
        raise RuntimeError(f"{job.name}: {error}")
    return outcome.payload


def pick(payload, fields):
    return {f: payload[f] for f in fields if f in payload}


def frozen_elements(key, table):
    """Native coordinates of a few fixed elements: one of weight 1, one
    of weight 0 and two unconstrained."""
    rng = random.Random(f"freeze:{key}")
    out = []
    for k in range(ELEMENTS_PER_ALGEBRA):
        coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                  for _ in range(table.dim)]
        if not any(coords):
            coords[0] = Fraction(1)
        w = table.weight_of(coords)
        if k == 0 and w:
            coords = [c / w for c in coords]
        elif k == 1:
            coords[0] -= w / table.weight[0]
            if not any(coords):
                coords[-1] = Fraction(1)
        out.append([str(c) for c in coords])
    return out


def freeze_algebra(key, workdir):
    table = pool.build(key)
    path = os.path.join(workdir, "a.json")
    fileformat.save_algebra(table, path)
    entry = {"dim": table.dim,
             "check": pick(run_cli(["check", path]), CHECK_FIELDS)}
    if key in pool.GENERIC_DEGREE:
        entry["check_generic_degree"] = pick(
            run_cli(["check", path, "--generic-degree"]), CHECK_FIELDS)
    entry["train"] = pick(run_cli(["train", path]), TRAIN_FIELDS)
    if key not in pool.SLOW_ENGEL:
        entry["engel"] = pick(run_cli(["engel", path]), ENGEL_FIELDS)
    if "+" not in key:
        constructed = run_cli(["construct"] + pool.construct_args(key))
        entry["construct"] = {
            "basis": constructed["table"]["basis"],
            "products": len(constructed["table"]["products"])}
    entry["elements"] = []
    for coords in frozen_elements(key, table):
        spec = element_spec(table.labels, coords)
        entry["elements"].append({
            "coords": coords,
            "verdict": pick(run_cli(["element", path, spec]),
                            ELEMENT_FIELDS)})
    return entry


def main():
    data = {"algebras": {}, "groebner": {}, "pipelines": {},
            "engel_reports": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for key in pool.all_keys():
            data["algebras"][key] = freeze_algebra(key, workdir)
            print(key, file=sys.stderr)
        for spec in pool.PRESENTATIONS:
            path = os.path.join(workdir, "p.json")
            fileformat.save_presentation(presentation(spec[:2]), path)
            data["groebner"][repr(list(spec))] = run_cli(
                ["groebner", path, "--max-deg", str(spec[2])])
    data["kurosh"] = run_cli(["kurosh-demo"])
    for spec in pool.PIPELINES:
        data["pipelines"][repr(list(spec))] = pipeline_verdict(
            presentation(spec[:2]), spec)
    for key in pool.ENGEL_REPORTS:
        data["engel_reports"][key] = engel_report_verdict(key)
    with open(os.path.join(HERE, "expected.json"), "w",
              encoding="utf-8") as fh:
        fh.write(render(data))


def render(data):
    """JSON with one line per algebra, presentation or pipeline."""
    sections = []
    for name in sorted(data):
        entries = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(data[name].items()))
        sections.append(f" {json.dumps(name)}: {{\n{entries}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    main()
