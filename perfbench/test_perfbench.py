"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from bernstein import fileformat
from bernstein.multipoly import MultiPoly

import jobs
import pool
import run
from dense import DenseTwin
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ("multipoly.terms_out", "linalg.cells", "train.trees_evaluated",
          "groebner.reduce.calls")


def dense_keys():
    keys = set()
    for group in (pool.DENSE_VERIFY, pool.DENSE_REFUTE):
        for names in group.values():
            keys.update(names)
    return sorted(keys)


@pytest.mark.parametrize("key", dense_keys())
def test_twin_maps_back_to_the_native_table(key):
    native = pool.build(key)
    twin = DenseTwin(native, "test")
    assert twin.map_back().structural_key() == native.structural_key()
    zeros = sum(1 for i in range(native.dim) for j in range(i, native.dim)
                if not twin.table.product_vector(i, j))
    assert zeros < native.dim * (native.dim + 1) // 4


def test_twin_element_spec_denotes_the_mapped_vector():
    native = pool.build("free_single(n=5)")
    twin = DenseTwin(native, 7)
    coords = [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(3), 2]
    element = fileformat.parse_element_spec(twin.table, twin.spec(coords))
    assert list(element.coords) == twin.coords_in_twin(coords)
    back = [sum(twin.matrix[i][k] * c for k, c in enumerate(element.coords))
            for i in range(native.dim)]
    assert back == coords


@pytest.fixture(scope="module")
def expected():
    return jobs.load_expected()


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_short_mode_gives_the_frozen_verdicts(workload, tmp_path, expected):
    job_list = jobs.prepare(workload, 3, str(tmp_path), short=True,
                            expected=expected)
    assert len({job.command for job in job_list}) == len(job_list)
    times, _, outcomes = jobs.timed_pass(job_list)
    assert len(times) == len(job_list)
    errors = [jobs.check(job, outcome)
              for job, outcome in zip(job_list, outcomes)]
    assert errors == [None] * len(job_list)


def test_same_seed_gives_the_same_inputs(tmp_path, expected):
    first = jobs.prepare("dense-refute", 5, str(tmp_path / "a"),
                         expected=expected)
    again = jobs.prepare("dense-refute", 5, str(tmp_path / "b"),
                         expected=expected)
    other = jobs.prepare("dense-refute", 6, str(tmp_path / "c"),
                         expected=expected)

    def inputs(job_list):
        out = []
        for job in job_list:
            with open(job.argv[1], encoding="utf-8") as fh:
                out.append((job.name, fh.read()))
        return out
    assert inputs(first) == inputs(again)
    assert inputs(first) != inputs(other)


def test_wrong_verdicts_count_as_failures_and_do_not_raise(tmp_path,
                                                           expected):
    job_list = jobs.prepare("dense-verify", 1, str(tmp_path), short=True,
                            expected=expected)
    job = next(j for j in job_list if j.command == "train")
    outcome = jobs.execute(job)
    assert jobs.check(job, outcome) is None
    job.expect = dict(job.expect, rank=job.expect["rank"] + 1)
    assert "rank" in jobs.check(job, outcome)

    missing = jobs.Job("check missing", "check", {},
                       argv=["check", str(tmp_path / "missing.json")])
    assert "exit code 1" in jobs.check(missing, jobs.execute(missing))

    def broken():
        raise ZeroDivisionError("boom")
    crash = jobs.Job("crash", "pipeline", {}, call=broken)
    assert "ZeroDivisionError" in jobs.check(crash, jobs.execute(crash))


def test_refute_witnesses_are_checked(tmp_path, expected):
    job_list = jobs.prepare("dense-refute", 2, str(tmp_path),
                            expected=expected)
    job = next(j for j in job_list if j.command == "check")
    outcome = jobs.execute(job)
    assert jobs.check(job, outcome) is None
    value = outcome.payload["witness"]["value"]
    label = next(iter(value))
    value[label] = str(Fraction(value[label]) + 1)
    assert "witness" in jobs.check(job, outcome)


def test_benchmark_json_names_the_measured_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, m["unit"], m["better"]) for name, m in layer_map.items()]


def test_delegating_operator_is_counted_once(monkeypatch):
    for attr, obj in list(vars(MultiPoly).items()):
        if inspect.isfunction(obj):
            monkeypatch.setattr(MultiPoly, attr, obj)  # restored afterwards
    tracer = Tracer()
    tracer._wrap_class(MultiPoly, "multipoly")
    poly = MultiPoly.var("x") + MultiPoly.var("y") + 1
    assert "multipoly.MultiPoly.mul" not in tracer.stats
    result = Fraction(2) * poly
    assert len(result.terms) == 3
    assert tracer.stats["multipoly.MultiPoly.mul"][0] == 1
    assert tracer.counts["multipoly.terms_out"] == 3


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", ["large-sparse", "dense-refute"])
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", workload, "--seed", "4",
                    "--seconds", "1", "--trace", "1", "--short")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, again = (r["metrics"] for r in results)
    assert all(r["correct"] for r in results)
    for name in COUNTS:
        assert first[name]["value"] == again[name]["value"]
    assert first["multipoly.terms_out"]["value"] > 0
    assert first["trace.coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sparse-cli", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
