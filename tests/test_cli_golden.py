"""CLI output on rebased twins of catalog algebras, byte for byte.

``tests/data/cli_golden.json`` holds the exit code, stdout and stderr of
``check``, ``train``, ``engel`` and ``element``, with and without
``--json``, on catalog algebras rebuilt on seeded unimodular bases
(``test_core._rebased``).  Verdicts do not depend on the basis and
coordinates are printed on the input basis, so this output changes only
when a change of the output is intended.  Regenerate the file with

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

from bernstein import catalog, cli, linalg
from bernstein.core import AlgebraTable
from bernstein.fileformat import save_algebra

from test_change_basis import _unimodular
from test_core import _rebased

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

# (native algebra, redirected product (a, b, c) meaning a*b = c or None,
# seed of the basis change)
TWINS = [
    (lambda: catalog.elementary_algebra(3), None, 1),
    (lambda: catalog.three_dim_alpha(2), None, 2),
    (lambda: catalog.shift_up_truncated(3), None, 3),
    (lambda: catalog.shift_down_truncated(3), None, 4),
    (lambda: catalog.free_single_truncated(5), None, 5),
    (lambda: catalog.free_single_truncated(6), None, 6),
    (lambda: catalog.zhevlakov_bernstein(2, 2), None, 7),
    (catalog.example_not_train, None, 8),
    (lambda: catalog.three_dim_alpha(Fraction(1, 2)), None, 9),
    (lambda: catalog.free_single_truncated(5, [0, 0, 1]), None, 10),
    (lambda: catalog.free_single_truncated(4), ("u1", "u1", "u2"), 15),
    (lambda: catalog.shift_up_truncated(3), ("u1", "u1", "u2"), 19),
    (lambda: catalog.elementary_algebra(3), ("n1", "n1", "n2"), 13),
    (lambda: catalog.three_dim_alpha(2), ("u1", "u1", "u1"), 14),
]


def _native(build, redirect):
    table = build()
    products = dict(table.product_items())
    name = table.name
    if redirect is not None:
        a, b, c = (table.index(lab) for lab in redirect)
        products[(min(a, b), max(a, b))] = {c: 1}
        name += "+{}*{}={}".format(*redirect)
    return AlgebraTable(table.labels, products, weight=table.weight,
                        name=name)


def _twin(native, seed, name="twin"):
    """The native table on the basis of ``_rebased`` with the same seed,
    with its weight, and the matrix of that basis (rows are the new
    basis vectors in native coordinates)."""
    p = _unimodular(random.Random(seed), native.dim)
    products = dict(_rebased(native, random.Random(seed)).product_items())
    weight = [native.weight_of(row) for row in p]
    return AlgebraTable(native.labels, products, weight=weight,
                        name=name), p


def _spec(labels, coords):
    text = ""
    for lab, c in zip(labels, coords):
        if c:
            text += f" {'-' if c < 0 else '+'} {abs(c)} {lab}"
    return text[3:] if text.startswith(" + ") else text.strip()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_runs(workdir):
    """Every golden run: its arguments (the file as ``{file}``) and its
    exit code, stdout and stderr."""
    runs = []
    for build, redirect, seed in TWINS:
        native = _native(build, redirect)
        twin, p = _twin(native, seed, f"twin({native.name})")
        path = os.path.join(workdir, f"twin{seed}.json")
        save_algebra(twin, path)
        # weight 1 (the whole native basis) and weight 0 (its barideal part)
        commands = [["check"], ["train"], ["engel"]]
        for first in (1, 0):
            coords = [first] + [1] * (native.dim - 1)
            commands.append(["element", _spec(
                twin.labels, linalg.Subspace(p).coords(coords))])
        for command in commands:
            for extra in ([], ["--json"]):
                argv = [command[0], path] + command[1:] + extra
                record = _run(argv)
                record["argv"] = [a.replace(path, "{file}") for a in argv]
                runs.append(record)
    return runs


def test_cli_output_matches_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    fresh = cli_runs(str(tmp_path))
    assert [r["argv"] for r in fresh] == [r["argv"] for r in golden]
    for got, want in zip(fresh, golden):
        assert got == want, " ".join(want["argv"])


def generate():
    with tempfile.TemporaryDirectory() as workdir:
        runs = cli_runs(workdir)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return len(runs)


if __name__ == "__main__":
    print(f"{generate()} runs written to {GOLDEN}")
