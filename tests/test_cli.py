"""Command line interface, exercised in process through main()."""

import json

import pytest

import bernstein.cli as cli
from bernstein.core import InternalCheckError
from bernstein.fileformat import (save_algebra, save_presentation,
                                  table_from_json)
from bernstein import catalog
from bernstein.groebner import NcPoly, Presentation

from conftest import non_bernstein_table


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_construct_writes_and_check_reads(tmp_path, capsys):
    path = tmp_path / "free5.json"
    rc, out, _ = run(capsys, "construct", "free_single",
                     "--param", "n=5", "--out", str(path), "--json")
    assert rc == 0
    assert "dim 5" in out and f"written to {path}" in out
    payload = last_json(out)
    assert table_from_json(payload["table"]) == \
        catalog.free_single_truncated(5)

    rc, out, _ = run(capsys, "check", str(path), "--json")
    assert rc == 0
    payload = last_json(out)
    assert payload["bernstein"] is True
    assert payload["type"] == [4, 1]
    assert payload["exceptional"] is True
    assert payload["nuclear"] is False
    assert payload["jordan"] is False
    assert payload["annihilator_dim"] == 3
    assert "type: (4, 1)" in out


def test_check_reports_witness(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_algebra(non_bernstein_table(), path)
    rc, out, _ = run(capsys, "check", str(path), "--json")
    assert rc == 0  # the verdict itself was computed
    assert "bernstein: no" in out
    payload = last_json(out)
    assert payload["bernstein"] is False
    assert payload["witness"]["value"]


def test_check_generic_degree(tmp_path, capsys):
    path = tmp_path / "nt.json"
    save_algebra(catalog.example_not_train(), path)
    rc, out, _ = run(capsys, "check", str(path), "--generic-degree", "--json")
    assert rc == 0
    assert "generic element degree: 3" in out
    assert last_json(out)["generic_degree"] == 3


def test_element_command(tmp_path, capsys):
    path = tmp_path / "nt.json"
    save_algebra(catalog.example_not_train(), path)
    rc, out, _ = run(capsys, "element", str(path), "e + u + v", "--json")
    assert rc == 0
    payload = last_json(out)
    assert payload["degree"] == 3
    assert payload["minimal_poly"] == ["0", "0", "3/2", "-5/2", "1"]
    assert payload["right_nil_index"] is None
    assert payload["weight"] == "1"
    assert payload["train_rank"] is None
    assert payload["minimal_poly_shape_ok"] is True

    rc, out, _ = run(capsys, "element", str(path), "u", "--json")
    assert rc == 0
    payload = last_json(out)
    assert payload["right_nil_index"] == 2
    assert payload["train_rank"] is None
    assert "not applicable" in out

    rc, _, err = run(capsys, "element", str(path), "e + q")
    assert rc == 1 and "unknown basis label" in err


def test_element_command_analyses_once(tmp_path, capsys, monkeypatch):
    # the train rank is read from the analysis the command already holds,
    # and the Bernstein verdict that backs its cross-checks is asked for
    # only when a check fails, so no identity is proved here
    import bernstein.elements as elements
    import bernstein.structure as structure
    calls = []
    analyze = elements.analyze_element
    proofs = []
    check = structure.check_identity

    def counted(a):
        calls.append(a)
        return analyze(a)

    monkeypatch.setattr(elements, "analyze_element", counted)
    monkeypatch.setattr(structure, "check_identity",
                        lambda *a, **k: proofs.append(a) or check(*a, **k))
    path = tmp_path / "free5.json"
    save_algebra(catalog.free_single_truncated(5), path)
    rc, out, _ = run(capsys, "element", str(path), "e + 2u1 + v1", "--json")
    assert rc == 0
    assert last_json(out)["train_rank"] == 6
    assert len(calls) == 1
    rc, out, _ = run(capsys, "element", str(path), "e + 2u1 + v1")
    assert rc == 0 and "f_6 vanishes (rank 6)" in out
    assert proofs == []


def test_train_command(tmp_path, capsys):
    path = tmp_path / "free4.json"
    save_algebra(catalog.free_single_truncated(4), path)
    rc, out, _ = run(capsys, "train", str(path), "--json")
    assert rc == 0
    payload = last_json(out)
    assert payload["train"] is True and payload["rank"] == 5
    assert payload["coefficients"] == ["1", "-2", "5/4", "-1/4", "0"]
    assert payload["nil_index"] == 4
    assert payload["locally_train"] is True

    nt = tmp_path / "nt.json"
    save_algebra(catalog.example_not_train(), nt)
    rc, out, _ = run(capsys, "train", str(nt), "--json")
    assert rc == 0
    payload = last_json(out)
    assert payload["train"] is False and payload["rank"] is None
    assert "not nil of bounded index" in out


def test_engel_command(tmp_path, capsys):
    path = tmp_path / "zh.json"
    save_algebra(catalog.zhevlakov_bernstein(3, 3), path)
    rc, out, _ = run(capsys, "engel", str(path), "--json")
    assert rc == 0
    payload = last_json(out)
    assert payload["sq_sq_zero"] is True
    assert payload["nil_index"] == 3 and payload["engel_index"] == 3
    assert payload["tree_sums_upto"] == 6

    rc, out, _ = run(capsys, "engel", str(path),
                     "--carrier", "x1x2,x1x2x3", "--json")
    assert rc == 0
    payload = last_json(out)
    assert payload["nil_index"] == 2 and payload["engel_index"] == 1

    rc, _, err = run(capsys, "engel", str(path), "--carrier", "x1,x2")
    assert rc == 1 and "closed" in err


def test_construct_errors(capsys):
    rc, _, err = run(capsys, "construct", "mystery")
    assert rc == 1 and "unknown construction" in err
    rc, _, err = run(capsys, "construct", "three_dim", "--param", "alpha")
    assert rc == 1 and "key=value" in err
    rc, _, err = run(capsys, "construct", "three_dim", "--param", "beta=2")
    assert rc == 1 and "bad parameters" in err
    assert run(capsys, "construct", "elementary", "--param", "nil_dim=2",
               "--param", "nil_dim=3") == \
        (1, "", "error: parameter nil_dim given twice\n")
    rc, out, _ = run(capsys, "construct", "three_dim",
                     "--param", "alpha=3/2")
    assert rc == 0 and "dim 3" in out


def test_groebner_command(tmp_path, capsys):
    path = tmp_path / "kurosh.json"
    save_presentation(catalog.kurosh_presentation(), path)
    rc, out, _ = run(capsys, "groebner", str(path), "--max-deg", "6",
                     "--json")
    assert rc == 0
    payload = last_json(out)
    assert payload["new_elements"] == 0
    assert payload["groebner_as_given"] is True
    assert payload["complete_below"] == 7
    assert payload["hilbert"] == [2, 4, 4, 5, 4, 5]
    assert "normal words of degree 2: xx, xy, yx, yy" in out

    rc, _, err = run(capsys, "groebner", str(path), "--max-deg", "2")
    assert rc == 1 and "relation degree" in err
    rc, _, err = run(capsys, "groebner", str(path))
    assert rc == 1  # missing required --max-deg is an input error


def test_kurosh_demo_pass(capsys):
    rc, out, _ = run(capsys, "kurosh-demo", "--json")
    assert rc == 0
    assert out.count("PASS") == 6 and "FAIL" not in out
    payload = last_json(out)
    assert payload["train"]["ok"] is True
    assert payload["train"]["rank"] == 4
    assert payload["train"]["coefficients"] == ["1", "-3/2", "1/2", "0"]
    assert payload["train"]["nil_index"] == 4
    assert payload["train"]["operator_index"] == 3


def test_kurosh_demo_shallow_bound_fails(capsys):
    rc, out, _ = run(capsys, "kurosh-demo", "--max-deg", "3")
    assert rc == 1
    assert "FAIL truncation" in out
    assert "train" not in [line.split()[1].rstrip(":")
                           for line in out.splitlines()
                           if line.startswith(("PASS", "FAIL"))]


# kurosh-demo exit code and stdout, byte for byte: passing bounds, a
# completion and a truncation that raise, and a train step that fails
# without raising
KUROSH_DEMO_RUNS = [
    ((), 0, (
        "PASS completion: 4 relations close below degree 13 with 0 new "
        "elements\n"
        "PASS nil_span: every element of span(x, y) cubes to zero; "
        "squares do not all vanish\n"
        "PASS hilbert: normal word counts [2, 4, 4, 5, 4, 5, 4, 5, 4, 5, "
        "4, 5] match the alternating pattern and (xy)^t stays normal\n"
        "PASS truncation: truncated algebra has dimension 24\n"
        "PASS baric: baric extension has dimension 27 and type (25, 2)\n"
        "PASS train: train rank 4 with coefficients (1, -3/2, 1/2, 0); "
        "weight kernel nil index 4, operator index 3\n"
    )),
    (("--json",), 0, (
        "PASS completion: 4 relations close below degree 13 with 0 new "
        "elements\n"
        "PASS nil_span: every element of span(x, y) cubes to zero; "
        "squares do not all vanish\n"
        "PASS hilbert: normal word counts [2, 4, 4, 5, 4, 5, 4, 5, 4, 5, "
        "4, 5] match the alternating pattern and (xy)^t stays normal\n"
        "PASS truncation: truncated algebra has dimension 24\n"
        "PASS baric: baric extension has dimension 27 and type (25, 2)\n"
        "PASS train: train rank 4 with coefficients (1, -3/2, 1/2, 0); "
        "weight kernel nil index 4, operator index 3\n"
        '{"baric": {"dim": 27, "ok": true, "type": [25, 2]}, "command": '
        '"kurosh_demo", "completion": {"basis_size": 4, "ok": true}, '
        '"hilbert": {"counts": [2, 4, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5], '
        '"ok": true}, "max_deg": 12, "nil_span": {"cubes": true, "ok": '
        'true, "squares": false}, "train": {"coefficients": ["1", "-3/2", '
        '"1/2", "0"], "nil_index": 4, "ok": true, "operator_index": 3, '
        '"rank": 4}, "trunc": 6, "truncation": {"dim": 24, "ok": true}}\n'
    )),
    (("--max-deg", "2"), 1, (
        "FAIL completion: degree bound 2 is below the relation degree 3\n"
    )),
    (("--max-deg", "3"), 1, (
        "PASS completion: 4 relations close below degree 4 with 0 new "
        "elements\n"
        "PASS nil_span: every element of span(x, y) cubes to zero; "
        "squares do not all vanish\n"
        "PASS hilbert: normal word counts [2, 4, 4] match the alternating "
        "pattern and (xy)^t stays normal\n"
        "FAIL truncation: completeness bound insufficient for truncation "
        "at 6 (complete below 4)\n"
    )),
    (("--max-deg", "3", "--json"), 1, (
        "PASS completion: 4 relations close below degree 4 with 0 new "
        "elements\n"
        "PASS nil_span: every element of span(x, y) cubes to zero; "
        "squares do not all vanish\n"
        "PASS hilbert: normal word counts [2, 4, 4] match the alternating "
        "pattern and (xy)^t stays normal\n"
        "FAIL truncation: completeness bound insufficient for truncation "
        "at 6 (complete below 4)\n"
        '{"command": "kurosh_demo", "completion": {"basis_size": 4, "ok": '
        'true}, "hilbert": {"counts": [2, 4, 4], "ok": true}, "max_deg": 3, '
        '"nil_span": {"cubes": true, "ok": true, "squares": false}, '
        '"trunc": 6, "truncation": {"error": "completeness bound '
        'insufficient for truncation at 6 (complete below 4)", "ok": '
        'false}}\n'
    )),
    (("--max-deg", "5", "--trunc", "2", "--json"), 1, (
        "PASS completion: 4 relations close below degree 6 with 0 new "
        "elements\n"
        "PASS nil_span: every element of span(x, y) cubes to zero; "
        "squares do not all vanish\n"
        "PASS hilbert: normal word counts [2, 4, 4, 5, 4] match the "
        "alternating pattern and (xy)^t stays normal\n"
        "PASS truncation: truncated algebra has dimension 6\n"
        "PASS baric: baric extension has dimension 9 and type (7, 2)\n"
        "FAIL train: train rank 3 with coefficients (1, -1, 0); weight "
        "kernel nil index 3, operator index 2\n"
        '{"baric": {"dim": 9, "ok": true, "type": [7, 2]}, "command": '
        '"kurosh_demo", "completion": {"basis_size": 4, "ok": true}, '
        '"hilbert": {"counts": [2, 4, 4, 5, 4], "ok": true}, "max_deg": '
        '5, "nil_span": {"cubes": true, "ok": true, "squares": false}, '
        '"train": {"coefficients": ["1", "-1", "0"], "nil_index": 3, '
        '"ok": false, "operator_index": 2, "rank": 3}, "trunc": 2, '
        '"truncation": {"dim": 6, "ok": true}}\n'
    )),
    (("--max-deg", "4", "--trunc", "3"), 0, (
        "PASS completion: 4 relations close below degree 5 with 0 new "
        "elements\n"
        "PASS nil_span: every element of span(x, y) cubes to zero; "
        "squares do not all vanish\n"
        "PASS hilbert: normal word counts [2, 4, 4, 5] match the "
        "alternating pattern and (xy)^t stays normal\n"
        "PASS truncation: truncated algebra has dimension 10\n"
        "PASS baric: baric extension has dimension 13 and type (11, 2)\n"
        "PASS train: train rank 4 with coefficients (1, -3/2, 1/2, 0); "
        "weight kernel nil index 4, operator index 3\n"
    )),
]


@pytest.mark.parametrize("argv, code, stdout", KUROSH_DEMO_RUNS,
                         ids=[" ".join(run[0]) or "default"
                              for run in KUROSH_DEMO_RUNS])
def test_kurosh_demo_output_is_pinned(capsys, argv, code, stdout):
    assert run(capsys, "kurosh-demo", *argv) == (code, stdout, "")


# construct and groebner exit code and stdout, byte for byte: the text
# alone, and with --json the same text followed by one JSON line
PINNED_RUNS = [
    (("construct", "free_single", "--param", "n=5", "--out", "free5.json"),
     0, (
         "constructed: free_single(5) (dim 5)\n"
         "basis: e, u1, u2, u3, v1\n"
         "written to free5.json\n"
     ),
     '{"command": "construct", "table": {"basis": ["e", "u1", "u2", "u3", '
     '"v1"], "name": "free_single(5)", "products": [{"left": "e", "right": '
     '"e", "value": {"e": "1"}}, {"left": "e", "right": "u1", "value": '
     '{"u1": "1/2"}}, {"left": "e", "right": "u2", "value": {"u2": '
     '"1/2"}}, {"left": "e", "right": "u3", "value": {"u3": "1/2"}}, '
     '{"left": "u1", "right": "v1", "value": {"u2": "1"}}, {"left": "u2", '
     '"right": "v1", "value": {"u3": "1"}}, {"left": "v1", "right": "v1", '
     '"value": {"u1": "-2", "u2": "-4"}}], "weight": {"e": "1"}}}\n'),
    (("construct", "three_dim", "--param", "alpha=1/2"), 0, (
        "constructed: three_dim(1/2) (dim 3)\n"
        "basis: e, u1, v1\n"
    ),
     '{"command": "construct", "table": {"basis": ["e", "u1", "v1"], '
     '"name": "three_dim(1/2)", "products": [{"left": "e", "right": "e", '
     '"value": {"e": "1"}}, {"left": "e", "right": "u1", "value": {"u1": '
     '"1/2"}}, {"left": "u1", "right": "v1", "value": {"u1": "-1"}}, '
     '{"left": "v1", "right": "v1", "value": {"u1": "2"}}], "weight": '
     '{"e": "1"}}}\n'),
    (("groebner", "kurosh.json", "--max-deg", "6"), 0, (
        "generators: x, y\n"
        "input relations: 4\n"
        "degree bound: 6 (normal forms complete below 7)\n"
        "new elements during completion: 0\n"
        "input was already a Groebner basis below the bound: yes\n"
        "basis (4 elements):\n"
        "  yyy = 0\n"
        "  xyy + yxy + yyx = 0\n"
        "  xxy + xyx + yxx = 0\n"
        "  xxx = 0\n"
        "normal word counts, degree 1..6: 2, 4, 4, 5, 4, 5\n"
        "normal words of degree 1: x, y\n"
        "normal words of degree 2: xx, xy, yx, yy\n"
        "normal words of degree 3: xyx, yxx, yxy, yyx\n"
    ),
     '{"basis": ["yyy", "xyy + yxy + yyx", "xxy + xyx + yxx", "xxx"], '
     '"command": "groebner", "complete_below": 7, "groebner_as_given": '
     'true, "hilbert": [2, 4, 4, 5, 4, 5], "new_elements": 0}\n'),
    (("groebner", "mixed.json", "--max-deg", "6", "--words-deg", "2"), 0, (
        "generators: x, y\n"
        "input relations: 2\n"
        "degree bound: 6 (normal forms complete below 7)\n"
        "new elements during completion: 4\n"
        "input was already a Groebner basis below the bound: no\n"
        "basis (6 elements):\n"
        "  xx - yy = 0\n"
        "  xyy - yyx = 0\n"
        "  xyx + 1/2*y = 0\n"
        "  yyyx + 1/2*xy = 0\n"
        "  yyxy + 1/2*yx = 0\n"
        "  yyyyy - 1/4*y = 0\n"
        "normal word counts, degree 1..6: 2, 3, 3, 1, 0, 0\n"
        "normal words of degree 1: x, y\n"
        "normal words of degree 2: xy, yx, yy\n"
    ),
     '{"basis": ["xx - yy", "xyy - yyx", "xyx + 1/2*y", "yyyx + 1/2*xy", '
     '"yyxy + 1/2*yx", "yyyyy - 1/4*y"], "command": "groebner", '
     '"complete_below": 7, "groebner_as_given": false, "hilbert": [2, 3, '
     '3, 1, 0, 0], "new_elements": 4}\n'),
]


@pytest.mark.parametrize("argv, code, text, json_line", PINNED_RUNS,
                         ids=[" ".join(run[0]) for run in PINNED_RUNS])
def test_construct_and_groebner_output_is_pinned(tmp_path, capsys,
                                                 monkeypatch, argv, code,
                                                 text, json_line):
    monkeypatch.chdir(tmp_path)
    save_presentation(catalog.kurosh_presentation(), "kurosh.json")
    save_presentation(Presentation(("x", "y"), (
        NcPoly({(0, 0): 1, (1, 1): -1}),
        NcPoly({(0, 1, 0): 1, (1,): "1/2"}))), "mixed.json")
    assert run(capsys, *argv) == (code, text, "")
    assert run(capsys, *argv, "--json") == (code, text + json_line, "")


def test_missing_file_is_input_error(capsys):
    rc, _, err = run(capsys, "check", "/no/such/file.json")
    assert rc == 1 and "error:" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200000],
                         ids=["not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("command", [("check",), ("groebner", "--max-deg", "3")],
                         ids=["check", "groebner"])
def test_malformed_file_is_input_error(tmp_path, capsys, content, command):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc, out, err = run(capsys, command[0], str(path), *command[1:])
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {path}: not valid JSON (")
    assert err.endswith(")\n") and err.count("\n") == 1


def test_internal_check_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "nt.json"
    save_algebra(catalog.example_not_train(), path)

    def boom(table):
        raise InternalCheckError("synthetic failure")

    monkeypatch.setattr(cli.structure, "classify", boom)
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 2 and "internal check failed" in err


def test_successive_calls_match_fresh_processes(tmp_path, capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path
    path = tmp_path / "nt.json"
    save_algebra(catalog.example_not_train(), path)
    pres = tmp_path / "kurosh.json"
    save_presentation(catalog.kurosh_presentation(), pres)
    calls = [
        ["construct", "elementary", "--param", "nil_dim=3", "--json"],
        ["construct", "elementary", "--json"],
        ["construct", "free_single"],
        ["groebner", str(pres), "--max-deg", "6", "--words-deg", "1"],
        ["groebner", str(pres), "--max-deg", "6"],
        ["check", str(path), "--generic-degree", "--json"],
    ]
    # No global --seed: an input error, with the same message in both.
    seeded = ["--seed", "7", "check", str(path), "--generic-degree", "--json"]
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv in [*calls, seeded]:
        fresh = subprocess.run([sys.executable, "-m", "bernstein.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout,
                                      fresh.stderr)
    assert fresh.returncode == 1
    # The parser that main reuses still parses like a new one.
    for argv in calls:
        assert vars(cli._parser().parse_args(argv)) == \
            vars(cli.build_parser().parse_args(argv))
