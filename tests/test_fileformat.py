"""JSON interchange, the element expression syntax and the one scalar
reader behind both."""

import contextlib
import fractions
import io
import json
import random
import re
from fractions import Fraction

import pytest

from bernstein import cli
from bernstein.core import (MAX_SCALAR_CHARS, AlgebraError, AlgebraTable,
                            read_scalar)
from bernstein.fileformat import (element_to_json, load_algebra,
                                  load_presentation, parse_element_spec,
                                  presentation_from_json,
                                  presentation_to_json, save_algebra,
                                  save_presentation, table_from_json,
                                  table_to_json)
from bernstein import catalog
from bernstein.groebner import (NcPoly, Presentation, buchberger_truncated,
                                truncated_algebra_table)

from conftest import bernstein_pool, pool_builders
from test_cli_golden import _twin

F = Fraction


def test_table_round_trips(tmp_path):
    rng = random.Random(81)
    weightless, _, _ = catalog.zhevlakov_truncated(3, 2)
    tables = [bernstein_pool(rng) for _ in range(6)] + [weightless]
    for k, table in enumerate(tables):
        assert table_from_json(table_to_json(table)) == table
        path = tmp_path / f"t{k}.json"
        save_algebra(table, path)
        again = load_algebra(path)
        assert again == table
        assert again.name == table.name and again.notes == table.notes


def test_table_json_rejects_bad_data(tmp_path):
    table = catalog.example_not_train()
    good = table_to_json(table)

    dup = json.loads(json.dumps(good))
    dup["products"].append({"left": "u", "right": "e",
                            "value": {"u": "1/2"}})
    with pytest.raises(AlgebraError, match="duplicate"):
        table_from_json(dup)

    unknown = json.loads(json.dumps(good))
    unknown["products"][0]["left"] = "w"
    with pytest.raises(AlgebraError, match="unknown"):
        table_from_json(unknown)

    floaty = json.loads(json.dumps(good))
    floaty["weight"] = {"e": 1.25}
    with pytest.raises(AlgebraError):
        table_from_json(floaty)

    listy = json.loads(json.dumps(good))
    listy["products"][0]["left"] = ["e"]
    with pytest.raises(AlgebraError, match="unknown label"):
        table_from_json(listy)

    with pytest.raises(AlgebraError, match="basis"):
        table_from_json({"products": []})
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(AlgebraError, match="not valid JSON"):
        load_algebra(bad)


def test_element_spec_parsing():
    table = catalog.free_single_truncated(5)
    el = parse_element_spec(table, "e + 2u1 - 1/2 v1")
    assert el == table.element_from({"e": 1, "u1": 2, "v1": F(-1, 2)})
    assert parse_element_spec(table, "3*u2") == table.element_from({"u2": 3})
    assert parse_element_spec(table, "u1 + u1") == \
        table.element_from({"u1": 2})
    assert parse_element_spec(table, "-v1") == table.element_from({"v1": -1})
    assert parse_element_spec(table, " e ") == table.element_from({"e": 1})
    assert parse_element_spec(table, "1 / 2 e") == \
        table.element_from({"e": F(1, 2)})
    assert parse_element_spec(table, "2e") == table.element_from({"e": 2})

    for bad in ("", "  ", "e + ", "2 + e", "e ** 2", "q1", "e e"):
        with pytest.raises(AlgebraError):
            parse_element_spec(table, bad)


def test_element_to_json():
    table = catalog.example_not_train()
    el = table.element_from({"e": 1, "u": F(-5, 2)})
    assert element_to_json(el) == {"e": "1", "u": "-5/2"}
    assert element_to_json(table.zero()) == {}


def test_presentation_round_trip(tmp_path):
    pres = catalog.kurosh_presentation()
    data = presentation_to_json(pres)
    again = presentation_from_json(data)
    assert again == pres
    path = tmp_path / "pres.json"
    save_presentation(pres, path)
    assert load_presentation(path) == pres

    for word in (["y"], [["x"]]):
        with pytest.raises(AlgebraError, match="unknown generator"):
            presentation_from_json({"generators": ["x"],
                                    "relations": [[{"word": word}]]})
    with pytest.raises(AlgebraError, match="collapses"):
        presentation_from_json(
            {"generators": ["x"],
             "relations": [[{"word": ["x"], "coeff": "1"},
                            {"word": ["x"], "coeff": "-1"}]]})
    with pytest.raises(AlgebraError, match="relations"):
        presentation_from_json({"generators": ["x"], "relations": []})


LONG = "1" * 5000
# (value, the text an error message names it by)
BAD_TEXTS = [("0.5", "'0.5'"), ("1e3", "'1e3'"), ("1/0", "'1/0'"),
             ("--1", "'--1'"), (LONG, repr(LONG[:20] + "..."))]
BAD_JSON = [(0.5, "0.5"), (1, "1"), (True, "True")]


def test_read_scalar_is_strict():
    assert read_scalar(" 5/10 ") == (1, 2)
    assert read_scalar("-6/4") == (-3, 2)
    assert read_scalar("+7") == (7, 1)
    assert read_scalar("0/5") == (0, 1)
    for bad, name in BAD_TEXTS + BAD_JSON + [("\u0663", "'\u0663'"),
                                              ("1_000", "'1_000'"),
                                              ("1/-2", "'1/-2'")]:
        with pytest.raises(AlgebraError) as err:
            read_scalar(bad)
        assert str(err.value).startswith(f"bad scalar {name}")


def _bad_table_files(bad):
    """JSON objects of a table with ``bad`` as one product constant and
    as one weight."""
    good = table_to_json(catalog.example_not_train())
    in_product = json.loads(json.dumps(good))
    in_product["products"][0]["value"]["e"] = bad
    in_weight = json.loads(json.dumps(good))
    in_weight["weight"]["e"] = bad
    return {"product": in_product, "weight": in_weight}


def _bad_presentation(bad):
    return {"generators": ["x", "y"],
            "relations": [[{"word": ["x", "x"], "coeff": bad},
                           {"word": ["y"]}]]}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("bad, name", BAD_TEXTS + BAD_JSON,
                         ids=["decimal", "exponent", "zero-den", "two-signs",
                              "long", "json-float", "json-int", "json-bool"])
def test_bad_scalars_are_input_errors_everywhere(tmp_path, bad, name):
    """Each bad scalar raises an AlgebraError that names it, in a table
    file's products and weight, in a presentation's coeff and, for the
    strings, in an element spec and a --param; cli.main exits 1 with
    one error line and no traceback."""
    message = f"bad scalar {name}"
    shown = re.escape(str(bad)[:19])    # in a term, after its sign
    runs = []
    for where, data in _bad_table_files(bad).items():
        with pytest.raises(AlgebraError, match="^" + message):
            table_from_json(data)
        path = tmp_path / f"{where}.json"
        path.write_text(json.dumps(data))
        runs.append(["check", str(path)])
    with pytest.raises(AlgebraError, match="^" + message):
        presentation_from_json(_bad_presentation(bad))
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(_bad_presentation(bad)))
    runs.append(["groebner", str(path), "--max-deg", "3"])
    if isinstance(bad, str):
        table = catalog.free_single_truncated(5)
        for spec in (f"{bad} e", f"e + {bad}*u1"):
            with pytest.raises(AlgebraError, match="^bad scalar .*" + shown):
                parse_element_spec(table, spec)
        path = tmp_path / "free5.json"
        save_algebra(table, path)
        runs.append(["element", str(path), f"e - {bad} u1"])
        runs.append(["construct", "three_dim", "--param", f"alpha={bad}"])
    for argv in runs:
        code, out, err = _cli(argv)
        assert code == 1 and out == "", argv
        assert re.match("error: bad scalar .*" + shown, err)
        assert err.count("\n") == 1 and "Traceback" not in err


def _every_table():
    """The tables the suite builds: the pool builders and their rebased
    twins, each catalog constructor and the degree-5 Kurosh table."""
    rng = random.Random(19)
    tables = []
    for seed, build in enumerate(pool_builders(rng)):
        native = build()
        tables.append(native)
        if native.dim > 1:
            tables.append(_twin(native, seed)[0])
    nil, words, letters = catalog.zhevlakov_truncated(3, 2)
    free = catalog.free_single_truncated(6, [1, F(-1, 3), 0, 2])
    plain = catalog.free_single_truncated(6)
    tables += [
        catalog.elementary_algebra(2), catalog.constant_algebra(),
        catalog.three_dim_alpha(F(-5, 7)), catalog.example_not_train(),
        catalog.shift_up_truncated(4), catalog.shift_down_truncated(4),
        free, catalog.zhevlakov_bernstein(3, 2), nil,
        catalog.adjoin_idempotent(nil, words, letters),
        catalog.quotient(plain, [plain.basis_element(4)]),
        catalog.subalgebra(free, [free.element_from({"u2": 1, "v1": 1})])[0],
    ]
    state = buchberger_truncated(catalog.kurosh_presentation(), 8)
    assoc = truncated_algebra_table(state, 5)
    tables.append(catalog.from_associative(
        assoc, [i for i, w in enumerate(assoc.words) if len(w) == 1]))
    return tables


def test_tables_round_trip_through_integers(tmp_path):
    for k, table in enumerate(_every_table()):
        path = tmp_path / f"t{k}.json"
        save_algebra(table, path)
        again = load_algebra(path)
        assert table_to_json(again) == table_to_json(table)
        assert again == table and hash(again) == hash(table)
        assert again._integer_rows() == table._integer_rows()
        assert again.weight == table.weight
        assert again.structural_key() == table.structural_key()
        for i in range(table.dim):
            for j in range(table.dim):
                assert again.product_vector(i, j) == table.product_vector(i, j)


def test_saving_refuses_scalars_loading_would_reject(tmp_path):
    fits = -10 ** (MAX_SCALAR_CHARS - 2)    # "-1000...0", at the cap
    path = tmp_path / "fits.json"
    table = AlgebraTable(("e", "u"), {(0, 1): {1: fits}})
    save_algebra(table, path)
    assert load_algebra(path) == table
    big = 10 ** MAX_SCALAR_CHARS            # one character over it
    cases = [
        (AlgebraTable(("e", "u"), {(0, 0): {0: 1}, (0, 1): {1: F(1, big)}}),
         "the u coefficient of e*u"),
        (AlgebraTable(("e",), {(0, 0): {0: big}}, weight=(big,)),
         "the weight of e"),
    ]
    for k, (table, where) in enumerate(cases):
        path = tmp_path / f"t{k}.json"
        message = f"cannot write {where}: longer than {MAX_SCALAR_CHARS}"
        with pytest.raises(AlgebraError, match=re.escape(message)):
            table_to_json(table)
        with pytest.raises(AlgebraError, match=re.escape(message)):
            save_algebra(table, path)
        assert not path.exists()


def test_saving_a_presentation_checks_each_coefficient(tmp_path):
    fits = 10 ** (MAX_SCALAR_CHARS - 1) + 1     # 1000 characters
    path = tmp_path / "fits.json"
    pres = Presentation(("x", "y"), (NcPoly({(0,): 1}),
                                     NcPoly({(0, 1): fits, (1,): -1})))
    save_presentation(pres, path)
    assert load_presentation(path) == pres
    path = tmp_path / "long.json"
    pres = Presentation(("x", "y"), (NcPoly({(0,): 1}),
                                     NcPoly({(0, 1): fits * 10, (1,): -1})))
    message = (f"cannot write the coefficient of xy in relation 1: "
               f"longer than {MAX_SCALAR_CHARS} characters")
    with pytest.raises(AlgebraError, match=re.escape(message)):
        save_presentation(pres, path)
    assert not path.exists()


def test_loading_builds_no_fraction(tmp_path, monkeypatch):
    path = tmp_path / "free14.json"
    save_algebra(catalog.free_single_truncated(14), path)
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    table = load_algebra(path)
    assert table.dim == 14 and built == []
    assert table.weight[0] == 1 and built     # the view builds Fractions


def test_constructor_reads_every_scalar_form():
    forms = [{(0, 0): {0: 1}, (0, 1): {1: F(1, 2)}},
             {(0, 0): {0: "2/2"}, (1, 0): {1: (2, 4)}},
             {(0, 0): {0: (1, 1)}, (0, 1): {1: " 1/2 "}}]
    tables = [AlgebraTable(("e", "u"), p, weight=w)
              for p, w in zip(forms, ([1, 0], ["1", "0/3"], [(3, 3), 0]))]
    assert tables[0] == tables[1] == tables[2]
    for bad in ((1, 0), (1, 2, 3), (1.0, 2), (True, 1), (1, "2"), 0.5, None):
        with pytest.raises(AlgebraError, match="bad scalar"):
            AlgebraTable(("e",), {(0, 0): {0: bad}})
