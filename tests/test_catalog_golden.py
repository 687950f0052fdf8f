"""Every catalog table, whole: labels, weight, products, name and notes.

``tests/data/catalog_golden.json`` holds ``table_to_json`` of each
``construct`` family on a small parameter grid, of ``zhevlakov_bernstein``
(through ``adjoin_idempotent``) and of ``from_associative`` on the
degree <= 5 truncation of the Kurosh presentation.  The tables are
built by hand, so this file changes only when a table is meant to
change.  Regenerate it with

    PYTHONPATH=src:tests python tests/test_catalog_golden.py
"""

import contextlib
import io
import json
import os

from bernstein import catalog, cli
from bernstein.fileformat import table_to_json
from bernstein.groebner import buchberger_truncated, truncated_algebra_table

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "catalog_golden.json")

# (construct family, keyword parameters); scalars are "p/q" strings
GRID = [
    ("elementary", {"nil_dim": 0}),
    ("elementary", {"nil_dim": 1}),
    ("elementary", {"nil_dim": 3}),
    ("constant", {}),
    ("three_dim", {"alpha": 0}),
    ("three_dim", {"alpha": 1}),
    ("three_dim", {"alpha": "1/2"}),
    ("three_dim", {"alpha": "3/2"}),
    ("three_dim", {"alpha": "-5/7"}),
    ("not_train", {}),
    ("shift_up", {"n": 1}),
    ("shift_up", {"n": 2}),
    ("shift_up", {"n": 5}),
    ("shift_down", {"n": 1}),
    ("shift_down", {"n": 2}),
    ("shift_down", {"n": 5}),
    ("free_single", {"n": 4}),
    ("free_single", {"n": 5}),
    ("free_single", {"n": 7}),
    ("free_single", {"n": 5, "betas": ["1", "0", "-1/2"]}),
    ("free_single", {"n": 6, "betas": ["0", "2/3", "0", "-1"]}),
    ("zhevlakov", {"num_vars": 2, "max_len": 1}),
    ("zhevlakov", {"num_vars": 2, "max_len": 2}),
    ("zhevlakov", {"num_vars": 3, "max_len": 2}),
    ("zhevlakov", {"num_vars": 3, "max_len": 3}),
    ("zhevlakov", {"num_vars": 4, "max_len": 2}),
]


def _key(family, params):
    return " ".join([family] + [
        f"{k}={','.join(v) if isinstance(v, list) else v}"
        for k, v in params.items()])


def golden_tables():
    """{key: table_to_json} of every table of the grid, then
    ``from_associative`` on the Kurosh table with S the letters and
    with S the letters and the word xy."""
    out = {_key(family, params):
           table_to_json(cli._CONSTRUCTORS[family](**params))
           for family, params in GRID}
    state = buchberger_truncated(catalog.kurosh_presentation(), 8)
    assoc = truncated_algebra_table(state, 5)
    letters = [i for i, w in enumerate(assoc.words) if len(w) == 1]
    for s_indices in (letters, letters + [assoc.words.index((0, 1))]):
        key = "from_associative kurosh(5) s=" + ",".join(
            assoc.labels[i] for i in s_indices)
        out[key] = table_to_json(catalog.from_associative(assoc, s_indices))
    return out


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_catalog_tables_match_golden():
    golden = _load()
    fresh = golden_tables()
    assert list(fresh) == list(golden)
    for key, table in fresh.items():
        assert table == golden[key], key


def test_construct_with_a_list_parameter_matches_golden():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["construct", "free_single", "--param", "n=5",
                         "--param", "betas=1,0,-1/2", "--json"])
    assert (code, err.getvalue()) == (0, "")
    # the text lines come first; the JSON payload is the last line
    table = json.loads(out.getvalue().splitlines()[-1])["table"]
    assert table == _load()["free_single n=5 betas=1,0,-1/2"]


def generate():
    tables = golden_tables()
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(tables, fh, indent=1)
        fh.write("\n")
    return len(tables)


if __name__ == "__main__":
    print(f"{generate()} tables written to {GOLDEN}")
