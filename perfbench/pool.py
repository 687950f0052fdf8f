"""The native algebras the benchmark draws its jobs from.

Each algebra is named by a key such as ``free_single(n=5,betas=0,0,1)``
that spells the ``bernstein construct`` call building it.  A key with a
suffix ``+a*b=c`` is the same table with the product of the basis
vectors a and b replaced by c; that redirects a U x U product into U and
breaks the Bernstein identity.  Verdicts of every key are frozen in
``expected.json`` (see ``freeze.py``).
"""

from __future__ import annotations

from bernstein import catalog
from bernstein.core import AlgebraTable

FAMILIES = {
    "elementary": catalog.elementary_algebra,
    "three_dim": catalog.three_dim_alpha,
    "not_train": catalog.example_not_train,
    "shift_up": catalog.shift_up_truncated,
    "shift_down": catalog.shift_down_truncated,
    "free_single": catalog.free_single_truncated,
    "zhevlakov": catalog.zhevlakov_bernstein,
}


def parse_key(key):
    """(family, [(name, text)], redirect or None) of an algebra key."""
    base, _, redirect = key.partition("+")
    family, _, rest = base.partition("(")
    params = []
    for part in _split_params(rest.rstrip(")")):
        name, _, text = part.partition("=")
        params.append((name, text))
    if redirect:
        pair, _, target = redirect.partition("=")
        left, _, right = pair.partition("*")
        redirect = (left, right, target)
    return family, params, redirect or None


def _split_params(text):
    """Split "n=5,betas=0,0,1" at the commas that start a new name."""
    parts = []
    for piece in text.split(","):
        if not piece:
            continue
        if "=" in piece or not parts:
            parts.append(piece)
        else:
            parts[-1] += "," + piece
    return parts


def construct_args(key):
    """Arguments of ``bernstein construct`` for a key without redirect."""
    family, params, redirect = parse_key(key)
    if redirect:
        raise ValueError(f"{key} has no construct call")
    args = [family]
    for name, text in params:
        args += ["--param", f"{name}={text}"]
    return args


def build(key):
    """The native table of a key, named by the key."""
    family, params, redirect = parse_key(key)
    kwargs = {}
    for name, text in params:
        kwargs[name] = text.split(",") if "," in text else _scalar(text)
    table = FAMILIES[family](**kwargs)
    products = {pair: dict(vec) for pair, vec in table.product_items()}
    if redirect:
        left, right, target = (table.index(lab) for lab in redirect)
        products[(min(left, right), max(left, right))] = {target: 1}
    return AlgebraTable(table.labels, products, weight=table.weight,
                        name=key)


def _scalar(text):
    try:
        return int(text)
    except ValueError:
        return text


# Native sparse algebras, dims 2-14.  Keys marked in SLOW_ENGEL take over
# a quarter of a second for `engel` and are left out of that command.
SPARSE = [
    "elementary(nil_dim=1)", "elementary(nil_dim=3)", "elementary(nil_dim=6)",
    "three_dim(alpha=2)", "three_dim(alpha=1/2)", "three_dim(alpha=-3)",
    "not_train()",
    "shift_up(n=1)", "shift_up(n=3)", "shift_up(n=5)", "shift_up(n=8)",
    "shift_up(n=12)",
    "shift_down(n=2)", "shift_down(n=4)", "shift_down(n=7)",
    "shift_down(n=12)",
    "free_single(n=4)", "free_single(n=5)", "free_single(n=6)",
    "free_single(n=7)", "free_single(n=9)", "free_single(n=11)",
    "free_single(n=14)",
    "free_single(n=4,betas=1,-1)", "free_single(n=5,betas=0,0,1)",
    "free_single(n=5,betas=1/2,-2,0)", "free_single(n=6,betas=1,0,3,-1)",
    "free_single(n=7,betas=0,1,0,0,2)",
    "zhevlakov(num_vars=2,max_len=2)", "zhevlakov(num_vars=3,max_len=2)",
    "zhevlakov(num_vars=3,max_len=3)", "zhevlakov(num_vars=4,max_len=2)",
]
SLOW_ENGEL = {"shift_up(n=12)", "shift_down(n=12)", "free_single(n=11)",
              "free_single(n=14)"}
GENERIC_DEGREE = {"free_single(n=4)", "free_single(n=5)",
                  "free_single(n=6)", "free_single(n=7)"}

# Dense twins with positive verdicts, dims 3-7.  Every job gets its own
# basis change, so a run averages over many draws.
DENSE_VERIFY = {
    "check": ["elementary(nil_dim=3)", "three_dim(alpha=2)", "shift_up(n=2)",
              "shift_down(n=3)", "free_single(n=4)", "free_single(n=5)",
              "free_single(n=5)", "zhevlakov(num_vars=2,max_len=2)"],
    "train": ["elementary(nil_dim=3)", "elementary(nil_dim=6)",
              "shift_down(n=2)", "shift_up(n=3)", "free_single(n=4)",
              "free_single(n=5)", "zhevlakov(num_vars=2,max_len=2)"],
    "engel": ["elementary(nil_dim=2)", "shift_up(n=2)", "shift_down(n=2)",
              "free_single(n=4)", "zhevlakov(num_vars=2,max_len=2)"],
    "element": ["three_dim(alpha=-3)", "shift_up(n=3)", "shift_down(n=4)",
                "free_single(n=5)", "free_single(n=6)"],
}

# Dense twins with negative verdicts: non-Bernstein redirects for
# `check`, Bernstein but non-train algebras for `train`, and weight
# kernels that satisfy (x^2)^2 = 0 without being nil for `engel`.
DENSE_REFUTE = {
    "check": ["elementary(nil_dim=3)+n1*n1=n2", "three_dim(alpha=2)+u1*u1=u1",
              "free_single(n=4)+u1*u1=u2", "free_single(n=5)+u1*u2=u3",
              "shift_up(n=3)+u1*u1=u2", "shift_down(n=3)+u2*u2=u1",
              "zhevlakov(num_vars=2,max_len=2)+x1x2*x1x2=x1x2"],
    "train": ["not_train()", "three_dim(alpha=1/2)",
              "free_single(n=4,betas=1,-1)", "free_single(n=5,betas=0,0,1)"],
    "engel": ["not_train()", "three_dim(alpha=2)",
              "free_single(n=4,betas=1,-1)"],
}

# Presentations for `groebner` jobs: (generators, nil power, degree bound).
PRESENTATIONS = [(2, 3, 6), (2, 3, 8), (3, 2, 4), (2, 4, 7), (3, 3, 5)]

# Library pipelines for large-sparse: (generators, nil power, degree
# bound, truncation degree).
PIPELINES = [(2, 3, 5, 5), (2, 3, 6, 6), (2, 3, 7, 7), (3, 2, 3, 3),
             (4, 2, 2, 2), (3, 3, 4, 4)]
ENGEL_REPORTS = ["shift_up(n=8)", "shift_up(n=9)", "shift_up(n=10)",
                 "zhevlakov(num_vars=5,max_len=5)"]


def all_keys():
    keys = set(SPARSE) | set(ENGEL_REPORTS)
    for group in (DENSE_VERIFY, DENSE_REFUTE):
        for names in group.values():
            keys.update(names)
    return sorted(keys)
