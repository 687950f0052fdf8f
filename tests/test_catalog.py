"""Catalog factories: fixed examples, parametric families, and the
constructions that assemble Bernstein tables from other data."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from bernstein.core import AlgebraError, HALF
from bernstein.elements import analyze_element
from bernstein.structure import classify, is_bernstein, peirce
from bernstein.train import train_analysis
from bernstein.groebner import (NcPoly, Presentation, buchberger_truncated,
                                truncated_algebra_table)
from bernstein import catalog, linalg

F = Fraction


def test_elementary_and_constant():
    el = catalog.elementary_algebra(3)
    assert el.dim == 4
    n1 = el.element_from({"n1": 1})
    assert el.element_from({"e": 1}) * n1 == n1.scale(HALF)
    assert (n1 * n1).is_zero()
    assert classify(el).type_pair == (4, 0)

    const = catalog.constant_algebra()
    assert const.labels == ("e", "v")
    assert classify(const).type_pair == (1, 1)
    v = const.element_from({"v": 1})
    assert (v * v).is_zero() and (const.element_from({"e": 1}) * v).is_zero()


def test_three_dim_alpha_products():
    table = catalog.three_dim_alpha(F(1))
    u1 = table.element_from({"u1": 1})
    v1 = table.element_from({"v1": 1})
    assert u1 * v1 == u1.scale(F(-1, 2))
    assert (v1 * v1).is_zero()
    table = catalog.three_dim_alpha(F(3, 2))
    v1 = table.element_from({"v1": 1})
    assert (table.element_from({"u1": 1}) * v1).is_zero()
    assert v1 * v1 == table.element_from({"u1": -2})
    gen = table.element_from({"e": 1, "u1": 2, "v1": 1})
    assert analyze_element(gen).degree == 3


def test_shift_tables():
    up = catalog.shift_up_truncated(2)
    assert up.labels == ("e", "u1", "u2", "v")
    v = up.element_from({"v": 1})
    assert up.element_from({"u1": 1}) * v == up.element_from({"u2": 1})
    assert (up.element_from({"u2": 1}) * v).is_zero()
    assert is_bernstein(up)

    down = catalog.shift_down_truncated(3)
    assert down.dim == 5
    v = down.element_from({"v": 1})
    assert (down.element_from({"u1": 1}) * v).is_zero()
    assert down.element_from({"u3": 1}) * v == down.element_from({"u2": 1})
    assert is_bernstein(down)
    for k in range(1, 4):
        x = down.element_from({f"u{k}": 1, "v": 1})
        assert analyze_element(x).degree == k
    with pytest.raises(AlgebraError):
        catalog.shift_up_truncated(0)


def test_free_single_structure():
    betas = (F(1), F(0), F(-2))
    table = catalog.free_single_truncated(5, betas)
    v1 = table.element_from({"v1": 1})
    assert v1 * v1 == table.element_from({"u1": -2, "u2": -4})
    assert table.element_from({"u3": 1}) * v1 == \
        table.element_from({"u1": 1, "u3": -2})
    assert peirce(table).type_pair == (4, 1)
    with pytest.raises(AlgebraError):
        catalog.free_single_truncated(3)
    with pytest.raises(AlgebraError):
        catalog.free_single_truncated(5, (F(1),))


def test_adjoin_idempotent_zero_mult():
    from bernstein.core import AlgebraTable
    nil = AlgebraTable.build(("v",), {}, weight=None)
    out = catalog.adjoin_idempotent(nil, [], [0])
    assert out == catalog.constant_algebra()

    bad = AlgebraTable.build(("u",), {("u", "u"): {"u": 1}}, weight=None)
    with pytest.raises(AlgebraError, match="zero-multiplication"):
        catalog.adjoin_idempotent(bad, [0], [])
    with pytest.raises(AlgebraError, match="partition"):
        catalog.adjoin_idempotent(nil, [0], [0])
    with pytest.raises(AlgebraError, match="weightless"):
        catalog.adjoin_idempotent(catalog.constant_algebra(), [], [0, 1])
    taken = AlgebraTable.build(("e",), {}, weight=None)
    with pytest.raises(AlgebraError, match="taken"):
        catalog.adjoin_idempotent(taken, [], [0])


def test_zhevlakov_word_products():
    table = catalog.zhevlakov_bernstein(3, 3)
    assert table.dim == 8
    assert peirce(table).type_pair == (5, 3)

    def el(label):
        return table.element_from({label: 1})

    assert el("x1") * el("x2") == el("x1x2")
    assert el("x1x2") * el("x3") == el("x1x2x3")
    assert el("x1x3") * el("x2") == el("x1x2x3").scale(-1)
    assert (el("x2x3") * el("x1")).is_zero()
    assert (el("x1") * el("x1")).is_zero()
    assert (el("x1x2") * el("x1")).is_zero()
    assert (el("x1x2") * el("x1x3")).is_zero()

    with pytest.raises(AlgebraError):
        catalog.zhevlakov_truncated(1, 1)
    with pytest.raises(AlgebraError):
        catalog.zhevlakov_truncated(3, 4)
    with pytest.raises(AlgebraError):
        catalog.zhevlakov_truncated(3, 0)


def test_zhevlakov_signs_match_permutation_parity():
    rng = random.Random(61)
    table, _, _ = catalog.zhevlakov_truncated(5, 5)

    def letter(i):
        return table.element_from({f"x{i}": 1})

    for _ in range(40):
        k = rng.randint(2, 5)
        chosen = sorted(rng.sample(range(1, 6), k))
        while True:
            seq = list(chosen)
            rng.shuffle(seq)
            if min(seq) in seq[:2]:
                break
        value = letter(seq[0])
        for a in seq[1:]:
            value = value * letter(a)
        inv = sum(1 for m in range(k) for mm in range(m + 1, k)
                  if seq[m] > seq[mm])
        if seq[0] > seq[1]:
            inv -= 1
        target = table.element_from({"".join(f"x{i}" for i in chosen): 1})
        assert value == target.scale(F((-1) ** inv))


def test_from_associative_truncated_power_algebras():
    pres = catalog.nil_power_presentation(1, 3)
    state = buchberger_truncated(pres, 8)
    cubic = truncated_algebra_table(state, 2)
    assert cubic.dim == 2
    small = catalog.from_associative(cubic, [0])
    assert small.dim == 4
    rep = classify(small)
    assert rep.is_exceptional and rep.is_jordan
    assert train_analysis(small).rank == 3

    pres4 = catalog.nil_power_presentation(1, 4)
    state4 = buchberger_truncated(pres4, 8)
    quartic = truncated_algebra_table(state4, 3)
    assert quartic.dim == 3
    big = catalog.from_associative(quartic, [0])
    assert big.dim == 5
    assert big.labels == ("e", "c_x", "c_xx", "c_xxx", "s_x")
    cx = big.element_from({"c_x": 1})
    s = big.element_from({"s_x": 1})
    assert cx * s == big.element_from({"c_xx": 1})
    assert (big.element_from({"c_xxx": 1}) * s).is_zero()
    rep = classify(big)
    assert rep.is_exceptional and not rep.is_jordan
    train = train_analysis(big)
    assert (train.rank, train.train_coeffs) == \
        (4, (1, F(-3, 2), F(1, 2), 0))
    # U^2 = 0 makes e + u idempotent for every u in U
    f = big.element_from({"e": 1, "c_xx": 1})
    assert f * f == f

    with pytest.raises(AlgebraError, match="generate"):
        catalog.from_associative(quartic, [1])


def _generates(assoc, s_indices):
    """S generates C: the span of S closed under all products in C."""
    def products(u, v):
        x = {i: c for i, c in enumerate(u) if c}
        y = {i: c for i, c in enumerate(v) if c}
        return [[p.get(k, 0) for k in range(assoc.dim)]
                for p in (assoc.multiply(x, y), assoc.multiply(y, x))]
    units = linalg.identity_matrix(assoc.dim)
    return linalg.closure([units[i] for i in s_indices],
                          products).rank == assoc.dim


def test_from_associative_accepts_exactly_generating_sets():
    # homogeneous relations, so the truncated tables are associative
    mixed = Presentation(("x", "y"), (NcPoly({(0, 0): 1, (1, 1): -1}),
                                      NcPoly({(0, 1, 0): 1, (1, 1, 1): HALF})))
    for pres, max_deg in ((catalog.kurosh_presentation(), 8), (mixed, 6)):
        assoc = truncated_algebra_table(buchberger_truncated(pres, max_deg), 4)
        units = [{i: 1} for i in range(assoc.dim)]
        assert all(assoc.multiply(assoc.multiply(a, b), c)
                   == assoc.multiply(a, assoc.multiply(b, c))
                   for a in units for b in units for c in units)
        verdicts = set()
        for s_indices in (list(c) for k in (1, 2)
                          for c in combinations(range(assoc.dim), k)):
            want = _generates(assoc, s_indices)
            verdicts.add(want)
            try:
                catalog.from_associative(assoc, s_indices)
            except AlgebraError as exc:
                assert not want and "generate" in str(exc), s_indices
            else:
                assert want, s_indices
        assert verdicts == {True, False}


def test_kurosh_pipeline():
    state = buchberger_truncated(catalog.kurosh_presentation(), 12)
    ctable = truncated_algebra_table(state, 6)
    s_indices = [i for i, w in enumerate(ctable.words) if len(w) == 1]
    algebra = catalog.from_associative(ctable, s_indices)
    assert state.complete_below == 13
    assert ctable.dim == 24
    assert algebra.dim == 27
    rep = classify(algebra)
    assert rep.is_bernstein and rep.is_exceptional
    assert rep.type_pair == (25, 2)
    assert algebra.notes and "truncated to zero" in algebra.notes[0]
    # the C x S products agree with the associative table
    sx = algebra.element_from({"s_x": 1})
    cy = algebra.element_from({"c_y": 1})
    assert cy * sx == algebra.element_from({"c_yx": 1})


def test_quotient_of_free_single():
    table = catalog.free_single_truncated(7)
    ideal = [table.element_from({"u4": 1}), table.element_from({"u5": 1})]
    quo = catalog.quotient(table, ideal)
    assert quo == catalog.free_single_truncated(5)

    not_train = catalog.example_not_train()
    with pytest.raises(AlgebraError, match="ideal"):
        catalog.quotient(not_train, [not_train.element_from({"v": 1})])
    const = catalog.constant_algebra()
    with pytest.raises(AlgebraError, match="weight kernel"):
        catalog.quotient(const, const.basis())


def test_subalgebra():
    table = catalog.free_single_truncated(6)
    a = table.element_from({"e": 1, "u1": 2, "v1": 1})
    sub, emb = catalog.subalgebra(table, [a])
    assert sub.dim == 6 and sub.has_weight
    for i in range(sub.dim):
        for j in range(i, sub.dim):
            image = table.zero()
            for k, c in sub.product_vector(i, j).items():
                image = image + emb[k].scale(c)
            assert emb[i] * emb[j] == image

    nt = catalog.example_not_train()
    sub, emb = catalog.subalgebra(nt, [nt.element_from({"u": 1})])
    assert sub.dim == 1 and not sub.has_weight
    assert sub.product_vector(0, 0) == {}
