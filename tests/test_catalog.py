"""Catalog factories: fixed examples, parametric families, and the
constructions that assemble Bernstein tables from other data."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from bernstein.core import AlgebraError, AlgebraTable, HALF
from bernstein.elements import analyze_element
from bernstein.structure import classify, is_bernstein, peirce
from bernstein.train import train_analysis
from bernstein.groebner import (AssociativeTable, NcPoly, Presentation,
                                buchberger_truncated, truncated_algebra_table)
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
    # e + 2u1 + v1 generates the table at every alpha (k = 3 gives 1).
    for alpha in [F(3, 2), *(F(k, 3) for k in range(-10, 11))]:
        table = catalog.three_dim_alpha(alpha)
        gen = table.element_from({"e": 1, "u1": 2, "v1": 1})
        assert analyze_element(gen).degree == table.dim == 3


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
    # e + 2u1 + v1 generates the model, whatever the betas.
    rng = random.Random(33)
    for n in range(4, 26):
        seeded = [F(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(n - 2)]
        for betas in (seeded, None):
            table = catalog.free_single_truncated(n, betas)
            gen = table.element_from({"e": 1, "u1": 2, "v1": 1})
            assert analyze_element(gen).degree == table.dim == n


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


def _reference_adjoin_checks(nil_table, u_indices, v_indices):
    """The error text of the first failed condition, U^2 = 0, then
    U V in U, then V^2 in U, read pair by pair; None when all hold."""
    uset = set(u_indices)
    if any(nil_table.product_vector(i, j)
           for i in u_indices for j in u_indices):
        return "U is not a zero-multiplication subspace"
    if any(set(nil_table.product_vector(i, j)) - uset
           for i in u_indices for j in v_indices):
        return "U V does not lie in U"
    if any(set(nil_table.product_vector(i, j)) - uset
           for i in v_indices for j in v_indices):
        return "V^2 does not lie in U"
    return None


def test_adjoin_idempotent_checks_match_the_pairwise_reference():
    from bernstein.core import AlgebraTable
    rng = random.Random(32)
    seen = set()
    for _ in range(300):
        dim = rng.randint(1, 6)
        u = [i for i in range(dim) if rng.random() < 0.6]
        v = [i for i in range(dim) if i not in u]
        products = {}
        for i in range(dim):
            for j in range(i, dim):
                if rng.random() < (0.1 if i in u and j in u else 0.5):
                    pool = u if u and rng.random() < 0.9 else range(dim)
                    products[(i, j)] = {
                        rng.choice(pool): F(rng.choice((-2, -1, 1, 3)),
                                            rng.choice((1, 2)))}
        labels = [f"n{i}" for i in range(dim)]
        table = AlgebraTable(labels, products)
        want = _reference_adjoin_checks(table, u, v)
        seen.add(want)
        if want is not None:
            with pytest.raises(AlgebraError) as exc:
                catalog.adjoin_idempotent(table, u, v)
            assert str(exc.value) == want
            continue
        expected = catalog._frame(
            labels, [labels[i] for i in u],
            {(labels[i], labels[j]): {labels[k]: c for k, c in vec.items()}
             for (i, j), vec in table.product_items()}, name="adjoin")
        assert catalog.adjoin_idempotent(table, u, v) == expected
    assert len(seen) == 4


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


def _zhevlakov_all_pairs(num_vars, max_len):
    """The regular-word table built by visiting every pair of words a <= b
    in order, the rule stated for each pair on its own."""
    words = [w for n in range(1, max_len + 1)
             for w in combinations(range(1, num_vars + 1), n)]
    labels = ["".join(f"x{i}" for i in w) for w in words]
    products = {}
    for a in range(len(words)):
        for b in range(a, len(words)):
            wa, wb = words[a], words[b]
            if len(wa) > 1 and len(wb) > 1:
                continue
            word, letter = (wa, wb[0]) if len(wb) == 1 else (wb, wa[0])
            if letter in word or (len(word) > 1 and letter <= word[0]):
                continue
            merged = tuple(sorted(word + (letter,)))
            if len(merged) > max_len:
                continue
            sign = (-1) ** sum(1 for g in word if g > letter)
            products[(labels[a], labels[b])] = {
                labels[words.index(merged)]: sign}
    return AlgebraTable.build(labels, products,
                              name=f"regular_words({num_vars},{max_len})")


@pytest.mark.parametrize("num_vars", range(2, 7))
def test_zhevlakov_letter_pairs_match_the_all_pairs_table(num_vars):
    # rows in insertion order, so the products are visited in the same order
    for max_len in range(1, num_vars + 1):
        table, word_idx, letter_idx = catalog.zhevlakov_truncated(
            num_vars, max_len)
        want = _zhevlakov_all_pairs(num_vars, max_len)
        rows, den = table._integer_rows()
        want_rows, want_den = want._integer_rows()
        assert [list(r.items()) for r in rows] == \
            [list(r.items()) for r in want_rows]
        assert (table.labels, den, table.name) == \
            (want.labels, want_den, want.name)
        assert letter_idx == tuple(range(num_vars))
        assert word_idx == tuple(range(num_vars, table.dim))


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


def _reference_generation(assoc, s_indices):
    """The verdict of growing S under right products by S inside a
    Subspace of dense vectors, for every S: None when S generates C,
    else the error text."""
    dim = assoc.dim
    space = linalg.Subspace()
    found = [{i: 1} for i in s_indices]
    for v in found:
        if space.add([v.get(k, 0) for k in range(dim)]) and space.rank < dim:
            found.extend(assoc.multiply(v, {s: 1}) for s in s_indices)
    if space.rank != dim:
        return "S does not generate the associative algebra"
    return None


def _generation_verdict(assoc, s_indices):
    try:
        catalog.from_associative(assoc, s_indices)
    except AlgebraError as exc:
        return str(exc)
    return None


def test_generation_without_the_prefix_premise_matches_the_loop():
    # Tables on which P2 fails, so from_associative must grow S as the
    # reference does; every nonempty S is tried on each.
    x, xx, yy = (0,), (0, 0), (1, 1)
    one = dict(generators=("x",), words=(x, xx), labels=("x", "xx"),
               up_to=2)
    tables = [
        AssociativeTable(products={}, **one),                # x x = 0
        AssociativeTable(products={(0, 0): {1: 2}}, **one),  # x x = 2 xx
        # yy, whose prefix y is not a word, with x x = 0 or x x = yy
        AssociativeTable(generators=("x", "y"), words=(x, yy),
                         labels=("x", "yy"), products={}, up_to=2),
        AssociativeTable(generators=("x", "y"), words=(x, yy),
                         labels=("x", "yy"), products={(0, 0): {1: 1}},
                         up_to=2),
        # x, xx, u = yy, t = xyy, s = xxyy: only x is a letter
        AssociativeTable(
            generators=("x", "y"), words=(x, xx, yy, (0, 1, 1), (0, 0, 1, 1)),
            labels=("x", "xx", "u", "t", "s"),
            products={(0, 0): {1: 1}, (0, 2): {3: 1}, (0, 3): {4: 1},
                      (1, 2): {4: 1}}, up_to=4),
    ]
    verdicts = []
    for assoc in tables:
        for k in range(1, assoc.dim + 1):
            for s_indices in map(list, combinations(range(assoc.dim), k)):
                want = _reference_generation(assoc, s_indices)
                assert _generation_verdict(assoc, s_indices) == want, \
                    (assoc.labels, s_indices)
                verdicts.append(want)
    assert None in verdicts and len(set(verdicts)) == 2


def test_generation_from_letters_matches_the_loop():
    # S without a letter takes the loop, S holding every letter the
    # proof; both must give the reference verdict and text.
    rng = random.Random(30)
    assoc = truncated_algebra_table(
        buchberger_truncated(catalog.kurosh_presentation(), 8), 4)
    letters = [i for i, w in enumerate(assoc.words) if len(w) == 1]
    others = [i for i in range(assoc.dim) if i not in letters]
    cases = [letters, letters[:1], letters + others[:1]]
    for _ in range(12):
        base = letters if rng.random() < 0.5 else \
            rng.sample(letters, len(letters) - 1)
        cases.append(base + rng.sample(others, rng.randint(1, 4)))
    verdicts = []
    for s_indices in cases:
        want = _reference_generation(assoc, s_indices)
        assert _generation_verdict(assoc, s_indices) == want, s_indices
        verdicts.append(want)
    assert None in verdicts and len(set(verdicts)) == 2


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
