"""Noncommutative rewriting: deglex order, normal forms, completion,
normal words, and truncated associative tables."""

import dataclasses
import random
from fractions import Fraction
from functools import partial
from itertools import product as iter_product

import pytest

from bernstein.core import AlgebraError
from bernstein.groebner import (AssociativeTable, GroebnerState, NcPoly,
                                Presentation, _first_occurrence,
                                buchberger_truncated, hilbert_counts,
                                is_normal_word, nil_span_check, normal_words,
                                reduce, truncated_algebra_table, word_key)
from bernstein import catalog, groebner

X, Y = (0,), (1,)

# Generators x, y with relations xx - yy and xyx + 1/2*y: the completion
# below degree 7 adds four elements.
MIXED = Presentation(("x", "y"), (NcPoly({(0, 0): 1, (1, 1): -1}),
                                  NcPoly({(0, 1, 0): 1, (1,): "1/2"})))


def kurosh_state(bound=12):
    return buchberger_truncated(catalog.kurosh_presentation(), bound)


def test_word_key_order():
    words = [(0, 0), (1, 1), (0,), (1, 0), (0, 1), (1,)]
    assert sorted(words, key=word_key) == \
        [(1,), (0,), (1, 1), (1, 0), (0, 1), (0, 0)]


def test_ncpoly_arithmetic_and_render():
    x, y = NcPoly.word(X), NcPoly.word(Y)
    assert x * y == NcPoly.word((0, 1))
    p = x * y + y * x
    assert p - p == 0 and not (p - p)
    assert (2 * p).scale("1/2") == p
    assert p.leading_word() == (0, 1) and p.degree() == 2
    assert (3 * p).monic() == p
    assert p.render(("x", "y")) == "xy + yx"
    q = NcPoly({(0,): "1/2", (1,): -1})
    assert q.render(("x", "y")) == "1/2*x - y"
    assert NcPoly.zero().render(("x", "y")) == "0"
    assert NcPoly.zero().degree() == -1
    with pytest.raises(AlgebraError):
        NcPoly({(): 1})
    with pytest.raises(AlgebraError):
        NcPoly({(-1,): 1})


def test_kurosh_presentation_and_completion():
    pres = catalog.kurosh_presentation()
    assert len(pres.relations) == 4
    rendered = {rel.render(pres.generators) for rel in pres.relations}
    assert rendered == {"xxx", "xxy + xyx + yxx", "xyy + yxy + yyx", "yyy"}

    state = kurosh_state()
    assert state.new_elements == 0 and state.is_groebner_as_given
    assert state.complete_below == 13
    assert state.render() == \
        ["yyy", "xyy + yxy + yyx", "xxy + xyx + yxx", "xxx"]
    assert hilbert_counts(state, 12) == [2, 4, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5]


def test_reduce_normal_forms():
    state = kurosh_state()
    assert not reduce(NcPoly.word((0, 0, 0)), state)
    w = NcPoly.word((0, 1, 0, 1))
    assert reduce(w, state) == w  # xyxy avoids every leading word
    assert reduce(NcPoly.word((0, 0, 1)), state) == \
        NcPoly({(0, 1, 0): -1, (1, 0, 0): -1})

    rng = random.Random(71)
    for _ in range(30):
        terms = {tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 6))):
                 rng.randint(-3, 3) for _ in range(4)}
        p = NcPoly(terms)
        q = NcPoly({tuple(rng.randint(0, 1) for _ in range(3)): 1})
        normal = reduce(p, state)
        assert reduce(normal, state) == normal
        assert reduce(p + q, state) == normal + reduce(q, state)
        shuffled = list(state.basis)
        rng.shuffle(shuffled)
        assert reduce(p, shuffled) == normal


def test_normal_words_and_avoidance_oracle():
    state = kurosh_state()
    assert normal_words(state, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert normal_words(state, 3) == \
        [(0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0)]
    leads = {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)}
    for d in range(1, 9):
        expected = []
        for n in range(2 ** d):
            w = tuple((n >> (d - 1 - k)) & 1 for k in range(d))
            if not any(w[i:i + 3] in leads for i in range(d - 2)):
                expected.append(w)
        assert sorted(normal_words(state, d)) == sorted(expected)
    assert is_normal_word(state, (0, 1, 0, 1))
    assert not is_normal_word(state, (1, 0, 0, 0))
    with pytest.raises(AlgebraError, match="completeness"):
        normal_words(state, 13)
    with pytest.raises(AlgebraError, match="completeness"):
        is_normal_word(state, (0,) * 13)
    for pres, bound in ((catalog.nil_power_presentation(3, 2), 6),
                        (catalog.nil_power_presentation(2, 4), 8),
                        (MIXED, 6)):
        state = buchberger_truncated(pres, bound)
        leads = [g.leading_word() for g in state.basis]
        counts = []
        for d in range(1, bound + 1):
            expected = [w for w in iter_product(range(len(pres.generators)),
                                                repeat=d)
                        if not any(w[i:i + len(lead)] == lead for lead in leads
                                   for i in range(d - len(lead) + 1))]
            assert normal_words(state, d) == expected
            counts.append(len(expected))
        assert hilbert_counts(state, bound) == counts


def test_commutator_presentation():
    pres = Presentation(("x", "y"), (NcPoly({(0, 1): 1, (1, 0): -1}),))
    state = buchberger_truncated(pres, 6)
    assert state.is_groebner_as_given
    assert hilbert_counts(state, 5) == [2, 3, 4, 5, 6]
    assert normal_words(state, 2) == [(0, 0), (1, 0), (1, 1)]


def test_single_generator_powers():
    pres = catalog.nil_power_presentation(1, 2)
    assert [rel.render(pres.generators) for rel in pres.relations] == ["xx"]
    state = buchberger_truncated(pres, 6)
    assert hilbert_counts(state, 4) == [1, 0, 0, 0]
    table = truncated_algebra_table(state, 1)
    assert table.dim == 1 and table.labels == ("x",)

    with pytest.raises(AlgebraError):
        buchberger_truncated(pres, 1)  # bound below the relation degree


def test_two_generator_square_zero():
    state = buchberger_truncated(catalog.nil_power_presentation(2, 2), 6)
    assert hilbert_counts(state, 4) == [2, 1, 0, 0]
    assert normal_words(state, 2) == [(1, 0)]


def test_nil_span_check():
    state = kurosh_state()
    x, y = NcPoly.word(X), NcPoly.word(Y)
    assert nil_span_check(state, [x, y], 3)
    assert not nil_span_check(state, [x, y], 2)
    assert nil_span_check(state, [x + 2 * y, y], 3)
    shallow = kurosh_state(3)
    with pytest.raises(AlgebraError, match="completeness"):
        nil_span_check(shallow, [x, y], 4)
    with pytest.raises(AlgebraError):
        nil_span_check(state, [x, NcPoly.zero()], 3)
    with pytest.raises(AlgebraError):
        nil_span_check(state, [x], 0)


def test_truncated_table_kurosh():
    state = kurosh_state()
    table = truncated_algebra_table(state, 4)
    assert table.dim == 15
    table.verify()
    assert table.product(0, 1) == {table.words.index((0, 1)): 1}
    assert table.product(0, 0) == {table.words.index((0, 0)): 1}
    deep = [(i, j) for i in range(table.dim) for j in range(table.dim)
            if table.degree(i) + table.degree(j) > 4]
    assert table.overflow_pairs == frozenset(deep)
    assert table.product(2, 2) == {}  # xx * xx reduces to zero at degree 4

    with pytest.raises(AlgebraError, match="completeness"):
        truncated_algebra_table(state, 13)
    with pytest.raises(AlgebraError):
        truncated_algebra_table(state, 0)


def test_associative_table_verify_rejects_bad_entries():
    state = kurosh_state()
    table = truncated_algebra_table(state, 3)
    with pytest.raises(AlgebraError):
        AssociativeTable(
            generators=table.generators, words=table.words,
            labels=table.labels, products={(0, 99): {0: 1}},
            up_to=table.up_to, overflow_pairs=table.overflow_pairs)


def _mult(products, x, y):
    """Brute force: the product of sparse vectors {index: coeff} under
    the table ``products``."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for k, c in products.get((a, b), {}).items():
                out[k] = out.get(k, 0) + ca * cb * c
    return {k: c for k, c in out.items() if c}


def _first_nonassociative_triple(table, products):
    """Brute force: the first triple (i, j, k) in lexicographic order,
    of total degree at most up_to, with (ij)k != i(jk) when the words
    of ``table`` multiply by ``products``."""
    mult = partial(_mult, products)
    n = table.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table.degree(i) + table.degree(j) + table.degree(k) \
                        > table.up_to:
                    continue
                a, b, c = {i: 1}, {j: 1}, {k: 1}
                if mult(mult(a, b), c) != mult(a, mult(b, c)):
                    return (i, j, k)
    return None


def test_associative_table_verify_names_first_failing_triple():
    table = truncated_algebra_table(kurosh_state(), 4)
    rng = random.Random(5)
    pairs = [(i, j) for i in range(table.dim) for j in range(table.dim)
             if table.degree(i) + table.degree(j) < table.up_to]
    checked = 0
    for _ in range(12):
        i, j = rng.choice(pairs)
        targets = [m for m in range(table.dim)
                   if table.degree(m) == table.degree(i) + table.degree(j)]
        products = dict(table.products)
        products[(i, j)] = {rng.choice(targets): rng.choice((2, -1, 3))}
        triple = _first_nonassociative_triple(table, products)
        if triple is None:
            dataclasses.replace(table, products=products)
            continue
        checked += 1
        with pytest.raises(AlgebraError) as info:
            dataclasses.replace(table, products=products)
        assert str(info.value) == \
            "associativity fails on triple ({}, {}, {})".format(*triple)
    assert checked >= 8


def test_normal_words_leave_no_reference_cycle():
    # A cycle would keep the word lists alive until the cyclic garbage
    # collector runs, which raises the peak memory of a long process.
    import gc
    state = kurosh_state()
    gc.collect()
    gc.disable()
    try:
        words = normal_words(state, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(words) == hilbert_counts(state, 8)[-1]


def test_associative_table_multiply_matches_brute_force():
    table = truncated_algebra_table(kurosh_state(), 4)
    rng = random.Random(17)
    coeffs = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))
    nonzero = 0
    for _ in range(60):
        x, y = ({rng.randrange(table.dim): rng.choice(coeffs)
                 for _ in range(rng.randint(1, 4))} for _ in range(2))
        got = table.multiply(x, y)
        assert got == _mult(table.products, x, y)
        nonzero += bool(got)
    assert nonzero > 20
    assert table.multiply({}, {0: 1}) == {}


def test_ncpoly_repr_renders_and_zero_hashes_like_zero():
    p = NcPoly({(0, 1): 1, (2,): "-1/2", (1, 1): -3})
    assert repr(p) == "NcPoly(g0g1 - 3*g1g1 - 1/2*g2)"
    assert repr(NcPoly.zero()) == "NcPoly(0)"
    # A zero polynomial compares equal to 0, so it must hash like 0 to
    # be found under the key 0.
    x = NcPoly.word(X)
    for zero in (NcPoly.zero(), x - x, reduce(x * x * x, kurosh_state())):
        assert zero == 0 and hash(zero) == hash(0)
        assert {0: "v"}.get(zero) == "v"
    assert {p: "v"}.get(NcPoly(dict(reversed(p.terms.items())))) == "v"


def _rescan_reduce(poly, basis):
    """The normal form by rescanning: after each rewrite, sort the
    remaining words and rewrite the deglex-largest reducible one.  This
    is what ``reduce`` ran before its single heap pass; the same rewrite
    sequence, kept as the reference."""
    if isinstance(basis, GroebnerState):
        basis = basis.basis
    leads = [g.leading_word() for g in basis]
    terms = dict(poly.terms)
    while True:
        target = None
        for word in sorted(terms, key=word_key, reverse=True):
            hit = _first_occurrence(word, leads)
            if hit is not None:
                target = (word, hit)
                break
        if target is None:
            break
        word, (pos, li) = target
        coeff = terms.pop(word)
        g = basis[li]
        lead = leads[li]
        for tail_word, tail_coeff in g.terms.items():
            if tail_word == lead:
                continue
            new_word = word[:pos] + tail_word + word[pos + len(lead):]
            acc = terms.get(new_word, 0) - coeff * tail_coeff
            if acc:
                terms[new_word] = acc
            else:
                terms.pop(new_word, None)
    out = NcPoly.__new__(NcPoly)
    out.terms = terms
    return out


# Seeds of _random_presentation whose completion and truncation finish
# in a few hundredths of a second; other seeds can run for minutes on
# coefficient growth.  The completion adds elements for 23 of them.
DIFFERENTIAL_SEEDS = (1, 2, 3, 4, 7, 8, 13, 14, 15, 19, 20, 21, 26, 28, 31,
                      33, 34, 37, 45, 49, 57, 60, 74, 82, 83, 87, 91, 97, 99,
                      102, 108, 110, 111, 114)


def _random_presentation(seed):
    """2-3 generators, 1-3 relations of degree at most 4 with words of
    mixed lengths, coefficients from {±1, ±2, 1/2, -3/2}; and a degree
    bound 0-3 above the relation degree."""
    rng = random.Random(seed)
    ngens = rng.randint(2, 3)
    coeffs = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))
    relations = tuple(
        NcPoly({tuple(rng.randrange(ngens)
                      for _ in range(rng.randint(1, 4))): rng.choice(coeffs)
                for _ in range(rng.randint(1, 4))})
        for _ in range(rng.randint(1, 3)))
    bound = max(rel.degree() for rel in relations) + rng.randint(0, 3)
    return Presentation(("x", "y", "z")[:ngens], relations), bound, rng


def _completion(pres, bound):
    """The state, and what the completion, the normal words and the
    truncated table give on it."""
    state = buchberger_truncated(pres, bound)
    return state, (state.render(), state.new_elements,
                   hilbert_counts(state, bound),
                   truncated_algebra_table(state, bound).products)


def test_heap_reduce_matches_rescan_reference(monkeypatch):
    added = 0
    for seed in DIFFERENTIAL_SEEDS:
        pres, bound, rng = _random_presentation(seed)
        state, results = _completion(pres, bound)
        added += state.new_elements > 0
        ngens = len(pres.generators)
        polys = list(pres.relations) + [
            NcPoly({tuple(rng.randrange(ngens)
                          for _ in range(rng.randint(1, bound))):
                    rng.randint(-3, 3) for _ in range(5)})
            for _ in range(4)]
        # The monic relations as given need not be interreduced: one
        # leading word may be a factor of another.
        monic = [rel.monic() for rel in pres.relations]
        for p in polys:
            for basis in (state, state.basis[::-1], monic, monic[::-1]):
                assert reduce(p, basis) == _rescan_reduce(p, basis)
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "reduce", _rescan_reduce)
            assert _completion(pres, bound)[1] == results, seed
    assert added >= 20
