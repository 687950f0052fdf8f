"""Noncommutative rewriting: deglex order, normal forms, completion,
normal words, and truncated associative tables."""

import dataclasses
import random

import pytest

from bernstein.core import AlgebraError
from bernstein.groebner import (AssociativeTable, NcPoly, Presentation,
                                buchberger_truncated, hilbert_counts,
                                is_normal_word, nil_span_check, normal_words,
                                reduce, truncated_algebra_table, word_key)
from bernstein import catalog

X, Y = (0,), (1,)


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


def _first_nonassociative_triple(table, products):
    """Brute force: the first triple (i, j, k) in lexicographic order,
    of total degree at most up_to, with (ij)k != i(jk) when the words
    of ``table`` multiply by ``products``."""
    def mult(x, y):
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for k, c in products.get((a, b), {}).items():
                    out[k] = out.get(k, 0) + ca * cb * c
        return {k: c for k, c in out.items() if c}

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
