"""Noncommutative rewriting: deglex order, normal forms, completion,
normal words, and truncated associative tables."""

import dataclasses
import random
from fractions import Fraction
from functools import partial
from itertools import product as iter_product
from math import lcm

import pytest

from bernstein.core import AlgebraError
from bernstein.groebner import (AssociativeTable, GroebnerState, NcPoly,
                                Presentation, _first_occurrence, _insert,
                                _lead_index, buchberger_truncated,
                                hilbert_counts, is_normal_word,
                                nil_span_check, normal_words, reduce,
                                truncated_algebra_table, word_key)
from bernstein import catalog, groebner, linalg

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


def test_insert_evicts_and_rereduces():
    # xx - 2y divides the leading word of xxy - y, which leaves the
    # basis and comes back reduced and monic: 2yy - y, as yy - 1/2*y.
    basis = [NcPoly({(0, 0, 1): 1, (1,): -1})]
    _insert(basis, NcPoly({(0, 0): 1, (1,): -2}))
    assert basis == [NcPoly({(0, 0): 1, (1,): -2}),
                     NcPoly({(1, 1): 1, (1,): "-1/2"})]
    # By hand: x(xx) = (xx)x gives xy = yx, and xxy = 2yy = y; so the
    # normal words are x, y and yx.
    pres = Presentation(("x", "y"), tuple(basis[::-1]))
    state = buchberger_truncated(pres, 5)
    assert state.render() == ["yy - 1/2*y", "xy - yx", "xx - 2*y"]
    assert hilbert_counts(state, 5) == [2, 1, 0, 0, 0]


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
    # A zero entry or a target out of range, on a valid degree-5 table.
    table = truncated_algebra_table(state, 5)
    for bad in ({0: Fraction(0)}, {0: 0}, {table.dim: Fraction(1)}):
        with pytest.raises(AlgebraError, match="bad product entry"):
            dataclasses.replace(table, products={**table.products, (0, 0): bad})
    with pytest.raises(AlgebraError, match="product index out of range"):
        dataclasses.replace(table, products={**table.products,
                                             (table.dim, 0): {0: 1}})


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


def test_first_occurrence_matches_the_scan_of_every_lead():
    # The leftmost position first, then the earliest basis position over
    # all lengths; a repeated leading word keeps its first position.
    rng = random.Random(3403)

    def scan(word, leads):
        for pos in range(len(word)):
            for li, lead in enumerate(leads):
                if word[pos:pos + len(lead)] == lead:
                    return pos, li, lead
        return None

    def rand_word(lo, hi):
        return tuple(rng.randrange(2) for _ in range(rng.randint(lo, hi)))

    hits = 0
    for _ in range(300):
        leads = [rand_word(1, 4) for _ in range(rng.randint(1, 6))]
        index = _lead_index([NcPoly.word(w) for w in leads])
        for _ in range(5):
            word = rand_word(0, 8)
            assert _first_occurrence(word, index) == scan(word, leads)
            hits += scan(word, leads) is not None
    assert hits > 500
    index = _lead_index([NcPoly.word(w) for w in ((1, 1), (0, 1, 1),
                                                  (0, 1, 1))])
    assert _first_occurrence((0, 1, 1), index) == (0, 1, (0, 1, 1))


def _rescan_reduce(poly, basis):
    """The normal form by rescanning: after each rewrite, sort the
    remaining words and rewrite the deglex-largest reducible one.  This
    is what ``reduce`` ran before its single heap pass; the same rewrite
    sequence, kept as the reference."""
    if isinstance(basis, GroebnerState):
        basis = basis.basis
    index = _lead_index(basis)
    terms = dict(poly.terms)
    while True:
        target = None
        for word in sorted(terms, key=word_key, reverse=True):
            hit = _first_occurrence(word, index)
            if hit is not None:
                target = (word, hit)
                break
        if target is None:
            break
        word, (pos, li, lead) = target
        coeff = terms.pop(word)
        g = basis[li]
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


def _pair_reduce_table(state, up_to):
    """(words, labels, products, overflow_pairs) with every product
    reduced on its own: NF(wi·wj) by ``reduce`` for each pair within
    the bound.  This is how ``truncated_algebra_table`` built its
    products before generator actions; kept as the reference."""
    words = [w for d in range(1, up_to + 1) for w in normal_words(state, d)]
    index = {w: i for i, w in enumerate(words)}
    gens = state.presentation.generators
    joiner = "" if all(len(g) == 1 for g in gens) else "_"
    labels = tuple(joiner.join(gens[g] for g in w) for w in words)
    products, overflow = {}, set()
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            if len(wi) + len(wj) > up_to:
                overflow.add((i, j))
                continue
            normal = reduce(NcPoly.word(wi + wj), state)
            vec = {index[word]: c for word, c in normal.terms.items()}
            if vec:
                products[(i, j)] = vec
    return tuple(words), labels, products, frozenset(overflow)


# The library pipelines of the benchmark: (generators, nil power,
# completion degree, truncation degree).
PIPELINES = [(2, 3, 5, 5), (2, 3, 6, 6), (2, 3, 7, 7), (3, 2, 3, 3),
             (4, 2, 2, 2), (3, 3, 4, 4)]


def _reshaped(pres, rng):
    """The same relations, each scaled by a nonzero rational and listed
    in a shuffled order: the same ideal."""
    rels = [rel.scale(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                               rng.choice((1, 2, 5))))
            for rel in pres.relations]
    rng.shuffle(rels)
    return Presentation(pres.generators, tuple(rels))


def test_generator_action_table_matches_pair_reduction():
    cases = [(kurosh_state(), 9)]
    for spec in PIPELINES:
        for seed in (1, 2):
            pres = _reshaped(catalog.nil_power_presentation(*spec[:2]),
                             random.Random(f"{seed}:{spec}"))
            cases.append((buchberger_truncated(pres, spec[2]), spec[3]))
    inhomogeneous = 0
    for seed in DIFFERENTIAL_SEEDS[:20]:
        pres, bound, _ = _random_presentation(seed)
        inhomogeneous += any(len({len(w) for w in rel.terms}) > 1
                             for rel in pres.relations)
        cases.append((buchberger_truncated(pres, bound), bound))
    assert inhomogeneous >= 10
    for state, up_to in cases:
        table = truncated_algebra_table(state, up_to)
        words, labels, products, overflow = _pair_reduce_table(state, up_to)
        assert (table.words, table.labels, table.overflow_pairs) == \
            (words, labels, overflow)
        assert table.products == products
        assert all(type(c) is Fraction
                   for vec in table.products.values() for c in vec.values())


def _rescaled(table, scales):
    """The same algebra on the basis scales[i]·e_i: entry k of e_i·e_j
    becomes c·scales[i]·scales[j]/scales[k]."""
    products = {(i, j): {k: c * scales[i] * scales[j] / scales[k]
                         for k, c in vec.items()}
                for (i, j), vec in table.products.items()}
    return dataclasses.replace(table, products=products)


def test_verify_on_integers_names_the_reference_failure():
    base = truncated_algebra_table(kurosh_state(), 5)
    rng = random.Random(23)
    scaled = _rescaled(base, [Fraction(rng.choice((1, 2, 3, -5)),
                                       rng.choice((1, 2, 7)))
                              for _ in range(base.dim)])
    checked = {"off": 0, "dropped": 0, "moved": 0}
    for table in (base, scaled):
        den = lcm(*{c.denominator for vec in table.products.values()
                    for c in vec.values()})
        assert (den > 1) == (table is scaled)
        pairs = sorted(table.products)
        for kind in checked:
            for _ in range(4):
                i, j = rng.choice(pairs)
                vec = dict(table.products[(i, j)])
                k = rng.choice(sorted(vec))
                if kind == "off":
                    step = Fraction(1, den)
                    vec[k] += step if vec[k] + step else -step
                elif kind == "dropped":
                    del vec[k]
                else:
                    others = [m for m in range(table.dim) if m not in vec
                              and table.degree(m) == table.degree(k)]
                    vec[rng.choice(others or [m for m in range(table.dim)
                                              if m not in vec])] = vec.pop(k)
                products = dict(table.products)
                products[(i, j)] = vec
                triple = _first_nonassociative_triple(table, products)
                if triple is None:
                    dataclasses.replace(table, products=products)
                    continue
                checked[kind] += 1
                with pytest.raises(AlgebraError) as info:
                    dataclasses.replace(table, products=products)
                assert str(info.value) == \
                    "associativity fails on triple ({}, {}, {})".format(*triple)
    assert min(checked.values()) >= 5, checked


def _hilbert_oracle(pres, up_to):
    """h_d for d = 1..up_to by linear algebra alone, for homogeneous
    relations: the number of words of length d minus the rank of the
    span of u·r·v over the relations r and the words u, v with
    |u| + deg r + |v| = d."""
    ngens = len(pres.generators)
    assert all(len({len(w) for w in rel.terms}) == 1
               for rel in pres.relations)
    counts = []
    for d in range(1, up_to + 1):
        words = list(iter_product(range(ngens), repeat=d))
        index = {w: i for i, w in enumerate(words)}
        space = linalg.Subspace()
        for rel in pres.relations:
            deg = rel.degree()
            for left in range(d - deg + 1):
                for u in iter_product(range(ngens), repeat=left):
                    for v in iter_product(range(ngens),
                                          repeat=d - deg - left):
                        vec = [0] * len(words)
                        for w, c in rel.terms.items():
                            vec[index[u + w + v]] = c
                        space.add(vec)
        counts.append(len(words) - space.rank)
    return counts


def _renamed(pres, rng):
    """The presentation with its generator indexes permuted, not by the
    identity."""
    perm = list(range(len(pres.generators)))
    while perm == sorted(perm):
        rng.shuffle(perm)
    return Presentation(
        tuple(pres.generators[perm.index(g)] for g in perm),
        tuple(NcPoly({tuple(perm[g] for g in w): c
                      for w, c in rel.terms.items()})
              for rel in pres.relations))


def test_hilbert_counts_match_the_span_oracle():
    # A renaming maps the words u·r·v onto the words u'·r'·v' of the
    # renamed relations, so h_d is the same for both presentations.
    rng = random.Random(31)
    for spec, up_to in (((2, 3), 8), ((2, 4), 8), ((3, 3), 7)):
        pres = catalog.nil_power_presentation(*spec)
        oracle = _hilbert_oracle(pres, up_to)
        for case in (pres, _renamed(pres, rng)):
            state = buchberger_truncated(case, up_to)
            assert hilbert_counts(state, up_to) == oracle, (spec, case)


def _verify_tables():
    """Truncated tables: the Kurosh table, the benchmark pipelines at two
    seeds and 20 inhomogeneous presentations."""
    tables = [truncated_algebra_table(kurosh_state(), 9)]
    for spec in PIPELINES:
        for seed in (1, 2):
            pres = _reshaped(catalog.nil_power_presentation(*spec[:2]),
                             random.Random(f"{seed}:{spec}"))
            tables.append(truncated_algebra_table(
                buchberger_truncated(pres, spec[2]), spec[3]))
    for seed in DIFFERENTIAL_SEEDS[:20]:
        pres, bound, _ = _random_presentation(seed)
        tables.append(truncated_algebra_table(
            buchberger_truncated(pres, bound), bound))
    return tables


def _corrupted(table, kind, rng):
    """The products of ``table`` with one random corruption of the given
    kind, or None when the table has no place for it."""
    n, up_to, deg = table.dim, table.up_to, table.degree
    products = {pair: dict(vec) for pair, vec in table.products.items()}
    within = [(i, j) for (i, j) in sorted(products)
              if deg(i) + deg(j) <= up_to]
    if kind in ("off", "dropped", "moved") and within:
        vec = products[rng.choice(within)]
        k = rng.choice(sorted(vec))
        if kind == "off":
            step = Fraction(1, lcm(*{c.denominator for v in products.values()
                                     for c in v.values()}))
            vec[k] += step if vec[k] + step else -step
        elif kind == "dropped":
            del vec[k]
        elif len(vec) < n:
            vec[rng.choice([m for m in range(n) if m not in vec])] = vec.pop(k)
        return products
    long = [c for c in range(n) if deg(c) >= 2]
    if kind == "prefix" and long:
        # p_(c', g) for a word c = c'g is no longer e_c.
        c = rng.choice(long)
        index = {w: i for i, w in enumerate(table.words)}
        other = rng.choice([m for m in range(n) if m != c])
        products[index[table.words[c][:-1]], index[table.words[c][-1:]]] = \
            rng.choice(({c: 2}, {}, {c: 1, other: 1}, {other: -1}))
        return products
    raising = [(i, j, l) for i in range(n) for j in range(n)
               for l in range(n) if deg(i) + deg(j) < min(deg(l), up_to)]
    if kind == "raising" and raising:
        # e_l enters e_i e_j above its degree, and e_l e_k, for a k that
        # completes (i, j) within the bound, is made nonzero.
        i, j, l = rng.choice(raising)
        products.setdefault((i, j), {})[l] = rng.choice((1, -1, 2))
        k = rng.choice([k for k in range(n)
                        if deg(i) + deg(j) + deg(k) <= up_to])
        products[l, k] = {rng.randrange(n): 1}
        return products
    return None


def _verify_message(table, **changes):
    """What ``verify`` raises on ``table`` with the changes; None when
    it accepts."""
    try:
        dataclasses.replace(table, **changes)
    except AlgebraError as exc:
        return str(exc)
    return None


def test_letter_check_matches_the_full_scan():
    rng = random.Random(29)
    kinds = ("off", "dropped", "moved", "prefix", "raising")
    rejected = dict.fromkeys(kinds, 0)
    for table in _verify_tables():
        long = [k for k in range(table.dim) if table.degree(k) >= 2]
        for kind in (None,) + kinds * 2:
            products = (table.products if kind is None
                        else _corrupted(table, kind, rng))
            if products is None:
                continue
            triple = _first_nonassociative_triple(table, products)
            expected = None if triple is None else \
                "associativity fails on triple ({}, {}, {})".format(*triple)
            assert _verify_message(table, products=products) == expected
            if kind is None:
                assert expected is None
            else:
                rejected[kind] += expected is not None
            # A word whose prefix is not a word: a fresh first letter.
            if long:
                words = list(table.words)
                k = rng.choice(long)
                words[k] = (len(table.generators),) + words[k][1:]
                assert _verify_message(table, words=tuple(words),
                                       products=products) == expected
    assert min(rejected.values()) >= 40, rejected


def test_truncated_tables_pass_on_letter_triples(monkeypatch):
    # Both premises hold by construction, so the scan runs once, on the
    # letters, whether or not the table needs a common denominator.
    calls = []
    scan = groebner._first_failure

    def recording(ints, degrees, up_to, inner):
        calls.append(list(inner))
        return scan(ints, degrees, up_to, inner)

    tables = _verify_tables()
    monkeypatch.setattr(groebner, "_first_failure", recording)
    scaled = 0
    for table in tables:
        calls.clear()
        table.verify()
        assert calls == [[k for k in range(table.dim)
                          if table.degree(k) == 1]]
        scaled += any(c.denominator > 1 for vec in table.products.values()
                      for c in vec.values())
    assert scaled >= 3


def test_each_premise_is_needed_for_the_letter_check():
    # Both tables pass every letter triple within the bound and fail a
    # longer triple; only the failed premise sends verify to the scan.
    x, y, yx, yy, yyx = (0,), (1,), (1, 0), (1, 1), (1, 1, 0)
    # The monomial algebra on the factor-closed words x, y, yx, yy, yyx.
    monomial = AssociativeTable(
        generators=("x", "y"), words=(x, y, yx, yy, yyx),
        labels=("x", "y", "yx", "yy", "yyx"),
        products={(1, 0): {2: 1}, (1, 1): {3: 1}, (3, 0): {4: 1},
                  (1, 2): {4: 1}}, up_to=4)
    # (P1) x·y = yyx raises degree, and yyx·yy = x lies beyond the bound:
    # (xy)(yy) = x but x(y·yy) = 0.
    raising = {**monomial.products, (0, 1): {4: 1}, (4, 3): {0: 1}}
    # (P2) x, xx, u = yy, t = xyy, s = xxyy with x·x = xx, x·u = t and
    # x·t = s; only x is a letter, and u is no product of letters.
    words = ((0,), (0, 0), (1, 1), (0, 1, 1), (0, 0, 1, 1))
    generated = AssociativeTable(
        generators=("x", "y"), words=words, labels=("x", "xx", "u", "t", "s"),
        products={(0, 0): {1: 1}, (0, 2): {3: 1}, (0, 3): {4: 1},
                  (1, 2): {4: 1}}, up_to=4)
    # xx·u = 0 drops: (xx)u = 0 but x(xu) = s.
    dropped = {pair: vec for pair, vec in generated.products.items()
               if pair != (1, 2)}
    for table, products in ((monomial, raising), (generated, dropped)):
        triple = _first_nonassociative_triple(table, products)
        assert triple is not None
        assert _verify_message(table, products=products) == \
            "associativity fails on triple ({}, {}, {})".format(*triple)
