"""Truncated Gröbner bases for finitely presented associative algebras
without unit, with degree-lexicographic word order.

Everything here is deterministic: reduction always rewrites the
deglex-largest reducible word at its leftmost occurrence using the
first matching basis element, and the completion loop processes
overlap obstructions in a fixed order.  Each state records the degree
bound below which the basis is complete, and every consumer checks
that bound before trusting a normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, product as iter_product
from math import lcm

from .core import AlgebraError, InternalCheckError, as_scalar
from .multipoly import _signed_sum

def word_key(word):
    """Sort key realising deglex: longer words first, ties by letter
    order (generator 0 is the largest letter)."""
    return (len(word), tuple(-g for g in word))


class NcPoly:
    """Noncommutative polynomial: finitely many words with rational
    coefficients.  Words are tuples of generator indexes; the empty
    word is not allowed (the algebras here have no unit)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if not word:
                raise AlgebraError("empty words are not supported")
            if any(not isinstance(g, int) or g < 0 for g in word):
                raise AlgebraError(f"bad word {word!r}")
            c = as_scalar(coeff)
            if c:
                clean[word] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def word(cls, word, coeff=1):
        return cls({tuple(word): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, NcPoly):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        # A zero polynomial equals 0, so it hashes like 0.
        return hash(frozenset(self.terms.items())) if self.terms else hash(0)

    def __add__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            acc = terms.get(word, 0) + coeff
            if acc:
                terms[word] = acc
            else:
                terms.pop(word, None)
        out = NcPoly.__new__(NcPoly)
        out.terms = terms
        return out

    def __neg__(self):
        out = NcPoly.__new__(NcPoly)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            terms = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    word = wa + wb
                    acc = terms.get(word, 0) + ca * cb
                    if acc:
                        terms[word] = acc
                    else:
                        terms.pop(word, None)
            out = NcPoly.__new__(NcPoly)
            out.terms = terms
            return out
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, coeff):
        c = as_scalar(coeff)
        out = NcPoly.__new__(NcPoly)
        out.terms = {} if not c else {w: c * t for w, t in self.terms.items()}
        return out

    def leading_word(self):
        if not self.terms:
            raise AlgebraError("the zero polynomial has no leading word")
        return max(self.terms, key=word_key)

    def leading_coeff(self):
        return self.terms[self.leading_word()]

    def monic(self):
        lead = self.leading_coeff()
        return self.scale(Fraction(1, 1) / lead)

    def degree(self):
        return max((len(w) for w in self.terms), default=-1)

    def render(self, generators):
        return _signed_sum(
            (self.terms[word].numerator, self.terms[word].denominator,
             "".join(generators[g] for g in word))
            for word in sorted(self.terms, key=word_key, reverse=True))

    def __repr__(self):
        top = max((g for word in self.terms for g in word), default=-1)
        return f"NcPoly({self.render([f'g{i}' for i in range(top + 1)])})"


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relations: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens or len(set(gens)) != len(gens):
            raise AlgebraError("generator names must be distinct and nonempty")
        for name in gens:
            if not isinstance(name, str) or not name.isidentifier():
                raise AlgebraError(f"bad generator name {name!r}")
        rels = tuple(self.relations)
        for rel in rels:
            if not isinstance(rel, NcPoly) or not rel:
                raise AlgebraError("relations must be nonzero polynomials")
            for word in rel.terms:
                if any(g >= len(gens) for g in word):
                    raise AlgebraError("relation uses an unknown generator")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relations", rels)


def _lead_index(basis):
    """The leading words of ``basis`` by length, each mapped to (its
    first basis position, itself); built once per basis."""
    index = {}
    for li, g in enumerate(basis):
        lead = g.leading_word()
        index.setdefault(len(lead), {}).setdefault(lead, (li, lead))
    return index


def _first_occurrence(word, index):
    """(pos, li, lead) for the leftmost position where a leading word of
    the ``_lead_index`` occurs as a factor; ties broken by basis order.
    One dict lookup per position and length."""
    for pos in range(len(word)):
        hit = None
        for n, by_word in index.items():
            found = by_word.get(word[pos:pos + n])
            if found and (hit is None or found < hit):
                hit = found
        if hit:
            return (pos, *hit)
    return None


def reduce(poly, basis):
    """Normal form of poly modulo the monic basis, rewriting the
    deglex-largest reducible word first, at its leftmost occurrence."""
    if isinstance(basis, GroebnerState):
        basis = basis.basis
    return _reduce(poly, basis, _lead_index(basis))


def _reduce(poly, basis, index):
    """``reduce`` with the basis's ``_lead_index`` given by the caller.
    One pass over a heap keyed (-len(word), word), deglex-largest on
    top: a rewrite makes only smaller words, so none is popped twice."""
    terms = dict(poly.terms)
    heap = [(-len(word), word) for word in terms]
    heapify(heap)
    normal = {}
    while heap:
        word = heappop(heap)[1]
        coeff = terms.pop(word)
        if not coeff:
            continue
        hit = _first_occurrence(word, index)
        if hit is None:
            normal[word] = coeff
            continue
        pos, li, lead = hit
        for tail_word, tail_coeff in basis[li].terms.items():
            if tail_word != lead:
                new_word = word[:pos] + tail_word + word[pos + len(lead):]
                if new_word not in terms:
                    terms[new_word] = 0
                    heappush(heap, (-len(new_word), new_word))
                terms[new_word] -= coeff * tail_coeff
    out = NcPoly.__new__(NcPoly)
    out.terms = normal
    return out


@dataclass
class GroebnerState:
    presentation: Presentation
    basis: list
    max_degree: int
    complete_below: int
    new_elements: int

    @property
    def is_groebner_as_given(self):
        return self.new_elements == 0

    def render(self):
        gens = self.presentation.generators
        return [g.render(gens) for g in self.basis]


def _insert(basis, poly):
    """Add a monic polynomial, evicting and re-reducing any basis
    element whose leading word it divides."""
    index = _lead_index([poly])
    hits = [_first_occurrence(g.leading_word(), index) for g in basis]
    evicted = [g for g, hit in zip(basis, hits) if hit is not None]
    kept = [g for g, hit in zip(basis, hits) if hit is None] + [poly]
    for g in evicted:
        r = reduce(g, kept)
        if r:
            _insert(kept, r.monic())
    basis[:] = kept


def _interreduce(basis):
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(list(basis)):
            others = basis[:i] + basis[i + 1:]
            r = reduce(g, others)
            if r.terms != g.terms:
                basis[:] = others
                if r:
                    _insert(basis, r.monic())
                changed = True
                break


def buchberger_truncated(presentation, max_degree):
    """Complete the relations below the degree bound.

    Returns a state whose basis rewrites every element of degree
    < complete_below (= max_degree + 1) to a unique normal form.
    """
    if not isinstance(max_degree, int) or max_degree < 1:
        raise AlgebraError("the degree bound must be a positive integer")
    rel_deg = max(rel.degree() for rel in presentation.relations)
    if max_degree < rel_deg:
        raise AlgebraError(
            f"degree bound {max_degree} is below the relation degree {rel_deg}")

    basis = []
    for rel in presentation.relations:
        r = reduce(rel, basis)
        if r:
            _insert(basis, r.monic())
    _interreduce(basis)

    new_elements = 0
    processed = set()
    changed = True
    while changed:
        changed = False
        obstructions = []
        leads = [g.leading_word() for g in basis]
        index = _lead_index(basis)
        for i, wi in enumerate(leads):
            for j, wj in enumerate(leads):
                for k in range(1, min(len(wi), len(wj))):
                    if wi[len(wi) - k:] == wj[:k]:
                        deg = len(wi) + len(wj) - k
                        if deg <= max_degree:
                            obstructions.append((deg, word_key(wi),
                                                 word_key(wj), k, i, j))
        for deg, _, _, k, i, j in sorted(obstructions):
            gi, gj = basis[i], basis[j]
            wi, wj = leads[i], leads[j]
            signature = (wi, wj, k)
            if signature in processed:
                continue
            processed.add(signature)
            spoly = gi * NcPoly.word(wj[k:]) - NcPoly.word(wi[:len(wi) - k]) * gj
            h = _reduce(spoly, basis, index)
            if h:
                _insert(basis, h.monic())
                _interreduce(basis)
                new_elements += 1
                changed = True
                break

    basis.sort(key=lambda g: word_key(g.leading_word()))
    return GroebnerState(presentation, basis, max_degree,
                         max_degree + 1, new_elements)


def is_normal_word(state, word):
    word = tuple(word)
    if len(word) >= state.complete_below:
        raise AlgebraError(
            "completeness bound insufficient for words of degree "
            f"{len(word)}")
    return _first_occurrence(word, _lead_index(state.basis)) is None


def _normal_words_upto(state, bound):
    """The normal words of degrees 1..bound, one deglex-ordered list per
    degree.  Each degree extends the one below by a letter, so only
    suffixes are tested."""
    if bound >= state.complete_below:
        raise AlgebraError(
            f"completeness bound insufficient for degree {bound} "
            f"(complete below {state.complete_below})")
    leads = [g.leading_word() for g in state.basis]
    letters = range(len(state.presentation.generators))
    # Not a recursive closure: that is a reference cycle, which keeps
    # the words alive until the cyclic garbage collector runs.
    levels = [[()]]
    for _ in range(bound):
        level = []
        for prefix in levels[-1]:
            for letter in letters:
                word = prefix + (letter,)
                if not any(word[-len(lead):] == lead for lead in leads):
                    level.append(word)
        levels.append(level)
    return levels[1:]


def normal_words(state, degree):
    """All normal words of the given degree, in deglex order (largest
    generator letter first)."""
    if not isinstance(degree, int) or degree < 1:
        raise AlgebraError("degree must be a positive integer")
    return _normal_words_upto(state, degree)[-1]


def hilbert_counts(state, up_to):
    """Number of normal words in each degree 1..up_to."""
    return [len(level) for level in _normal_words_upto(state, up_to)]


def nil_span_check(state, span_gens, power):
    """Whether every element of the span of the given polynomials has
    vanishing n-th power, decided by grouping the expansion of
    (a_1 g_1 + ... + a_m g_m)^power by monomials in the a_i."""
    gens = list(span_gens)
    if not gens or any(not isinstance(g, NcPoly) or not g for g in gens):
        raise AlgebraError("span generators must be nonzero polynomials")
    if not isinstance(power, int) or power < 1:
        raise AlgebraError("power must be a positive integer")
    max_deg = max(g.degree() for g in gens)
    needed = power * max_deg + 1
    if state.complete_below < needed:
        raise AlgebraError(
            f"completeness bound insufficient: need complete below "
            f"{needed}, have {state.complete_below}")
    grouped = {}
    for combo in iter_product(range(len(gens)), repeat=power):
        poly = gens[combo[0]]
        for idx in combo[1:]:
            poly = poly * gens[idx]
        key = tuple(sorted(combo))
        grouped[key] = grouped.get(key, NcPoly.zero()) + poly
    index = _lead_index(state.basis)
    return all(not _reduce(p, state.basis, index) for p in grouped.values())


@dataclass(frozen=True)
class AssociativeTable:
    """Multiplication table of a truncated associative algebra on a
    normal-word basis.  Pairs whose concatenation exceeds the bound are
    truncated to zero and recorded in overflow_pairs.  Construction runs
    ``verify``, which raises AlgebraError."""

    generators: tuple
    words: tuple
    labels: tuple
    products: dict
    up_to: int
    overflow_pairs: frozenset = field(default_factory=frozenset)
    name: str = ""

    def __post_init__(self):
        self.verify()

    @property
    def dim(self):
        return len(self.words)

    def degree(self, index):
        return len(self.words[index])

    def product(self, i, j):
        return self.products.get((i, j), {})

    def verify(self):
        """Check the entries, then associativity on the triples of total
        degree <= up_to; AlgebraError names the first failing one in
        lexicographic order.  By Light's test (Clifford and Preston 1961,
        §1.2) it is enough to check (e_i e_j) e_g = e_i (e_j e_g) for the
        letters g and |w_i| + |w_j| + 1 <= up_to, when (P1) no product
        raises degree and (P2, ``_prefix_split``) e_c = e_c' e_g for each
        word c = c'g.  Proof by induction on |w_k| >= 2, with e_k = e_c' e_g:
        (e_i e_j)(e_c' e_g) = ((e_i e_j) e_c') e_g = (e_i (e_j e_c')) e_g
        = e_i ((e_j e_c') e_g) = e_i (e_j e_k) by letters, induction,
        letters and letters, all within the bound by P1.  When a premise
        or a letter triple fails, every triple is scanned."""
        n = self.dim
        if len(set(self.words)) != n or len(self.labels) != n:
            raise AlgebraError("words and labels must be distinct and aligned")
        scalars = {}
        for (i, j), vec in self.products.items():
            if not (0 <= i < n and 0 <= j < n):
                raise AlgebraError("product index out of range")
            for k, c in vec.items():
                if not (0 <= k < n) or not (c := as_scalar(c)):
                    raise AlgebraError("bad product entry")
                scalars[i, j, k] = c
        # The table on integers over the common denominator D: both sides
        # compared are D² times (e_i e_j) e_k and e_i (e_j e_k).
        den = lcm(*{c.denominator for c in scalars.values()})
        ints = {}
        for (i, j, k), c in scalars.items():
            ints.setdefault((i, j), {})[k] = c.numerator * den // c.denominator
        degrees = [len(w) for w in self.words]
        raising = any(degrees[k] > degrees[i] + degrees[j]  # not P1
                      for (i, j), vec in ints.items() for k in vec)
        letters = [k for k in range(n) if degrees[k] == 1]
        if raising or not _prefix_split(self.words, ints, den) or \
                _first_failure(ints, degrees, self.up_to, letters):
            if triple := _first_failure(ints, degrees, self.up_to, range(n)):
                raise AlgebraError("associativity fails on triple "
                                   "({}, {}, {})".format(*triple))

    def multiply(self, x, y):
        """The product of sparse vectors {index: coeff}, as one."""
        acc = {}
        for i, a in x.items():
            for j, b in y.items():
                vec = self.products.get((i, j))
                if vec:
                    ab = a * b
                    for k, c in vec.items():
                        acc[k] = acc.get(k, 0) + ab * c
        return {k: c for k, c in acc.items() if c}


def _prefix_split(words, products, one):
    """(P2) No word is empty, and each word c = c'g of length >= 2 has
    c' and g among the words and e_c' e_g = e_c exactly: ``{c: one}`` in
    ``products``, with ``one`` the table's scalar 1.  Then the words are
    closed under prefixes and each e_c is e_g1 e_g2 ... e_gm."""
    index = {w: k for k, w in enumerate(words)}
    return all(len(w) == 1 or w and products.get(
        (index.get(w[:-1]), index.get(w[-1:]))) == {k: one}
        for k, w in enumerate(words))


def _first_failure(ints, degrees, up_to, inner):
    """The first triple (i, j, k) in lexicographic order, k in ``inner``,
    of total degree at most up_to where (e_i e_j) e_k and e_i (e_j e_k)
    differ under the table ``ints``; None when there is none."""
    empty = {}
    # The words, and those of ``inner``, of degree <= b, in index order.
    within, inner_within = ({b: [k for k in ks if degrees[k] <= b]
                             for b in range(up_to + 1)}
                            for ks in (range(len(degrees)), inner))
    for i, di in enumerate(degrees):
        for j in within.get(up_to - di, ()):
            pij = ints.get((i, j), empty)
            for k in inner_within.get(up_to - di - degrees[j], ()):
                acc = {}
                for m, c in pij.items():
                    for t, d in ints.get((m, k), empty).items():
                        acc[t] = acc.get(t, 0) + c * d
                for m, c in ints.get((j, k), empty).items():
                    for t, d in ints.get((i, m), empty).items():
                        acc[t] = acc.get(t, 0) - c * d
                if any(acc.values()):
                    return i, j, k
    return None


def truncated_algebra_table(state, up_to):
    """Finite-dimensional quotient table on the normal words of degree
    1..up_to, with products beyond the bound truncated to zero.  Built
    from generator actions: NF(w·g) is reduced once for each normal word
    w below the bound and letter g; then e_wi·e_(u·g) = (e_wi·e_u)·g, as
    normal forms are unique below complete_below.  The words come in
    degree order, so the pairs within the bound are index ranges.  Normal
    forms do not raise degree and a normal word is its own normal form, so
    ``AssociativeTable.verify`` needs only its letter triples."""
    if not isinstance(up_to, int) or up_to < 1:
        raise AlgebraError("truncation degree must be a positive integer")
    if up_to >= state.complete_below:
        raise AlgebraError(
            f"completeness bound insufficient for truncation at {up_to} "
            f"(complete below {state.complete_below})")
    levels = _normal_words_upto(state, up_to)
    words = [w for level in levels for w in level]
    # ends[d]: the number of words of degree at most d.
    ends = list(accumulate(map(len, levels), initial=0))
    index = {w: i for i, w in enumerate(words)}
    gens = state.presentation.generators
    joiner = "" if all(len(g) == 1 for g in gens) else "_"
    labels = tuple(joiner.join(gens[g] for g in w) for w in words)

    leads = _lead_index(state.basis)
    products = {}
    for i, wi in enumerate(words[:ends[up_to - 1]]):
        for g in range(ends[1]):
            normal = _reduce(NcPoly.word(wi + words[g]), state.basis, leads)
            if any(word not in index for word in normal.terms):
                raise InternalCheckError(
                    "reduced product left the truncated basis")
            if normal:
                products[i, g] = {index[w]: c for w, c in normal.terms.items()}
    for i, wi in enumerate(words):
        for j in range(ends[1], ends[up_to - len(wi)]):
            g, acc = index[words[j][-1:]], {}
            for m, a in products.get((i, index[words[j][:-1]]), {}).items():
                for k, c in products.get((m, g), {}).items():
                    acc[k] = acc.get(k, 0) + a * c
            if vec := {k: c for k, c in acc.items() if c}:
                products[i, j] = vec
    overflow = {(i, j) for i, wi in enumerate(words)
                for j in range(ends[up_to - len(wi)], len(words))}

    try:
        return AssociativeTable(
            generators=gens, words=tuple(words), labels=labels,
            products=products, up_to=up_to,
            overflow_pairs=frozenset(overflow),
            name=f"truncated(deg<={up_to})")
    except AlgebraError as exc:
        raise InternalCheckError(f"truncated table inconsistent: {exc}")
