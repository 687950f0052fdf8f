"""Ready-made algebra tables and constructions: small named examples,
shift truncations, singly generated models, idempotent adjunction,
regular-word nil algebras, quotients and subalgebras (both through
``AlgebraTable.change_basis``), and the bridge from truncated
associative algebras to Bernstein tables.  Subalgebras close their
spans with ``linalg.closure``; the bridge proves that S generates from
the normal words when it can, else grows S under right products by S.
e + 2u1 + v1 generates ``three_dim_alpha`` and ``free_single_truncated``
by construction, as their docstrings prove, so no build checks it.  The
Peirce frame (e e = e, e u = u/2, e v = 0, weight 1 on e) is written
once, in ``_frame``; tables on it add their products on N = U + V.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

from . import linalg
from .core import (AlgebraError, AlgebraTable, InternalCheckError, as_scalar,
                   ideal_rows, ZERO, HALF)
from .groebner import NcPoly, Presentation, _prefix_split
from .structure import is_bernstein


def _frame(nil_labels, u_labels, products, name="", notes=()):
    """The table on e, *nil_labels in the Peirce frame: e e = e,
    e u = u/2 for each label in u_labels, e v = 0 for the other labels
    and weight 1 on e, with the label-keyed ``products`` on N."""
    frame = {("e", "e"): {"e": 1}}
    for u in u_labels:
        frame[("e", u)] = {u: HALF}
    return AlgebraTable.build(["e", *nil_labels], {**frame, **products},
                              weight={"e": 1}, name=name, notes=notes)


def elementary_algebra(nil_dim=1):
    """x^2 = w(x) x holds identically: e plus a zero-multiplication
    half-eigenspace."""
    if not isinstance(nil_dim, int) or nil_dim < 0:
        raise AlgebraError("nil_dim must be a nonnegative integer")
    nil = [f"n{i + 1}" for i in range(nil_dim)]
    return _frame(nil, nil, {}, name=f"elementary({nil_dim})")


def constant_algebra():
    """Two-dimensional table with e^2 = e and all other products zero;
    the nonunit basis vector spans the zero Peirce component."""
    return _frame(["v"], [], {}, name="constant")


def three_dim_alpha(alpha):
    """One-parameter family on e, u1, v1 with u1*v1 = (alpha - 3/2) u1
    and v1^2 = 4(1 - alpha) u1.

    a = e + 2u1 + v1 generates it for every alpha: a^2 = e + (2 +
    4(alpha - 3/2) + 4(1 - alpha)) u1 = e, a^3 = e a = e + u1, and only
    a has a v1 coordinate, so a, a^2, a^3 are a basis."""
    a = as_scalar(alpha)
    products = {("u1", "v1"): {"u1": a - Fraction(3, 2)},
                ("v1", "v1"): {"u1": 4 * (1 - a)}}
    return _frame(["u1", "v1"], ["u1"], products, name=f"three_dim({a})")


def example_not_train():
    """Three-dimensional table on e, u, v with u*v = u; its weight
    kernel is not nil, so no train equation can hold."""
    return _frame(["u", "v"], ["u"], {("u", "v"): {"u": 1}},
                  name="not_train")


def _shift_labels(n):
    if not isinstance(n, int) or n < 1:
        raise AlgebraError("the chain length must be a positive integer")
    return [f"u{i + 1}" for i in range(n)]


def shift_up_truncated(n):
    """Basis e, u1..un, v (dimension n + 2); multiplication by v shifts
    the chain up and truncates at the top (u_n v = 0), and
    U^2 = v^2 = 0."""
    chain = _shift_labels(n)
    products = {}
    for i in range(1, n):
        products[(f"u{i}", "v")] = {f"u{i + 1}": 1}
    return _frame(chain + ["v"], chain, products, name=f"shift_up({n})")


def shift_down_truncated(n):
    """Basis e, u1..un, v (dimension n + 2); multiplication by v shifts
    the chain down, killing u1, and U^2 = v^2 = 0."""
    chain = _shift_labels(n)
    products = {}
    for i in range(2, n + 1):
        products[(f"u{i}", "v")] = {f"u{i - 1}": 1}
    return _frame(chain + ["v"], chain, products, name=f"shift_down({n})")


def free_single_truncated(n, betas=None):
    """Truncated model of the singly generated exceptional algebra.

    Basis e, u1..u_(n-2), v1 with U^2 = 0, v1^2 = -2u1 - 4u2, the shift
    u_i v1 = u_(i+1), and the top product u_(n-2) v1 given by the betas
    (default all zero).

    a = e + 2u1 + v1 generates it: a^2 = e, as 2 e (2u1) = 2u1 cancels
    4 u1 v1 + v1^2 = -2u1.  Then a^3 = e a = e + u1 and u_i a = u_i/2 +
    u_(i+1) for i <= n - 3, so for 3 <= k <= n, a^k = a^(k-1) a is e plus
    a combination of u1..u_(k-2) with coefficient 1 on u_(k-2).  The
    betas first enter at a^(n+1); a, ..., a^n are triangular (only a has
    a v1 coordinate) and span the algebra, whatever the betas.
    """
    if not isinstance(n, int) or n < 4:
        raise AlgebraError("the truncated model needs dimension at least 4")
    if betas is None:
        betas = [ZERO] * (n - 2)
    betas = [as_scalar(b) for b in betas]
    if len(betas) != n - 2:
        raise AlgebraError(f"expected {n - 2} top coefficients")
    chain = [f"u{i + 1}" for i in range(n - 2)]
    products = {("v1", "v1"): {"u1": -2, "u2": -4}}
    for i in range(1, n - 2):
        products[(f"u{i}", "v1")] = {f"u{i + 1}": 1}
    top = {f"u{i + 1}": b for i, b in enumerate(betas) if b}
    products[(f"u{n - 2}", "v1")] = top
    return _frame(chain + ["v1"], chain, products, name=f"free_single({n})")


def adjoin_idempotent(nil_table, u_indices, v_indices, name=""):
    """Attach an idempotent to a weightless table N split as U + V.

    Requires U^2 = 0, U V inside U and V^2 inside U; the result carries
    e^2 = e, e u = u/2, e v = 0 and the original products, and is then
    a Bernstein algebra with N as its weight kernel.
    """
    if nil_table.has_weight:
        raise AlgebraError("the table to extend must be weightless")
    u_indices = list(u_indices)
    v_indices = list(v_indices)
    dim = nil_table.dim
    if sorted(u_indices + v_indices) != list(range(dim)):
        raise AlgebraError("U and V indices must partition the basis")
    rows, den = nil_table._integer_rows()   # rows[i][j]: (k, den s_ijk)
    uset = set(u_indices)
    if any(j in uset for i in u_indices for j in rows[i]):
        raise AlgebraError("U is not a zero-multiplication subspace")
    for left, message in ((u_indices, "U V does not lie in U"),
                          (v_indices, "V^2 does not lie in U")):
        if any(k not in uset for i in left for j, vec in rows[i].items()
               if j not in uset for k, _ in vec):
            raise AlgebraError(message)
    if "e" in nil_table.labels:
        raise AlgebraError("label 'e' is already taken")

    labels = nil_table.labels
    products = {(labels[i], labels[j]): {labels[k]: (s, den)
                                         for k, s in row[j]}
                for i, row in enumerate(rows) for j in sorted(row) if i <= j}
    table = _frame(
        labels, [labels[i] for i in u_indices], products,
        name=name or (f"adjoin({nil_table.name})" if nil_table.name
                      else "adjoin"),
        notes=nil_table.notes)
    if not is_bernstein(table):
        raise InternalCheckError("adjoining an idempotent must give a "
                                 "Bernstein algebra")
    return table


def zhevlakov_truncated(num_vars, max_len):
    """Nil table on regular words (strictly increasing letter indexes)
    of length up to max_len, with the signed insertion product.

    A word times a letter inserts the letter with the sign of the
    permutation sorting it in, and vanishes when the letter repeats or
    does not exceed the first letter; longer words and all products of
    two genuine words vanish.  Returns (table, word_indices,
    letter_indices).
    """
    if not isinstance(num_vars, int) or num_vars < 2:
        raise AlgebraError("need at least two letters")
    if not isinstance(max_len, int) or not 1 <= max_len <= num_vars:
        raise AlgebraError("word length bound must lie in 1..num_vars")
    words = []
    for length in range(1, max_len + 1):
        words.extend(combinations(range(1, num_vars + 1), length))
    labels = ["".join(f"x{i}" for i in w) for w in words]
    index = {w: k for k, w in enumerate(words)}

    products = {}
    for a, wa in enumerate(words):
        for b in range(a, len(words)):
            wb = words[b]
            if len(wa) > 1 and len(wb) > 1:
                continue
            if len(wa) == 1 and len(wb) == 1:
                i, j = wa[0], wb[0]
                if i == j or max_len < 2:
                    continue
                target = (min(i, j), max(i, j))
                products[(labels[a], labels[b])] = {labels[index[target]]: 1}
                continue
            word, letter = (wa, wb[0]) if len(wb) == 1 else (wb, wa[0])
            if letter in word or letter <= word[0]:
                continue
            merged = tuple(sorted(word + (letter,)))
            if len(merged) > max_len:
                continue
            sign = (-1) ** sum(1 for g in word if g > letter)
            products[(labels[a], labels[b])] = {labels[index[merged]]: sign}

    table = AlgebraTable.build(
        labels, products, weight=None,
        name=f"regular_words({num_vars},{max_len})")
    word_idx = tuple(k for k, w in enumerate(words) if len(w) > 1)
    letter_idx = tuple(k for k, w in enumerate(words) if len(w) == 1)
    return table, word_idx, letter_idx


def zhevlakov_bernstein(num_vars, max_len):
    """Regular-word table with an idempotent adjoined: words of length
    at least two form U, single letters form V."""
    table, word_idx, letter_idx = zhevlakov_truncated(num_vars, max_len)
    return adjoin_idempotent(table, word_idx, letter_idx,
                             name=f"zhevlakov({num_vars},{max_len})")


def from_associative(assoc, s_indices, name=""):
    """Bernstein table K x C x S built from a truncated associative
    table C and a generating set S of basis vectors.

    The product of (a1, b1) and (a2, b2) in the non-unit part has C
    component a1 b2 + a2 b1 (with the copy of S mapped back into C) and
    zero S component; U = C is a zero-multiplication subspace, so the
    result is an exceptional Bernstein algebra.

    C is associative, so S generates it when the span W grown from S
    under right products by S is C.  That holds with no elimination when
    S holds every letter and P2 (``groebner._prefix_split``) holds: by
    induction on |c|, e_c is a letter in S or e_c' e_g with e_c' in W and
    g in S.  Otherwise W is grown in a ``linalg.Subspace``.
    """
    s_indices = list(s_indices)
    if len(set(s_indices)) != len(s_indices) or not s_indices:
        raise AlgebraError("S indices must be distinct and nonempty")
    if any(not 0 <= i < assoc.dim for i in s_indices):
        raise AlgebraError("S index out of range")

    dim = assoc.dim
    letters = {k for k, w in enumerate(assoc.words) if len(w) == 1}
    if not (letters <= set(s_indices)
            and _prefix_split(assoc.words, assoc.products, 1)):
        space = linalg.Subspace()
        found = [{i: 1} for i in s_indices]
        for v in found:
            if space.add([v.get(k, 0) for k in range(dim)]) \
                    and space.rank < dim:
                found.extend(assoc.multiply(v, {s: 1}) for s in s_indices)
        if space.rank != dim:
            raise AlgebraError("S does not generate the associative algebra")

    clabels = [f"c_{lbl}" for lbl in assoc.labels]
    slabels = [f"s_{assoc.labels[i]}" for i in s_indices]
    products = {}
    truncated = 0
    for pos, i in enumerate(s_indices):
        for j in range(dim):
            if (j, i) in assoc.overflow_pairs:
                truncated += 1
                continue
            vec = assoc.product(j, i)
            if vec:
                products[(clabels[j], slabels[pos])] = {
                    clabels[k]: c for k, c in vec.items()}
    notes = ()
    if truncated:
        notes = (f"{truncated} products truncated to zero by the "
                 f"degree bound {assoc.up_to}",)
    table = _frame(
        clabels + slabels, clabels, products,
        name=name or (f"baric({assoc.name})" if assoc.name else "baric"),
        notes=notes)
    if not is_bernstein(table):
        raise InternalCheckError("the associative construction must give "
                                 "a Bernstein algebra")
    return table


def nil_power_presentation(num_gens, power):
    """Relations stating that every k-th power vanishes: for each
    multiset of generators, the sum of all orderings is a relation."""
    if not isinstance(num_gens, int) or num_gens < 1:
        raise AlgebraError("need at least one generator")
    if not isinstance(power, int) or power < 2:
        raise AlgebraError("the nil power must be at least 2")
    if num_gens <= 4:
        gens = tuple("xyzw"[:num_gens])
    else:
        gens = tuple(f"x{i + 1}" for i in range(num_gens))
    relations = []
    for multiset in combinations_with_replacement(range(num_gens), power):
        orderings = sorted(set(permutations(multiset)))
        relations.append(NcPoly({w: 1 for w in orderings}))
    return Presentation(gens, tuple(relations))


def kurosh_presentation():
    """Two generators with all cubes vanishing."""
    return nil_power_presentation(2, 3)


def quotient(table, ideal_basis, name=""):
    """Quotient by the span of the given elements, which must be an
    ideal; with a weight present the ideal must lie in the weight
    kernel so the weight can descend.  The quotient's basis consists of the
    images of the unit vectors that complete the ideal's echelon rows
    greedily in index order."""
    vectors = ideal_rows(table, ideal_basis)
    if vectors is None:
        raise AlgebraError("the given span is not an ideal")
    if table.has_weight and any(table.weight_of(v) for v in vectors):
        raise AlgebraError("ideal is not contained in the weight kernel")
    space = linalg.Subspace(vectors)
    kept = [i for i, e in enumerate(linalg.identity_matrix(table.dim))
            if space.add(e)]
    return table.change_basis(
        [table.basis_element(i) for i in kept],
        [table.labels[i] for i in kept],
        modulo=vectors,
        name=name or (f"{table.name}/ideal" if table.name else "quotient"))


def subalgebra(table, generators, name=""):
    """Smallest subalgebra containing the generators.  Returns the
    sub-table on an echelonised basis together with the list of ambient
    elements realising that basis."""
    span = linalg.closure(generators, lambda u, v: (u * v,))
    basis = [table.element(v) for v in span.rows()]
    labels = [f"b{k + 1}" for k in range(len(basis))]
    return table.change_basis(basis, labels, name=name or "subalgebra"), basis
