"""Per-element analysis: algebraic degree, minimal polynomial, the
canonical table of a singly generated subalgebra (a form written once,
in the ``catalog`` models it is checked against), and train elements.

Minimal polynomials here are monic with zero constant term, normalised
so that the element satisfies p(a) = 0 with principal (right) powers.
They and the train polynomials are MultiPolys in the one variable X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb

from . import linalg
from .core import (AlgebraError, Element, InternalCheckError, _power_chain,
                   as_scalar, ZERO, ONE, HALF)
from .multipoly import MultiPoly
from .structure import is_bernstein


@dataclass
class ElementAnalysis:
    element: Element
    degree: int
    minimal_poly: MultiPoly
    power_basis: list
    right_nil_index: int | None

    @property
    def is_right_nilpotent(self):
        return self.right_nil_index is not None

    def train_rank(self):
        """Least m in 3..dim + 2 with f_m(a) = 0, or None.

        When found and deg(a) >= 2, the minimal polynomial is checked to
        equal the expanded train form; for smaller degrees it must divide
        it.  Only a failed comparison asks whether the algebra is
        Bernstein, where the check applies.
        """
        a = self.element
        w = a.weight()
        if not w:
            raise AlgebraError("train element analysis needs nonzero weight")
        forms = islice(_train_forms(a), 1, None)
        rank = next((m for m, f in zip(range(3, a.algebra.dim + 3), forms)
                     if f.is_zero()), None)
        if rank is not None:
            expected = train_polynomial(rank, w)
            if self.degree >= 2:
                if self.minimal_poly != expected \
                        and _gamma1_applies(a.algebra):
                    raise InternalCheckError(
                        "train element minimal polynomial mismatch")
            elif expected.exact_div(self.minimal_poly) is None \
                    and _gamma1_applies(a.algebra):
                raise InternalCheckError(
                    "train form is not a multiple of the minimal polynomial")
        return rank


def _gamma1_applies(table):
    return table.has_weight and bool(is_bernstein(table))


def analyze_element(a):
    """Degree, minimal polynomial and power basis of an element.

    The loop is bounded by dim + 1; the first linear dependence closes
    the span of principal powers, so the minimal polynomial is read off
    from it.
    """
    table = a.algebra
    if a.is_zero():
        return ElementAnalysis(a, 0, MultiPoly.univariate((ZERO, ONE)), [], 2)
    powers = []
    space = linalg.Subspace()
    for power in _power_chain(a):
        coords = space.relation(power)
        if coords is not None:
            break
        powers.append(power)
        if len(powers) > table.dim:
            raise InternalCheckError("power independence beyond the dimension")
    m = len(powers)
    cs = [ZERO] * (m + 2)
    cs[m + 1] = ONE
    for k, c in enumerate(coords):
        cs[k + 1] = -c
    poly = MultiPoly.univariate(cs)
    if m >= 2 and cs[1] and _gamma1_applies(table):
        raise InternalCheckError(
            "minimal polynomial of a degree >= 2 element has a linear term")
    nil_index = m + 1 if not any(coords) else None
    return ElementAnalysis(a, m, poly, powers, nil_index)


def minimal_poly_form_check(analysis):
    """Check the minimal polynomial against the degree case split.

    Degree 0 forces X and degree 1 forces X^2 - wX, at every weight.
    For degree >= 2 and nonzero weight the polynomial is X^3 - wX^2
    (degree exactly 2) or a multiple of it.  At weight zero the powers
    a^2, a^3, ... span a zero-multiplication subspace, so only the
    vanishing linear coefficient survives there: X^2 divides the
    polynomial, but the cubic factor need not (u + v with uv = u and
    u^2 = v^2 = 0 has minimal polynomial X^3 - X^2).
    """
    a = analysis.element
    if not a.algebra.has_weight:
        raise AlgebraError("minimal polynomial form check needs a weight")
    w = a.weight()
    p = analysis.minimal_poly
    cs = p.coefficients()
    if analysis.degree == 0:
        return cs == [ZERO, ONE]
    if analysis.degree == 1:
        return cs == [ZERO, -w, ONE]
    c0, c1 = (cs + [ZERO, ZERO])[:2]
    if not w:
        return c1 == 0
    if analysis.degree == 2:
        return cs == [ZERO, ZERO, -w, ONE]
    # X^2 and X - w are coprime, so X^2 (X - w) divides p when both do
    return not c0 and not c1 and not p.evaluate({"X": w})


def _train_forms(a):
    """f_2(a), f_3(a), f_4(a), ... with f_2 = a^2 - w a, f_3 = a f_2 and
    f_(k+1) = a f_k - (w/2) f_k, one product each and none before it is
    asked for.  By commutativity a f_2 = a^3 - w a^2 exactly."""
    w = a.weight()
    form = a * a - a.scale(w)
    yield form
    form = a * form
    while True:
        yield form
        form = a * form - form.scale(HALF * w)


def train_f(a, k):
    """f_3(x) = x^3 - w(x) x^2 and f_(k+1)(x) = x f_k(x) - w(x)/2 f_k(x);
    accepts concrete and symbolic elements."""
    if not isinstance(k, int) or k < 3:
        raise AlgebraError("train polynomials start at k = 3")
    return next(islice(_train_forms(a), k - 2, None))


def _train_gamma_formula(rank, w=ONE):
    """(1, gamma_1 w, ..., gamma_(rank-1) w^(rank-1)), the coefficients
    of X^rank, ..., X in (X^3 - wX^2)(X - w/2)^(rank - 3), from the
    binomial closed form gamma_k = (-1/2)^k (C(rank-3, k) + 2 C(rank-3, k-1))."""
    w = as_scalar(w)
    p, q = -w.numerator, 2 * w.denominator
    return (ONE,) + tuple(
        Fraction((comb(rank - 3, k) + 2 * comb(rank - 3, k - 1)) * p ** k,
                 q ** k) for k in range(1, rank))


def train_polynomial(rank, w=ONE):
    """(X^3 - wX^2)(X - w/2)^(rank - 3) expanded, for rank >= 3, read off
    the closed form of its coefficients."""
    if rank < 3:
        raise AlgebraError("train polynomial form needs rank >= 3")
    return MultiPoly.univariate((ZERO,) + _train_gamma_formula(rank, w)[::-1])


def train_element_rank(a):
    """Least m in 3..dim + 2 with f_m(a) = 0, or None; see
    ``ElementAnalysis.train_rank``."""
    return analyze_element(a).train_rank()


def singly_generated_subalgebra(a):
    """Canonical table of the subalgebra generated by a weight-1
    element, built by ``change_basis`` on e = a^2, u_1 = a^3 - a^2,
    u_(i+1) = v_1 u_i and v_1 = a + a^2 - 2a^3 (on a alone at degree 1),
    and checked equal to the ``catalog`` model of its degree.

    Returns (table, embedding) where embedding lists the canonical
    basis as elements of the ambient algebra, in label order.
    """
    from . import catalog   # catalog imports this module

    table = a.algebra
    if not table.has_weight:
        raise AlgebraError("singly generated analysis needs a weight")
    if a.weight() != 1:
        raise AlgebraError("generator must have weight 1")
    if not is_bernstein(table):
        raise AlgebraError("ambient algebra is not Bernstein")
    n = analyze_element(a).degree

    if n == 1:
        family, labels = [a], ["e"]
    else:
        _, e, a3 = islice(_power_chain(a), 3)
        u = [a3 - e] if n >= 3 else []
        v1 = a + e - a3.scale(2)    # a - a^2 at degree 2, where a^3 = a^2
        for _ in range(n - 3):
            u.append(v1 * u[-1])
        family = [e] + u + [v1]
        labels = ["e"] + [f"u{i + 1}" for i in range(n - 2)] + ["v1"]
    try:
        out = table.change_basis(family, labels, name="alg(a)")
    except AlgebraError as exc:
        raise InternalCheckError(f"canonical family: {exc}") from None

    if n <= 2:   # the frame alone: e e = e is the only product
        model = catalog._frame(labels[1:], [], {})
    else:
        top = out.product_vector(n - 2, n - 1)    # u_(n-2) v1
        if n == 3:
            model = catalog.three_dim_alpha(top.get(1, ZERO) + Fraction(3, 2))
        else:
            model = catalog.free_single_truncated(
                n, [top.get(k, ZERO) for k in range(1, n - 1)])
    if out != model:
        raise InternalCheckError("alg(a) is not in the canonical form")
    return out, family
