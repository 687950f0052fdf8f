"""Per-element analysis: algebraic degree, minimal polynomial, the
canonical table of a singly generated subalgebra, and train elements.

Minimal polynomials here are monic with zero constant term, normalised
so that the element satisfies p(a) = 0 with principal (right) powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .core import (AlgebraError, AlgebraTable, Element, InternalCheckError,
                   UnivariatePoly, ZERO, ONE, HALF)
from .structure import is_bernstein


@dataclass
class ElementAnalysis:
    element: Element
    degree: int
    minimal_poly: UnivariatePoly
    power_basis: list
    right_nil_index: int | None

    @property
    def is_right_nilpotent(self):
        return self.right_nil_index is not None


def _gamma1_applies(table):
    return table.weight is not None and bool(is_bernstein(table))


def analyze_element(a):
    """Degree, minimal polynomial and power basis of an element.

    The loop is bounded by dim + 1; the first linear dependence closes
    the span of principal powers, so the minimal polynomial is read off
    from it.
    """
    table = a.algebra
    if a.is_zero():
        return ElementAnalysis(a, 0, UnivariatePoly.x(), [], 2)
    powers = [a]
    space = linalg.Subspace([a.coords])
    while True:
        nxt = powers[-1] * a
        if not space.add(nxt.coords):
            # nxt is the last input and dependent, so its coordinate is 0
            coords = space.coords(nxt.coords)[:-1]
            break
        powers.append(nxt)
        if len(powers) > table.dim:
            raise InternalCheckError("power independence beyond the dimension")
    m = len(powers)
    cs = [ZERO] * (m + 2)
    cs[m + 1] = ONE
    for k, c in enumerate(coords):
        cs[k + 1] = -c
    poly = UnivariatePoly(cs)
    if m >= 2 and _gamma1_applies(table) and poly.coeff(1):
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
    if a.algebra.weight is None:
        raise AlgebraError("minimal polynomial form check needs a weight")
    w = a.weight()
    p = analysis.minimal_poly
    x = UnivariatePoly.x()
    if analysis.degree == 0:
        return p == x
    if analysis.degree == 1:
        return p == x ** 2 - w * x
    if not w:
        return p.coeff(1) == 0
    cubic = x ** 3 - w * x ** 2
    if analysis.degree == 2:
        return p == cubic
    return p.divisible_by(cubic)


def train_f(a, k):
    """f_3(x) = x^3 - w(x) x^2 and f_(k+1)(x) = x f_k(x) - w(x)/2 f_k(x);
    accepts concrete and symbolic elements."""
    if not isinstance(k, int) or k < 3:
        raise AlgebraError("train polynomials start at k = 3")
    w = a.weight()
    cur = a ** 3 - (a ** 2).scale(w)
    for _ in range(k - 3):
        cur = a * cur - cur.scale(HALF * w)
    return cur


def train_polynomial(rank, w=ONE):
    """(X^3 - wX^2)(X - w/2)^(rank - 3) expanded, for rank >= 3."""
    if rank < 3:
        raise AlgebraError("train polynomial form needs rank >= 3")
    x = UnivariatePoly.x()
    w = Fraction(w)
    return (x ** 3 - w * x ** 2) * (x - UnivariatePoly([HALF * w])) ** (rank - 3)


def train_element_rank(a, search_bound=None):
    """Least m >= 3 with f_m(a) = 0, or None below the search bound.

    When found and deg(a) >= 2, the minimal polynomial is checked to
    equal the expanded train form; for smaller degrees it must divide
    it.
    """
    w = a.weight()
    if not w:
        raise AlgebraError("train element analysis needs nonzero weight")
    bound = a.algebra.dim + 2 if search_bound is None else search_bound
    cur = train_f(a, 3)
    for m in range(3, bound + 1):
        if cur.is_zero():
            if _gamma1_applies(a.algebra):
                analysis = analyze_element(a)
                expected = train_polynomial(m, w)
                if analysis.degree >= 2:
                    if analysis.minimal_poly != expected:
                        raise InternalCheckError(
                            "train element minimal polynomial mismatch")
                elif not expected.divisible_by(analysis.minimal_poly):
                    raise InternalCheckError(
                        "train form is not a multiple of the minimal "
                        "polynomial")
            return m
        cur = a * cur - cur.scale(HALF * w)
    return None


def singly_generated_subalgebra(a):
    """Canonical table of the subalgebra generated by a weight-1
    element, with basis e = a^2, u_1 = a^3 - a^2, u_(i+1) = v_1 u_i and
    v_1 = a + a^2 - 2a^3.

    Returns (table, embedding) where embedding lists the canonical
    basis as elements of the ambient algebra, in label order.
    """
    table = a.algebra
    if table.weight is None:
        raise AlgebraError("singly generated analysis needs a weight")
    if a.weight() != 1:
        raise AlgebraError("generator must have weight 1")
    if not is_bernstein(table):
        raise AlgebraError("ambient algebra is not Bernstein")
    n = analyze_element(a).degree

    if n == 1:
        out = AlgebraTable.build(("e",), {("e", "e"): {"e": 1}},
                                 weight={"e": 1}, name="alg(a)")
        return out, [a]

    e = a ** 2
    if n == 2:
        v1 = a - e
        for claim, value in ((  # sanity on the ambient products
                "e*v1", e * v1), ("v1*v1", v1 * v1)):
            if value:
                raise InternalCheckError(f"constant-form product {claim} is nonzero")
        out = AlgebraTable.build(("e", "v1"), {("e", "e"): {"e": 1}},
                                 weight={"e": 1}, name="alg(a)")
        return out, [e, v1]

    a3 = a ** 3
    u = [a3 - e]
    v1 = a + e - a3.scale(2)
    for _ in range(n - 3):
        u.append(v1 * u[-1])
    family = [e] + u + [v1]
    labels = ["e"] + [f"u{i + 1}" for i in range(n - 2)] + ["v1"]
    try:
        out = table.change_basis([x.coords for x in family], labels,
                                 name="alg(a)")
    except AlgebraError as exc:
        raise InternalCheckError(f"canonical family: {exc}") from None

    # the canonical form, checked on the computed products
    e, *u, v1 = out.basis()
    if e * v1:
        raise InternalCheckError("e v1 is nonzero in the canonical family")
    for i, ui in enumerate(u):
        if e * ui != ui.scale(HALF):
            raise InternalCheckError("e does not act by 1/2 on the U part")
        for uj in u[i:]:
            if ui * uj:
                raise InternalCheckError("U part fails to square to zero")
        if i + 1 < len(u) and v1 * ui != u[i + 1]:
            raise InternalCheckError("v1 u_i is not u_(i+1)")
    top = v1 * u[-1]
    if top.coords[0] or top.coords[-1]:
        raise InternalCheckError("v1 u_(n-2) left the span of the U part")
    if n == 3:
        alpha = top.coords[1] + Fraction(3, 2)
        if v1 * v1 != u[0].scale(4 * (1 - alpha)):
            raise InternalCheckError("three-dimensional canonical form mismatch")
    elif v1 * v1 != u[0].scale(-2) + u[1].scale(-4):
        raise InternalCheckError("v1^2 is not -2u1 - 4u2")
    return out, family
