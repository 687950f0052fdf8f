"""Generic elements and identity checking.

A generic element is a ``core.Element`` over Q[t...], the one element
class: it carries one fresh indeterminate per coordinate (or per
vector of a restricting subspace basis).  An identity holds on the
algebra iff every coordinate of the symbolically expanded difference
is the zero polynomial; that is an exact statement over the rationals,
not a sampling argument.  On failure a concrete counterexample is
produced by substituting small integers.  ``structure.is_bernstein``
looks for it at one basis vector first (``_refute_on_line``), with the
symbolic route as the fallback, as in ``_vanishing``.  The one fixed
integer point, ``_point``, gives the point-first routes their concrete
arguments and ``elements.generic_degree`` its lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm

from .core import (AlgebraError, Element, InternalCheckError, _combination,
                   _new, _triples)
from .multipoly import MultiPoly, _merge_keys

ZERO = Fraction(0)


def generic_element(table, prefix="t", restrict_to=None):
    """Fully generic element of the algebra, or of the span of
    ``restrict_to``, with fresh variables prefix1, prefix2, ...; the sum
    of b_i t_i is built one coordinate at a time, each MultiPoly once."""
    if restrict_to is None:
        return _new(table, {i: MultiPoly.var(f"{prefix}{i + 1}")
                            for i in range(table.dim)}, None)
    x, cols = _new(table, {}, None), {}
    for i, b in enumerate(restrict_to):
        x._check_same(b)
        var = ((f"{prefix}{i + 1}", 1),)
        for k, terms, d in _triples(b):
            cols.setdefault(k, []).extend(
                (_merge_keys(m, var), c, d) for m, c in terms.items())
    for k, col in cols.items():
        den, acc = lcm(*(d for _, _, d in col)), {}
        for key, c, d in col:
            acc[key] = acc.get(key, 0) + c * (den // d)
        if poly := MultiPoly(acc, den):
            x.num[k] = poly
    return x


def _point(table, vectors):
    """The sum of c_i b_i over ``vectors`` with c_i = (-1)^i (i+1)^2, no
    two alike even up to sign.  A periodic choice is a weaker point: with
    c cycling 1, -2, 3, -1, 2, -3 the powers span 4 dimensions, not 5, on
    native free_single(5) with u1 u2 = u3, and
    ``elements.generic_degree`` would need the symbolic rank there."""
    return _combination(table, [(-1) ** i * (i + 1) ** 2
                                for i in range(len(vectors))], vectors)


def _vanishing(chain, generic, point=None):
    """Whether each value of ``chain(*generic)`` vanishes identically.
    A value that is nonzero at the concrete ``point`` arguments, if any,
    is nonzero; from the first one that vanishes there, the chain reruns
    on the generic arguments from the start, testing each value exactly."""
    done = 0
    if point:
        for done, value in enumerate(chain(*point)):
            if not value:
                break
            yield False
        else:
            return
    yield from (not value for value in islice(chain(*generic), done, None))


@dataclass
class IdentityCheck:
    """Outcome of a symbolic identity check; falsy when the identity
    fails, in which case a concrete witness is attached."""
    holds: bool
    witness_assignment: dict | None = None
    witness_elements: list | None = None
    witness_value: Element | None = None

    def __bool__(self):
        return self.holds


def _witness_assignment(poly, all_names):
    """Deterministic integer point where ``poly`` does not vanish.

    Variables are fixed one at a time, trying 0, 1, -1, 2, -2, ... and
    keeping the partially substituted polynomial nonzero.
    """
    assignment = {}
    current = poly
    for name in sorted(all_names):
        if name not in current.variables():
            assignment[name] = ZERO
            continue
        cap = current.total_degree() + 2
        for cand in [0, *(c for m in range(1, cap + 1) for c in (m, -m))]:
            attempt = current.substitute(name, cand)
            if attempt:
                assignment[name] = Fraction(cand)
                current = attempt
                break
        else:
            raise InternalCheckError("witness search failed on a nonzero polynomial")
    if not current:
        raise InternalCheckError("witness search lost the polynomial")
    return assignment


def _refute_on_line(table, expr):
    """``check_identity(table, expr)``'s refutation of an identity in one
    element, homogeneous of positive degree like the Bernstein one, found
    at b with no expansion, or None; b is the basis vector of the last of
    x1, x2, ... in sorted name order.  On the line t*b the value is t^d
    times the value at b, so it is 0 at t = 0.  When coordinate 0 of the
    value at b is nonzero, the polynomial the witness search reads is
    nonzero on the line, so ``_witness_assignment`` fixes the other
    variables at 0, rejects t = 0 and picks t = 1."""
    names = sorted(f"x{i + 1}" for i in range(table.dim))
    b = table.basis_element(int(names[-1][1:]) - 1)
    value = expr(b)
    if 0 not in value.num:
        return None
    return IdentityCheck(False, {**dict.fromkeys(names, ZERO),
                                 names[-1]: Fraction(1)}, [b], value)


def check_identity(table, expr, arity=1, restrict=None,
                   prefixes=("x", "y", "z", "w")):
    """Check that ``expr`` (a function of ``arity`` symbolic elements)
    vanishes identically on the algebra.

    ``restrict`` may give, per argument, a basis whose span the generic
    argument ranges over (None for the whole algebra).
    """
    if arity > len(prefixes):
        raise AlgebraError("not enough prefixes for the requested arity")
    if restrict is None:
        restrict = [None] * arity
    gens = [generic_element(table, prefixes[i], restrict_to=restrict[i])
            for i in range(arity)]
    delta = expr(*gens)
    if not isinstance(delta, Element) or not delta.is_symbolic():
        raise AlgebraError("identity expression must return a symbolic element")
    if delta.is_zero():
        return IdentityCheck(True)
    nonzero = delta.num[min(delta.num)]
    names = set()
    for g in gens:
        names.update(g.variables())
    names.update(delta.variables())
    assignment = _witness_assignment(nonzero, names)
    witnesses = [g.evaluate(assignment) for g in gens]
    value = delta.evaluate(assignment)
    if value.is_zero():
        raise InternalCheckError("witness evaluation vanished unexpectedly")
    return IdentityCheck(False, assignment, witnesses, value)


def _exact(a, b):
    """a / b as a MultiPoly, for a rational or polynomial b dividing a."""
    q = (a if isinstance(a, MultiPoly) else MultiPoly.const(a)).exact_div(b)
    if q is None:
        raise InternalCheckError("Bareiss division left a remainder")
    return q


def symbolic_rank(rows):
    """Exact rank of a matrix of polynomials and rationals, in any mix,
    by Bareiss elimination (Math. Comp. 22, 1968): after the pivot p_k
    every later row becomes (p_k row_i - f row_k) / p_(k-1), f its entry
    in the pivot column, and a column with no nonzero entry is skipped.
    The entries are then minors of the matrix, so each division is
    exact and they grow polynomially, not exponentially."""
    rows = [list(row) for row in rows]
    rank, prev = 0, 1
    while rows and rows[0]:
        pr = next((i for i, row in enumerate(rows) if row[0]), None)
        if pr is None:
            rows = [row[1:] for row in rows]
            continue
        pivot, *top = rows.pop(pr)
        rows = [[_exact(pivot * a - row[0] * b, prev)
                 for a, b in zip(row[1:], top)] for row in rows]
        rank, prev = rank + 1, pivot
    return rank
