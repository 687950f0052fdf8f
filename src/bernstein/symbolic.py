"""Generic elements and identity checking.

A generic element is a ``core.Element`` over Q[t...], the one element
class: it carries one fresh indeterminate per coordinate (or per
vector of a restricting subspace basis).  An identity holds on the
algebra iff every coordinate of the symbolically expanded difference
is the zero polynomial; that is an exact statement over the rationals,
not a sampling argument.  On failure a concrete counterexample is
produced by substituting small integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .core import AlgebraError, Element, InternalCheckError, principal_powers
from .multipoly import MultiPoly

import random

ZERO = Fraction(0)


def generic_element(table, prefix="t", restrict_to=None):
    """Fully generic element of the algebra, or of the span of
    ``restrict_to``, with fresh variables prefix1, prefix2, ..."""
    if restrict_to is None:
        return Element(table, tuple(MultiPoly.var(f"{prefix}{i + 1}")
                                    for i in range(table.dim)))
    basis = list(restrict_to)
    coords = [MultiPoly.zero()] * table.dim
    for i, b in enumerate(basis):
        t = MultiPoly.var(f"{prefix}{i + 1}")
        for k, c in enumerate(b.coords):
            if c:
                coords[k] = coords[k] + c * t
    return Element(table, tuple(coords))


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
        for magnitude in range(cap + 1):
            candidates = [magnitude] if magnitude == 0 else [magnitude, -magnitude]
            done = False
            for cand in candidates:
                attempt = current.substitute(name, cand)
                if attempt:
                    assignment[name] = Fraction(cand)
                    current = attempt
                    done = True
                    break
            if done:
                break
        else:
            raise InternalCheckError("witness search failed on a nonzero polynomial")
    if not current:
        raise InternalCheckError("witness search lost the polynomial")
    return assignment


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
    nonzero = next(c for c in delta.coords if c)
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


def symbolic_rank(rows):
    """Exact rank of a matrix of polynomials, by fraction-free
    elimination (cross-multiplication only, no division)."""
    rows = [[c if isinstance(c, MultiPoly) else MultiPoly.const(c) for c in row]
            for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [pivot * a - f * b
                           for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _point_degree(table, rng):
    """Dimension of the span of the principal powers of one seeded
    integer point: a lower bound on the generic degree."""
    x = table.element([Fraction(rng.randint(-50, 50))
                       for _ in range(table.dim)])
    space = linalg.Subspace()
    power = x
    while space.add(power.coords) and space.rank < table.dim:
        power = power * x
    return space.rank


def generic_degree(table, seed=0):
    """Largest dimension of the subalgebra generated by one element.

    The principal powers of one seeded rational point span a lower
    bound, and the dimension is an upper bound, so when the point
    reaches the dimension that is the answer.  Otherwise the degree is
    the exact symbolic rank of the matrix of principal powers of a
    fully generic element, confirmed by evaluating at pseudorandom
    rational points.
    """
    if _point_degree(table, random.Random(seed)) == table.dim:
        return table.dim
    x = generic_element(table, "t")
    powers = principal_powers(x, table.dim + 1)
    rows = [list(p.coords) for p in powers]
    r_sym = symbolic_rank(rows)
    names = set()
    for row in rows:
        for c in row:
            names.update(c.variables())
    names = sorted(names)
    rng = random.Random(seed)
    for _ in range(5):
        assignment = {n: Fraction(rng.randint(-50, 50)) for n in names}
        concrete = [[c.evaluate(assignment) for c in row] for row in rows]
        r_eval = linalg.rank(concrete)
        if r_eval > r_sym:
            raise InternalCheckError("evaluation rank exceeds symbolic rank")
        if r_eval == r_sym:
            return r_sym
    raise InternalCheckError(
        "could not confirm symbolic rank by rational evaluation")
