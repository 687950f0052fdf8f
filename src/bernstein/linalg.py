"""Exact linear algebra over the rationals on one echelon engine.

``Subspace`` keeps the span of a family of vectors in reduced row
echelon form over sparse rows.  A row's pivot is its first nonzero
column and holds 1, and no other row has an entry there, so ``rows()``
is the unique reduced echelon form and results are reproducible bit
for bit.  Each row is stored fraction-free: integer numerators over
one positive row denominator, reduced by their gcd, in one augmented
dict that holds the row's entries and the coefficients that build it
from the vectors given.  A vector is a dense list or tuple, or a
``core.Element``, read as it is stored: its int numerators ``num`` over
``den`` are the form the rows use, so an element is reduced with no
conversion, and only dense rational lists are cleared of denominators
(``integer_entries``).  ``add``, ``relation``, ``contains`` and
``coords`` reduce one vector against the stored rows in one integer pass
per row and never eliminate the family again: a caller with many
questions about one family builds one ``Subspace`` and reuses it.
Results come back as Fractions.  Targets of ``contains`` and ``coords``
may have entries in any commutative ring with a Fraction action
(``MultiPoly``, also an element with ``den`` None); they reduce against
the same integer rows, divided by the row denominator.  ``contains``
reduces span-only: it skips the coefficient keys, so a row that holds
only coefficients, as for a family of basis vectors, costs it no ring
operation.  ``closure`` grows one ``Subspace`` until it is closed under
a product, and ``kernel`` reads a nullspace basis off one ``Subspace``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def integer_entries(v):
    """(entries, den) for a vector of Fractions or ints: the nonzero
    entries as (index, numerator over den) pairs, den the least common
    denominator.  Entries without a ``denominator`` raise
    AttributeError."""
    entries = [(i, c) for i, c in enumerate(v) if c]
    den = lcm(*[c.denominator for _, c in entries])
    if den == 1:
        return [(i, c.numerator) for i, c in entries], 1
    return [(i, c.numerator * (den // c.denominator))
            for i, c in entries], den


class Subspace:
    """Span of a family of rational vectors in reduced row echelon form.

    ``_rows[p]`` is ``(row, den)`` for the row with pivot column p: the
    integer dict ``row`` over the positive ``den`` holds the row's
    entries off the pivot at their columns c < width, and at key
    width + i the coefficient of the i-th vector given in the
    combination that builds the row; ``gcd(den, *row.values()) == 1``.
    """

    def __init__(self, vectors=()):
        self._rows = {}
        self.size = 0          # number of vectors given so far
        self.width = None      # length of the vectors
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self._rows)

    def _residual(self, v, new=None, span=False):
        """(acc, den): the residual r = v - sum of v_p row_p over the
        pivots p, augmented.  Keys below len(v) hold r, keys len(v) + i
        its coefficient of the i-th vector given, counting v itself as
        vector ``new`` when that is given; with ``span`` the coefficient
        keys are skipped and acc holds r alone.  Rational v gives int
        values over den; polynomial v gives ring values and den None."""
        rows = self._rows
        width = len(v)
        if isinstance(v, (list, tuple)):
            try:
                entries, den = integer_entries(v)
            except AttributeError:      # polynomial entries
                return self._ring_residual(enumerate(v), width, span), None
        else:
            entries, den = v.num.items(), v.den
            if den is None:
                return self._ring_residual(entries, width, span), None
        acc = {}
        factors = []
        for c, n in entries:
            hit = rows.get(c)
            if hit is None:
                acc[c] = n
            else:
                factors.append((hit, n))
        if new is not None:
            acc[width + new] = den
        if factors:
            scale = lcm(*[d for (_, d), _ in factors])
            if scale != 1:
                acc = {k: a * scale for k, a in acc.items()}
                den *= scale
            for (row, d), n in factors:
                f = n * (scale // d)
                for k, x in _tail(row, width) if span else row.items():
                    a = acc.get(k, 0) - f * x
                    if a:
                        acc[k] = a
                    else:
                        del acc[k]
        return acc, den

    def _ring_residual(self, entries, width, span):
        """The augmented residual of a vector with ring entries, given as
        (index, value) pairs: each factor v_p is divided by its row
        denominator once, and with ``span`` only when the row has an
        entry below ``width``."""
        rows = self._rows
        entries = [(c, x) for c, x in entries if x]
        acc = {c: x for c, x in entries if c not in rows}
        for p, x in entries:
            if p not in rows:
                continue
            row, d = rows[p]
            items = _tail(row, width) if span else row.items()
            if not items:
                continue
            f = x / d
            for k, n in items:
                prev = acc.get(k)
                val = -(f * n) if prev is None else prev - f * n
                if val:
                    acc[k] = val
                else:
                    del acc[k]
        return acc

    def _append(self, v):
        """Append v to the family: None when it enlarged the span, else
        its augmented residual (acc, den)."""
        width = self.width = len(v)
        row, den = self._residual(v, new=self.size)
        self.size += 1
        pivot = min(row)    # row holds v's own coefficient, at width + new
        if pivot >= width:
            return row, den
        den = row.pop(pivot)
        if den < 0:
            den = -den
            row = {k: -a for k, a in row.items()}
        g = gcd(den, *row.values())
        if g != 1:
            den //= g
            row = {k: a // g for k, a in row.items()}
        for p, (other, d) in list(self._rows.items()):
            f = other.pop(pivot, None)
            if f is None:
                continue
            g = gcd(den, f)
            a, f = den // g, f // g
            if a != 1:
                other = {k: x * a for k, x in other.items()}
                d *= a
            for k, x in row.items():
                y = other.get(k, 0) - f * x
                if y:
                    other[k] = y
                else:
                    del other[k]
            g = gcd(d, *other.values())
            if g != 1:
                d //= g
                other = {k: x // g for k, x in other.items()}
            self._rows[p] = (other, d)
        self._rows[pivot] = (row, den)
        return None

    def add(self, v):
        """Append v to the family; True when it enlarged the span."""
        return self._append(v) is None

    def relation(self, v):
        """Append v to the family.  None when it enlarged the span; else
        the coordinates of v in the vectors given before it, from the
        one reduction that found it dependent."""
        found = self._append(v)
        if found is None:
            return None
        acc, den = found
        start = len(v)
        return [Fraction(-acc.get(start + i, 0), den)
                for i in range(self.size - 1)]

    def contains(self, v):
        """Whether v lies in the span: a span-only reduction."""
        acc, _ = self._residual(v, span=True)
        return not acc

    def _coefficients(self, t):
        """(coefficients, den), the nonzero ``coords`` of t as {i: int}
        over den > 0, or {i: value} and None for ring entries; None when
        t is outside the span."""
        acc, den = self._residual(t)
        width = len(t)
        if acc and min(acc) < width:
            return None
        return {k - width: -a for k, a in acc.items()}, den

    def coords(self, t, zero=ZERO):
        """Coordinates of t in the vectors as given, or None when t is
        outside the span.  A vector that depends on earlier ones gets
        coordinate ``zero``; pass ``MultiPoly.zero()`` for polynomial
        targets."""
        found = self._coefficients(t)
        if found is None:
            return None
        coefficients, den = found
        out = [zero] * self.size
        for i, a in coefficients.items():
            out[i] = a if den is None else Fraction(a, den)
        return out

    def rows(self):
        """The nonzero rows of the reduced echelon form, by pivot."""
        out = []
        for p in sorted(self._rows):
            tail, den = self._rows[p]
            row = [ZERO] * self.width
            row[p] = ONE
            for c, x in tail.items():
                if c < self.width:
                    row[c] = Fraction(x, den)
            out.append(row)
        return out


def _tail(row, width):
    """The pairs of ``row`` below ``width``: no coefficient keys."""
    return [(k, x) for k, x in row.items() if k < width]


def closure(vectors, multiply):
    """The Subspace spanned by ``vectors`` and closed under ``multiply``.

    ``multiply(u, v)`` returns an iterable of product vectors; it is
    called once for each pair of spanning vectors, u found no later
    than v, so a noncommutative product returns both u v and v u.  The
    loop stops at full rank.  Only the span of the result is meaningful:
    its ``size`` counts every product tried."""
    space = Subspace()
    found = [v for v in vectors if space.add(v)]
    done = 0
    while done < len(found) and space.rank < space.width:
        v = found[done]
        for u in found[:done + 1]:
            found.extend(p for p in multiply(u, v) if space.add(p))
        done += 1
    return space


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def relations(vectors):
    """A basis of the linear relations among ``vectors``: for each v_j
    that depends on the earlier ones, as v_j = sum of r_p v_p over p < j,
    the coefficient list with 1 at j, -r_p at each p and 0 elsewhere.
    ``relation`` gives r_p = 0 at each v_p that depends on those before
    it, so this is the kernel basis the reduced echelon form gives."""
    space = Subspace()
    out = []
    for j, v in enumerate(vectors):
        r = space.relation(v)
        if r is not None:
            out.append([-c for c in r] + [ONE]
                       + [ZERO] * (len(vectors) - j - 1))
    return out


def kernel(m, ncols=None):
    """Basis of the right nullspace of m, the ``relations`` among its
    columns; ``ncols`` is needed only when m has no rows."""
    if not m:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs ncols")
        return identity_matrix(ncols)
    return relations(list(zip(*m)))
