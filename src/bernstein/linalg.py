"""Exact linear algebra over the rationals on one echelon engine.

``Subspace`` keeps the span of a family of vectors in reduced row
echelon form over sparse rows.  A row's pivot is its first nonzero
column and holds 1, and no other row has an entry there, so ``rows()``
is the unique reduced echelon form and results are reproducible bit
for bit.  Each row records how it is built from the vectors given, so
``contains``, ``coords`` and ``add`` reduce one vector against the
stored rows and never eliminate the family again: a caller with many
questions about one family builds one ``Subspace`` and reuses it.
Targets of ``contains`` and ``coords`` may have entries in any
commutative ring with a Fraction action (``MultiPoly``); they are only
divided by pivots, which are Fractions.  The functions below wrap one
``Subspace`` per call.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _axpy(dst, f, src):
    """dst -= f * src on sparse dicts, dropping entries that cancel."""
    for k, x in src.items():
        val = dst.get(k)
        val = -(f * x) if val is None else val - f * x
        if val:
            dst[k] = val
        else:
            del dst[k]


class Subspace:
    """Span of a family of Fraction vectors in reduced row echelon form:
    ``_tails[p]`` is the row with pivot column p less its pivot entry 1,
    ``_combos[p]`` the coefficients that build it from the vectors given."""

    def __init__(self, vectors=()):
        self._tails = {}
        self._combos = {}
        self.size = 0          # number of vectors given so far
        self.width = None      # length of the vectors
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self._tails)

    def _residual(self, v):
        """(residual, pivot factors) of v against the rows, sparse."""
        t = {i: c for i, c in enumerate(v) if c}
        factors = []
        for p in [c for c in t if c in self._tails]:
            f = t.pop(p)
            _axpy(t, f, self._tails[p])
            factors.append((p, f))
        return t, factors

    def add(self, v):
        """Append v to the family; True when it enlarged the span."""
        self.size += 1
        self.width = len(v)
        row, factors = self._residual(v)
        if not row:
            return False
        combo = {self.size - 1: ONE}
        for p, f in factors:
            _axpy(combo, f, self._combos[p])
        pivot = min(row)
        inv = ONE / row.pop(pivot)
        row = {c: x * inv for c, x in row.items()}
        combo = {i: x * inv for i, x in combo.items()}
        for p, tail in self._tails.items():
            f = tail.pop(pivot, None)
            if f is not None:
                _axpy(tail, f, row)
                _axpy(self._combos[p], f, combo)
        self._tails[pivot] = row
        self._combos[pivot] = combo
        return True

    def contains(self, v):
        return not self._residual(v)[0]

    def coords(self, t, zero=ZERO):
        """Coordinates of t in the vectors as given, or None when t is
        outside the span.  A vector that depends on earlier ones gets
        coordinate ``zero``; pass ``MultiPoly.zero()`` for polynomial
        targets."""
        residual, factors = self._residual(t)
        if residual:
            return None
        out = [None] * self.size
        for p, f in factors:
            for i, x in self._combos[p].items():
                out[i] = f * x if out[i] is None else out[i] + f * x
        return [zero if c is None else c for c in out]

    def rows(self):
        """The nonzero rows of the reduced echelon form, by pivot."""
        out = []
        for p in sorted(self._tails):
            row = [ZERO] * self.width
            row[p] = ONE
            for c, x in self._tails[p].items():
                row[c] = x
            out.append(row)
        return out


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """a @ b, skipping zero entries; exact for Fraction or MultiPoly."""
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for arow in a:
        acc = [None] * len(b[0])
        for x, nonzero in zip(arow, b_nonzero):
            if not x:
                continue
            for j, y in nonzero:
                acc[j] = x * y if acc[j] is None else acc[j] + x * y
        out.append([ZERO if c is None else c for c in acc])
    return out


def mat_vec(a, v):
    return [row[0] for row in mat_mul(a, [[y] for y in v])]


def transpose(m):
    return [list(col) for col in zip(*m)]


def rref(m):
    """Reduced row echelon form, zero rows last: (rows, pivot columns)."""
    space = Subspace(m)
    rows = space.rows()
    rows += [[ZERO] * len(m[0]) for _ in range(len(m) - len(rows))]
    return rows, sorted(space._tails)


def rank(m):
    return Subspace(m).rank


def kernel(m, ncols=None):
    """Basis of the right nullspace of m, one vector per free column;
    ``ncols`` is needed only when m has no rows."""
    if not m:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs ncols")
        return identity_matrix(ncols)
    tails = Subspace(m)._tails
    basis = []
    for f, v in enumerate(identity_matrix(len(m[0]))):
        if f not in tails:
            for p, tail in tails.items():
                v[p] = -tail.get(f, ZERO)
            basis.append(v)
    return basis


def solve(m, b, zero=ZERO):
    """One solution of m @ x = b, or None; free variables are set to
    ``zero``, which also fixes the ring of the solution."""
    return Subspace(transpose(m)).coords(b, zero=zero)


def invert(m):
    """Rows of m^-1: the coordinates of the unit vectors in the rows of m."""
    space = Subspace(m)
    if space.rank != len(m):
        raise ValueError("matrix is singular")
    return [space.coords(e) for e in identity_matrix(len(m))]


def independent(vectors):
    vectors = list(vectors)
    return Subspace(vectors).rank == len(vectors)


def express(basis_vectors, target, zero=ZERO):
    """Coordinates of target in the given spanning family, or None; with
    a dependent family, vectors that depend on earlier ones get 0."""
    return Subspace(basis_vectors).coords(target, zero=zero)


def span_contains(vectors, v):
    return Subspace(vectors).contains(v)


def span_equal(a, b):
    return Subspace(a).rows() == Subspace(b).rows()


def extend_with_standard(vectors, dim):
    """Indices of standard basis vectors that complete the family to a
    basis of the ambient space, chosen greedily in index order."""
    space = Subspace(vectors)
    added = [i for i, e in enumerate(identity_matrix(dim)) if space.add(e)]
    if space.rank != dim:
        raise ValueError("family does not extend to a basis")
    return added
