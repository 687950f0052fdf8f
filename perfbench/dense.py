"""Dense twins: a catalog algebra rebuilt on a seeded random unimodular
integer basis.

A twin is isomorphic to its native table, so every basis-invariant
verdict must agree, but almost every structure constant of the twin is
nonzero.  That is what makes the symbolic layers slow.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bernstein.core import AlgebraTable


ENTRIES = (-4, -3, -2, -1, 1, 2, 3, 4)
MAX_DRAWS = 10000


def unimodular_matrix(rng, n):
    """Integer n x n matrix of determinant 1 that, like its inverse, has
    no zero entry.

    It is the product of a unit lower and a unit upper triangular matrix
    with off-diagonal entries drawn from ENTRIES; draws with a zero entry
    are rejected.  A zero entry lets a structure constant or a
    coordinate of a generic element vanish by cancellation, which makes
    the cost of a twin depend on the draw far more than on its size.
    """
    for _ in range(MAX_DRAWS):
        lower = [[1 if i == j else (rng.choice(ENTRIES) if j < i else 0)
                  for j in range(n)] for i in range(n)]
        upper = [[1 if i == j else (rng.choice(ENTRIES) if j > i else 0)
                  for j in range(n)] for i in range(n)]
        m = [[sum(lower[i][t] * upper[t][j] for t in range(n))
              for j in range(n)] for i in range(n)]
        if all(all(row) for row in m) and \
                all(all(row) for row in integer_inverse(m)):
            return m
    raise ValueError(f"no dense unimodular {n} x {n} matrix drawn")


def integer_inverse(m):
    """Exact inverse of an integer matrix of determinant +-1, as ints."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    out = [[x for x in row[n:]] for row in aug]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def rebase(table, m, labels, name):
    """The table rebuilt on the basis whose k-th vector has native
    coordinates given by column k of m (an invertible integer matrix).

    The AlgebraTable constructor re-checks that the weight is
    multiplicative on the new basis.
    """
    n = table.dim
    inv = integer_inverse(m)
    cols = [[m[i][k] for i in range(n)] for k in range(n)]
    products = {}
    for a in range(n):
        for b in range(a, n):
            native = [0] * n
            for i, x in enumerate(cols[a]):
                if not x:
                    continue
                for j, y in enumerate(cols[b]):
                    if not y:
                        continue
                    for k, c in table.product_vector(i, j).items():
                        native[k] += x * y * c
            vec = {}
            for r in range(n):
                acc = sum((inv[r][k] * native[k] for k in range(n)
                           if native[k]), Fraction(0))
                if acc:
                    vec[r] = acc
            if vec:
                products[(a, b)] = vec
    weight = None
    if table.weight is not None:
        weight = [sum(table.weight[i] * cols[k][i] for i in range(n))
                  for k in range(n)]
    return AlgebraTable(labels, products, weight=weight, name=name)


def square_is_generic(table):
    """Whether every nonzero coordinate of the square of a generic
    weight-kernel element has all of its possible monomials.

    In kernel coordinates n the k-th coordinate of x^2 is the quadratic
    form n^T (B^T C_k B) n, with B the kernel basis and C_k the k-th
    structure constants.  A draw of the basis change that cancels one of
    its coefficients gives sparser polynomials all the way up, and a
    much cheaper job, than a typical draw.
    """
    basis = [b.coords for b in table.barideal_basis()]
    m = len(basis)
    for k in range(table.dim):
        coeffs = []
        for a in range(m):
            for b in range(a, m):
                acc = Fraction(0)
                for i, x in enumerate(basis[a]):
                    if not x:
                        continue
                    for j, y in enumerate(basis[b]):
                        if y:
                            acc += x * y * table.product_vector(i, j).get(
                                k, 0)
                coeffs.append(acc if a == b else 2 * acc)
        if any(coeffs) and not all(coeffs):
            return False
    return True


class DenseTwin:
    """A native table, its basis change and the rebuilt dense table.

    Basis changes are drawn until the twin's generic square over the
    weight kernel is as dense as it can be (see ``square_is_generic``),
    so that the cost of a twin depends on the algebra, not on the draw.
    """

    def __init__(self, native, seed):
        rng = random.Random(f"twin:{seed}:{native.name}")
        self.native = native
        labels = [f"d{k + 1}" for k in range(native.dim)]
        for _ in range(MAX_DRAWS):
            self.matrix = unimodular_matrix(rng, native.dim)
            self.table = rebase(native, self.matrix, labels,
                                f"dense({native.name})")
            if square_is_generic(self.table):
                break
        else:
            raise ValueError(f"no generic basis change for {native.name}")
        self.inverse = integer_inverse(self.matrix)

    def coords_in_twin(self, native_coords):
        """Twin coordinates of a vector given in native coordinates."""
        return [sum((Fraction(self.inverse[r][k]) * c
                     for k, c in enumerate(native_coords) if c),
                    Fraction(0))
                for r in range(len(native_coords))]

    def spec(self, native_coords):
        """Element spec in the twin's labels for a native vector."""
        return element_spec(self.table.labels,
                            self.coords_in_twin(native_coords))

    def map_back(self):
        """The twin rebuilt on the inverse basis change; equal to the
        native table up to names."""
        return rebase(self.table, self.inverse, self.native.labels,
                      self.native.name)


def element_spec(labels, coords):
    """Text accepted by ``parse_element_spec`` for the given coordinates."""
    parts = []
    for lab, c in zip(labels, coords):
        c = Fraction(c)
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {abs(c)} {lab}")
    if not parts:
        raise ValueError("element spec of the zero vector")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text
