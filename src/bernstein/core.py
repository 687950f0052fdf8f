"""Structure-constant algebras over the rationals.

An :class:`AlgebraTable` presents a finite-dimensional commutative
algebra by its basis labels and the products of unordered basis pairs.
An optional weight row makes it a baric algebra; multiplicativity of
the weight is checked on construction, where scalars are coerced.
``AlgebraTable.change_basis`` is the one routine that rebuilds a table
on a new basis, or on a basis of a quotient.  Elements,
left-multiplication operators and univariate polynomials (used with
zero constant term for evaluation at elements) live here as well.

``Element`` is the one element class, over Q or over Q[t...]: its
coordinates are all Fractions or all MultiPolys, and a product with a
symbolic side lifts the concrete side once.  The product works on
integers: the structure constants are cleared of denominators once per
table (``AlgebraTable._integer_rows``), rational factors once per
product, and ``bilinear_product`` accumulates in Python ints before it
builds one Fraction per nonzero output coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .multipoly import MultiPoly, _bilinear

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class AlgebraError(ValueError):
    """Invalid input or violated precondition."""


class InternalCheckError(RuntimeError):
    """A cross-check that should be impossible to fail has failed."""


def as_scalar(value):
    """Coerce int, str ("p/q" or a plain decimal) or Fraction to Fraction;
    reject floats and exponent notation ("1e1000000" would build a
    million-digit integer)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise AlgebraError(f"bad scalar {value!r}: exponent notation "
                               "is not accepted")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise AlgebraError(f"bad scalar {value!r}: {exc}") from None
    raise AlgebraError(f"bad scalar {value!r} of type {type(value).__name__}")


def parse_scalar(text):
    if not isinstance(text, str):
        raise AlgebraError(f"scalar must be a string, got {type(text).__name__}")
    return as_scalar(text)


def format_scalar(q):
    return str(Fraction(q))


_EMPTY = {}


class AlgebraTable:
    """Commutative algebra given by structure constants on a labelled basis."""

    __slots__ = ("labels", "weight", "name", "notes", "_index", "_products",
                 "_cache")

    def __init__(self, labels, products, weight=None, name="", notes=()):
        labels = tuple(str(l) for l in labels)
        if len(set(labels)) != len(labels):
            raise AlgebraError("basis labels must be distinct")
        if not labels:
            raise AlgebraError("algebra needs at least one basis element")
        for lab in labels:
            if not lab or not (lab[0].isalpha() or lab[0] == "_") \
                    or not all(ch.isalnum() or ch == "_" for ch in lab):
                raise AlgebraError(f"label {lab!r} is not an identifier")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        dim = len(labels)

        table = {}
        for key, vec in products.items():
            i, j = key
            if not (0 <= i < dim and 0 <= j < dim):
                raise AlgebraError(f"product pair {key} out of range")
            if i > j:
                i, j = j, i
            clean = {}
            for k, c in vec.items():
                if not 0 <= k < dim:
                    raise AlgebraError(f"product target {k} out of range")
                c = as_scalar(c)
                if c:
                    clean[k] = c
            if (i, j) in table and table[(i, j)] != clean:
                raise AlgebraError(
                    f"conflicting products for pair ({labels[i]}, {labels[j]})")
            if clean:
                table[(i, j)] = clean
        self._products = table
        self._cache = {}

        if weight is not None:
            weight = tuple(as_scalar(w) for w in weight)
            if len(weight) != dim:
                raise AlgebraError("weight row has wrong length")
            if not any(weight):
                raise AlgebraError("weight must be a nonzero functional")
            # In integers W = d_w w and S = d s: a stored pair needs
            # d_w sum_k S_ijk W_k = d W_i W_j, any other pair W_i W_j = 0.
            rows, den = self._integer_rows()
            dw = lcm(*(w.denominator for w in weight))
            ws = [int(w * dw) for w in weight]
            bad = [(i, j) for i, j in table
                   if dw * sum(s * ws[k] for k, s in rows[i][j])
                   != den * ws[i] * ws[j]]
            support = [i for i, w in enumerate(ws) if w]
            for pair in ((i, j) for a, i in enumerate(support)
                         for j in support[a:] if (i, j) not in table):
                bad.append(pair)
                break
            if bad:
                i, j = min(bad)
                raise AlgebraError("weight is not multiplicative on pair "
                                   f"({labels[i]}, {labels[j]})")
        self.weight = weight
        self.name = str(name)
        self.notes = tuple(notes)

    @classmethod
    def build(cls, labels, products, weight=None, name="", notes=()):
        """Label-keyed constructor: products maps (left, right) label pairs
        to {label: scalar} dictionaries."""
        labels = tuple(str(l) for l in labels)
        index = {lab: i for i, lab in enumerate(labels)}

        def look(lab):
            if lab not in index:
                raise AlgebraError(f"unknown basis label {lab!r}")
            return index[lab]

        table = {}
        for (a, b), vec in products.items():
            table[(look(a), look(b))] = {look(k): c for k, c in vec.items()}
        wrow = None
        if weight is not None:
            wrow = [ZERO] * len(labels)
            for lab, c in weight.items():
                wrow[look(lab)] = c
        return cls(labels, table, weight=wrow, name=name, notes=notes)

    @property
    def dim(self):
        return len(self.labels)

    @property
    def has_weight(self):
        return self.weight is not None

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise AlgebraError(f"unknown basis label {label!r}") from None

    def product_vector(self, i, j):
        """Sparse product of basis elements i and j (read-only dict)."""
        if i > j:
            i, j = j, i
        return self._products.get((i, j), _EMPTY)

    def product_items(self):
        return sorted(self._products.items())

    def element(self, coords):
        coords = tuple(as_scalar(c) for c in coords)
        if len(coords) != self.dim:
            raise AlgebraError("coordinate vector has wrong length")
        return Element(self, coords)

    def element_from(self, parts):
        coords = [ZERO] * self.dim
        for lab, c in parts.items():
            coords[self.index(lab)] = as_scalar(c)
        return Element(self, tuple(coords))

    def basis_element(self, i):
        coords = [ZERO] * self.dim
        coords[i] = ONE
        return Element(self, tuple(coords))

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self):
        return Element(self, (ZERO,) * self.dim)

    def weight_of(self, coords):
        if self.weight is None:
            raise AlgebraError("algebra has no weight")
        acc = ZERO
        for c, w in zip(coords, self.weight):
            if c and w:
                acc += c * w
        return acc

    def barideal_basis(self):
        """Basis of the weight kernel N, deterministic."""
        if self.weight is None:
            raise AlgebraError("algebra has no weight")
        vecs = linalg.kernel([list(self.weight)])
        return [Element(self, tuple(v)) for v in vecs]

    def change_basis(self, vectors, labels, modulo=(), name="", notes=()):
        """The table on the basis ``vectors`` (coordinate lists in this
        one) with the given labels; with ``modulo``, a basis of an ideal,
        the quotient table on the images of ``vectors``.  Raises
        AlgebraError when ``modulo + vectors`` is dependent or a product
        of two vectors leaves its span.  The weight carries over as
        ``weight_of(v)`` per vector, dropped when all of those vanish."""
        vectors = list(vectors)
        skip = len(modulo)
        space = linalg.Subspace(list(modulo) + vectors)
        if space.rank != space.size:
            raise AlgebraError("basis vectors are linearly dependent")
        products = {}
        for a, x in enumerate(vectors):
            for b in range(a, len(vectors)):
                coords = space.coords(
                    bilinear_product(self, x, vectors[b], ZERO))
                if coords is None:
                    raise AlgebraError(
                        "a product leaves the span of the basis vectors")
                products[(a, b)] = {k: c for k, c in
                                    enumerate(coords[skip:]) if c}
        weight = None
        if self.weight is not None:
            weight = [self.weight_of(v) for v in vectors]
            if not any(weight):
                weight = None
        return AlgebraTable(labels, products, weight=weight, name=name,
                            notes=notes)

    def _integer_rows(self):
        """(rows, den): rows[i][j] lists the (k, den * s_ijk) of the
        nonzero structure constants, all integers; cached."""
        cached = self._cache.get("integer_rows")
        if cached is None:
            den = lcm(*(c.denominator for vec in self._products.values()
                        for c in vec.values()))
            rows = [{} for _ in self.labels]
            for (i, j), vec in self._products.items():
                pairs = tuple((k, int(c * den)) for k, c in vec.items())
                rows[i][j] = rows[j][i] = pairs
            cached = self._cache["integer_rows"] = (rows, den)
        return cached

    def structural_key(self):
        return (self.labels,
                tuple((pair, tuple(sorted(vec.items())))
                      for pair, vec in self.product_items()),
                self.weight)

    def __eq__(self, other):
        if not isinstance(other, AlgebraTable):
            return NotImplemented
        return self.structural_key() == other.structural_key()

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        tag = self.name or "algebra"
        return f"<AlgebraTable {tag} dim={self.dim}>"


def ideal_rows(table, elements):
    """Echelon rows of the span of the elements, or None when some basis
    vector times some row leaves that span, so it is not an ideal."""
    space = linalg.Subspace(g.coords for g in elements)
    rows = space.rows()
    closed = all(space.contains(bilinear_product(table, b, g, ZERO))
                 for b in linalg.identity_matrix(table.dim) for g in rows)
    return rows if closed else None


def bilinear_product(table, xcoords, ycoords, zero):
    """Bilinear extension of the structure constants; works for Fraction
    and for polynomial coordinates (``zero`` a MultiPoly).

    Both run on the table's structure constants cleared of denominators
    (``_integer_rows``).  Rational x and y are cleared of denominators
    once, out_k = sum_i x_i (sum_j s_ijk y_j) is accumulated in ints,
    and one Fraction is built per nonzero output coordinate; the others
    stay ``zero``."""
    rows, den = table._integer_rows()
    if isinstance(zero, MultiPoly):
        return _bilinear(rows, den, xcoords, ycoords, zero)
    out = [zero] * len(rows)
    xs, dx = linalg.integer_entries(xcoords)
    ys, dy = linalg.integer_entries(ycoords)
    if not xs or not ys:
        return out
    acc = [0] * len(rows)
    for i, xi in xs:
        row = rows[i]
        for j, yj in ys:
            pairs = row.get(j)
            if pairs is not None:
                c = xi * yj
                for k, s in pairs:
                    acc[k] += c * s
    total = den * dx * dy
    for k, a in enumerate(acc):
        if a:
            out[k] = Fraction(a, total)
    return out


class Element:
    """Element of an AlgebraTable.  Its coordinates are all Fractions
    (a concrete element) or all MultiPolys (a symbolic element over
    Q[t...]); arithmetic keeps them of one type, so the first one tells
    the ring."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("elements live in different algebras")

    def is_symbolic(self):
        return isinstance(self.coords[0], MultiPoly)

    def ring_zero(self):
        """The zero of the coordinate ring."""
        return MultiPoly.zero() if self.is_symbolic() else ZERO

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra,
                       tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra,
                       tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(self.algebra, tuple(-a for a in self.coords))

    def scale(self, c):
        """Multiply by a rational or a MultiPoly scalar."""
        if not isinstance(c, MultiPoly):
            c = as_scalar(c)
        return Element(self.algebra, tuple(c * a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            x, y = self.coords, other.coords
            if isinstance(x[0], MultiPoly) or isinstance(y[0], MultiPoly):
                return Element(self.algebra, tuple(bilinear_product(
                    self.algebra, _lifted(x), _lifted(y), MultiPoly.zero())))
            return Element(self.algebra, tuple(bilinear_product(
                self.algebra, x, y, ZERO)))
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        """Principal (right) power: x^(k+1) = x^k * x."""
        if not isinstance(k, int) or k < 1:
            raise AlgebraError("principal powers need an integer exponent >= 1")
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def weight(self):
        """w(x), in the coordinate ring."""
        return self.ring_zero() + self.algebra.weight_of(self.coords)

    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, Element):
            return (self.algebra == other.algebra
                    and self.coords == other.coords)
        if other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def variables(self):
        """Sorted names of the indeterminates in the coordinates."""
        if not self.is_symbolic():
            return []
        names = set()
        for c in self.coords:
            names.update(c.variables())
        return sorted(names)

    def evaluate(self, assignment):
        """The concrete element with scalars substituted for all
        variables of the coordinates; a concrete element is itself."""
        if not self.is_symbolic():
            return self
        return Element(self.algebra, tuple(
            c.evaluate(assignment) if c else ZERO for c in self.coords))

    def __repr__(self):
        if self.is_zero():
            return "0"
        if self.is_symbolic():
            return " + ".join(f"({c})*{lab}" for c, lab
                              in zip(self.coords, self.algebra.labels) if c)
        parts = []
        for lab, c in zip(self.algebra.labels, self.coords):
            if not c:
                continue
            if c == 1:
                term = lab
            elif c == -1:
                term = f"-{lab}"
            else:
                term = f"{format_scalar(c)}*{lab}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text


def _lifted(coords):
    """Polynomial coordinates, lifting rational ones."""
    if isinstance(coords[0], MultiPoly):
        return coords
    return [MultiPoly.const(c) for c in coords]


def principal_powers(x, k_max):
    """[x, x^2, ..., x^k_max] with right powers; x is an Element over Q
    or over Q[t...], the one element class."""
    if k_max < 1:
        return []
    powers = [x]
    for _ in range(k_max - 1):
        powers.append(powers[-1] * x)
    return powers


class Operator:
    """Linear operator on a coordinate space, stored as a dense matrix
    acting on column vectors."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = tuple(tuple(row) for row in matrix)

    @classmethod
    def identity(cls, n):
        return cls(linalg.identity_matrix(n))

    @property
    def dim(self):
        return len(self.matrix)

    def apply(self, coords):
        return linalg.mat_vec(self.matrix, list(coords))

    def compose(self, other):
        return Operator(linalg.mat_mul(self.matrix, other.matrix))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise AlgebraError("operator powers need an integer exponent >= 0")
        acc = Operator.identity(self.dim)
        for _ in range(k):
            acc = acc.compose(self)
        return acc

    def __sub__(self, other):
        return Operator(tuple(tuple(a - b for a, b in zip(ra, rb))
                              for ra, rb in zip(self.matrix, other.matrix)))

    def is_zero(self):
        return not any(any(row) for row in self.matrix)

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"<Operator dim={self.dim}>"


def left_mult_operator(x, carrier):
    """Matrix of left multiplication by x on the span of ``carrier``,
    with polynomial entries when x is symbolic.

    The carrier must be linearly independent and invariant under the
    operator; both are checked.
    """
    carrier = list(carrier)
    space = linalg.Subspace(c.coords for c in carrier)
    if space.rank != len(carrier):
        raise AlgebraError("carrier basis is linearly dependent")
    cols = []
    for c in carrier:
        image = x * c
        coords = space.coords(image.coords, zero=image.ring_zero())
        if coords is None:
            raise AlgebraError("carrier is not invariant under the operator")
        cols.append(coords)
    n = len(carrier)
    return Operator([[cols[j][i] for j in range(n)] for i in range(n)])


class UnivariatePoly:
    """Polynomial in one variable over Fraction, stored densely by
    exponent.  Most callers keep the constant term zero so the
    polynomial can be evaluated at algebra elements."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [as_scalar(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def monomial(cls, k, c=ONE):
        return cls([ZERO] * k + [c])

    @classmethod
    def x(cls):
        return cls.monomial(1)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    @property
    def constant_term(self):
        return self.coeff(0)

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePoly([self.coeff(k) + other.coeff(k)
                               for k in range(n)])

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePoly([self.coeff(k) - other.coeff(k)
                               for k in range(n)])

    def __neg__(self):
        return UnivariatePoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UnivariatePoly([as_scalar(other) * c for c in self.coeffs])
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return UnivariatePoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return UnivariatePoly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise AlgebraError("polynomial powers need an exponent >= 0")
        acc = UnivariatePoly([ONE])
        for _ in range(k):
            acc = acc * self
        return acc

    @staticmethod
    def _coerce(other):
        if isinstance(other, UnivariatePoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UnivariatePoly([as_scalar(other)])
        raise AlgebraError(f"cannot combine polynomial with {other!r}")

    def divmod(self, divisor):
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise AlgebraError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = divisor.degree
        lead = divisor.coeffs[-1]
        quot = [ZERO] * max(0, len(rem) - dq)
        while len(rem) - 1 >= dq and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < dq:
                break
            f = rem[-1] / lead
            shift = len(rem) - 1 - dq
            quot[shift] = f
            for i, c in enumerate(divisor.coeffs):
                rem[shift + i] -= f * c
        return UnivariatePoly(quot), UnivariatePoly(rem)

    def divisible_by(self, divisor):
        return self.divmod(divisor)[1].is_zero()

    def __call__(self, value):
        """Evaluate at a scalar (constant term allowed here)."""
        value = as_scalar(value)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        if isinstance(other, UnivariatePoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            if k == 0:
                body = format_scalar(abs(c))
            else:
                var = "X" if k == 1 else f"X^{k}"
                body = var if abs(c) == 1 else f"{format_scalar(abs(c))}*{var}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        sign, body = parts[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def poly_eval(x, poly):
    """Evaluate a polynomial with zero constant term at an element."""
    if not isinstance(poly, UnivariatePoly):
        raise AlgebraError("poly_eval needs a UnivariatePoly")
    if poly.constant_term:
        raise AlgebraError("polynomial has a nonzero constant term")
    if poly.is_zero():
        return x - x
    powers = principal_powers(x, poly.degree)
    acc = None
    for k in range(1, poly.degree + 1):
        c = poly.coeff(k)
        if not c:
            continue
        term = powers[k - 1].scale(c)
        acc = term if acc is None else acc + term
    return acc
