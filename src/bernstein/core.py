"""Structure-constant algebras over the rationals.

An :class:`AlgebraTable` presents a finite-dimensional commutative
algebra by its basis labels and the products of unordered basis pairs.
An optional weight row makes it a baric algebra; multiplicativity of
the weight is checked on construction, where scalars are coerced.
``read_scalar`` is the one reader of rationals from text: "n" or "n/d"
in decimal integers, straight to ints.
``AlgebraTable.change_basis`` is the one routine that rebuilds a table
on a new basis, or on a basis of a quotient: it multiplies the basis
elements and reads each product's coordinates as integers off one
``linalg.Subspace``.  Elements, ``left_mult_operator`` (the matrix of
L_x on a carrier) and ``poly_eval``, which evaluates a polynomial in X
(a ``MultiPoly``) with zero constant term at an element, live here too.

``Element`` is the one element class, over Q or over Q[t...], stored
sparsely: a concrete element as int numerators over one denominator, a
symbolic one as MultiPolys, and a product with a symbolic side reads
rationals as constants in place.  Arithmetic works on integers: a
table stores its structure constants as int rows over one denominator
(``AlgebraTable._integer_rows``), and products, sums and scaling of
concrete elements run in Python ints and build no Fraction; Fractions
appear only where a caller asks for ``coords`` or a weight.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from . import linalg
from .multipoly import MultiPoly, _bilinear, _parts, _signed_sum

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class AlgebraError(ValueError):
    """Invalid input or violated precondition."""


class InternalCheckError(RuntimeError):
    """A cross-check that should be impossible to fail has failed."""


MAX_SCALAR_CHARS = 1000
_SCALAR_RE = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def read_scalar(text):
    """(n, d) in lowest terms with d > 0 for a string "n" or "n/d" of
    decimal integers, surrounding whitespace allowed: the one reader of
    rationals from text.  Decimals, exponents, other types and strings
    over ``MAX_SCALAR_CHARS`` characters are rejected."""
    if not isinstance(text, str):
        raise AlgebraError(f"bad scalar {text!r}: expected a string such as "
                           f'"3" or "-5/2", got {type(text).__name__}')
    if len(text) > MAX_SCALAR_CHARS:
        raise AlgebraError(f"bad scalar {text[:20] + '...'!r}: longer than "
                           f"{MAX_SCALAR_CHARS} characters")
    match = _SCALAR_RE.fullmatch(text)
    if match is None:
        raise AlgebraError(f'bad scalar {text!r}: expected "n" or "n/d" '
                           "with decimal integers n and d")
    n, d = match.groups()
    if d is None:
        return int(n), 1
    n, d = int(n), int(d)
    if not d:
        raise AlgebraError(f"bad scalar {text!r}: zero denominator")
    g = gcd(n, d)
    return n // g, d // g


def _ratio(value):
    """(n, d) in lowest terms with d > 0 for an (n, d) pair of ints with
    d > 0, an int, a Fraction or a string ``read_scalar`` reads."""
    if type(value) is tuple and len(value) == 2:
        n, d = value
        if type(n) is int and type(d) is int and d > 0:
            g = gcd(n, d)
            return (n, d) if g == 1 else (n // g, d // g)
    elif isinstance(value, Fraction):
        return value.numerator, value.denominator
    elif isinstance(value, int):
        return int(value), 1
    return read_scalar(value)


def as_scalar(value):
    """The Fraction of an int, a Fraction or a string ``read_scalar``
    reads; floats and other types are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(*read_scalar(value))


def parse_scalar(text):
    """The Fraction of a string ``read_scalar`` reads."""
    return Fraction(*read_scalar(text))


def format_scalar(q):
    return str(Fraction(q))


class AlgebraTable:
    """Commutative algebra given by structure constants on a labelled
    basis, stored once, as integers: ``_integer_rows()`` and the integer
    weight row ``_weight``, (ws, dw) with weight w_i = ws[i] / dw, or
    None.  ``weight``, ``product_vector`` and ``product_items`` are
    Fraction views, each built when a caller first asks for it and kept
    for callers that read it in loops; the kernels never read them."""

    __slots__ = ("labels", "name", "notes", "_index", "_products", "_weight",
                 "_cache")

    def __init__(self, labels, products, weight=None, name="", notes=()):
        """``products`` maps index pairs (i, j) to {k: scalar} and
        ``weight`` is a row of scalars; a scalar is an int, a Fraction,
        an (n, d) pair of ints with d > 0 or a "p/q" string."""
        labels = tuple(map(str, labels))
        if len(set(labels)) != len(labels):
            raise AlgebraError("basis labels must be distinct")
        if not labels:
            raise AlgebraError("algebra needs at least one basis element")
        for lab in labels:
            # letters, digits and "_", not starting with a digit
            if not lab or not (lab[0].isalpha() or lab[0] == "_") \
                    or not lab.replace("_", "a").isalnum():
                raise AlgebraError(f"label {lab!r} is not an identifier")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        dim = len(labels)

        table, dens = {}, set()
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
                n, d = _ratio(c)
                if n:
                    clean[k] = (n, d)
                    dens.add(d)
            if (i, j) in table and table[(i, j)] != clean:
                raise AlgebraError(
                    f"conflicting products for pair ({labels[i]}, {labels[j]})")
            if clean:
                table[(i, j)] = clean
        # Over the lcm of the reduced denominators the rows are canonical.
        den = lcm(*dens)
        rows = [{} for _ in labels]
        for (i, j), vec in table.items():
            rows[i][j] = rows[j][i] = tuple([
                (k, n * (den // d)) for k, (n, d) in sorted(vec.items())])
        self._products = (rows, den)
        self._cache = {}

        self._weight = None
        if weight is not None:
            weight = [_ratio(w) for w in weight]
            if len(weight) != dim:
                raise AlgebraError("weight row has wrong length")
            if not any(n for n, _ in weight):
                raise AlgebraError("weight must be a nonzero functional")
            # In integers W = d_w w and S = d s: a stored pair needs
            # d_w sum_k S_ijk W_k = d W_i W_j, any other pair W_i W_j = 0.
            dw = lcm(*(d for _, d in weight))
            ws = tuple(n * (dw // d) for n, d in weight)
            bad = []
            for i, j in table:
                acc = 0
                for k, s in rows[i][j]:
                    acc += s * ws[k]
                if dw * acc != den * ws[i] * ws[j]:
                    bad.append((i, j))
            support = [i for i, w in enumerate(ws) if w]
            for pair in ((i, j) for a, i in enumerate(support)
                         for j in support[a:] if (i, j) not in table):
                bad.append(pair)
                break
            if bad:
                i, j = min(bad)
                raise AlgebraError("weight is not multiplicative on pair "
                                   f"({labels[i]}, {labels[j]})")
            self._weight = (ws, dw)
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
            wrow = [0] * len(labels)
            for lab, c in weight.items():
                wrow[look(lab)] = c
        return cls(labels, table, weight=wrow, name=name, notes=notes)

    @property
    def dim(self):
        return len(self.labels)

    @property
    def weight(self):
        """The weight row as a tuple of Fractions, or None; built when
        first asked for."""
        if self._weight is None:
            return None
        view = self._cache.get("weight")
        if view is None:
            ws, dw = self._weight
            view = self._cache["weight"] = tuple(Fraction(w, dw) for w in ws)
        return view

    @property
    def has_weight(self):
        return self._weight is not None

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise AlgebraError(f"unknown basis label {label!r}") from None

    def product_vector(self, i, j):
        """Sparse product of basis elements i and j, {k: Fraction}, as a
        read-only dict built when first asked for."""
        views = self._cache.setdefault("products", {})
        vec = views.get((i, j))
        if vec is None:
            rows, den = self._products
            vec = {k: Fraction(s, den) for k, s in rows[i].get(j, ())}
            if vec:
                views[(i, j)] = views[(j, i)] = vec
        return vec

    def product_items(self):
        """The ((i, j), product_vector(i, j)) of the nonzero products
        with i <= j, in ascending order."""
        rows, _ = self._products
        return [((i, j), self.product_vector(i, j))
                for i, row in enumerate(rows) for j in sorted(row) if i <= j]

    def element(self, coords):
        coords = tuple(as_scalar(c) for c in coords)
        if len(coords) != self.dim:
            raise AlgebraError("coordinate vector has wrong length")
        return Element(self, coords)

    def element_from(self, parts):
        return _rationals(self, {self.index(lab): as_scalar(c)
                                 for lab, c in parts.items()})

    def basis_element(self, i):
        return _new(self, {range(self.dim)[i]: 1}, 1)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self):
        return _new(self, {}, 1)

    def weight_of(self, coords):
        if self._weight is None:
            raise AlgebraError("algebra has no weight")
        ws, dw = self._weight
        acc = 0
        for c, w in zip(coords, ws):
            if c and w:
                acc += c * w
        return Fraction(acc, dw)

    def barideal_basis(self):
        """Basis of the weight kernel N, as ``linalg.kernel`` of the
        weight row gives it: e_f - (w_f / w_p) e_p for each f != p in
        ascending order, p the first index of nonzero weight, built
        sparse from the integer weight row on each call."""
        if self._weight is None:
            raise AlgebraError("algebra has no weight")
        ws, _ = self._weight
        p = next(i for i, w in enumerate(ws) if w)
        d, s = abs(ws[p]), (1 if ws[p] > 0 else -1)
        return [_concrete(self, {p: -s * w, f: d}, d)
                for f, w in enumerate(ws) if f != p]

    def change_basis(self, vectors, labels, modulo=(), name="", notes=()):
        """The table on the basis ``vectors`` (concrete elements of this
        table or coordinate lists) with the given labels; with ``modulo``,
        a basis of an ideal, the quotient table on their images.  Products
        are element products, read off one ``linalg.Subspace`` in ints.
        Raises AlgebraError when ``modulo + vectors`` is dependent or a
        product of two vectors leaves its span.  The weight carries over
        as ``x.weight()`` per vector, dropped when all of those vanish."""
        vectors = [x if isinstance(x, Element) else self.element(x)
                   for x in vectors]
        skip = len(modulo)
        space = linalg.Subspace(list(modulo) + vectors)
        if space.rank != space.size:
            raise AlgebraError("basis vectors are linearly dependent")
        products = {}
        for a, x in enumerate(vectors):
            for b in range(a, len(vectors)):
                found = space._coefficients(x * vectors[b])
                if found is None:
                    raise AlgebraError(
                        "a product leaves the span of the basis vectors")
                coefficients, den = found
                products[(a, b)] = {k - skip: (c, den) for k, c in
                                    coefficients.items() if k >= skip}
        weight = None
        if self._weight is not None:
            weight = [x.weight() for x in vectors]
            if not any(weight):
                weight = None
        return AlgebraTable(labels, products, weight=weight, name=name,
                            notes=notes)

    def _integer_rows(self):
        """(rows, den): rows[i][j] lists the (k, den * s_ijk) of the
        nonzero structure constants in ascending k, all integers, with
        den the lcm of their reduced denominators."""
        return self._products

    def structural_key(self):
        return (self.labels,
                tuple((pair, tuple(vec.items()))
                      for pair, vec in self.product_items()),
                self.weight)

    def __eq__(self, other):
        if not isinstance(other, AlgebraTable):
            return NotImplemented
        return (self.labels == other.labels
                and self._products == other._products
                and self._weight == other._weight)

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        tag = self.name or "algebra"
        return f"<AlgebraTable {tag} dim={self.dim}>"


def ideal_rows(table, elements):
    """Echelon rows of the span of the elements, or None when some basis
    vector times some row leaves that span, so it is not an ideal."""
    space = linalg.Subspace(elements)
    rows = space.rows()
    gens = [Element(table, g) for g in rows]
    closed = all(space.contains(b * g) for b in table.basis() for g in gens)
    return rows if closed else None


def _integer_product(rows, xs, ys):
    """{k: sum_i x_i sum_j S_ijk y_j} for integer structure constants
    ``rows`` (``_integer_rows``) and the nonzero integer entries xs, ys,
    given as (index, int) pairs; values may be zero."""
    acc = {}
    for i, xi in xs:
        row = rows[i]
        for j, yj in ys:
            pairs = row.get(j)
            if pairs is not None:
                c = xi * yj
                for k, s in pairs:
                    acc[k] = acc.get(k, 0) + c * s
    return acc


def _new(algebra, num, den):
    """The element with the given canonical parts (see ``Element``)."""
    x = object.__new__(Element)
    x.algebra = algebra
    x.num = num
    x.den = den
    x._coords = None
    return x


def _concrete(algebra, num, den):
    """The concrete element with int numerators ``num`` over den > 0;
    zero numerators are dropped and the pair is reduced by its gcd."""
    num = {k: a for k, a in num.items() if a}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: a // g for k, a in num.items()}
            den //= g
    return _new(algebra, num, den)


def _combination(table, coeffs, elements):
    """sum of c * b for rational c and concrete b, one integer sum."""
    terms = [(c.numerator, c.denominator * b.den, b)
             for c, b in zip(coeffs, elements) if c]
    den = lcm(*(d for _, d, _ in terms))
    acc = {}
    for n, d, b in terms:
        f = n * (den // d)
        for k, a in b.num.items():
            acc[k] = acc.get(k, 0) + f * a
    return _concrete(table, acc, den)


def _rationals(algebra, values):
    """The concrete element with coordinates {index: rational}.  Over
    the lcm of the reduced denominators the pair is canonical already."""
    den = lcm(*(c.denominator for c in values.values()))
    return _new(algebra, {k: c.numerator * (den // c.denominator)
                          for k, c in values.items() if c}, den)


def _triples(x):
    """The nonzero coordinates of x as (index, terms, den) triples, the
    form ``_bilinear`` reads."""
    if x.den is None:
        return [(i, *_parts(c)) for i, c in x.num.items()]
    return [(i, {(): n}, x.den) for i, n in x.num.items()]


def _as_polys(x):
    """The nonzero coordinates of x as {index: MultiPoly or rational}."""
    if x.den is None:
        return x.num
    return {i: MultiPoly({(): n}, x.den) for i, n in x.num.items()}


class Element:
    """Element of an AlgebraTable, stored sparsely: ``num`` maps the
    index of each nonzero coordinate to its value.

    A concrete element, over Q, holds int numerators over one positive
    int ``den``, in canonical form: no zero numerator and
    ``gcd(den, *num.values()) == 1`` (the zero element has den 1).  That
    is the form the product kernels and ``linalg.Subspace`` compute in,
    and two concrete elements are equal exactly when their parts are.
    A symbolic element, over Q[t...], holds MultiPolys and has ``den``
    None, so a zero element keeps its ring.  ``coords`` is the dense
    tuple of Fractions or MultiPolys, built when first asked for;
    ``Element(table, coords)`` takes such a tuple."""

    __slots__ = ("algebra", "num", "den", "_coords")

    def __init__(self, algebra, coords):
        coords = tuple(coords)
        self.algebra = algebra
        self._coords = None
        if any(isinstance(c, MultiPoly) for c in coords):
            self.num = {i: c for i, c in enumerate(coords) if c}
            self.den = None
        else:   # canonical already, as in ``_rationals``
            entries, self.den = linalg.integer_entries(coords)
            self.num = dict(entries)

    @property
    def coords(self):
        """The dense coordinate tuple, built once."""
        coords = self._coords
        if coords is None:
            if self.den is None:
                zero = MultiPoly.zero()
                out = [zero] * self.algebra.dim
                for i, c in self.num.items():
                    out[i] = c
            else:
                out = [ZERO] * self.algebra.dim
                den = self.den
                for i, n in self.num.items():
                    out[i] = Fraction(n, den)
            coords = self._coords = tuple(out)
        return coords

    def __len__(self):
        """The number of coordinates, the dimension of the algebra."""
        return self.algebra.dim

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError("elements live in different algebras")

    def is_symbolic(self):
        return self.den is None

    def ring_zero(self):
        """The zero of the coordinate ring."""
        return MultiPoly.zero() if self.den is None else ZERO

    def _combined(self, other, sign):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        if self.den is not None and other.den is not None:
            dx, dy = self.den, other.den
            den = dx if dx == dy else lcm(dx, dy)
            fx, fy = den // dx, sign * (den // dy)
            num = ({k: a * fx for k, a in self.num.items()} if fx != 1
                   else dict(self.num))
            for k, b in other.num.items():
                num[k] = num.get(k, 0) + fy * b
            return _concrete(self.algebra, num, den)
        num = dict(_as_polys(self))
        for k, b in _as_polys(other).items():
            if sign < 0:
                b = -b
            prev = num.get(k)
            c = b if prev is None else prev + b
            if c:
                num[k] = c
            else:
                num.pop(k, None)
        return _new(self.algebra, num, None)

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __neg__(self):
        return _new(self.algebra, {k: -a for k, a in self.num.items()},
                    self.den)

    def scale(self, c):
        """Multiply by a rational or a MultiPoly scalar."""
        if isinstance(c, MultiPoly):
            num = {k: a * c for k, a in _as_polys(self).items()}
            return _new(self.algebra, {k: a for k, a in num.items() if a},
                        None)
        c = as_scalar(c)
        if self.den is None:
            return _new(self.algebra, {k: a * c for k, a in self.num.items()}
                        if c else {}, None)
        p = c.numerator
        return _concrete(self.algebra, {k: a * p for k, a in self.num.items()},
                         self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            rows, den = self.algebra._integer_rows()
            if self.den is not None and other.den is not None:
                return _concrete(self.algebra, _integer_product(
                    rows, self.num.items(), other.num.items()),
                    den * self.den * other.den)
            return _new(self.algebra, _bilinear(
                rows, den, _triples(self),
                None if other is self else _triples(other)), None)
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
        return next(islice(_power_chain(self), k - 1, None))

    def weight(self):
        """w(x), in the coordinate ring."""
        if self.algebra._weight is None:
            raise AlgebraError("algebra has no weight")
        ws, dw = self.algebra._weight
        if self.den is None:
            acc = sum((c * ws[i] for i, c in self.num.items() if ws[i]),
                      MultiPoly.zero())
            return MultiPoly(acc.terms, acc.den * dw)
        return Fraction(sum(n * ws[i] for i, n in self.num.items()),
                        self.den * dw)

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, Element):
            if self.algebra is not other.algebra \
                    and self.algebra != other.algebra:
                return False
            if (self.den is None) == (other.den is None):
                return self.den == other.den and self.num == other.num
            return self.coords == other.coords
        if other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        # A zero element equals 0, so it hashes like 0.
        return hash(self.coords) if self.num else hash(0)

    def variables(self):
        """Sorted names of the indeterminates in the coordinates."""
        if self.den is not None:
            return []
        names = set()
        for c in self.num.values():
            names.update(c.variables())
        return sorted(names)

    def evaluate(self, assignment):
        """The concrete element with scalars substituted for all
        variables of the coordinates; a concrete element is itself."""
        if self.den is not None:
            return self
        return _rationals(self.algebra, {
            k: c.evaluate(assignment) for k, c in self.num.items()})

    def __repr__(self):
        if self.is_zero():
            return "0"
        labels = self.algebra.labels
        if self.den is None:
            return " + ".join(f"({self.num[i]})*{labels[i]}"
                              for i in sorted(self.num))
        return _signed_sum((self.num[i], self.den, labels[i])
                           for i in sorted(self.num))


def _power_chain(x):
    """x, x^2, x^3, ... with right powers x^(k+1) = x^k * x, one product
    each and none before it is asked for; the caller decides where the
    chain stops.  x is an Element over Q or over Q[t...]."""
    power = x
    while True:
        yield power
        power = power * x


def principal_powers(x, k_max):
    """[x, x^2, ..., x^k_max] with right powers."""
    return list(islice(_power_chain(x), max(k_max, 0)))


def left_mult_operator(x, carrier):
    """Matrix of L_x, left multiplication by x, on the span of
    ``carrier``, as a tuple of row tuples acting on column vectors of
    carrier coordinates; its entries are polynomials when x is symbolic.

    The carrier must be linearly independent and invariant under the
    operator; both are checked.  Nilpotency of L_x is decided in
    ``train`` by a product chain on a generic carrier element instead,
    with no matrix.
    """
    carrier = list(carrier)
    space = linalg.Subspace(carrier)
    if space.rank != len(carrier):
        raise AlgebraError("carrier basis is linearly dependent")
    cols = []
    for c in carrier:
        image = x * c
        coords = space.coords(image, zero=image.ring_zero())
        if coords is None:
            raise AlgebraError("carrier is not invariant under the operator")
        cols.append(coords)
    return tuple(zip(*cols))


def poly_eval(x, poly):
    """Evaluate a MultiPoly in X with zero constant term at an element,
    on principal powers."""
    if not isinstance(poly, MultiPoly):
        raise AlgebraError("poly_eval needs a MultiPoly in X")
    coeffs = poly.coefficients()
    if coeffs and coeffs[0]:
        raise AlgebraError("polynomial has a nonzero constant term")
    acc = x - x
    for c, power in zip(coeffs[1:], _power_chain(x)):
        if c:
            acc = acc + power.scale(c)
    return acc
