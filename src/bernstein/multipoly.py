"""Sparse multivariate polynomials over the rationals.

Terms are keyed by sorted tuples of (variable name, exponent) pairs;
``_merge_keys`` multiplies two keys, a one-variable key by position.
A polynomial is held as integer numerators over one positive common
denominator ``den``, the coefficient of ``key`` being
``Fraction(terms[key], den)``, in canonical form: no zero numerator,
``gcd(den, *numerators) == 1`` and ``den == 1`` for zero.  So equal
polynomials have equal term dicts and denominators, and arithmetic, the
symbolic product kernel ``_bilinear`` included, runs on Python ints (the
one-denominator integer kernels of Monagan and Pearce, CASC 2007).
Key tuples compared as tuples are not a monomial order; ``_graded`` is
one.  Minimal and train polynomials are MultiPolys in the variable X.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

ZERO = Fraction(0)


def _merge_keys(k1, k2):
    """The key of the product of monomials k1 and k2.  A one-variable key,
    as in a generic element, goes into the other by position or adds to
    the exponent of its name there; others merge through a dict."""
    if len(k1) > len(k2):
        k1, k2 = k2, k1
    if len(k1) != 1:
        if not k1:
            return k2
        exps = dict(k1)
        for name, e in k2:
            exps[name] = exps.get(name, 0) + e
        return tuple(sorted(exps.items()))
    (name, e), = k1
    p = bisect_left(k2, (name,))
    if p < len(k2) and k2[p][0] == name:
        return k2[:p] + ((name, e + k2[p][1]),) + k2[p + 1:]
    return k2[:p] + k1 + k2[p:]


def _graded(names):
    """The map from a monomial key in the sorted ``names`` to its
    negated exponent vector, total degree first.  Ascending tuple order
    on the vectors is descending graded lex order on the monomials, a
    monomial order, and a product of monomials adds their vectors."""
    def vector(key):
        exps = dict(key)
        v = [-exps.get(name, 0) for name in names]
        return (sum(v), *v)
    return vector


class MultiPoly:
    """Polynomial in named commuting variables with rational coefficients."""

    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den=1):
        """``terms`` maps monomial keys to int numerators over the positive
        int ``den``; zero numerators are dropped and the pair is reduced
        to lowest terms; a dict that needs neither is kept, not copied."""
        terms = terms or {}
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        self.terms = terms
        self.den = den

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls({(): c.numerator} if c else None, c.denominator)

    @classmethod
    def var(cls, name):
        return cls({((str(name), 1),): 1})

    @classmethod
    def univariate(cls, coeffs):
        """c_0 + c_1 X + c_2 X^2 + ... from the rationals c_k."""
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        return cls({(("X", k),) if k else (): c.numerator
                    * (den // c.denominator) for k, c in enumerate(coeffs)},
                   den)

    def coefficients(self):
        """[c_0, ..., c_d], the Fractions with self = sum c_k X^k and d
        the degree (empty for zero); self must have no other variable."""
        out = [ZERO] * (self.total_degree() + 1)
        for key, c in self.terms.items():
            if key and (len(key) > 1 or key[0][0] != "X"):
                raise ValueError("polynomial is not in X alone")
            out[key[0][1] if key else 0] = Fraction(c, self.den)
        return out

    def _combined(self, other, sign):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        other_terms, other_den = parts
        den = lcm(self.den, other_den)
        fa, fb = den // self.den, sign * (den // other_den)
        terms = {k: c * fa for k, c in self.terms.items()}
        for key, c in other_terms.items():
            terms[key] = terms.get(key, 0) + fb * c
        return MultiPoly(terms, den)

    def __add__(self, other):
        return self._combined(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combined(other, -1)

    def __rsub__(self, other):
        return (-self)._combined(other, 1)

    def __neg__(self):
        return MultiPoly({k: -c for k, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return MultiPoly()
            num = f.numerator
            return MultiPoly({k: c * num for k, c in self.terms.items()},
                             self.den * f.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _merge_keys(k1, k2)
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(out, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def exact_div(self, divisor):
        """self / divisor when the divisor, a MultiPoly or a rational,
        divides self; None when the remainder is nonzero.

        Leading-term division in graded lex order, the remainder's
        leading monomials popped from a heap.  One polynomial is a
        Groebner basis of its ideal, so the first leading monomial the
        divisor's does not divide leaves a nonzero remainder.  Remainder
        and quotient are int numerators times ``scale``."""
        terms, den = _parts(divisor)
        if not terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if list(terms) == [()]:
            return self * Fraction(den, terms[()])
        if not self.terms:
            return self
        names = sorted({name for key in (*self.terms, *terms)
                        for name, _ in key})
        vector = _graded(names)
        (lead, lc), *tail = sorted((vector(k), c) for k, c in terms.items())
        rem = {vector(k): c for k, c in self.terms.items()}
        heap = list(rem)
        heapify(heap)
        quot, scale = {}, 1
        while heap:
            m = heappop(heap)
            r = rem.pop(m)
            if not r:
                continue
            q = tuple(a - b for a, b in zip(m, lead))
            if max(q) > 0:
                return None
            if r % lc:
                f = abs(lc) // gcd(r, lc)
                scale, r = scale * f, r * f
                rem = {k: c * f for k, c in rem.items()}
                quot = {k: c * f for k, c in quot.items()}
            c = quot[q] = r // lc
            for t, tc in tail:
                k = tuple(a + b for a, b in zip(q, t))
                if k not in rem:
                    heappush(heap, k)
                rem[k] = rem.get(k, 0) - c * tc
        return MultiPoly({tuple((n, -e) for n, e in zip(names, q[1:]) if e):
                          c * den for q, c in quot.items()},
                         scale * self.den)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power needs an exponent >= 0")
        acc = MultiPoly.const(1)
        for _ in range(k):
            acc = acc * self
        return acc

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return parts == (self.terms, self.den)

    def __hash__(self):
        if not self.terms or (len(self.terms) == 1 and () in self.terms):
            return hash(self.constant_value())  # equals hash(Fraction(c))
        return hash((self.den, frozenset(self.terms.items())))

    def variables(self):
        names = set()
        for key in self.terms:
            for name, _ in key:
                names.add(name)
        return sorted(names)

    def total_degree(self):
        if not self.terms:
            return -1
        return max((sum(e for _, e in key) for key in self.terms), default=0)

    def constant_value(self):
        """The Fraction value of a constant polynomial."""
        if not self.terms:
            return ZERO
        if list(self.terms) == [()]:
            return Fraction(self.terms[()], self.den)
        raise ValueError("polynomial is not constant")

    def evaluate(self, assignment):
        """Value at a point; integer coordinates are kept as ints."""
        powers = {}
        acc = 0
        for key, c in self.terms.items():
            for factor in key:
                p = powers.get(factor)
                if p is None:
                    name, e = factor
                    v = Fraction(assignment[name])
                    p = (v.numerator if v.denominator == 1 else v) ** e
                    powers[factor] = p
                c *= p
            acc += c
        return Fraction(acc) / self.den

    def substitute(self, name, value):
        """Replace ``name`` by a rational; the numerators stay integers by
        scaling the term of exponent e by ``p^e q^(top-e)`` for
        value = p/q and top the highest exponent of ``name``."""
        value = Fraction(value)
        split = []
        top = 0
        for key, c in self.terms.items():
            exp = 0
            rest = []
            for n, e in key:
                if n == name:
                    exp = e
                else:
                    rest.append((n, e))
            split.append((tuple(rest), exp, c))
            top = max(top, exp)
        p, q = value.numerator, value.denominator
        scale = [p ** e * q ** (top - e) for e in range(top + 1)]
        out = {}
        for rkey, exp, c in split:
            out[rkey] = out.get(rkey, 0) + c * scale[exp]
        return MultiPoly(out, self.den * q ** top)

    def __repr__(self):
        return _signed_sum(
            (self.terms[key], self.den,
             "*".join(f"{n}^{e}" if e > 1 else n for n, e in key))
            for key in sorted(self.terms, key=_graded(self.variables())))


def format_ratio(n, d):
    """n/d (d > 0) in lowest terms as ``format_scalar`` writes it."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _signed_sum(terms):
    """The linear combination of (n, d, text) triples, c = n/d nonzero, d > 0
    and text "" for a constant, written |c|*text, text for |c| = 1 and |c|
    for a constant, joined by " + " and " - ", the first term signed only
    when negative; "0" when there are no terms."""
    text = ""
    for n, d, body in terms:
        a = format_ratio(abs(n), d)
        if not body:
            body = a
        elif a != "1":
            body = f"{a}*{body}"
        if text:
            text += f" - {body}" if n < 0 else f" + {body}"
        else:
            text = f"-{body}" if n < 0 else body
    return text or "0"


def _parts(c):
    """(terms, den) of a MultiPoly, or of an int or Fraction read in place
    as a constant polynomial (a Fraction is reduced); None otherwise."""
    if isinstance(c, MultiPoly):
        return c.terms, c.den
    if isinstance(c, (int, Fraction)):
        return ({(): c.numerator} if c else {}), c.denominator
    return None


def _bilinear(rows, den, xs, ys=None):
    """The nonzero coordinates, as {k: MultiPoly}, of the bilinear
    product of two vectors given by their nonzero entries as
    (index, terms, d) triples: int numerators ``terms`` over d, as
    ``_parts`` reads a MultiPoly or a rational.  With ``ys`` None it is the
    square of xs: each pair i <= j once, s_ijk doubled for i != j, as
    the rows of a commutative table are symmetric.

    ``rows[i]`` maps j to the ((k, s_ijk * den), ...) of the nonzero
    structure constants s_ijk, all integers.  Computes
    out_k = sum_i x_i * (sum_j s_ijk y_j) on raw numerator dicts over
    one common denominator, builds one MultiPoly per touched output
    coordinate and merges each pair of x and y monomial keys once.  An
    x_i of one monomial (generic or concrete) multiplies each s_ijk y_j
    as it is read; any other x_i multiplies the completed inner sum.
    """
    square = ys is None
    ys = xs if square else ys
    if not xs or not ys:
        return {}
    dx = lcm(*(d for _, _, d in xs))
    dy = dx if square else lcm(*(d for _, _, d in ys))
    ys = [(j, terms if d == dy
           else {m: v * (dy // d) for m, v in terms.items()})
          for j, terms, d in ys]
    merged, acc = {}, {}
    for n, (i, xterms, xden) in enumerate(xs):
        row, f = rows[i], dx // xden
        if len(xterms) == 1:
            (m1, c1), = xterms.items()
            c1 *= f
            memo = merged.setdefault(m1, {})
            for j, yterms in ys[n:] if square else ys:
                pairs = row.get(j)
                if pairs is None:
                    continue
                two = 2 * c1 if square and j != i else c1
                for k, s in pairs:
                    s *= two
                    target = acc.setdefault(k, {})
                    for m2, v in yterms.items():
                        key = memo.get(m2)
                        if key is None:
                            key = memo[m2] = _merge_keys(m1, m2)
                        target[key] = target.get(key, 0) + s * v
            continue
        inner = {}
        for j, yterms in ys[n:] if square else ys:
            pairs = row.get(j)
            if pairs is None:
                continue
            two = 2 if square and j != i else 1
            for k, s in pairs:
                s *= two
                w = inner.setdefault(k, {})
                for m, v in yterms.items():
                    w[m] = w.get(m, 0) + s * v
        for m1, c1 in xterms.items():
            c1 *= f
            memo = merged.setdefault(m1, {})
            for k, w in inner.items():
                target = acc.setdefault(k, {})
                for m2, v in w.items():
                    key = memo.get(m2)
                    if key is None:
                        key = memo[m2] = _merge_keys(m1, m2)
                    target[key] = target.get(key, 0) + c1 * v
    total, out = den * dx * dy, {}
    for k, target in acc.items():
        if poly := MultiPoly(target, total):
            out[k] = poly
    return out
