"""Sparse multivariate polynomials used as symbolic coordinates."""

import random
from fractions import Fraction
from math import gcd

import pytest

from bernstein import catalog
from bernstein.core import AlgebraError, _new, format_scalar
from bernstein.groebner import NcPoly, word_key
from bernstein.multipoly import (MultiPoly, _bilinear, _graded, _merge_keys,
                                 _signed_sum, format_ratio)
from bernstein.symbolic import generic_element

from conftest import bernstein_pool, rand_scalar
from test_cli_golden import _twin

F = Fraction


def rand_poly(rng, nvars=3, nterms=4):
    names = [f"t{i}" for i in range(nvars)]
    p = MultiPoly.zero()
    for _ in range(rng.randint(0, nterms)):
        term = MultiPoly.const(F(rng.randint(-3, 3), rng.choice((1, 2))))
        for _ in range(rng.randint(0, 3)):
            term = term * MultiPoly.var(rng.choice(names))
        p = p + term
    return p


def rand_nonzero(rng):
    while True:
        c = F(rng.randint(-5, 5), rng.randint(1, 6))
        if c:
            return c


def test_constructors_and_equality():
    x = MultiPoly.var("x")
    assert MultiPoly.zero() == 0
    assert MultiPoly.const(F(3)) == 3
    assert x != MultiPoly.var("y")
    assert x - x == MultiPoly.zero()
    assert not (x - x)
    assert bool(x)
    # rationals are read in place as constant polynomials
    assert MultiPoly() == 0 and MultiPoly() == F(0)
    p = x / 3 + 2 * MultiPoly.var("y") - 1
    assert p + 0 == p and (p + 0).den == p.den
    assert (p - F(1, 2)).terms == {(("x", 1),): 2, (("y", 1),): 12, (): -9}
    assert (p - F(1, 2)).den == 6
    assert F(1, 2) - p == -(p - F(1, 2))
    assert p - F(1, 2) + F(1, 2) == p
    assert not (p == "x") and p != "x"
    with pytest.raises(TypeError):
        p + "x"


def test_ring_axioms_sampled():
    rng = random.Random(11)
    for _ in range(40):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * MultiPoly.const(F(1)) == p
        assert p - p == MultiPoly.zero()
        assert -(-p) == p
        assert 2 * p == p + p


def test_powers_and_division():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert (x ** 0) == 1
    half = p / 2
    assert half + half == p
    with pytest.raises((AlgebraError, ZeroDivisionError)):
        p / 0


def test_variables_and_degree():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x * x * y + y - 5
    assert p.variables() == ["x", "y"]
    assert p.total_degree() == 3
    assert MultiPoly.zero().total_degree() == -1
    assert MultiPoly.const(F(7)).constant_value() == 7
    assert MultiPoly.zero().constant_value() == 0
    with pytest.raises(ValueError):
        p.constant_value()


def test_evaluate_matches_substitute():
    rng = random.Random(12)
    for _ in range(30):
        p = rand_poly(rng)
        assignment = {f"t{i}": F(rng.randint(-3, 3)) for i in range(3)}
        direct = p.evaluate(assignment)
        step = p
        for name, val in assignment.items():
            step = step.substitute(name, val)
        assert step == MultiPoly.const(direct)


def test_substitute_partial():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    p = x * x + y
    q = p.substitute("x", F(3))
    assert q == y + 9
    assert q.variables() == ["y"]


def _canonical(p):
    if not p.terms:
        return p.den == 1
    return (p.den > 0 and gcd(p.den, *p.terms.values()) == 1
            and all(isinstance(c, int) and c for c in p.terms.values()))


def test_canonical_form_invariants():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert MultiPoly.zero().den == 1 and not MultiPoly.zero().terms
    assert (x / 3 - x / 3).den == 1
    assert (x / 2 + x / 2).den == 1
    half = x / 2 + y / 4
    assert half.den == 4 and half.terms == {(("x", 1),): 2, (("y", 1),): 1}
    assert ((x + y) * F(2, 3)).den == 3
    rng = random.Random(13)
    for _ in range(40):
        p, q = rand_poly(rng), rand_poly(rng)
        for r in (p, q, p + q, p - q, p * q, p / 3, -p, p.substitute("t0", F(1, 2))):
            assert _canonical(r)
    # equal values built by different routes: same terms, den and hash
    routes = [(x + y) * (x - y) / 6,
              x * x / 6 - y * y / 6,
              (x / 2 + y / 2) * (x / 3 - y / 3),
              ((x + y) * (x - y) * F(2, 3)) / 4]
    for p in routes[1:]:
        assert p == routes[0] and hash(p) == hash(routes[0])
        assert (p.terms, p.den) == (routes[0].terms, routes[0].den)


def test_constant_hash_matches_fraction():
    for c in (F(0), F(3), F(-7, 4), F(1, 3)):
        p = MultiPoly.const(c)
        assert p == c and hash(p) == hash(c)
    three = MultiPoly.var("x") + 3 - MultiPoly.var("x")
    assert three == 3 and hash(three) == hash(3)
    assert len({MultiPoly.const(2), F(2), 2}) == 1


def _ref(p):
    """The polynomial as a plain {key: Fraction} dict."""
    return {k: F(c, p.den) for k, c in p.terms.items()}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, F(0)) + sign * c
    return {k: c for k, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            exps = dict(k1)
            for n, e in k2:
                exps[n] = exps.get(n, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, F(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _ref_substitute(a, name, value):
    out = {}
    for key, c in a.items():
        e = dict(key).pop(name, 0)
        rest = tuple((n, k) for n, k in key if n != name)
        out[rest] = out.get(rest, F(0)) + c * value ** e
    return {k: c for k, c in out.items() if c}


def _ref_evaluate(a, point):
    total = F(0)
    for key, c in a.items():
        for n, e in key:
            c *= point[n] ** e
        total += c
    return total


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(14)
    for _ in range(60):
        p, q = rand_poly(rng, nterms=6), rand_poly(rng, nterms=6)
        p = p * F(rng.randint(1, 5), rng.randint(1, 7))
        c = rand_nonzero(rng)
        assert _ref(p + q) == _ref_add(_ref(p), _ref(q))
        assert _ref(p - q) == _ref_add(_ref(p), _ref(q), -1)
        assert _ref(p * q) == _ref_mul(_ref(p), _ref(q))
        assert _ref(p / c) == {k: v / c for k, v in _ref(p).items()}
        value = F(rng.randint(-4, 4), rng.randint(1, 5))
        assert _ref(p.substitute("t1", value)) == \
            _ref_substitute(_ref(p), "t1", value)
        point = {f"t{i}": F(rng.randint(-5, 5), rng.randint(1, 4))
                 for i in range(3)}
        assert p.evaluate(point) == _ref_evaluate(_ref(p), point)


def test_exact_division_round_trips():
    rng = random.Random(15)
    inexact = 0
    for _ in range(80):
        a, b = rand_poly(rng, nterms=5), rand_poly(rng)
        if not b:
            continue
        assert (a * b).exact_div(b) == a
        assert _canonical((a * b).exact_div(-3 * b))
        c = rand_nonzero(rng)
        assert (a * b).exact_div(c) == (a * b) / c
        if b.total_degree() > 0:
            assert (a * b + 1).exact_div(b) is None
            inexact += 1
    assert inexact > 20
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert (x * x - y * y).exact_div(x - y) == x + y
    # leading coefficients that do not divide: the quotient is rational
    assert (x * x + x).exact_div(2 * x) == (x + 1) / 2
    assert (x * x + x).exact_div(-2 * x) == -(x + 1) / 2
    assert (x * y / 3).exact_div(F(2, 3) * y - x) is None
    assert x.exact_div(y) is None and y.exact_div(x * y) is None
    assert MultiPoly.zero().exact_div(x) == 0
    with pytest.raises(ZeroDivisionError):
        x.exact_div(MultiPoly.zero())
    with pytest.raises(ZeroDivisionError):
        x.exact_div(0)


def test_graded_order_is_a_monomial_order():
    """m1 < m2 implies m1 m3 < m2 m3, on seeded random monomials; the
    key tuples themselves, compared as tuples, fail this."""
    rng = random.Random(16)
    names = ["t1", "t10", "t2", "x"]
    vector = _graded(sorted(names))

    def monomial():
        chosen = rng.sample(names, rng.randint(0, 3))
        return tuple(sorted((n, rng.randint(1, 3)) for n in chosen))

    ordered = 0
    for _ in range(500):
        m1, m2, m3 = monomial(), monomial(), monomial()
        assert (vector(m1) == vector(m2)) == (m1 == m2)
        assert vector(_merge_keys(m1, m3)) == tuple(
            a + b for a, b in zip(vector(m1), vector(m3)))
        if vector(m1) < vector(m2):
            assert vector(_merge_keys(m1, m3)) < vector(_merge_keys(m2, m3))
            ordered += 1
        assert vector(m1) <= vector(())
    assert ordered > 100
    a, b = (("x", 1),), (("y", 1),)
    assert a < b and _merge_keys(a, a) > _merge_keys(b, a)


def test_univariate_constructor_and_coefficients():
    x = MultiPoly.var("X")
    p = MultiPoly.univariate([0, F(-1, 2), 0, 3])
    assert p == 3 * x ** 3 - x / 2
    assert p.coefficients() == [0, F(-1, 2), 0, 3]
    assert repr(p) == "3*X^3 - 1/2*X"
    assert MultiPoly.univariate([1, 0, 0]).coefficients() == [1]
    assert MultiPoly.univariate([]).coefficients() == []
    assert MultiPoly.univariate([2, 1]) == x + 2
    for bad in (x * MultiPoly.var("Y"), MultiPoly.var("Y") + x):
        with pytest.raises(ValueError):
            bad.coefficients()


def test_repr_lists_terms_by_descending_degree():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert repr(x * y - 2 * y ** 3 + x * x + F(1, 2) * x - 3) == \
        "-2*y^3 + x^2 + x*y + 1/2*x - 3"


# The three renderers that ``_signed_sum`` replaced, kept as the
# reference the shared form must reproduce byte for byte.

def _reference_multipoly_repr(p):
    if not p.terms:
        return "0"
    parts = []
    for key in sorted(p.terms, key=_graded(p.variables())):
        c = Fraction(p.terms[key], p.den)
        factors = [f"{n}^{e}" if e > 1 else n for n, e in key]
        body = "*".join(factors) if factors else str(abs(c))
        if factors and abs(c) != 1:
            body = f"{abs(c)}*{body}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _reference_element_repr(x):
    if x.is_zero():
        return "0"
    parts = []
    for i in sorted(x.num):
        n, lab = x.num[i], x.algebra.labels[i]
        if n == x.den:
            term = lab
        elif n == -x.den:
            term = f"-{lab}"
        else:
            term = f"{format_ratio(n, x.den)}*{lab}"
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return text


def _reference_ncpoly_render(p, generators):
    if not p.terms:
        return "0"
    parts = []
    for word in sorted(p.terms, key=word_key, reverse=True):
        coeff = p.terms[word]
        text = "".join(generators[g] for g in word)
        if coeff == 1:
            chunk = text
        elif coeff == -1:
            chunk = f"-{text}"
        else:
            chunk = f"{format_scalar(coeff)}*{text}"
        parts.append(chunk)
    return " + ".join(parts).replace(" + -", " - ")


def _render_coefficient(rng):
    return rng.choice((1, -1, F(-3, 2), F(2, 7), -F(1, 6), 5, 10 ** 30,
                       -10 ** 30, F(10 ** 30, 7)))


def test_signed_sum_writes_the_linear_combination_form():
    assert _signed_sum([]) == "0"
    assert _signed_sum([(-1, 1, "")]) == "-1"
    assert _signed_sum([(1, 1, "x")]) == "x"
    assert _signed_sum([(-3, 3, "x")]) == "-x"
    assert _signed_sum([(-4, 6, "x*y")]) == "-2/3*x*y"
    assert _signed_sum([(2, 2, "x"), (-1, 1, "y"), (6, 2, ""),
                        (-5, 2, "")]) == "x - y + 3 - 5/2"


def test_renderers_match_the_reference_forms():
    rng = random.Random(25)
    names = ["t1", "t2", "X"]
    table = catalog.free_single_truncated(6)
    for _ in range(300):
        p = MultiPoly.zero()
        for _ in range(rng.choice((0, 1, 1, 2, 4, 6))):
            term = MultiPoly.const(_render_coefficient(rng))
            for _ in range(rng.randint(0, 3)):
                term = term * MultiPoly.var(rng.choice(names))
            p = p + term
        assert repr(p) == _reference_multipoly_repr(p)

        labels = rng.sample(table.labels, rng.choice((0, 1, 1, 3, 5)))
        x = table.element_from({lab: _render_coefficient(rng)
                                for lab in labels})
        assert repr(x) == _reference_element_repr(x)

        q = NcPoly({tuple(rng.randrange(3) for _ in range(rng.randint(1, 4))):
                    _render_coefficient(rng)
                    for _ in range(rng.choice((0, 1, 1, 3, 5)))})
        assert q.render(("x", "y", "z")) == \
            _reference_ncpoly_render(q, ("x", "y", "z"))
        assert repr(q) == "NcPoly(%s)" % _reference_ncpoly_render(
            q, [f"g{i}" for i in range(3)])


def _rand_symbolic(table, rng):
    """A symbolic element with mixed denominators, some coordinates zero
    and some constant."""
    num = {}
    for i in range(table.dim):
        poly = rand_poly(rng) + rand_scalar(rng) if rng.random() < 0.7 else 0
        if poly:
            num[i] = poly
    return _new(table, num, None)


def test_square_path_matches_the_general_product():
    # x * x visits each unordered coordinate pair once and doubles the
    # off-diagonal constants; y, an equal but distinct copy of x, makes
    # x * y take the general path over all ordered pairs.
    rng = random.Random(2707)
    tables = [bernstein_pool(rng) for _ in range(8)]
    tables.append(_twin(catalog.free_single_truncated(5), 3)[0])
    for table in tables:
        xs = [generic_element(table, "t"),
              generic_element(table, "n", restrict_to=table.barideal_basis())]
        xs += [_rand_symbolic(table, rng) for _ in range(4)]
        for x in xs:
            for z in (x, x * x):
                y = _new(z.algebra, dict(z.num), z.den)
                assert y is not z and y == z
                assert z * z == z * y == y * z
        assert any((x * x).num for x in xs)


def _rand_key(rng, names):
    return tuple((n, rng.randint(1, 3))
                 for n in sorted(rng.sample(names, rng.randint(0, 4))))


def test_merge_keys_matches_the_dict_reference():
    # One-variable keys are placed by position, on either side; keys with
    # shared names add exponents; the empty key returns the other.
    rng = random.Random(3401)
    names = [f"t{i}" for i in range(1, 7)]
    for _ in range(2000):
        k1 = _rand_key(rng, names)
        if rng.random() < 0.5:
            k1 = k1[:1]
        k2 = _rand_key(rng, names)
        exps = dict(k1)
        for n, e in k2:
            exps[n] = exps.get(n, 0) + e
        expected = tuple(sorted(exps.items()))
        assert _merge_keys(k1, k2) == _merge_keys(k2, k1) == expected
    t1, t2 = ("t1", 1), ("t2", 2)
    assert _merge_keys((t1,), (t1, t2)) == (("t1", 2), t2)
    assert _merge_keys((t2,), (t1, t2)) == (t1, ("t2", 4))
    assert _merge_keys((), (t1,)) == _merge_keys((t1,), ()) == (t1,)
    assert _merge_keys((), ()) == ()


def _rand_rows(rng, dim, den):
    """Symmetric rows in the form of ``AlgebraTable._integer_rows``: each
    nonzero s_ijk * den an integer, over ``den``."""
    rows = [{} for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() < 0.6:
                ks = rng.sample(range(dim), min(dim, rng.randint(1, 2)))
                rows[i][j] = rows[j][i] = tuple(
                    (k, rng.choice((-3, -2, -1, 1, 2, 4))) for k in sorted(ks))
    return rows


def _rand_triples(rng, dim, rational, single):
    """(index, terms, den) of a vector whose coordinates are one monomial
    each when ``single``, with rational coefficients when ``rational``."""
    out = []
    for i in sorted(rng.sample(range(dim), rng.randint(1, dim))):
        c = rand_nonzero(rng) if rational else rng.choice((-2, -1, 1, 3))
        if single or rng.random() < 0.3:
            p = MultiPoly.const(c)
            for _ in range(rng.randint(0, 2)):
                p = p * MultiPoly.var(f"t{rng.randint(1, 3)}")
        else:
            p = rand_poly(rng) + MultiPoly.var("t1") * c
            if not rational:
                p = p * p.den
        if p:
            out.append((i, p.terms, p.den))
    return out


def _ref_bilinear(rows, den, xs, ys):
    """sum over every ordered pair i, j of x_i y_j s_ijk, in Fractions."""
    out = {}
    for i, xterms, xden in xs:
        for j, yterms, yden in ys:
            prod = _ref_mul({m: F(c, xden) for m, c in xterms.items()},
                            {m: F(c, yden) for m, c in yterms.items()})
            for k, s in rows[i].get(j, ()):
                out[k] = _ref_add(out.get(k, {}),
                                  {m: c * F(s, den) for m, c in prod.items()})
    return {k: v for k, v in out.items() if v}


def _check_bilinear(rows, den, xs, ys=None):
    got = _bilinear(rows, den, xs, ys)
    assert all(p and _canonical(p) for p in got.values())
    assert {k: _ref(p) for k, p in got.items()} == \
        _ref_bilinear(rows, den, xs, xs if ys is None else ys)
    return got


def test_bilinear_matches_the_sum_of_products():
    # Integer constants over den 1 with integer coordinates keep the
    # output denominator 1; rational ones put a common factor to divide
    # out.  Single-monomial coordinates are accumulated as they are read,
    # others through their inner sums; squares visit i <= j only.
    rng = random.Random(3402)
    dens = set()
    for n in range(160):
        rational, single = n % 2 == 1, n % 4 < 2
        dim = rng.randint(1, 5)
        den = rng.choice((2, 3, 6)) if rational else 1
        rows = _rand_rows(rng, dim, den)
        xs = _rand_triples(rng, dim, rational, single)
        ys = _rand_triples(rng, dim, rational, single)
        for got in (_check_bilinear(rows, den, xs),
                    _check_bilinear(rows, den, xs, ys)):
            dens.update(p.den for p in got.values())
    assert 1 in dens and len(dens) > 3


def test_bilinear_drops_cancelled_terms():
    t1, t2, t3 = (((f"t{i}", 1),) for i in (1, 2, 3))
    rows = [{0: ((0, 1),)}, {1: ((0, 1), (1, 1))}]
    xs = [(0, {t1: 1}, 1), (1, {t1: 1}, 1)]
    # out_0 = t1 t2 - t1 t2 vanishes; out_1 = -t1 t2 survives
    got = _check_bilinear(rows, 1, xs, [(0, {t2: 1}, 1), (1, {t2: -1}, 1)])
    assert list(got) == [1]
    # t1 t2 cancels inside out_0 = t1 (t2 + t3) - t1 t2 + ..., over den 2
    got = _check_bilinear(rows, 2, xs, [(0, {t2: 1, t3: 1}, 1),
                                        (1, {t2: -1}, 1)])
    assert got[0] == MultiPoly.var("t1") * MultiPoly.var("t3") / 2
