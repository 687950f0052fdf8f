"""Algebra tables, elements, operators, univariate polynomials."""

import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest

from bernstein.core import (AlgebraError, AlgebraTable, Element,
                            as_scalar, format_scalar, left_mult_operator, parse_scalar,
                            poly_eval, principal_powers, HALF, ONE, ZERO)
from bernstein import catalog, linalg
from bernstein.multipoly import MultiPoly
from bernstein.symbolic import generic_element

from conftest import bernstein_pool, mixed_table, rand_element, rand_scalar

F = Fraction


def test_scalar_parsing_and_formatting():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-2") == F(-2)
    assert parse_scalar(" 5/10 ") == F(1, 2)
    assert format_scalar(F(3, 4)) == "3/4"
    assert format_scalar(F(-2)) == "-2"
    assert as_scalar(7) == F(7)
    for bad in ("0.5", "1/0", "x", "", "1.5.2"):  # decimals are rejected
        with pytest.raises(AlgebraError):
            parse_scalar(bad)
    with pytest.raises(AlgebraError):
        as_scalar(0.5)


def test_build_validation():
    with pytest.raises(AlgebraError):
        AlgebraTable.build(("e", "e"), {})
    with pytest.raises(AlgebraError):
        AlgebraTable.build(("e",), {("e", "u"): {"e": 1}})
    with pytest.raises(AlgebraError):
        AlgebraTable.build(("e",), {("e", "e"): {"u": 1}})
    with pytest.raises(AlgebraError):
        AlgebraTable.build(("e", "u"),
                           {("e", "u"): {"u": 1}, ("u", "e"): {"u": 2}})
    consistent = AlgebraTable.build(
        ("e", "u"), {("e", "u"): {"u": 1}, ("u", "e"): {"u": 1}})
    assert consistent.product_vector(0, 1) == {1: ONE}
    with pytest.raises(AlgebraError):
        AlgebraTable.build(("e",), {("e", "e"): {"e": 1}}, weight={"x": 1})


def test_weight_check_reports_the_first_bad_pair():
    # (a, b) has no stored product but w(a) w(b) = 1/6; the stored
    # product b c = a fails later
    with pytest.raises(AlgebraError) as err:
        AlgebraTable(("a", "b", "c"), {(0, 0): {0: HALF}, (1, 2): {0: 1}},
                     weight=(HALF, F(1, 3), ZERO))
    assert str(err.value) == "weight is not multiplicative on pair (a, b)"
    # the stored product e u = e fails first; (e, v) has no stored
    # product and fails later
    with pytest.raises(AlgebraError) as err:
        AlgebraTable(("e", "u", "v"),
                     {(0, 0): {0: 1}, (0, 1): {0: 1}, (2, 2): {2: 1}},
                     weight=(ONE, ZERO, ONE))
    assert str(err.value) == "weight is not multiplicative on pair (e, u)"
    table = AlgebraTable(("e", "u"), {(0, 0): {0: F(3, 2)}, (0, 1): {1: 5}},
                         weight=(F(3, 2), ZERO))
    assert table.weight == (F(3, 2), ZERO)


def test_table_accessors():
    table = catalog.example_not_train()
    assert table.dim == 3
    assert table.labels == ("e", "u", "v")
    assert table.has_weight
    assert table.index("u") == 1
    with pytest.raises(AlgebraError):
        table.index("w")
    assert table.product_vector(1, 2) == {1: ONE}
    assert table.product_vector(2, 1) == {1: ONE}
    assert table.weight_of([F(2), F(5), F(7)]) == F(2)
    assert [b.coords.count(ZERO) for b in table.basis()] == [2, 2, 2]
    assert table.zero().is_zero()
    kernel = table.barideal_basis()
    assert [repr(b) for b in kernel] == ["u", "v"]
    assert all(b.weight() == 0 for b in kernel)


def test_structural_equality():
    t1 = catalog.shift_up_truncated(3)
    t2 = catalog.shift_up_truncated(3)
    t3 = catalog.shift_down_truncated(3)
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != t3
    assert t1.structural_key() == t2.structural_key()


def test_element_arithmetic_axioms():
    rng = random.Random(4)
    table = catalog.free_single_truncated(5)
    for _ in range(20):
        x = rand_element(table, rng)
        y = rand_element(table, rng)
        z = rand_element(table, rng)
        c = rand_scalar(rng)
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert x.scale(c) * y == (x * y).scale(c)
        assert c * x == x.scale(c)
        assert x - x == table.zero()
        assert -(-x) == x
        assert x.weight() + y.weight() == (x + y).weight()
        assert (x * y).weight() == x.weight() * y.weight()


def test_zero_elements_hash_like_zero():
    # A zero element compares equal to 0, so it must hash like 0 to be
    # found under the key 0.
    table = catalog.free_single_truncated(4)
    x = table.basis_element(1)
    g = generic_element(table)
    for zero in (table.zero(), x - x, x.scale(0), g - g, g.scale(0)):
        assert zero == 0 and hash(zero) == hash(0)
        assert {0: "v"}.get(zero) == "v"
    assert {x: "v"}.get(table.basis_element(1)) == "v"
    assert hash(x) == hash(x.coords)


def test_mixed_algebra_elements_rejected():
    a = catalog.constant_algebra().basis_element(0)
    b = catalog.example_not_train().basis_element(0)
    with pytest.raises(AlgebraError):
        a + b  # noqa: B018 - evaluated for the raise


def test_principal_powers_are_right_powers():
    rng = random.Random(5)
    table = catalog.shift_down_truncated(4)
    x = rand_element(table, rng)
    powers = principal_powers(x, 5)
    assert powers[0] == x
    for k in range(1, 5):
        assert powers[k] == powers[k - 1] * x
        assert x ** (k + 1) == powers[k]
    with pytest.raises(AlgebraError):
        x ** 0


def test_element_from_and_repr():
    table = catalog.example_not_train()
    a = table.element_from({"e": 1, "u": 3})
    assert repr(a) == "e + 3*u"
    assert repr(table.zero()) == "0"
    assert repr(table.element_from({"u": F(-1, 2)})) == "-1/2*u"
    with pytest.raises(AlgebraError):
        table.element_from({"bogus": 1})
    with pytest.raises(AlgebraError):
        table.element([ONE])


def test_bilinear_product_matches_operator():
    rng = random.Random(6)
    table = catalog.zhevlakov_bernstein(3, 2)
    carrier = table.basis()
    for _ in range(10):
        x = rand_element(table, rng)
        y = rand_element(table, rng)
        # the product of the elements read back from dense coordinates
        direct = Element(table, list(x.coords)) * Element(table, list(y.coords))
        assert direct == x * y
        op = left_mult_operator(x, carrier)
        assert table.element([sum((a * c for a, c in zip(row, y.coords)),
                                  ZERO) for row in op]) == x * y


def test_operator_algebra():
    table = catalog.shift_up_truncated(3)
    nbasis = table.barideal_basis()
    v = table.element_from({"v": 1})
    op = left_mult_operator(v, nbasis)
    assert type(op) is tuple and all(type(row) is tuple for row in op)
    # the k-th power of the matrix, applied to the coordinates of b_j,
    # gives the coordinates of v (v ... (v b_j)) with k factors v
    for j, b in enumerate(nbasis):
        coords = [ONE if i == j else ZERO for i in range(len(nbasis))]
        image = b
        for k in range(1, 4):
            coords = [sum((a * c for a, c in zip(row, coords)), ZERO)
                      for row in op]
            image = v * image
            assert sum((w.scale(c) for w, c in zip(nbasis, coords)),
                       table.zero()) == image
    assert any(v * (v * b) for b in nbasis)
    assert not any(v * (v * (v * b)) for b in nbasis)


def test_left_mult_operator_checks_carrier():
    table = catalog.example_not_train()
    u = table.element_from({"u": 1})
    v = table.element_from({"v": 1})
    with pytest.raises(AlgebraError, match="not invariant"):
        left_mult_operator(u, [v])  # u*v = u leaves span(v)
    with pytest.raises(AlgebraError, match="dependent"):
        left_mult_operator(u, [v, v.scale(2)])


def test_univariate_poly_basics():
    x = MultiPoly.var("X")
    p = (x ** 3 - x ** 2) * (x - MultiPoly.univariate([F(3, 2)]))
    assert p == MultiPoly.univariate([0, 0, F(3, 2), F(-5, 2), 1])
    cs = p.coefficients()
    assert p.total_degree() == 4 and cs[-1] == 1 and cs[0] == 0
    assert cs[3] == F(-5, 2) and len(cs) == 5
    assert repr(p) == "X^4 - 5/2*X^3 + 3/2*X^2"
    assert p.evaluate({"X": F(1)}) == 0 and p.evaluate({"X": F(2)}) == 2
    q = p.exact_div(x ** 3 - x ** 2)
    assert q == x - MultiPoly.univariate([F(3, 2)])
    assert p.exact_div(x ** 3 - x ** 2) is not None
    assert p.exact_div(x - MultiPoly.univariate([F(1, 2)])) is None
    with pytest.raises((AlgebraError, ZeroDivisionError)):
        p.exact_div(MultiPoly.zero())


def test_poly_eval_uses_principal_powers():
    table = catalog.example_not_train()
    a = table.element_from({"e": 1, "u": 1, "v": 1})
    p = MultiPoly.univariate([0, 0, F(3, 2), F(-5, 2), 1])
    assert poly_eval(a, p).is_zero()
    assert poly_eval(a, MultiPoly.var("X")) == a
    assert poly_eval(a, MultiPoly.zero()) == table.zero()
    with pytest.raises(AlgebraError, match="constant term"):
        poly_eval(a, p + 1)


def _rebased(table, rng):
    """The table on a seeded unimodular basis b'_a = sum_i P[a][i] b_i,
    P built from integer row operations on the identity."""
    n = table.dim
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        p[a] = [u + f * v for u, v in zip(p[a], p[b])]
    basis = [table.element(row) for row in p]
    vectors = [list(b.coords) for b in basis]
    products = {}
    for a in range(n):
        for b in range(a, n):
            image = list((basis[a] * basis[b]).coords)
            products[(a, b)] = dict(enumerate(
                linalg.Subspace(vectors).coords(image)))
    return AlgebraTable(table.labels, products)


def test_symbolic_bilinear_product_matches_concrete():
    rng = random.Random(8)
    table = _rebased(catalog.free_single_truncated(5), rng)
    constants = [c for _, vec in table.product_items() for c in vec.values()]
    assert any(c.denominator > 1 for c in constants)
    names = ("r", "s", "t")

    def rand_coord():
        if rng.random() < 0.2:
            return MultiPoly.zero()
        poly = MultiPoly.const(rand_scalar(rng))
        for name in names:
            poly = poly + rand_scalar(rng) * MultiPoly.var(name)
        return poly * (MultiPoly.var(rng.choice(names)) + rand_scalar(rng))

    def product(a, b):
        """The dense coordinates of the product of the elements with
        coordinates a and b."""
        return list((Element(table, a) * Element(table, b)).coords)

    for _ in range(6):
        x = [rand_coord() for _ in range(table.dim)]
        y = [rand_coord() for _ in range(table.dim)]
        # a concrete side, read in place: it must act as its lift
        c = [rand_scalar(rng) if rng.random() < 0.7 else ZERO
             for _ in range(table.dim)]
        lifted = [MultiPoly.const(v) for v in c]
        xy = product(x, y)
        xx = product(x, x)
        xc = product(x, c)
        cy = product(c, y)
        assert all(isinstance(v, MultiPoly) for v in xy + xx + xc + cy)
        assert xc == product(x, lifted)
        assert cy == product(lifted, y)
        for _ in range(4):
            point = {name: rand_scalar(rng) for name in names}
            xv = [c.evaluate(point) for c in x]
            yv = [c.evaluate(point) for c in y]
            assert [c.evaluate(point) for c in xy] == product(xv, yv)
            assert [c.evaluate(point) for c in xx] == product(xv, xv)
        # at integer points the mixed products are the concrete product
        point = {name: F(rng.randint(-3, 3)) for name in names}
        xv = [v.evaluate(point) for v in x]
        yv = [v.evaluate(point) for v in y]
        assert [v.evaluate(point) for v in xc] == product(xv, c)
        assert [v.evaluate(point) for v in cy] == product(c, yv)


def test_scalar_exponent_notation_rejected():
    # Fraction accepts "1e1000000" and builds a million-digit integer.
    for bad in ("1e1000000", "2E3", "2.5e-3"):
        with pytest.raises(AlgebraError):
            parse_scalar(bad)
        with pytest.raises(AlgebraError):
            as_scalar(bad)
    with pytest.raises(AlgebraError, match="bad scalar '0.25'"):
        parse_scalar("0.25")


def _triple_loop_product(table, x, y):
    """sum over i, j, k of x_i y_j s_ijk e_k, in Fractions."""
    out = [F(0)] * table.dim
    for i in range(table.dim):
        for j in range(table.dim):
            for k, s in table.product_vector(i, j).items():
                out[k] += F(x[i]) * F(y[j]) * s
    return out


def _rand_coords(rng, dim):
    """Sparse, dense, zero or integer vectors, some with large
    denominators."""
    kind = rng.random()
    if kind < 0.1:
        return [ZERO] * dim
    if kind < 0.25:
        return [rng.randint(-3, 3) for _ in range(dim)]
    if kind < 0.5:
        return [F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9))
                if rng.random() < 0.6 else ZERO for _ in range(dim)]
    return [rand_scalar(rng) if rng.random() < 0.5 else ZERO
            for _ in range(dim)]


def test_concrete_bilinear_product_matches_triple_loop():
    rng = random.Random(9)
    tables = [_rebased(catalog.free_single_truncated(5), rng),
              _rebased(catalog.example_not_train(), rng),
              _rebased(catalog.shift_up_truncated(4), rng),
              catalog.three_dim_alpha(F(3, 7))]
    for table in tables:
        for _ in range(12):
            x = _rand_coords(rng, table.dim)
            y = _rand_coords(rng, table.dim)
            for a, b in ((x, y), (x, x), (y, x)):
                got = list((Element(table, a) * Element(table, b)).coords)
                assert got == _triple_loop_product(table, a, b)
                assert all(type(c) is Fraction for c in got)
            xe, ye = table.element(x), table.element(y)
            assert (xe * ye).coords == tuple(_triple_loop_product(table, x, y))
            assert (xe * xe).coords == tuple(_triple_loop_product(table, x, x))
    assert any(c.denominator > 1 for _, vec in tables[0].product_items()
               for c in vec.values())


def _one_ring_tables(seed):
    """Pool algebras and their ``_rebased`` twins, seeded."""
    rng = random.Random(seed)
    out = []
    for _ in range(4):
        table = bernstein_pool(rng, max_dim=6)
        out += [table, _rebased(table, rng)]
    return rng, out


def _lift(x):
    return Element(x.algebra, tuple(MultiPoly.const(c) for c in x.coords))


def _coord_types(x):
    return {type(c) for c in x.coords}


def _elements_of_both_rings(table, rng):
    """Two concrete elements and two symbolic ones, one of them a
    generic element of the span of two concrete vectors."""
    c, d = rand_element(table, rng), rand_element(table, rng)
    g = generic_element(table, "t")
    h = generic_element(table, "s", restrict_to=[d, table.basis_element(0)])
    return c, d, g, h


def test_mixed_arithmetic_keeps_one_coordinate_type():
    for seed in (61, 62):
        rng, tables = _one_ring_tables(seed)
        for table in tables:
            c, d, g, h = _elements_of_both_rings(table, rng)
            p = MultiPoly.var("t1") + rand_scalar(rng)
            for x in (g, h, c * g, g * c, c + g, g - c, h * d, d - h,
                      c.scale(p), p * c, g.scale(rand_scalar(rng)),
                      g.scale(0), c * h * c, (h - h) * c):
                assert x.is_symbolic() and _coord_types(x) == {MultiPoly}
            for x in (c * d, c + d, c.scale(rand_scalar(rng)), c ** 3):
                assert not x.is_symbolic() and _coord_types(x) == {Fraction}


def test_product_with_concrete_side_equals_product_with_lifted_side():
    for seed in (63, 64):
        rng, tables = _one_ring_tables(seed)
        for table in tables:
            c, d, g, h = _elements_of_both_rings(table, rng)
            for x in (c, g, h):
                assert x * d == x * _lift(d) and d * x == _lift(d) * x
            # the concrete kernel against the polynomial one
            assert (c * d).coords == (_lift(c) * _lift(d)).coords


def test_evaluate_commutes_with_products():
    for seed in (65, 66):
        rng, tables = _one_ring_tables(seed)
        for table in tables:
            c, d, g, h = _elements_of_both_rings(table, rng)
            names = sorted(set(g.variables()) | set(h.variables()))
            assert c.variables() == [] and c.evaluate({}) is c
            for _ in range(2):
                point = {n: rand_scalar(rng) for n in names}
                for x, y in ((g, h), (g, g), (h, c), (c, g), (c, d)):
                    assert (x * y).evaluate(point) == \
                        x.evaluate(point) * y.evaluate(point)
                    assert (x + y).evaluate(point) == \
                        x.evaluate(point) + y.evaluate(point)
                if table.weight is not None:
                    assert g.weight().evaluate(point) == \
                        g.evaluate(point).weight()


def test_left_mult_operator_of_symbolic_element_matches_products():
    for seed in (67, 68):
        rng, tables = _one_ring_tables(seed)
        for table in tables:
            _, _, g, h = _elements_of_both_rings(table, rng)
            basis = table.basis()
            for x in (g, h):
                matrix = left_mult_operator(x, basis)
                assert all(type(c) is MultiPoly for row in matrix for c in row)
                columns = [(x * b).coords for b in basis]
                assert matrix == tuple(zip(*columns))
            if table.weight is None:
                continue
            nbasis = table.barideal_basis()
            x = generic_element(table, "n", restrict_to=nbasis)
            matrix = left_mult_operator(x, nbasis)
            for j, b in enumerate(nbasis):
                image = table.zero()
                for i, v in enumerate(nbasis):
                    image = image + v.scale(matrix[i][j])
                assert image == x * b


def test_concrete_repr_is_unchanged():
    rng = random.Random(31)
    table = catalog.free_single_truncated(5)
    got = [repr(rand_element(table, rng, span=2)) for _ in range(6)]
    assert got == ["-e - u1 - 1/3*u2 - 2*u3 - 2/3*v1",
                   "-1/3*e - u1 - 2/3*u2 - 2*u3 - 1/3*v1",
                   "1/3*e + u1 + 2*u2 - 2*u3 + 1/2*v1",
                   "-e - u3 - 1/2*v1", "2/3*e + 2*u1 - 2*u2 - v1",
                   "e - 2/3*u1 + u2 - u3 + 1/3*v1"]
    assert repr(table.element_from({"e": 1, "u1": -2, "v1": "1/3"})) == \
        "e - 2*u1 + 1/3*v1"
    x = generic_element(catalog.example_not_train(), "t")
    assert repr(x) == "(t1)*e + (t2)*u + (t3)*v"
    assert repr(x - x) == "0"


def _change_basis_twin(table, rng):
    """The table on a seeded basis, built by ``change_basis``: integer
    row operations and rational row scalings, so that weights and
    structure constants get denominators."""
    n = table.dim
    p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        p[a] = [u + f * v for u, v in zip(p[a], p[b])]
    for a in range(n):
        f = rng.choice((1, F(1, 2), F(-3, 2), F(2, 3)))
        p[a] = [f * u for u in p[a]]
    return table.change_basis(p, table.labels, name="twin")


def test_barideal_basis_is_the_weight_row_kernel():
    """The sparse weight kernel against ``linalg.kernel`` of the weight
    row, on catalog tables and twins with rational and negative weights;
    every call returns fresh elements."""
    rng = random.Random(19)
    tables = [catalog.example_not_train(), catalog.shift_down_truncated(4),
              catalog.free_single_truncated(5), mixed_table()]
    tables += [_change_basis_twin(t, rng) for t in tables]
    leads = [next(w for w in t.weight if w) for t in tables]
    assert min(leads) < 0 and any(w.denominator > 1 for w in leads)
    for table in tables:
        basis = table.barideal_basis()
        assert [list(b.coords) for b in basis] == \
            linalg.kernel([list(table.weight)])
        assert all(b.weight() == 0 for b in basis)
        basis.append(table.zero())
        basis[0].num.clear()
        again = table.barideal_basis()
        assert len(again) == table.dim - 1 and not again[0].is_zero()


def _sparse_rational_vector(rng, dim):
    """Seeded sparse rational coordinates: zero vectors, negative
    entries, ints, and entries n/d given with n and d not coprime, so
    that the element must reduce them."""
    if rng.random() < 0.15:
        return [0] * dim
    out = []
    for _ in range(dim):
        if rng.random() < 0.5:
            out.append(0)
        elif rng.random() < 0.3:
            out.append(rng.randint(-5, 5))
        else:
            d = rng.choice((2, 3, 4, 6, 12))
            out.append(F(rng.randint(-3, 3) * rng.choice((1, 2, 3)), d))
    return out


def test_sparse_elements_match_fraction_reference():
    """Element operations and ``Subspace`` fed elements against plain
    Fraction arithmetic on dense coordinates (``product_vector`` only)."""
    from bernstein.core import _concrete, _power_chain
    rng = random.Random(1507)
    natives = [catalog.free_single_truncated(5), catalog.example_not_train(),
               catalog.shift_up_truncated(3), catalog.three_dim_alpha(F(3, 7)),
               mixed_table()]
    tables = natives + [_change_basis_twin(t, rng) for t in natives]
    assert any(w.denominator > 1 for t in tables if t.weight is not None
               for w in t.weight)
    for table in tables:
        n = table.dim
        vectors = [_sparse_rational_vector(rng, n) for _ in range(6)]
        vectors.append([0] * n)
        elems = [Element(table, v) for v in vectors]
        dense = [[F(c) for c in v] for v in vectors]
        for x, xv in zip(elems, dense):
            assert x.coords == tuple(xv)
            assert all(type(c) is Fraction for c in x.coords)
            assert x.is_zero() == (not any(xv)) == (x == 0) == (not x)
            assert x.den > 0 and all(x.num.values())
            assert gcd(x.den, *x.num.values()) == 1
            # the same element from an unreduced pair
            y = _concrete(table, {k: 6 * a for k, a in x.num.items()},
                          6 * x.den)
            assert y == x and hash(y) == hash(x) == \
                (hash(tuple(xv)) if any(xv) else hash(0))
            assert (-x).coords == tuple(-c for c in xv)
            for c in (0, -1, F(-2, 3), F(6, 4), 5):
                assert x.scale(c).coords == tuple(F(c) * a for a in xv)
            if table.weight is not None:
                assert x.weight() == sum(a * w for a, w in
                                         zip(xv, table.weight))
            power, ref = x, xv
            for chained in islice(_power_chain(x), 4):
                assert chained == power and chained.coords == tuple(ref)
                power = power * x
                ref = _triple_loop_product(table, ref, xv)
        for (x, xv), (y, yv) in zip(zip(elems, dense),
                                    zip(elems[1:] + elems[:1],
                                        dense[1:] + dense[:1])):
            assert (x * y).coords == tuple(_triple_loop_product(table, xv, yv))
            assert (x + y).coords == tuple(a + b for a, b in zip(xv, yv))
            assert (x - y).coords == tuple(a - b for a, b in zip(xv, yv))
            assert (x == y) == (xv == yv)
            assert (x - x).is_zero() and (x - x).den == 1
        # Subspace fed elements: the same echelon form, membership and
        # coordinates as the dense Fraction vectors, checked by summing.
        by_elems, by_dense = linalg.Subspace(), linalg.Subspace()
        for x, xv in zip(elems, dense):
            relation = by_elems.relation(x)
            assert (relation is None) == by_dense.add(xv)
            if relation is not None:
                combo = [sum(c * v[k] for c, v in zip(relation, dense))
                         for k in range(n)]
                assert combo == xv
        assert by_elems.rows() == by_dense.rows()
        for y, yv in zip(elems, dense):
            target = y * elems[1] + y
            tv = [a + b for a, b in
                  zip(_triple_loop_product(table, yv, dense[1]), yv)]
            assert by_elems.contains(target) == by_dense.contains(tv)
            got = by_elems.coords(target)
            assert got == by_dense.coords(tv)
            if got is not None:
                assert [sum(c * v[k] for c, v in zip(got, dense))
                        for k in range(n)] == tv
        # a zero product of symbolic elements stays symbolic
        g = generic_element(table, "t")
        for z in (g * table.zero(), table.zero() * g, (g - g) * g,
                  g.scale(0), g - g):
            assert z.is_symbolic() and z.is_zero()
            assert all(type(c) is MultiPoly for c in z.coords)
            assert z.ring_zero() == MultiPoly.zero()
            if table.weight is not None:
                assert type(z.weight()) is MultiPoly
