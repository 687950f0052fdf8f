"""Algebra tables, elements, operators, univariate polynomials."""

import random
from fractions import Fraction

import pytest

from bernstein.core import (AlgebraError, AlgebraTable, Element, Operator,
                            UnivariatePoly, as_scalar, bilinear_product,
                            format_scalar, left_mult_operator, parse_scalar,
                            poly_eval, principal_powers, HALF, ONE, ZERO)
from bernstein import catalog, linalg
from bernstein.multipoly import MultiPoly
from bernstein.symbolic import generic_element

from conftest import bernstein_pool, rand_element, rand_scalar

F = Fraction


def test_scalar_parsing_and_formatting():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-2") == F(-2)
    assert parse_scalar(" 5/10 ") == F(1, 2)
    assert format_scalar(F(3, 4)) == "3/4"
    assert format_scalar(F(-2)) == "-2"
    assert as_scalar(7) == F(7)
    assert parse_scalar("0.5") == F(1, 2)  # exact decimal string
    for bad in ("1/0", "x", "", "1.5.2"):
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
        direct = table.element(
            bilinear_product(table, list(x.coords), list(y.coords), ZERO))
        assert direct == x * y
        op = left_mult_operator(x, carrier)
        assert table.element(op.apply(list(y.coords))) == x * y


def test_operator_algebra():
    table = catalog.shift_up_truncated(3)
    nbasis = table.barideal_basis()
    v = table.element_from({"v": 1})
    op = left_mult_operator(v, nbasis)
    assert not (op ** 2).is_zero()
    assert (op ** 3).is_zero()
    ident = Operator.identity(op.dim)
    assert op.compose(ident) == op
    assert (op - op).is_zero()


def test_left_mult_operator_checks_carrier():
    table = catalog.example_not_train()
    u = table.element_from({"u": 1})
    v = table.element_from({"v": 1})
    with pytest.raises(AlgebraError, match="not invariant"):
        left_mult_operator(u, [v])  # u*v = u leaves span(v)
    with pytest.raises(AlgebraError, match="dependent"):
        left_mult_operator(u, [v, v.scale(2)])


def test_univariate_poly_basics():
    x = UnivariatePoly.x()
    p = (x ** 3 - x ** 2) * (x - UnivariatePoly([F(3, 2)]))
    assert p == UnivariatePoly([0, 0, F(3, 2), F(-5, 2), 1])
    assert p.degree == 4 and p.is_monic and p.constant_term == 0
    assert p.coeff(3) == F(-5, 2) and p.coeff(99) == 0
    assert repr(p) == "X^4 - 5/2*X^3 + 3/2*X^2"
    assert p(F(1)) == 0 and p(F(2)) == 2
    q, r = p.divmod(x ** 3 - x ** 2)
    assert q == x - UnivariatePoly([F(3, 2)]) and r.is_zero()
    assert p.divisible_by(x ** 3 - x ** 2)
    assert not p.divisible_by(x - UnivariatePoly([F(1, 2)]))
    with pytest.raises(AlgebraError):
        p.divmod(UnivariatePoly())


def test_poly_eval_uses_principal_powers():
    table = catalog.example_not_train()
    a = table.element_from({"e": 1, "u": 1, "v": 1})
    p = UnivariatePoly([0, 0, F(3, 2), F(-5, 2), 1])
    assert poly_eval(a, p).is_zero()
    assert poly_eval(a, UnivariatePoly.x()) == a
    assert poly_eval(a, UnivariatePoly()) == table.zero()


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
            products[(a, b)] = dict(enumerate(linalg.express(vectors, image)))
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

    zero = MultiPoly.zero()
    for _ in range(6):
        x = [rand_coord() for _ in range(table.dim)]
        y = [rand_coord() for _ in range(table.dim)]
        xy = bilinear_product(table, x, y, zero)
        xx = bilinear_product(table, x, x, zero)
        for _ in range(4):
            point = {name: rand_scalar(rng) for name in names}
            xv = [c.evaluate(point) for c in x]
            yv = [c.evaluate(point) for c in y]
            assert [c.evaluate(point) for c in xy] == \
                bilinear_product(table, xv, yv, ZERO)
            assert [c.evaluate(point) for c in xx] == \
                bilinear_product(table, xv, xv, ZERO)


def test_scalar_exponent_notation_rejected():
    # Fraction accepts "1e1000000" and builds a million-digit integer.
    for bad in ("1e1000000", "2E3", "2.5e-3"):
        with pytest.raises(AlgebraError):
            parse_scalar(bad)
        with pytest.raises(AlgebraError):
            as_scalar(bad)
    assert parse_scalar("0.25") == F(1, 4)


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
                got = bilinear_product(table, a, b, ZERO)
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
                matrix = left_mult_operator(x, basis).matrix
                assert all(type(c) is MultiPoly for row in matrix for c in row)
                columns = [(x * b).coords for b in basis]
                assert matrix == tuple(zip(*columns))
            if table.weight is None:
                continue
            nbasis = table.barideal_basis()
            x = generic_element(table, "n", restrict_to=nbasis)
            matrix = left_mult_operator(x, nbasis).matrix
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
