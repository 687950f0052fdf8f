"""Element analysis: degrees, minimal polynomials, train elements,
singly generated subalgebras, and composition of polynomial maps."""

import random
from fractions import Fraction

import pytest

from bernstein.core import (AlgebraError, AlgebraTable, InternalCheckError,
                            poly_eval, HALF, ONE, ZERO)
from bernstein.elements import (ElementAnalysis, _train_gamma_formula,
                                analyze_element, minimal_poly_form_check,
                                singly_generated_subalgebra, train_element_rank,
                                train_f, train_polynomial)
from bernstein.multipoly import MultiPoly
from bernstein.symbolic import generic_element
from bernstein import catalog, linalg

from conftest import (bernstein_pool, mixed_table, non_bernstein_table,
                      nuclear_table, rand_combination, rand_scalar,
                      rand_unit_element)
from test_cli_golden import _twin

F = Fraction


def test_analyze_not_train_golden():
    table = catalog.example_not_train()
    a = table.element_from({"e": 1, "u": 1, "v": 1})
    res = analyze_element(a)
    assert res.degree == 3
    assert res.minimal_poly == \
        MultiPoly.univariate([0, 0, F(3, 2), F(-5, 2), 1])
    assert res.right_nil_index is None and not res.is_right_nilpotent
    assert len(res.power_basis) == 3
    assert minimal_poly_form_check(res)


def test_analyze_degenerate_elements():
    table = catalog.example_not_train()
    zero = analyze_element(table.zero())
    assert (zero.degree, zero.minimal_poly, zero.right_nil_index) == \
        (0, MultiPoly.var("X"), 2)
    e = analyze_element(table.element_from({"e": 1}))
    assert (e.degree, e.minimal_poly) == (1, MultiPoly.univariate([0, -1, 1]))
    u = analyze_element(table.element_from({"u": 1}))
    assert (u.degree, u.minimal_poly, u.right_nil_index) == \
        (1, MultiPoly.univariate([0, 0, 1]), 2)
    for res in (zero, e, u):
        assert minimal_poly_form_check(res)


def test_nil_index_on_shift():
    table = catalog.shift_up_truncated(3)
    x = table.element_from({"u1": 1, "v": 1})
    res = analyze_element(x)
    assert res.right_nil_index == 4
    assert (x ** 3).is_zero() is False and (x ** 4).is_zero()


def test_form_check_across_pool():
    rng = random.Random(41)
    for _ in range(10):
        table = bernstein_pool(rng)
        x = rand_unit_element(table, rng)
        assert minimal_poly_form_check(analyze_element(x))


def test_form_check_weight_zero_branch():
    # u + v has uv = u here, so its powers stabilise at 2u: the minimal
    # polynomial is X^3 - X^2, not X^3, although the weight is zero.
    table = catalog.example_not_train()
    x = table.element_from({"u": 1, "v": 1})
    res = analyze_element(x)
    assert x.weight() == 0
    assert (res.degree, res.right_nil_index) == (2, None)
    assert res.minimal_poly == MultiPoly.univariate([0, 0, -1, 1])
    assert res.minimal_poly.coefficients()[1] == 0
    assert minimal_poly_form_check(res)


def test_train_f_matches_closed_form():
    rng = random.Random(42)
    for _ in range(6):
        table = bernstein_pool(rng, max_dim=9)
        x = rand_unit_element(table, rng)
        for k in range(3, 7):
            direct = poly_eval(x, train_polynomial(k, x.weight()))
            assert train_f(x, k) == direct
    # a generic element over Q[t]: f_3 in closed form, and every f_k at
    # an integer point
    y = generic_element(table, "t")
    assert train_f(y, 3) == y ** 3 - (y ** 2).scale(y.weight())
    point = {v: F(rng.randint(-5, 5)) for v in y.variables()}
    x = y.evaluate(point)
    for k in range(3, 7):
        direct = poly_eval(x, train_polynomial(k, x.weight()))
        assert train_f(y, k).evaluate(point) == direct
    with pytest.raises(AlgebraError):
        train_f(x, 2)
    with pytest.raises(AlgebraError):
        train_polynomial(2)


def test_train_polynomial_closed_form_matches_expansion():
    """The closed-form coefficients against (X^3 - wX^2)(X - w/2)^(r-3)
    expanded with polynomial products, and the train report's
    coefficients against the same expansion at w = 1."""
    x = MultiPoly.var("X")
    for w in (F(1), F(-1), F(2), F(1, 2), F(-1, 2)):
        expanded = x ** 3 - w * x ** 2
        for rank in range(3, 25):
            assert train_polynomial(rank, w) == expanded
            if w == 1:
                assert _train_gamma_formula(rank) == tuple(
                    expanded.coefficients()[::-1][:rank])
            expanded = expanded * (x - MultiPoly.univariate([HALF * w]))


def test_form_check_matches_division_by_the_cubic():
    """For degree >= 3 the shape check is divisibility by X^3 - wX^2."""
    table = catalog.free_single_truncated(5)
    rng = random.Random(43)
    x = MultiPoly.var("X")
    for _ in range(40):
        a = rand_unit_element(table, rng).scale(rand_scalar(rng) or 1)
        w = a.weight()
        cubic = x ** 3 - w * x ** 2
        factor = MultiPoly.univariate([rand_scalar(rng) for _ in range(3)]
                                      + [1])
        for p in (cubic * factor, cubic * factor + x ** 2,
                  cubic * factor + x, cubic * x ** 2 - x ** 4):
            res = ElementAnalysis(a, 3, p, [], None)
            assert minimal_poly_form_check(res) == \
                (p.exact_div(cubic) is not None)


def test_train_f_vanishes_on_jordan():
    rng = random.Random(43)
    for table in (nuclear_table(), mixed_table(), catalog.constant_algebra()):
        for _ in range(8):
            x = rand_unit_element(table, rng)
            assert train_f(x, 3).is_zero()


def test_train_element_ranks():
    three = catalog.three_dim_alpha(F(3, 2))
    gen = three.element_from({"e": 1, "u1": 2, "v1": 1})
    assert train_element_rank(gen) == 4
    other = catalog.three_dim_alpha(F(2))
    assert train_element_rank(other.element_from({"e": 1, "u1": 2, "v1": 1})) \
        is None
    free = catalog.free_single_truncated(5)
    a = free.element_from({"e": 1, "u1": 2, "v1": 1})
    assert train_element_rank(a) == 6
    assert analyze_element(a).minimal_poly == train_polynomial(6)
    assert train_element_rank(three.element_from({"e": 1})) == 3
    const = catalog.constant_algebra()
    assert train_element_rank(const.element_from({"e": 1, "v": 1})) == 3


def test_train_rank_cross_check_runs_on_bernstein_tables(monkeypatch):
    import bernstein.elements as elements
    free = catalog.free_single_truncated(5)
    a = free.element_from({"e": 1, "u1": 2, "v1": 1})
    e = free.element_from({"e": 1})
    other = non_bernstein_table().element_from({"e": 1})
    ranks = [analyze_element(x).train_rank() for x in (a, e, other)]
    assert ranks == [6, 3, 3]
    monkeypatch.setattr(elements, "train_polynomial",
                        lambda rank, w=ONE: MultiPoly.var("X") ** 5)
    with pytest.raises(InternalCheckError, match="mismatch"):
        analyze_element(a).train_rank()
    with pytest.raises(InternalCheckError, match="multiple"):
        analyze_element(e).train_rank()
    # not Bernstein: the comparison does not apply and nothing is raised
    assert analyze_element(other).train_rank() == 3


def test_not_train_has_no_train_elements_beyond_bound():
    table = catalog.example_not_train()
    a = table.element_from({"e": 1, "u": 1, "v": 1})
    for k in range(3, 9):
        assert not train_f(a, k).is_zero()
    assert train_element_rank(a) is None


def test_singly_generated_free_round_trip():
    free = catalog.free_single_truncated(6)
    a = free.element_from({"e": 1, "u1": 2, "v1": 1})
    out, emb = singly_generated_subalgebra(a)
    assert out == free
    assert [repr(x) for x in emb[:1]] == ["e"]
    betas = (F(1), F(-1, 2), ZERO)
    bent = catalog.free_single_truncated(5, betas)
    b = bent.element_from({"e": 1, "u1": 2, "v1": 1})
    out2, _ = singly_generated_subalgebra(b)
    assert out2 == bent


def _degree_cases():
    free = catalog.free_single_truncated(6)
    return [(free, {"e": 1}, 1),
            (catalog.constant_algebra(), {"e": 1, "v": 3}, 2),
            (catalog.three_dim_alpha(F(5)), {"e": 1, "u1": 2, "v1": 1}, 3),
            (catalog.free_single_truncated(5, (1, F(-1, 2), 0)),
             {"e": 1, "u1": 2, "v1": 1}, 5)]


def test_singly_generated_small_degrees():
    table = catalog.free_single_truncated(6)
    e = table.element_from({"e": 1})
    out, emb = singly_generated_subalgebra(e)
    assert out.dim == 1 and emb == [e]
    const = catalog.constant_algebra()
    c = const.element_from({"e": 1, "v": 3})
    out, emb = singly_generated_subalgebra(c)
    assert out.labels == ("e", "v1") and out.dim == 2
    assert emb[0] == c * c and emb[1] == c - c * c
    three = catalog.three_dim_alpha(F(5))
    g = three.element_from({"e": 1, "u1": 2, "v1": 1})
    out, emb = singly_generated_subalgebra(g)
    assert out == three
    assert emb[0] == g ** 2 and emb[1] == g ** 3 - g ** 2
    # the same tables and embeddings on a seeded basis that is not adapted
    for seed, (table, parts, degree) in enumerate(_degree_cases()):
        twin, p = _twin(table, seed)
        space = linalg.Subspace(p)

        def move(x):
            return twin.element(space.coords(list(x.coords)))
        a = table.element_from(parts)
        out, emb = singly_generated_subalgebra(a)
        twin_out, twin_emb = singly_generated_subalgebra(move(a))
        assert out.dim == degree and twin_out == out, table.name
        assert twin_emb == [move(x) for x in emb]


def test_singly_generated_compares_with_the_model(monkeypatch):
    # alg(a) with v1 v1 given an extra v1 term, which the weight allows
    real = AlgebraTable.change_basis

    def perturbed(self, vectors, labels, **kwargs):
        out = real(self, vectors, labels, **kwargs)
        if out.name != "alg(a)":
            return out
        products = {pair: dict(vec) for pair, vec in out.product_items()}
        top = out.dim - 1
        square = products.setdefault((top, top), {})
        square[top] = square.get(top, ZERO) + 1
        return AlgebraTable(out.labels, products, weight=out.weight,
                            name=out.name)

    for table, parts, degree in _degree_cases()[1:]:
        a = table.element_from(parts)
        assert singly_generated_subalgebra(a)[0].dim == degree
        with monkeypatch.context() as m:
            m.setattr(AlgebraTable, "change_basis", perturbed)
            with pytest.raises(InternalCheckError, match="canonical form"):
                singly_generated_subalgebra(a)


def test_singly_generated_embedding_is_multiplicative():
    rng = random.Random(44)
    for _ in range(6):
        table = bernstein_pool(rng, max_dim=9)
        a = rand_unit_element(table, rng)
        out, emb = singly_generated_subalgebra(a)
        for i in range(out.dim):
            for j in range(i, out.dim):
                image = table.zero()
                for idx, c in out.product_vector(i, j).items():
                    image = image + emb[idx].scale(c)
                assert emb[i] * emb[j] == image


def test_elementary_square_law():
    table = catalog.elementary_algebra(2)
    rng = random.Random(45)
    for _ in range(10):
        x = rand_unit_element(table, rng)
        assert x * x == x.scale(x.weight())
        assert analyze_element(x).degree == 1
        assert train_element_rank(x) == 3


# --- composition of polynomial maps -----------------------------------------
#
# Model commutative nonassociative ring over Q with basis y^a x^k and
#     (y^a x^k)(y^b x^j) = y^(a+b) x^(k+j)                  if min(k, j) <= 1
#                        = (y^(a+b+k) x^j + y^(a+b+j) x^k)/2   otherwise,
# the universal setting for power products of a single element.  Elements
# are dicts {(a, k): coefficient}.

def _model_mul(p, q):
    out = {}
    for (a, k), c1 in p.items():
        for (b, j), c2 in q.items():
            c = c1 * c2
            if k >= 2 and j >= 2:
                for mono in ((a + b + k, j), (a + b + j, k)):
                    out[mono] = out.get(mono, ZERO) + c * HALF
            else:
                mono = (a + b, k + j)
                out[mono] = out.get(mono, ZERO) + c
    return {m: c for m, c in out.items() if c}


def _model_eval(poly, elem):
    cs = poly.coefficients()
    degree = len(cs) - 1
    assert cs[0] == 0
    power = dict(elem)
    out = {}
    for i in range(1, degree + 1):
        c = cs[i]
        if c:
            for m, v in power.items():
                out[m] = out.get(m, ZERO) + c * v
        if i < degree:
            power = _model_mul(power, elem)
    return {m: c for m, c in out.items() if c}


def _model_weight(p):
    """The specialisation x -> y, a ring map onto Q[y]."""
    coeffs = {}
    for (a, k), c in p.items():
        coeffs[a + k] = coeffs.get(a + k, ZERO) + c
    top = max(coeffs, default=0)
    return MultiPoly.univariate([coeffs.get(i, ZERO) for i in range(top + 1)])


def _rand_poly(rng, max_deg=4):
    while True:
        coeffs = [ZERO] + [rand_scalar(rng) for _ in range(max_deg)]
        p = MultiPoly.univariate(coeffs)
        if p.total_degree() >= 1:
            return p


def test_model_weight_map_is_multiplicative():
    rng = random.Random(46)
    for _ in range(40):
        p = {(rng.randint(0, 3), rng.randint(0, 4)): rand_scalar(rng)
             for _ in range(3)}
        q = {(rng.randint(0, 3), rng.randint(0, 4)): rand_scalar(rng)
             for _ in range(3)}
        lhs = _model_weight(_model_mul(p, q))
        rhs = _model_weight(p) * _model_weight(q)
        assert lhs == rhs


def test_composed_polynomials_never_vanish_in_model():
    rng = random.Random(47)
    x = {(0, 1): ONE}
    for _ in range(60):
        p, q = _rand_poly(rng), _rand_poly(rng)
        value = _model_eval(q, _model_eval(p, x))
        assert value, (p, q)
        composed = MultiPoly.univariate([ZERO])
        for i, c in enumerate(q.coefficients()):
            if i and c:
                composed = composed + c * p ** i
        assert _model_weight(value) == composed
        assert composed.total_degree() == p.total_degree() * q.total_degree()


def test_model_evaluation_matches_algebra_powers():
    rng = random.Random(48)
    x = {(0, 1): ONE}
    tables = [catalog.free_single_truncated(7), mixed_table(),
              catalog.zhevlakov_bernstein(3, 2)]
    for table in tables:
        for _ in range(12):
            a = rand_unit_element(table, rng)
            p, q = _rand_poly(rng, 3), _rand_poly(rng, 3)
            model = _model_eval(q, _model_eval(p, x))
            image = table.zero()
            for (_, k), c in model.items():
                image = image + (a ** k).scale(c)
            assert image == poly_eval(poly_eval(a, p), q)
