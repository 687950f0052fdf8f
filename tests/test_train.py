"""Train analyses, tree enumerations, Engel and nilpotency reports."""

import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from bernstein.core import (AlgebraError, AlgebraTable, Element, HALF,
                            _power_chain,
                            ZERO, left_mult_operator)
from bernstein.elements import _train_forms, train_polynomial
from bernstein.multipoly import MultiPoly
from bernstein.symbolic import generic_element
from bernstein.train import (MAX_ENUMERATED_LEAVES, _tree_sums,
                             check_lx_power_splitting, engel_check,
                             engel_yagzhev_report, eval_tree, full_trees,
                             generic_nil_index, ideal_power_chain,
                             is_principal_shape, locally_train_analysis,
                             operator_nilpotency_check, parenthesized_powers,
                             train_analysis, tree_label, tree_power_sum)
from bernstein.structure import (_components, adapted_table, lyubich_ideal,
                                 peirce)
from bernstein import catalog, symbolic, train

from conftest import (bernstein_pool, pool_builders, rand_combination,
                      rand_element, rand_unit_element)
from test_change_basis import _unimodular

F = Fraction


def test_full_trees_catalan_counts():
    for m in range(1, 8):
        n = m - 1
        catalan = math.comb(2 * n, n) // (n + 1)
        trees = full_trees(m)
        assert len(trees) == catalan
        labels = {tree_label(t) for t in trees}
        assert len(labels) == catalan
    assert sum(is_principal_shape(t) for t in full_trees(4)) == 4
    assert sum(is_principal_shape(t) for t in full_trees(5)) == 8
    with pytest.raises(AlgebraError):
        full_trees(0)


def test_parenthesized_powers_not_train():
    table = catalog.example_not_train()
    x = table.element_from({"u": 1, "v": 1})
    values = parenthesized_powers(x, 4)
    assert len(values) == 5
    assert values["((xx)(xx))"].is_zero()
    expected = x ** 4
    for label, value in values.items():
        if label != "((xx)(xx))":
            assert value == expected
    with pytest.raises(AlgebraError):
        parenthesized_powers(x, 3, carrier=table.basis())  # (e^2)^2 = e != 0


def test_tree_power_sum_not_train():
    table = catalog.example_not_train()
    x = table.element_from({"u": 1, "v": 1})
    two_u = table.element_from({"u": 2})
    for q in range(2, 7):
        total = tree_power_sum(x, q)
        assert total == (x ** q).scale(F(2 ** (q - 2)))
        assert x ** q == two_u
        assert not total.is_zero()


def test_train_analysis_goldens():
    rep = train_analysis(catalog.example_not_train())
    assert (rep.is_train, rep.rank, rep.train_coeffs, rep.nil_index_N) == \
        (False, None, None, None)
    assert not rep.is_locally_train

    rep = train_analysis(catalog.elementary_algebra(2))
    assert (rep.is_train, rep.rank, rep.train_coeffs) == (True, 2, (1, -1))
    assert rep.train_poly == MultiPoly.univariate([0, -1, 1])

    rep = train_analysis(catalog.constant_algebra())
    assert (rep.rank, rep.train_coeffs) == (3, (1, -1, 0))
    assert rep.train_poly == MultiPoly.univariate([0, 0, -1, 1])

    rep = train_analysis(catalog.three_dim_alpha(F(3, 2)))
    assert (rep.rank, rep.train_coeffs) == (4, (1, F(-3, 2), F(1, 2), 0))

    rep = train_analysis(catalog.three_dim_alpha(F(2)))
    assert (rep.is_train, rep.rank) == (False, None)

    rep = train_analysis(catalog.zhevlakov_bernstein(4, 4))
    assert (rep.rank, rep.train_coeffs, rep.nil_index_N) == \
        (4, (1, F(-3, 2), F(1, 2), 0), 3)

    rep = train_analysis(catalog.free_single_truncated(4))
    assert (rep.rank, rep.train_coeffs) == \
        (5, (1, -2, F(5, 4), F(-1, 4), 0))

    rep = train_analysis(catalog.free_single_truncated(6))
    assert rep.rank == 7 and rep.train_poly == train_polynomial(7)
    assert rep.bounds["rank_search_bound"] == 8


def test_train_identity_on_random_elements():
    rng = random.Random(51)
    for table, coeffs in ((catalog.zhevlakov_bernstein(4, 4),
                           (1, F(-3, 2), F(1, 2), 0)),
                          (catalog.three_dim_alpha(F(3, 2)),
                           (1, F(-3, 2), F(1, 2), 0)),
                          (catalog.free_single_truncated(4),
                           (1, -2, F(5, 4), F(-1, 4), 0))):
        rank = len(coeffs)
        for _ in range(8):
            a = rand_unit_element(table, rng)
            acc = table.zero()
            for k, g in enumerate(coeffs):
                acc = acc + (a ** (rank - k)).scale(g)
            assert acc.is_zero()


def test_locally_train_matches_train():
    assert locally_train_analysis(catalog.shift_down_truncated(4)) is True
    assert locally_train_analysis(catalog.shift_up_truncated(4)) is True
    assert locally_train_analysis(catalog.example_not_train()) is False


def test_generic_nil_index():
    shift = catalog.shift_up_truncated(3)
    assert generic_nil_index(shift, shift.barideal_basis()) == 4
    assert generic_nil_index(shift, []) == 2
    bad = catalog.three_dim_alpha(F(2))
    assert generic_nil_index(bad, bad.barideal_basis()) is None


def test_operator_nilpotency():
    assert operator_nilpotency_check(catalog.zhevlakov_bernstein(4, 4)) == 2
    assert operator_nilpotency_check(catalog.shift_up_truncated(8)) == 8
    not_train = catalog.example_not_train()
    assert operator_nilpotency_check(not_train, carrier="L(A)") is None
    with pytest.raises(AlgebraError):
        operator_nilpotency_check(not_train, carrier="W")


def test_operator_nilpotency_rejects_a_non_invariant_carrier():
    # not Bernstein, but peirce succeeds: e u = u/2, u v = v, so L_v
    # maps U = span(u) and L(A) = span(u) out of themselves; that is
    # bad input, not a failed internal check
    table = AlgebraTable.build(
        ("e", "u", "v"),
        {("e", "e"): {"e": 1}, ("e", "u"): {"u": HALF}, ("u", "v"): {"v": 1}},
        weight={"e": 1})
    for carrier in ("U", "L(A)"):
        with pytest.raises(AlgebraError, match="not invariant"):
            operator_nilpotency_check(table, carrier=carrier)


def test_operator_nilpotency_beyond_twelve_dimensional_u():
    # U of dimension 13 and 14: the operator route's product chain runs
    # up to dim U, and all three train routes must agree
    for table in (catalog.shift_up_truncated(14),
                  catalog.shift_down_truncated(14)):
        report = train_analysis(table)
        assert report.is_train and report.rank == 15
        assert operator_nilpotency_check(table) == 14
    for table in (catalog.free_single_truncated(16, [0] * 13 + [1]),
                  catalog.free_single_truncated(15, [1] + [0] * 12)):
        report = train_analysis(table)
        assert not report.is_train and report.rank is None
        assert operator_nilpotency_check(table) is None


def test_generic_operators_read_rational_carriers_in_place(monkeypatch):
    # L_x of a generic x on a concrete carrier multiplies polynomial by
    # rational coordinates; no rational is converted to a constant
    # polynomial on the way
    from bernstein.multipoly import MultiPoly
    calls = []
    const = MultiPoly.const.__func__
    monkeypatch.setattr(MultiPoly, "const", classmethod(
        lambda cls, c: calls.append(c) or const(cls, c)))
    free = catalog.free_single_truncated(6)
    shift = catalog.shift_up_truncated(5)
    assert operator_nilpotency_check(free, "U") == 4
    assert operator_nilpotency_check(free, "L(A)") == 4
    assert engel_check(shift) == 5
    assert calls == []


def test_engel_check():
    assert engel_check(catalog.zhevlakov_bernstein(4, 4)) == 3
    assert engel_check(catalog.shift_up_truncated(3)) == 3
    not_train = catalog.example_not_train()
    assert engel_check(not_train) is None
    with pytest.raises(AlgebraError, match="dependent"):
        u = not_train.element_from({"u": 1})
        engel_check(not_train, carrier=[u, u.scale(2)])
    with pytest.raises(AlgebraError, match="closed"):
        x = not_train.element_from({"u": 1, "v": 1})
        engel_check(not_train, carrier=[x])


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col) if x and y), ZERO)
             for col in zip(*b)] for row in a]


def _matrix_index(x, carrier):
    """The reference route: least p <= n with M^p = 0 for the matrix M
    of L_x on the carrier, or None."""
    m = left_mult_operator(x, carrier)
    power = m
    for p in range(1, len(m) + 1):
        if not any(any(row) for row in power):
            return p
        power = _mat_mul(power, m)
    return 0 if not m else None


def _outcome(call):
    try:
        return call()
    except AlgebraError as exc:
        return str(exc)


def _reference_operator_index(table, carrier):
    dec = peirce(table)
    basis = dec.u_basis if carrier == "U" else lyubich_ideal(table)
    return _matrix_index(
        generic_element(table, "v", restrict_to=dec.v_basis), basis)


def _reference_engel(table, carrier):
    try:
        return _matrix_index(
            generic_element(table, "g", restrict_to=carrier), carrier)
    except AlgebraError as exc:
        if "invariant" not in str(exc):
            raise
        raise AlgebraError("carrier is not closed under multiplication")


def _basis_twin(table, seed):
    p = _unimodular(random.Random(seed), table.dim)
    return table.change_basis(p, table.labels, name="twin")


def test_product_chain_matches_matrix_powers():
    # the product chains against matrix powers of left_mult_operator:
    # operator checks on the input basis of catalog tables and of their
    # change_basis twins; engel_check with the default carrier against
    # the native table, and on explicit carriers, some dependent or not
    # closed, on the input basis (on twins only small ones, and not the
    # whole algebra: the matrix route is slow on dense coordinates)
    not_invariant = AlgebraTable.build(
        ("e", "u", "v"),
        {("e", "e"): {"e": 1}, ("e", "u"): {"u": HALF}, ("u", "v"): {"v": 1}},
        weight={"e": 1})
    tables = [not_invariant, catalog.shift_up_truncated(6),
              catalog.three_dim_alpha(F(2))]
    for seed in (3, 4):
        tables.extend(build() for build in pool_builders(random.Random(seed)))
    seen = []
    for k, native in enumerate(tables):
        twin = _basis_twin(native, k)
        for table in (native, twin):
            for carrier in ("U", "L(A)"):
                want = _outcome(
                    lambda: _reference_operator_index(table, carrier))
                assert _outcome(lambda: operator_nilpotency_check(
                    table, carrier)) == want, (native.name, carrier)
                seen.append(want)
        want = _reference_engel(native, native.barideal_basis())
        assert engel_check(native) == engel_check(twin) == want, native.name
        for table in (native, twin) if native.dim <= 5 else (native,):
            nbasis = table.barideal_basis()
            b = table.basis()
            carriers = [nbasis, [b[0] + b[-1]], [b[-1], b[-1].scale(2)]]
            for carrier in carriers + [b] if table is native else carriers:
                want = _outcome(lambda: _reference_engel(table, carrier))
                assert _outcome(lambda: engel_check(table, carrier)) == want
                seen.append(want)
    assert {None, 0, 1, 2, 3, 5, 6} <= set(seen)
    assert {m for m in seen if isinstance(m, str)} == {
        "carrier basis is linearly dependent",
        "carrier is not invariant under the operator",
        "carrier is not closed under multiplication"}


def test_operator_check_is_one_product_per_power(monkeypatch):
    table = catalog.shift_up_truncated(8)
    _, u, _ = _components(table)
    products = []
    real = Element.__mul__

    def counted(a, b):
        if a.den is None or b.den is None:
            products.append(1)
        return real(a, b)

    monkeypatch.setattr(Element, "__mul__", counted)
    assert operator_nilpotency_check(table) == 8
    assert len(products) <= len(u) + 1


def test_engel_check_runs_on_the_adapted_table(monkeypatch):
    native = catalog.shift_up_truncated(8)
    twin = _basis_twin(native, 20)
    adapted = adapted_table(twin)
    assert adapted is not None
    seen = []
    real = train._operator_index
    monkeypatch.setattr(train, "_operator_index",
                        lambda x, c, outside: seen.append(x.algebra)
                        or real(x, c, outside))
    assert engel_check(twin) == engel_check(native) == 8
    assert seen == [adapted, native]


def test_engel_yagzhev_agreement():
    rep = engel_yagzhev_report(catalog.zhevlakov_bernstein(3, 3))
    assert rep.satisfies_sq_sq_zero
    assert rep.nil_bounded_index == 3
    assert rep.engel_index == 3
    assert rep.yagzhev_verified_upto == 6

    rep = engel_yagzhev_report(catalog.example_not_train())
    assert rep.satisfies_sq_sq_zero
    assert (rep.nil_bounded_index, rep.engel_index,
            rep.yagzhev_verified_upto) == (None, None, None)

    rep = engel_yagzhev_report(catalog.shift_up_truncated(3))
    assert (rep.nil_bounded_index, rep.engel_index) == (4, 3)
    assert rep.yagzhev_verified_upto == 6

    # an empty carrier: nil index 2, counted from k = 2, and Engel index 0
    rep = engel_yagzhev_report(catalog.elementary_algebra(0))
    assert (rep.nil_bounded_index, rep.engel_index,
            rep.yagzhev_verified_upto) == (2, 0, 6)


def test_lx_power_splitting():
    rng = random.Random(52)
    for _ in range(5):
        table = bernstein_pool(rng, max_dim=9)
        assert check_lx_power_splitting(table, k_max=3)
    assert check_lx_power_splitting(catalog.constant_algebra())  # U = 0
    assert check_lx_power_splitting(catalog.elementary_algebra(2))  # V = 0


def test_lx_power_splitting_fails_with_v_zero():
    # not Bernstein, but peirce succeeds with U = span(u), V = 0; u^2 = u
    # gives L_x^4 y = u for x = u, y = u, while L_v^1 L_x^3 y = 0
    table = AlgebraTable.build(
        ("e", "u"),
        {("e", "e"): {"e": 1}, ("e", "u"): {"u": HALF}, ("u", "u"): {"u": 1}},
        weight={"e": 1})
    res = check_lx_power_splitting(table)
    assert not res
    assert res.witness_assignment == {"p1": 1, "r1": 1}
    assert res.witness_value == table.element_from({"u": 1})


def test_ideal_power_chain():
    shift = catalog.shift_up_truncated(3)
    rep = ideal_power_chain(shift, shift.barideal_basis())
    assert rep.dims == [4, 2, 1, 0]
    assert rep.nilpotency_index == 4
    assert rep.plenary_dims == [2, 0]
    assert rep.solvability_index == 2

    rep = ideal_power_chain(shift, [])
    assert rep.dims == [0] and rep.nilpotency_index == 1
    assert rep.solvability_index == 1

    not_train = catalog.example_not_train()
    with pytest.raises(AlgebraError, match="ideal"):
        ideal_power_chain(not_train, [not_train.element_from({"v": 1})])


def test_power_chains_stall_on_the_whole_algebra(monkeypatch):
    # A^2 = Ke + U is idempotent: the ideal powers run to the bound
    # 2 dim + 4 and the plenary powers stop at the first repeated dim
    shift = catalog.shift_up_truncated(5)
    products = []
    real = Element.__mul__
    monkeypatch.setattr(Element, "__mul__",
                        lambda a, b: products.append(1) or real(a, b))
    rep = ideal_power_chain(shift, shift.basis())
    assert rep.dims == [7] + [6] * 17
    assert rep.plenary_dims == [6, 6]
    assert rep.nilpotency_index is None and rep.solvability_index is None
    # I^i I^j only for i <= j, and x y only for x no later than y in one
    # family: 2,982 products with the ideal check, 5,847 when each
    # product of the commutative table is formed both ways
    assert len(products) == 2982


def test_plenary_powers_solvable_across_pool():
    rng = random.Random(53)
    for _ in range(8):
        table = bernstein_pool(rng, max_dim=9)
        rep = ideal_power_chain(table, table.barideal_basis())
        assert rep.solvability_index is not None
        assert rep.solvability_index <= 3


def test_square_square_zero_consequences():
    rng = random.Random(54)
    for table in (catalog.zhevlakov_bernstein(3, 3),
                  catalog.free_single_truncated(6),
                  catalog.shift_up_truncated(4)):
        nbasis = table.barideal_basis()
        for _ in range(10):
            x = rand_combination(nbasis, rng)
            y = rand_combination(nbasis, rng)
            z = rand_combination(nbasis, rng)
            for i in (2, 3):
                for j in (2, 3):
                    assert ((x ** i) * (x ** j)).is_zero()
            assert ((x * x) * (x * y)).is_zero()
            assert ((x * y) * (x * z)).scale(2) + (x * x) * (y * z) == \
                table.zero()


def test_tree_sums_match_enumeration_on_whole_algebra():
    # On the whole algebra (x^2)^2 != 0, so no power identity holds, but
    # the recursion is still the sum over all trees.
    rng = random.Random(55)
    for table in (catalog.example_not_train(),
                  catalog.shift_up_truncated(4),
                  catalog.free_single_truncated(5)):
        for x in (generic_element(table, "t"), rand_element(table, rng)):
            sums = _tree_sums(x, 8)
            assert len(sums) == 8
            cache = {}
            for q in range(1, 9):
                trees = full_trees(q)
                total = eval_tree(trees[0], x, cache)
                for tree in trees[1:]:
                    total = total + eval_tree(tree, x, cache)
                assert sums[q - 1] == total


def test_tree_sums_form_each_unordered_product_once(monkeypatch):
    # S_q = 2 sum over i < q - i of S_i S_(q-i), plus S_(q/2)^2 for even
    # q: floor(q^2/4) products up to q, 16 up to q = 8 where the sum over
    # i = 1..q-1 forms 28; the four squares take the square path.
    x = generic_element(catalog.shift_up_truncated(4), "t")
    calls = []
    real = Element.__mul__

    def counted(self, other):
        if isinstance(other, Element):
            calls.append(other is self)
        return real(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    sums = _tree_sums(x, 8)
    monkeypatch.undo()
    assert len(calls) == 16 and calls.count(True) == 4
    ordered = [x]
    for q in range(2, 9):
        products = [ordered[i] * ordered[q - 2 - i] for i in range(q - 1)]
        ordered.append(sum(products[1:], products[0]))
    assert sums == ordered and sums[-1]


def test_engel_yagzhev_report_shift_up_ten():
    rep = engel_yagzhev_report(catalog.shift_up_truncated(10))
    assert rep.satisfies_sq_sq_zero
    assert (rep.nil_bounded_index, rep.engel_index,
            rep.yagzhev_verified_upto) == (11, 10, 11)
    assert rep.bounds == {"nil_search_bound": 13, "engel_search_bound": 11,
                          "yagzhev_max_leaves": 11}


def test_tree_enumeration_cap():
    table = catalog.zhevlakov_bernstein(3, 3)
    x = table.barideal_basis()[0]
    assert len(full_trees(MAX_ENUMERATED_LEAVES)) == \
        math.comb(2 * MAX_ENUMERATED_LEAVES - 2, MAX_ENUMERATED_LEAVES - 1) \
        // MAX_ENUMERATED_LEAVES
    with pytest.raises(AlgebraError):
        full_trees(MAX_ENUMERATED_LEAVES + 1)
    with pytest.raises(AlgebraError):
        parenthesized_powers(x, MAX_ENUMERATED_LEAVES + 1)
    # Tree sums do not enumerate, so they are not capped.
    assert tree_power_sum(x, MAX_ENUMERATED_LEAVES + 2).is_zero()


def test_peirce_decomposition_is_computed_once_per_table(monkeypatch):
    import bernstein.structure as structure
    from bernstein.train import operator_nilpotency_check, train_analysis
    calls = []
    real = structure.find_idempotent
    monkeypatch.setattr(structure, "find_idempotent",
                        lambda table: calls.append(1) or real(table))
    table = catalog.free_single_truncated(6)
    train_analysis(table)
    operator_nilpotency_check(table, carrier="U")
    assert len(calls) == 0  # a native table's basis is adapted already
    cached = structure.peirce(table)
    fresh = structure.peirce(table, real(table))
    assert cached.idempotent == fresh.idempotent
    assert cached.u_basis == fresh.u_basis
    assert cached.v_basis == fresh.v_basis
    # Integer (num, den) pairs only: elements in the cache would refer to
    # the table, and a cache hit builds no Fraction.
    (e,), us, vs = table._cache["peirce"]
    assert all(type(den) is int and all(type(k) is type(a) is int
                                        for k, a in num.items())
               for num, den in (e, *us, *vs))


def point_route_tables():
    """The tables on which the routes that try a fixed point first are
    checked: every pool builder's table, its change_basis twins at two
    seeds (for dim > 1), and three tables that are not train."""
    natives = [build() for build in pool_builders(random.Random(28))]
    natives += [catalog.example_not_train(), catalog.three_dim_alpha(HALF),
                catalog.free_single_truncated(5, [0, 0, 1])]
    return natives + [_basis_twin(t, seed) for t in natives if t.dim > 1
                      for seed in (5, 6)]


def _symbolic_train_routes(table):
    """The three train routes as pure symbolic loops, on the adapted
    table: (nil index of N, train rank, operator index)."""
    table = adapted_table(table) or table
    nbasis = table.barideal_basis()
    nil = 2
    if nbasis:
        x = generic_element(table, "n", restrict_to=nbasis)
        powers = islice(_power_chain(x), 1, len(nbasis) + 2)
        nil = next((k for k, p in enumerate(powers, 2) if p.is_zero()), None)
    forms = _train_forms(generic_element(table, "t"))
    rank = next((r for r, f in zip(range(2, table.dim + 3), forms)
                 if f.is_zero()), None)
    return nil, rank, _reference_operator_index(table, "U")


def _symbolic_engel_report(table):
    """(satisfies (x^2)^2 = 0, nil index, Engel index, tree sums verified
    up to) on the barideal by pure symbolic loops and matrix powers."""
    table = adapted_table(table) or table
    carrier = table.barideal_basis()
    x = generic_element(table, "n", restrict_to=carrier)
    square = x * x
    if square * square:
        return False, None, None, None
    powers = islice(_power_chain(x), 1, len(carrier) + 2)
    nil = next((k for k, p in enumerate(powers, 2) if p.is_zero()), None)
    if nil is None:
        assert all(_tree_sums(x, 6)[1:]), table.name
    return (True, nil, _reference_engel(table, carrier),
            None if nil is None else max(6, nil))


def _spy_on_the_point(monkeypatch):
    """Record each call of ``symbolic._point``; returns the record."""
    built = []
    real = symbolic._point
    monkeypatch.setattr(symbolic, "_point", lambda table, vectors:
                        built.append(table) or real(table, vectors))
    return built


def test_point_routes_match_the_symbolic_loops(monkeypatch):
    # train_analysis and engel_yagzhev_report against their routes as
    # pure symbolic loops; the fixed point is built exactly when a first
    # route has found a negative verdict, never on a positive one
    built = _spy_on_the_point(monkeypatch)
    seen = set()
    for table in point_route_tables():
        nil, rank, op = _symbolic_train_routes(table)
        built.clear()
        rep = train_analysis(table)
        assert (rep.nil_index_N, rep.rank, rep.operator_index) == \
            (nil, rank, op), table.name
        assert bool(built) is (op is None), table.name
        want = _symbolic_engel_report(table)
        built.clear()
        rep = engel_yagzhev_report(table)
        assert (rep.satisfies_sq_sq_zero, rep.nil_bounded_index,
                rep.engel_index, rep.yagzhev_verified_upto) == want, table.name
        assert bool(built) is (want[1] is None), table.name
        seen.add((op is None, want[1] is None))
    assert seen == {(False, False), (True, True)}


def test_verdicts_stay_when_every_point_value_vanishes(monkeypatch):
    # at the zero point every value vanishes, so each route that tries
    # the point first falls back to the symbolic chain from its start
    tables = point_route_tables()
    want = [(train_analysis(t), engel_yagzhev_report(t)) for t in tables]
    assert any(not report.is_train for report, _ in want)
    built = []
    monkeypatch.setattr(symbolic, "_point", lambda table, vectors:
                        built.append(table) or table.zero())
    assert [(train_analysis(t), engel_yagzhev_report(t))
            for t in tables] == want
    assert built
