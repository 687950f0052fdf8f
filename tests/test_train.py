"""Train analyses, tree enumerations, Engel and nilpotency reports."""

import math
import random
from fractions import Fraction

import pytest

from bernstein.core import AlgebraError, AlgebraTable, UnivariatePoly, HALF
from bernstein.elements import train_polynomial
from bernstein.symbolic import generic_element
from bernstein.train import (MAX_ENUMERATED_LEAVES, _tree_sums,
                             check_lx_power_splitting, engel_check,
                             engel_yagzhev_report, eval_tree, full_trees,
                             generic_nil_index, ideal_power_chain,
                             is_principal_shape, locally_train_analysis,
                             operator_nilpotency_check, parenthesized_powers,
                             train_analysis, tree_label, tree_power_sum)
from bernstein import catalog

from conftest import (bernstein_pool, rand_combination, rand_element,
                      rand_unit_element)

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
    assert rep.train_poly == UnivariatePoly([0, -1, 1])

    rep = train_analysis(catalog.constant_algebra())
    assert (rep.rank, rep.train_coeffs) == (3, (1, -1, 0))
    assert rep.train_poly == UnivariatePoly([0, 0, -1, 1])

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


def test_lx_power_splitting():
    rng = random.Random(52)
    for _ in range(5):
        table = bernstein_pool(rng, max_dim=9)
        assert check_lx_power_splitting(table, k_max=3)
    assert check_lx_power_splitting(catalog.constant_algebra())  # U = 0
    assert check_lx_power_splitting(catalog.elementary_algebra(2))  # V = 0


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
    assert len(calls) == 1
    cached = structure.peirce(table)
    fresh = structure.peirce(table, real(table))
    assert cached.idempotent == fresh.idempotent
    assert cached.u_basis == fresh.u_basis
    assert cached.v_basis == fresh.v_basis
    # Coordinates only: elements in the cache would refer to the table.
    e, us, vs = table._cache["peirce"]
    assert all(type(c) is Fraction for vec in (e, *us, *vs) for c in vec)
