"""Bernstein verification, Peirce decompositions, classification."""

import random
from fractions import Fraction

import pytest

from bernstein.core import AlgebraError, AlgebraTable, HALF
from bernstein.structure import (adapted_table, classify, find_idempotent,
                                 idempotent_family, is_bernstein,
                                 lyubich_ideal, peirce, zero_v_squared)
from bernstein import catalog, linalg

from conftest import (bernstein_pool, mixed_table, non_bernstein_table,
                      nuclear_table, rand_combination, rand_element)

F = Fraction


def test_is_bernstein_across_catalog():
    rng = random.Random(31)
    for _ in range(8):
        assert is_bernstein(bernstein_pool(rng))
    assert is_bernstein(nuclear_table())
    assert is_bernstein(mixed_table())


def test_is_bernstein_failure_and_weightless():
    res = is_bernstein(non_bernstein_table())
    assert not res
    w = res.witness_value
    assert w is not None and not w.is_zero()
    weightless, _, _ = catalog.zhevlakov_truncated(3, 2)
    with pytest.raises(AlgebraError):
        is_bernstein(weightless)


def test_find_idempotent():
    table = catalog.example_not_train()
    e = find_idempotent(table)
    assert e == table.element_from({"e": 1})
    assert e * e == e and e.weight() == 1


def test_peirce_eigenspaces_and_types():
    expected = [
        (catalog.example_not_train(), (2, 1)),
        (catalog.constant_algebra(), (1, 1)),
        (catalog.elementary_algebra(2), (3, 0)),
        (catalog.three_dim_alpha(F(2)), (2, 1)),
        (catalog.shift_up_truncated(4), (5, 1)),
        (catalog.free_single_truncated(5), (4, 1)),
        (catalog.zhevlakov_bernstein(3, 2), (4, 3)),
        (nuclear_table(), (2, 1)),
        (mixed_table(), (2, 2)),
    ]
    for table, type_pair in expected:
        dec = peirce(table)
        assert dec.type_pair == type_pair, table.name
        e = dec.idempotent
        for u in dec.u_basis:
            assert e * u == u.scale(HALF)
        for v in dec.v_basis:
            assert (e * v).is_zero()
        assert 1 + len(dec.u_basis) + len(dec.v_basis) == table.dim


def test_idempotent_family_and_component_transform():
    rng = random.Random(33)
    table = catalog.zhevlakov_bernstein(3, 3)
    dec = peirce(table)
    e = dec.idempotent
    for _ in range(5):
        u0 = rand_combination(dec.u_basis, rng)
        f = idempotent_family(table, e, u0)
        assert f == e + u0 + u0 * u0 and f * f == f
        # transformed Peirce components attached to the new idempotent
        shift = u0 + u0 * u0
        for u in dec.u_basis:
            up = u + (u0 * u).scale(2)
            assert f * up == up.scale(HALF)
        for v in dec.v_basis:
            vp = v - (shift * v).scale(2)
            assert (f * vp).is_zero()
    with pytest.raises(AlgebraError):
        idempotent_family(table, e, dec.v_basis[0])
    with pytest.raises(AlgebraError, match="U component"):
        idempotent_family(table, e, e)  # nonzero weight


def test_type_is_idempotent_invariant():
    rng = random.Random(34)
    table = catalog.free_single_truncated(6)
    dec = peirce(table)
    u0 = rand_combination(dec.u_basis, rng)
    f = idempotent_family(table, dec.idempotent, u0)
    assert peirce(table, f).type_pair == dec.type_pair


def test_lyubich_ideal_known_cases():
    lyu = lyubich_ideal(catalog.example_not_train())
    assert [repr(b) for b in lyu] == ["u"]
    assert lyubich_ideal(nuclear_table()) == []
    assert lyubich_ideal(mixed_table()) == []
    shift = catalog.shift_up_truncated(4)
    assert len(lyubich_ideal(shift)) == 4  # U^2 = 0 makes L(A) = U


def test_lyubich_containments():
    rng = random.Random(35)
    for _ in range(6):
        table = bernstein_pool(rng, max_dim=9)
        dec = peirce(table)
        lyu = lyubich_ideal(table)
        lvecs = [list(b.coords) for b in lyu]
        if dec.u_basis and lyu:
            ell = rand_combination(lyu, rng)
            u1 = rand_combination(dec.u_basis, rng)
            u2 = rand_combination(dec.u_basis, rng)
            assert (ell * u1).is_zero()
            assert (ell * (u1 * u2)).is_zero()
        if dec.v_basis:
            v1 = rand_combination(dec.v_basis, rng)
            v2 = rand_combination(dec.v_basis, rng)
            assert linalg.Subspace(lvecs).contains(list((v1 * v2).coords))
            if dec.u_basis:
                u = rand_combination(dec.u_basis, rng)
                assert linalg.Subspace(lvecs).contains(
                    list((v1 * (v1 * u)).coords))


def test_quotient_by_lyubich_is_jordan():
    rng = random.Random(36)
    for _ in range(6):
        table = bernstein_pool(rng, max_dim=8)
        lyu = lyubich_ideal(table)
        quo = catalog.quotient(table, lyu) if lyu else table
        report = classify(quo)
        assert report.is_bernstein and report.is_jordan, table.name


def test_classify_known_flags():
    rep = classify(catalog.example_not_train())
    assert (rep.is_bernstein, rep.is_nuclear, rep.is_exceptional,
            rep.is_jordan) == (True, False, True, False)
    assert rep.type_pair == (2, 1)
    assert [repr(b) for b in rep.lyubich_basis] == ["u"]

    rep = classify(catalog.constant_algebra())
    assert (rep.is_nuclear, rep.is_exceptional, rep.is_jordan) == \
        (False, True, True)

    rep = classify(catalog.elementary_algebra(1))
    assert (rep.is_nuclear, rep.is_exceptional, rep.is_jordan) == \
        (True, True, True)  # U^2 = 0 = V makes both degenerate flags true

    rep = classify(nuclear_table())
    assert (rep.is_nuclear, rep.is_exceptional, rep.is_jordan) == \
        (True, False, True)

    rep = classify(mixed_table())
    assert (rep.is_nuclear, rep.is_exceptional, rep.is_jordan) == \
        (False, False, True)

    rep = classify(catalog.three_dim_alpha(F(1)))
    assert rep.is_exceptional and not rep.is_jordan

    rep = classify(non_bernstein_table())
    assert not rep.is_bernstein
    assert rep.bernstein_witness is not None
    assert rep.is_jordan is None and rep.type_pair is None


def test_jordan_cubes_vanish_on_barideal():
    rng = random.Random(37)
    for table in (nuclear_table(), mixed_table(),
                  catalog.constant_algebra(), catalog.elementary_algebra(2)):
        assert classify(table).is_jordan
        for _ in range(10):
            x = rand_element(table, rng)
            assert x ** 3 == (x ** 2).scale(x.weight())
            n = rand_combination(table.barideal_basis(), rng)
            assert (n ** 3).is_zero()
            y = rand_combination(table.barideal_basis(), rng)
            z = rand_combination(table.barideal_basis(), rng)
            jacobi = (n * y) * z + (y * z) * n + (z * n) * y
            assert jacobi.is_zero()


def test_zero_v_squared_pure_basis():
    table = catalog.three_dim_alpha(F(5))
    out = zero_v_squared(table)
    assert out.labels == table.labels
    assert out.product_vector(2, 2) == {}
    assert out.product_vector(1, 2) == table.product_vector(1, 2)
    assert is_bernstein(out)
    assert peirce(out).type_pair == (2, 1)

    # the same algebra on an adapted basis whose e is not the first label
    moved = AlgebraTable.build(
        ("v", "u", "e"),
        {("e", "e"): {"e": 1}, ("e", "u"): {"u": HALF},
         ("u", "v"): {"u": F(7, 2)}, ("v", "v"): {"u": -16}},
        weight={"e": 1})
    assert adapted_table(moved) is None
    out = zero_v_squared(moved)
    assert out.labels == moved.labels
    assert out.product_items() == [pair for pair in moved.product_items()
                                   if pair[0] != (0, 0)]
    assert is_bernstein(out)

    with pytest.raises(AlgebraError, match="Peirce"):
        zero_v_squared(non_bernstein_table())


def test_zero_v_squared_adapted_basis():
    # same algebra as example_not_train, but on a basis mixing U and V
    table = AlgebraTable.build(
        ("e", "a", "b"),
        {("e", "e"): {"e": 1},
         ("e", "a"): {"a": HALF, "b": F(-1, 2)},
         ("a", "a"): {"a": 2, "b": -2},
         ("a", "b"): {"a": 1, "b": -1}},
        weight={"e": 1}, name="mixed_basis")
    assert is_bernstein(table)
    out = zero_v_squared(table)
    assert out.labels == ("e", "u1", "v1")
    assert is_bernstein(out)
    dec = peirce(out)
    assert dec.type_pair == (2, 1)
    v1 = out.element_from({"v1": 1})
    assert (v1 * v1).is_zero()
