"""Rebuilding a table on a new basis (``AlgebraTable.change_basis``) and
the span closed under a product (``linalg.closure``)."""

import random
from fractions import Fraction

import pytest

from bernstein.core import AlgebraError, ZERO
from bernstein.structure import classify
from bernstein.train import train_analysis
from bernstein import catalog, linalg

from conftest import mixed_table, nuclear_table, rand_scalar
from test_core import _rebased

F = Fraction


def _unimodular(rng, n):
    """The basis change ``test_core._rebased`` draws from the same rng."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        p[a] = [u + f * v for u, v in zip(p[a], p[b])]
    return p


def test_change_basis_matches_rebased_reference():
    tables = [catalog.free_single_truncated(5), catalog.shift_up_truncated(3),
              catalog.example_not_train(), catalog.zhevlakov_truncated(3, 2)[0],
              mixed_table()]
    for seed, table in enumerate(tables):
        p = _unimodular(random.Random(seed), table.dim)
        reference = _rebased(table, random.Random(seed))
        out = table.change_basis(p, table.labels, name="x", notes=("n",))
        assert out.labels == reference.labels
        assert out.product_items() == reference.product_items()
        assert out.name == "x" and out.notes == ("n",)
        if table.weight is None:
            assert out.weight is None
        else:
            assert out.weight == tuple(table.weight_of(v) for v in p)


def test_change_basis_weight_and_modulo():
    table = catalog.free_single_truncated(5)     # e, u1, u2, u3, v1
    units = linalg.identity_matrix(5)
    # the barideal part u1, u2, u3 spans a subalgebra of weight zero
    sub = table.change_basis(units[1:4], ["a", "b", "c"])
    assert sub.weight is None and not sub.product_items()
    # modulo the ideal span(u3): the quotient on e, u1, u2, v1
    quo = table.change_basis([units[i] for i in (0, 1, 2, 4)],
                             ["e", "u1", "u2", "v1"], modulo=[units[3]])
    assert quo.weight == (1, 0, 0, 0)
    assert quo.product_vector(2, 3) == {}        # u2 v1 = u3 = 0
    assert quo.product_vector(1, 3) == {2: 1}    # u1 v1 = u2
    assert quo == catalog.quotient(table, [table.basis_element(3)])


def test_change_basis_rejects_bad_bases():
    table = catalog.free_single_truncated(5)
    units = linalg.identity_matrix(5)
    with pytest.raises(AlgebraError, match="dependent"):
        table.change_basis([units[1], units[2], units[1]], ["a", "b", "c"])
    with pytest.raises(AlgebraError, match="dependent"):
        table.change_basis([units[0], units[3]], ["a", "b"], modulo=[units[3]])
    # v1^2 = -2u1 - 4u2 leaves span(e, v1)
    with pytest.raises(AlgebraError, match="leaves the span"):
        table.change_basis([units[0], units[4]], ["e", "v1"])
    # u1 v1 = u2 leaves span(u1, v1) even modulo u3
    with pytest.raises(AlgebraError, match="leaves the span"):
        table.change_basis([units[1], units[4]], ["a", "b"],
                           modulo=[units[3]])


def test_change_basis_takes_elements_or_lists():
    tables = [catalog.free_single_truncated(5), catalog.example_not_train(),
              catalog.three_dim_alpha(F(3, 7)), mixed_table()]
    for seed, table in enumerate(tables):
        p = _unimodular(random.Random(40 + seed), table.dim)
        rows = [[F(c, 1 + seed) for c in row] for row in p]
        elements = [table.element(row) for row in rows]
        out = table.change_basis(elements, table.labels)
        assert out == table.change_basis(rows, table.labels)
        assert out.weight == tuple(table.weight_of(v) for v in rows)
    # with modulo, given as lists or as elements, on either side
    table = catalog.free_single_truncated(5)     # e, u1, u2, u3, v1
    units = linalg.identity_matrix(5)
    basis = table.basis()
    kept = (0, 1, 2, 4)
    want = table.change_basis([units[i] for i in kept], "abcd",
                              modulo=[units[3]])
    for vectors in ([basis[i] for i in kept], [units[i] for i in kept]):
        for modulo in ([basis[3]], [units[3]]):
            assert table.change_basis(vectors, "abcd", modulo=modulo) == want
    with pytest.raises(AlgebraError, match="dependent"):
        table.change_basis([basis[1], basis[2], basis[1]], "abc")
    with pytest.raises(AlgebraError, match="leaves the span"):
        table.change_basis([basis[0], basis[4]], "ab")
    with pytest.raises(AlgebraError, match="leaves the span"):
        table.change_basis([basis[1], basis[4]], "ab", modulo=[basis[3]])


def _reference_closure(vectors, products):
    """Round by round: add every product of every pair of echelon rows
    until a round adds nothing."""
    space = linalg.Subspace(vectors)
    grew = True
    while grew:
        rows = space.rows()
        grew = False
        for u in rows:
            for v in rows:
                for p in products(u, v):
                    grew |= space.add(p)
    return space.rows()


def _random_nilpotent_product(rng, n, commutative):
    """Bilinear product on Q^n with e_i e_j in the span of e_k, k > i, j,
    so that closures are usually proper subspaces."""
    consts = {}
    for i in range(n):
        for j in range(i if commutative else 0, n):
            targets = range(max(i, j) + 1, n)
            consts[(i, j)] = {k: rand_scalar(rng, 2) for k in targets
                              if rng.random() < 0.4}
            if commutative:
                consts[(j, i)] = consts[(i, j)]

    def product(u, v):
        out = [ZERO] * n
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                if a and b:
                    for k, c in consts[(i, j)].items():
                        out[k] += a * b * c
        return out
    return product


@pytest.mark.parametrize("commutative", [True, False])
def test_closure_matches_round_based_reference(commutative):
    rng = random.Random(61 + commutative)
    proper = 0
    for _ in range(25):
        n = rng.randint(3, 7)
        p = _random_nilpotent_product(rng, n, commutative)
        gens = [[rand_scalar(rng) if rng.random() < 0.5 else ZERO
                 for _ in range(n)] for _ in range(rng.randint(0, 2))]
        if commutative:
            def multiply(u, v):
                return (p(u, v),)
        else:
            def multiply(u, v):
                return (p(u, v), p(v, u))
        got = linalg.closure(gens, multiply)
        want = _reference_closure(gens, lambda u, v: (p(u, v),))
        assert got.rows() == want
        proper += 0 < got.rank < n
    assert proper >= 5


def test_closure_reaches_products_of_later_vectors():
    # in the ordered case a*b != b*a: only b a = c is nonzero
    def p(u, v):
        return [ZERO, ZERO, u[1] * v[0]]
    a, b = [F(1), ZERO, ZERO], [ZERO, F(1), ZERO]
    full = linalg.closure([a, b], lambda u, v: (p(u, v), p(v, u)))
    assert full.rank == 3
    assert linalg.closure([a, b], lambda u, v: (p(u, v),)).rank == 2


def test_subalgebra_needs_a_nonzero_generator():
    table = catalog.free_single_truncated(5)
    with pytest.raises(AlgebraError):
        catalog.subalgebra(table, [])
    with pytest.raises(AlgebraError):
        catalog.subalgebra(table, [table.zero(), table.zero()])


def _invariants(table):
    report = classify(table)
    return (report.is_bernstein, report.type_pair, report.is_nuclear,
            report.is_exceptional, report.is_jordan,
            len(report.lyubich_basis), train_analysis(table).rank)


def test_verdicts_survive_a_change_of_basis():
    tables = [catalog.free_single_truncated(5), mixed_table(),
              nuclear_table(), catalog.zhevlakov_bernstein(3, 2)]
    seen = set()
    for seed, table in enumerate(tables):
        p = _unimodular(random.Random(100 + seed), table.dim)
        dense = table.change_basis(p, [f"d{k}" for k in range(table.dim)])
        assert dense.weight == tuple(table.weight_of(v) for v in p)
        native = _invariants(table)
        assert _invariants(dense) == native
        seen.add(native[2:5])
    assert len(seen) == 3       # nuclear, mixed and exceptional flags
