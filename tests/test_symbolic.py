"""Symbolic elements, identity checks with witnesses, generic degree."""

import random
from fractions import Fraction

import pytest

from bernstein.core import (AlgebraError, AlgebraTable, InternalCheckError,
                            _new)
from bernstein.multipoly import MultiPoly
from bernstein.structure import _bernstein_identity
from bernstein.elements import generic_degree
from bernstein.symbolic import (_refute_on_line, check_identity,
                                generic_element, symbolic_rank)
from bernstein import catalog

from conftest import (bernstein_pool, nuclear_table, non_bernstein_table,
                      rand_element, rand_scalar)

F = Fraction


def _folded(table, prefix, family):
    """sum of b_i * prefix(i+1), one element addition per vector."""
    x = _new(table, {}, None)
    for i, b in enumerate(family):
        x = x + b.scale(MultiPoly.var(f"{prefix}{i + 1}"))
    return x


def test_restricted_generic_element_equals_the_fold():
    rng = random.Random(2709)
    for _ in range(8):
        table = bernstein_pool(rng)
        family = [rand_element(table, rng).scale(rand_scalar(rng))
                  for _ in range(rng.randint(1, 6))]
        family.insert(rng.randrange(len(family) + 1), table.zero())
        got = generic_element(table, "q", restrict_to=family)
        assert got.is_symbolic() and got.num == _folded(table, "q", family).num
    # The contributions q2*q1 and -q1*q2 of two symbolic vectors cancel
    # in coordinate 0, which must then be absent.
    table = catalog.shift_up_truncated(3)
    family = [_new(table, {0: MultiPoly.var("q2"),
                           2: MultiPoly.const(F(1, 2))}, None),
              _new(table, {0: -MultiPoly.var("q1")}, None),
              table.element([0, F(2, 3), F(-5, 4), 0, 0])]
    got = generic_element(table, "q", restrict_to=family)
    assert sorted(got.num) == [1, 2]
    assert got.num == _folded(table, "q", family).num
    empty = generic_element(table, "q", restrict_to=[])
    assert empty.is_symbolic() and empty.is_zero()
    assert empty.num == _folded(table, "q", []).num
    with pytest.raises(AlgebraError, match="different algebras"):
        generic_element(table, "q", restrict_to=[nuclear_table().zero()])


def test_generic_element_evaluates_like_concrete():
    rng = random.Random(21)
    table = catalog.free_single_truncated(5)
    x = generic_element(table, "t")
    y = generic_element(table, "s")
    assignment = {n: rand_scalar(rng) for n in (x * y).variables()}
    for n in x.variables() + y.variables():
        assignment.setdefault(n, rand_scalar(rng))
    a = x.evaluate(assignment)
    b = y.evaluate(assignment)
    assert (x * y).evaluate(assignment) == a * b
    assert (x + y).evaluate(assignment) == a + b
    assert (x ** 3).evaluate(assignment) == a ** 3
    assert x.weight().evaluate(assignment) == a.weight()


def test_generic_element_restricted_to_span():
    table = catalog.example_not_train()
    u = table.element_from({"u": 1})
    v = table.element_from({"v": 1})
    x = generic_element(table, "p", restrict_to=[u + v, v])
    # coordinates on e must vanish identically on the span
    assert not x.coords[0]
    assert sorted(x.variables()) == ["p1", "p2"]


def test_symbolic_elements_compare_by_value():
    table = catalog.example_not_train()
    x = generic_element(table, "t")
    assert x * x == x * x
    assert x * x + x == x + x * x
    assert x ** 3 == (x * x) * x
    assert x != x + x
    assert x - x == 0 and not x == 0


def test_check_identity_commutativity_everywhere():
    rng = random.Random(22)
    for _ in range(6):
        table = bernstein_pool(rng, max_dim=8)
        res = check_identity(table, lambda x, y: x * y - y * x, arity=2)
        assert res.holds


def test_check_identity_failure_produces_witness():
    table = catalog.constant_algebra()
    res = check_identity(table, lambda x: x * x - x)
    assert not res
    assert res.witness_value is not None and not res.witness_value.is_zero()
    x = res.witness_elements[0]
    assert x * x - x == res.witness_value


def test_check_identity_bernstein_split():
    ok = nuclear_table()
    res = check_identity(
        ok, lambda x: (x ** 2) ** 2 - (x ** 2).scale(x.weight() ** 2))
    assert res.holds
    bad = non_bernstein_table()
    res = check_identity(
        bad, lambda x: (x ** 2) ** 2 - (x ** 2).scale(x.weight() ** 2))
    assert not res
    w = res.witness_elements[0]
    assert (w ** 2) ** 2 != (w ** 2).scale(w.weight() ** 2)


def test_check_identity_arity_guard():
    with pytest.raises(AlgebraError):
        check_identity(catalog.constant_algebra(), lambda *a: a[0],
                       arity=9, prefixes=("x",))


def test_line_refutation_is_the_witness_search_refutation():
    # every native and two rebased twins of each golden CLI table, and a
    # dim-10 twin, whose last variable in sorted name order is x9
    from test_cli_golden import TWINS, _native, _twin
    tables = []
    for build, redirect, seed in TWINS:
        native = _native(build, redirect)
        # e comes first on a native basis, and the e-coordinate of the
        # defect vanishes identically there, so the probe never refutes
        assert _refute_on_line(native, _bernstein_identity) is None
        tables += [native, _twin(native, seed)[0], _twin(native, seed + 1)[0]]
    big, _ = _twin(_native(lambda: catalog.shift_up_truncated(8),
                           ("u1", "u1", "u2")), 1)
    tables.append(big)
    outcomes = []
    for table in tables:
        full = check_identity(table, _bernstein_identity)
        fast = _refute_on_line(table, _bernstein_identity)
        assert fast is None or fast == full, table.name
        outcomes.append(fast is not None)
    assert any(outcomes) and not all(outcomes)
    assert outcomes[-1]
    assert {k for k, v in full.witness_assignment.items() if v} == {"x9"}


def test_line_refutation_needs_a_nonzero_coordinate_zero():
    # c^2 = 2c and w(c) = 0, so the first nonzero value on the line of c
    # (x3) is 8c, zero at coordinate 0; coordinate 0 of the identity is
    # not the zero polynomial, and the witness search leaves the line
    table = AlgebraTable(("a", "b", "c"), {
        (0, 0): {1: 1}, (0, 1): {0: 1}, (0, 2): {0: 1, 1: -1, 2: 2},
        (1, 1): {0: 1, 2: 2}, (2, 2): {2: 2}}, weight=[1, 1, 0])
    c = table.basis_element(2)
    assert _bernstein_identity(c) == c.scale(8)
    full = check_identity(table, _bernstein_identity)
    assert full.witness_elements == [table.basis_element(1)]
    assert 0 in full.witness_value.num
    assert _refute_on_line(table, _bernstein_identity) is None


def _division_free_rank(rows):
    """The rank by cross-multiplication with no division, the
    elimination that ``symbolic_rank`` ran before Bareiss: a reference
    whose entries grow exponentially."""
    rows = list(rows)
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col]
                rows[i] = [pivot * a - f * b
                           for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _at(rows, point):
    return [[c.evaluate(point) if isinstance(c, MultiPoly) else c
             for c in row] for row in rows]


def test_symbolic_rank_matches_numeric():
    from bernstein import linalg
    rng = random.Random(23)
    t, s = MultiPoly.var("t"), MultiPoly.var("s")

    def mixed_entry():
        # a Fraction, a constant polynomial or a polynomial in t and s
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        kind = rng.random()
        if kind < 0.5:
            return c
        if kind < 0.75:
            return MultiPoly.const(c)
        return c * t + rng.randint(-2, 2) * s * t + rng.randint(-1, 1)

    for _ in range(15):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        concrete = [[F(rng.randint(-4, 4)) for _ in range(ncols)]
                    for _ in range(nrows)]
        rows = [[MultiPoly.const(c) for c in row] for row in concrete]
        assert symbolic_rank(rows) == linalg.Subspace(concrete).rank
        # Fractions are read in place, alone or mixed with polynomials
        assert symbolic_rank(concrete) == linalg.Subspace(concrete).rank
        mixed = [[mixed_entry() for _ in range(ncols)] for _ in range(nrows)]
        point = {"t": F(rng.randint(-40, 40)), "s": F(rng.randint(-40, 40))}
        assert symbolic_rank(mixed) == linalg.Subspace(_at(mixed, point)).rank
        assert symbolic_rank(mixed) == _division_free_rank(mixed)
    assert symbolic_rank([[t, t], [t, t]]) == 1
    assert symbolic_rank([[t, MultiPoly.const(F(1))], [t, t]]) == 2
    assert symbolic_rank([[F(1), F(2)], [t, 2 * t]]) == 1
    assert symbolic_rank([[F(1), F(2)], [t, t]]) == 2
    # Larger matrices of Fractions, constant polynomials and polynomials
    # in three variables, with rows that are polynomial combinations of
    # others and zero columns, so that pivot columns are skipped and the
    # Bareiss divisions are not by constants; the rank at a point is at
    # most the generic one, so the largest of three is compared.
    rng = random.Random(26)
    names = ("t", "s", "r")

    def poly(terms):
        p = MultiPoly.const(F(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(terms):
            term = MultiPoly.const(F(rng.randint(-2, 2), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2)):
                term = term * MultiPoly.var(rng.choice(names))
            p = p + term
        return p

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return F(rng.randint(-3, 3), rng.randint(1, 3))
        if kind < 0.4:
            return MultiPoly.const(F(rng.randint(-3, 3)))
        return poly(rng.randint(1, 2))

    deficient = 0
    for trial in range(40):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2 and trial % 2:
            f, g = poly(1), poly(1)
            rows[-1] = [f * a + g * b for a, b in zip(rows[0], rows[1])]
        if trial % 3 == 0:
            col = rng.randrange(ncols)
            for row in rows:
                row[col] = F(0)
        rank = symbolic_rank(rows)
        deficient += rank < min(nrows, ncols)
        if nrows * ncols <= 16:
            assert rank == _division_free_rank(rows)
        points = [{n: F(rng.randint(-40, 40)) for n in names}
                  for _ in range(3)]
        assert rank == max(linalg.Subspace(_at(rows, p)).rank
                           for p in points)
    assert deficient > 5


def test_bareiss_rank_flags_an_inexact_division(monkeypatch):
    t = MultiPoly.var("t")
    monkeypatch.setattr(MultiPoly, "exact_div", lambda self, d: None)
    with pytest.raises(InternalCheckError, match="Bareiss"):
        symbolic_rank([[t, F(1)], [F(1), t]])


def test_generic_degree_needs_the_symbolic_rank_and_stays_fast(monkeypatch):
    """Native shift_down(7) (8.6 s by cross-multiplication) and the
    all-ones twin of shift_up(5) (111 s) are train tables, so f_(lower+1)
    vanishes and settles their degree with no symbolic rank; redirects
    that leave no train equation still reach it through the symbolic
    rank."""
    import time
    import bernstein.symbolic as symbolic
    from test_cli_golden import _native
    calls = []
    real_rank = symbolic.symbolic_rank
    monkeypatch.setattr(symbolic, "symbolic_rank",
                        lambda rows: calls.append(1) or real_rank(rows))
    start = time.perf_counter()
    assert generic_degree(catalog.shift_down_truncated(7)) == 7
    assert time.perf_counter() - start < 1
    up = catalog.shift_up_truncated(5)
    n = up.dim
    ones = up.change_basis([[int(j >= i) for j in range(n)]
                            for i in range(n)], up.labels)
    start = time.perf_counter()
    assert generic_degree(ones) == 5
    assert time.perf_counter() - start < 5
    assert not calls
    assert generic_degree(_native(lambda: catalog.elementary_algebra(3),
                                  ("n1", "n1", "n2"))) == 2
    assert generic_degree(_native(lambda: catalog.zhevlakov_bernstein(2, 2),
                                  ("x1x2", "x1x2", "x1x2"))) == 3
    assert len(calls) == 2


def test_generic_degree_low_dim_theorems():
    assert generic_degree(catalog.elementary_algebra(2)) == 1
    assert generic_degree(catalog.constant_algebra()) == 2
    assert generic_degree(catalog.example_not_train()) == 3
    assert generic_degree(catalog.three_dim_alpha(F(1, 3))) == 3


def test_generic_degree_bounds_element_degree():
    from bernstein.elements import analyze_element
    rng = random.Random(24)
    for _ in range(5):
        table = bernstein_pool(rng, max_dim=7)
        g = generic_degree(table)
        from conftest import rand_element
        for _ in range(5):
            a = rand_element(table, rng)
            assert analyze_element(a).degree <= g


def test_generic_degree_returns_full_point_rank_without_symbolic_work(
        monkeypatch):
    import time
    import bernstein.symbolic as symbolic
    calls = []
    real_rank = symbolic.symbolic_rank
    monkeypatch.setattr(symbolic, "symbolic_rank",
                        lambda rows: calls.append(1) or real_rank(rows))
    start = time.perf_counter()
    assert generic_degree(catalog.free_single_truncated(8)) == 8
    assert time.perf_counter() - start < 1
    assert not calls
    assert generic_degree(catalog.constant_algebra()) == 2
    assert not calls
    # The powers of a point with coefficients cycling 1, -2, 3, -1, 2, -3
    # span only 4 of 5 dimensions here, so the symbolic rank would run.
    from test_cli_golden import _native
    native = _native(lambda: catalog.free_single_truncated(5),
                     ("u1", "u2", "u3"))
    assert generic_degree(native) == 5
    assert not calls
    # Below the dimension f_2 = x^2 - w(x) x vanishes on these, and on
    # the redirect n1 n1 = n2 the symbolic rank still decides.
    assert generic_degree(catalog.elementary_algebra(1)) == 1
    assert generic_degree(catalog.elementary_algebra(2)) == 1
    assert not calls
    assert generic_degree(_native(lambda: catalog.elementary_algebra(3),
                                  ("n1", "n1", "n2"))) == 2
    assert len(calls) == 1


def test_generic_degree_of_dense_twins_runs_on_the_adapted_table():
    import time
    from test_cli_golden import _twin
    for native in (catalog.shift_up_truncated(3),
                   catalog.shift_up_truncated(4),
                   catalog.shift_down_truncated(4),
                   catalog.zhevlakov_bernstein(3, 3)):
        twin, _ = _twin(native, 4)
        assert generic_degree(twin) == generic_degree(native)
    # On this twin's own basis the symbolic rank takes seconds.
    twin, _ = _twin(catalog.shift_up_truncated(3), 1)
    start = time.perf_counter()
    assert generic_degree(twin) == 3
    assert time.perf_counter() - start < 1


def test_generic_degree_point_above_symbolic_rank_is_internal(monkeypatch):
    import bernstein.symbolic as symbolic
    from test_cli_golden import _native
    monkeypatch.setattr(symbolic, "symbolic_rank", lambda rows: 0)
    with pytest.raises(InternalCheckError, match="point rank"):
        generic_degree(_native(lambda: catalog.elementary_algebra(3),
                               ("n1", "n1", "n2")))


def _pool_tables(max_dim):
    """The weighted algebras of the benchmark pool up to ``max_dim``."""
    import os
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                    "perfbench"))
    try:
        import pool
    finally:
        sys.path.pop(0)
    tables = [pool.build(key) for key in pool.all_keys()]
    return [t for t in tables if t.dim <= max_dim and t.has_weight]


def test_generic_degree_from_the_train_form_matches_the_symbolic_rank(
        monkeypatch):
    """Where f_(lower+1) vanishes, the point's rank is returned; on every
    weighted pool table of dim <= 9 that equals the symbolic rank of the
    generic principal powers.  A point that leaves out the first basis
    vector reaches one less than the degree on most tables, where
    f_(lower+1) does not vanish and the symbolic rank decides; testing
    f_(lower+2) there would answer one too low."""
    import bernstein.symbolic as symbolic
    from bernstein.core import principal_powers
    from bernstein.structure import adapted_table
    tables = _pool_tables(9)
    assert len(tables) >= 30
    expected = []
    for table in tables:
        table = adapted_table(table) or table
        x = generic_element(table, "t")
        expected.append(symbolic_rank(
            [list(p.coords) for p in principal_powers(x, table.dim + 1)]))
    assert [generic_degree(t) for t in tables] == expected
    real_point = symbolic._point
    monkeypatch.setattr(symbolic, "_point",
                        lambda table, vectors: real_point(table, vectors[1:]))
    small = [(t, d) for t, d in zip(tables, expected) if t.dim <= 6]
    assert [generic_degree(t) for t, _ in small] == [d for _, d in small]


def test_generic_degree_evaluates_no_polynomial(monkeypatch):
    def evaluate(self, assignment):
        raise AssertionError("generic_degree evaluated a polynomial")

    monkeypatch.setattr(MultiPoly, "evaluate", evaluate)
    assert generic_degree(catalog.elementary_algebra(2)) == 1
    assert generic_degree(catalog.shift_up_truncated(3)) == 3
