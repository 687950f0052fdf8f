"""End-to-end acceptance checks, one test per criterion.

Every comparison is exact rational equality; nothing is approximate.
Each test prints a single summary line (visible with pytest -s), and
the per-test verdict of pytest -v is the pass/fail line per criterion.
"""

import json
import math
import random
from fractions import Fraction

import bernstein.cli as cli
from bernstein.core import HALF
from bernstein.elements import (analyze_element, generic_degree,
                                minimal_poly_form_check,
                                singly_generated_subalgebra, train_polynomial)
from bernstein.groebner import buchberger_truncated, is_normal_word
from bernstein.linalg import Subspace
from bernstein.multipoly import MultiPoly
from bernstein.structure import classify, idempotent_family, lyubich_ideal, peirce
from bernstein.symbolic import generic_element
from bernstein.train import (check_lx_power_splitting, engel_yagzhev_report,
                             full_trees, ideal_power_chain, train_analysis,
                             tree_power_sum)
from bernstein import catalog

from conftest import (bernstein_pool, mixed_table, nuclear_table,
                      rand_combination, rand_element)

F = Fraction


def test_criterion_01_fixed_example_powers_and_minimal_poly():
    table = catalog.example_not_train()
    a = table.element_from({"e": 1, "u": 1, "v": 1})
    assert a ** 2 == table.element_from({"e": 1, "u": 3})
    assert a ** 3 == table.element_from({"e": 1, "u": 5})
    res = analyze_element(a)
    assert res.minimal_poly == \
        MultiPoly.univariate([0, 0, F(3, 2), F(-5, 2), 1])
    x = MultiPoly.var("X")
    assert res.minimal_poly == \
        (x ** 3 - x ** 2) * (x - MultiPoly.univariate([F(3, 2)]))
    assert train_analysis(table).is_train is False
    print("C1 PASS: fixed example powers, minimal polynomial, non-train")


def test_criterion_02_shift_families():
    down = catalog.shift_down_truncated(8)
    for k in range(1, 9):
        x = down.element_from({f"u{k}": 1, "v": 1})
        assert analyze_element(x).degree == k
    up = catalog.shift_up_truncated(8)
    x = up.element_from({"u1": 1, "v": 1})
    for i in range(2, 9):
        assert x ** i == up.element_from({f"u{i}": 2})
    assert (x ** 9).is_zero()
    print("C2 PASS: shift families realise all degrees and power images")


def test_criterion_03_free_truncations():
    rng = random.Random(103)
    for n in range(4, 9):
        free = catalog.free_single_truncated(n)
        rep = train_analysis(free)
        assert rep.is_train and rep.rank == n + 1
        a = free.element_from({"e": 1, "u1": 2, "v1": 1})
        out, _ = singly_generated_subalgebra(a)
        assert out == free

        betas = [F(rng.randint(-3, 3)) for _ in range(n - 2)]
        if not any(betas):
            betas[rng.randrange(n - 2)] = F(1)
        bent = catalog.free_single_truncated(n, betas)
        assert train_analysis(bent).is_train is False
        b = bent.element_from({"e": 1, "u1": 2, "v1": 1})
        out2, _ = singly_generated_subalgebra(b)
        assert out2 == bent
    print("C3 PASS: free truncations: train iff top products vanish, "
          "and the canonical form round-trips")


def test_criterion_04_minimal_poly_shapes():
    rng = random.Random(104)
    for _ in range(200):
        table = bernstein_pool(rng)
        res = analyze_element(rand_element(table, rng))
        assert minimal_poly_form_check(res)
        if res.degree >= 2:
            assert res.minimal_poly.coefficients()[1] == 0
    print("C4 PASS: 200 random elements match the minimal polynomial "
          "case split with vanishing linear term")


def test_criterion_05_kurosh_demo(capsys):
    rc = cli.main(["kurosh-demo", "--max-deg", "12", "--trunc", "6",
                   "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["completion"]["ok"] and \
        payload["completion"]["basis_size"] == 4
    assert payload["nil_span"]["ok"]
    assert payload["nil_span"]["cubes"] and not payload["nil_span"]["squares"]
    assert payload["hilbert"]["ok"]
    counts = payload["hilbert"]["counts"]
    assert len(counts) == 12 and all(c > 0 for c in counts)
    state = buchberger_truncated(catalog.kurosh_presentation(), 12)
    for t in range(1, 7):
        assert is_normal_word(state, (0, 1) * t)
    assert payload["truncation"]["ok"] and payload["truncation"]["dim"] == 24
    assert payload["baric"]["ok"]
    assert payload["train"]["ok"] and payload["train"]["rank"] == 4
    assert payload["train"]["coefficients"] == ["1", "-3/2", "1/2", "0"]
    print("C5 PASS: two-generator cube-zero pipeline (completion, spans, "
          "normal words, truncation, train rank 4)")


def test_criterion_06_regular_word_algebra():
    table = catalog.zhevlakov_bernstein(4, 4)
    x = generic_element(table, "n", restrict_to=table.barideal_basis())
    assert (x ** 3).is_zero()
    rep = train_analysis(table)
    assert rep.rank == 4
    assert rep.train_coeffs == (1, F(-3, 2), F(1, 2), 0)
    assert rep.train_poly == train_polynomial(4)
    ey = engel_yagzhev_report(table)
    assert ey.satisfies_sq_sq_zero
    assert ey.nil_bounded_index == 3
    assert ey.engel_index == 3
    assert ey.yagzhev_verified_upto == 6
    print("C6 PASS: regular-word algebra: generic cubes vanish, train "
          "rank 4, nil / Engel / tree-sum verdicts agree")


def test_criterion_07_tree_power_sums():
    carriers = [catalog.example_not_train(),
                catalog.zhevlakov_bernstein(3, 2),
                catalog.shift_up_truncated(4)]
    for table in carriers:
        x = generic_element(table, "n", restrict_to=table.barideal_basis())
        for q in range(2, 7):
            n = q - 1
            assert len(full_trees(q)) == math.comb(2 * n, n) // (n + 1)
            total = tree_power_sum(x, q)
            assert total == (x ** q).scale(F(2 ** (q - 2)))
    print("C7 PASS: full tree enumerations sum to 2^(q-2) x^q on three "
          "weight kernels for q = 2..6")


def test_criterion_08_generic_degrees():
    el = catalog.elementary_algebra(2)
    assert generic_degree(el) == 1
    x = generic_element(el, "x")
    assert (x * x - x.scale(x.weight())).is_zero()
    const = catalog.constant_algebra()
    assert generic_degree(const) == 2
    assert classify(const).is_jordan is True
    nt = catalog.example_not_train()
    assert generic_degree(nt) == 3
    assert classify(nt).is_jordan is False
    print("C8 PASS: generic degrees 1, 2, 3 with the matching identities")


def test_criterion_09_randomised_identity_suites():
    rng = random.Random(109)

    for _ in range(100):  # (i) Peirce component relations
        table = bernstein_pool(rng, max_dim=9)
        dec = peirce(table)
        uvecs = [list(u.coords) for u in dec.u_basis]
        vvecs = [list(v.coords) for v in dec.v_basis]
        zero = table.zero()
        u1 = rand_combination(dec.u_basis, rng) if dec.u_basis else zero
        u2 = rand_combination(dec.u_basis, rng) if dec.u_basis else zero
        v1 = rand_combination(dec.v_basis, rng) if dec.v_basis else zero
        v2 = rand_combination(dec.v_basis, rng) if dec.v_basis else zero
        assert Subspace(vvecs).contains(list((u1 * u2).coords))
        assert Subspace(uvecs).contains(list((u1 * v1).coords))
        assert Subspace(uvecs).contains(list((v1 * v2).coords))
        assert (u1 * (u1 * u1)).is_zero()
        assert (u1 * (u1 * v1)).is_zero()
        assert ((u1 * u1) * (u1 * v1)).is_zero()
        assert ((u1 * v1) * (u2 * v1)).is_zero()
        assert ((u1 * u1) * (v1 * v1)).is_zero()
        assert (u1 * (v1 * v2)).is_zero()
        assert ((u1 * u2) * (v1 * v2)).is_zero()

    for _ in range(100):  # (ii) products of principal powers
        table = bernstein_pool(rng, max_dim=9)
        a = rand_element(table, rng)
        w = a.weight()
        for i, j in ((2, 2), (2, 3), (2, 4), (3, 4)):
            lhs = (a ** i) * (a ** j)
            rhs = ((a ** j).scale(w ** i) + (a ** i).scale(w ** j))
            assert lhs == rhs.scale(HALF)

    for _ in range(100):  # (iii) the idempotent family e + u + u^2
        table = bernstein_pool(rng, max_dim=9)
        dec = peirce(table)
        if dec.u_basis:
            u0 = rand_combination(dec.u_basis, rng)
            f = idempotent_family(table, dec.idempotent, u0)
        else:
            f = dec.idempotent
        assert f * f == f and f.weight() == 1

    for _ in range(100):  # (iv) the quotient by the annihilator is Jordan
        table = bernstein_pool(rng, max_dim=8)
        lyu = lyubich_ideal(table)
        quo = catalog.quotient(table, lyu) if lyu else table
        assert classify(quo).is_jordan

    for _ in range(100):  # (v) plenary powers of N vanish by step 3
        table = bernstein_pool(rng, max_dim=9)
        rep = ideal_power_chain(table, table.barideal_basis())
        assert rep.solvability_index is not None
        assert rep.solvability_index <= 3

    for _ in range(100):  # (vi) multiplication power splitting
        table = bernstein_pool(rng, max_dim=9)
        assert check_lx_power_splitting(table, k_max=4)

    for _ in range(100):  # (vii) powers of u^2 + v
        table = bernstein_pool(rng, max_dim=9)
        dec = peirce(table)
        zero = table.zero()
        u = rand_combination(dec.u_basis, rng) if dec.u_basis else zero
        v = rand_combination(dec.v_basis, rng) if dec.v_basis else zero
        x = u * u + v
        for k in range(2, 7):
            rhs = u * u
            for _ in range(k - 1):
                rhs = v * rhs
            assert x ** k == rhs.scale(2) + v ** k

    print("C9 PASS: seven randomised identity suites, 100 instances each, "
          "no failures")


def test_criterion_10_right_nil_equals_strong_nil():
    rng = random.Random(110)
    tables = [catalog.shift_up_truncated(3), catalog.shift_up_truncated(5),
              catalog.shift_down_truncated(4),
              catalog.free_single_truncated(5),
              catalog.free_single_truncated(7),
              catalog.zhevlakov_bernstein(3, 2),
              catalog.zhevlakov_bernstein(3, 3),
              catalog.elementary_algebra(2), catalog.constant_algebra(),
              catalog.three_dim_alpha(F(3, 2)),
              nuclear_table(), mixed_table()]

    def all_products(a, m, cache):
        # independent enumeration: every bracketing of m copies of a,
        # generated by splitting the factor count
        if m not in cache:
            if m == 1:
                cache[m] = [a]
            else:
                vals = []
                for s in range(1, m):
                    for left in all_products(a, s, cache):
                        for right in all_products(a, m - s, cache):
                            vals.append(left * right)
                cache[m] = vals
        return cache[m]

    checked = 0
    while checked < 50:
        table = rng.choice(tables)
        x = rand_combination(table.barideal_basis(), rng)
        if x.is_zero():
            continue
        res = analyze_element(x)
        assert res.right_nil_index is not None and res.right_nil_index <= 7
        cache = {}
        strong = None
        for m in range(2, 8):
            vals = all_products(x, m, cache)
            n = m - 1
            assert len(vals) == math.comb(2 * n, n) // (n + 1)
            if strong is None and all(v.is_zero() for v in vals):
                strong = m
            if strong is not None:
                assert all(v.is_zero() for v in vals)
        assert strong == res.right_nil_index
        checked += 1
    print("C10 PASS: 50 nilpotent elements have right nil index equal to "
          "the exhaustive bracketing nil index up to 7 factors")
