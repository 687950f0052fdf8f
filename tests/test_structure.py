"""Bernstein verification, Peirce decompositions, classification."""

import gc
import random
from fractions import Fraction

import pytest

from bernstein.core import AlgebraError, AlgebraTable, HALF, left_mult_operator
from bernstein.groebner import buchberger_truncated, truncated_algebra_table
from bernstein.structure import (adapted_table, classify, find_idempotent,
                                 idempotent_family, is_bernstein,
                                 lyubich_ideal, peirce, zero_v_squared)
from bernstein import catalog, linalg, structure, symbolic
from bernstein.symbolic import check_identity, generic_element

from conftest import (bernstein_pool, mixed_table, non_bernstein_table,
                      nuclear_table, pool_builders, rand_combination,
                      rand_element)
from test_cli_golden import TWINS, _native, _twin
from test_groebner import PIPELINES
from test_linalg import echelon_kernel
from test_train import point_route_tables

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


def test_a_negative_verdict_leaves_no_reference_cycle():
    # the cached verdict holds its witness as integer pairs, not as
    # elements that point back at the table, on native and adapted paths
    def redirected():
        up = catalog.shift_up_truncated(3)
        products = dict(up.product_items())
        products[(1, 1)] = {2: 1}   # u1 u1 = u2
        return AlgebraTable(up.labels, products, weight=up.weight)

    assert adapted_table(_twin(redirected(), 1)[0]) is not None
    gc.collect()
    gc.disable()
    try:
        for build in (non_bernstein_table, redirected,
                      lambda: _twin(redirected(), 1)[0]):
            table = build()
            report = classify(table)
            assert not report.is_bernstein
            assert is_bernstein(table) == report.bernstein_witness
            del table, report
            assert gc.collect() == 0, build
    finally:
        gc.enable()


def _identity_holds(table):
    return bool(check_identity(table, structure._bernstein_identity))


def _peirce_verdict(table):
    """``_peirce_holds`` on ``adapted_table(table) or table``; "none" when
    that basis is not adapted (no Peirce decomposition)."""
    base = adapted_table(table) or table
    kinds = structure._is_adapted(base)
    return "none" if kinds is None else structure._peirce_holds(base, kinds)


def _pipeline_algebras():
    """The baric extensions of the benchmark's truncated associative
    pipelines, S the letters."""
    for gens, power, max_deg, trunc in PIPELINES:
        state = buchberger_truncated(
            catalog.nil_power_presentation(gens, power), max_deg)
        ctable = truncated_algebra_table(state, trunc)
        yield catalog.from_associative(
            ctable, [i for i, w in enumerate(ctable.words) if len(w) == 1])


def test_peirce_verdict_matches_the_identity_on_catalog_tables():
    # the pool builders at two seeds (nuclear_table and mixed_table among
    # them), the golden CLI natives (some not Bernstein), a table with no
    # Peirce decomposition and the pipeline algebras, with twins at two
    # seeds of all but the pipelines
    natives = [build() for seed in (41, 42)
               for build in pool_builders(random.Random(seed))]
    natives += [_native(build, redirect) for build, redirect, _ in TWINS]
    natives.append(non_bernstein_table())
    tables = list(natives)
    for seed in (1, 2):
        tables += [_twin(native, seed + k)[0]
                   for k, native in enumerate(natives) if native.dim > 1]
    tables += _pipeline_algebras()
    seen = set()
    for table in tables:
        want = _identity_holds(table)
        peirce = _peirce_verdict(table)   # None: the rows do not settle it
        assert peirce in (want, None) or peirce == "none" and not want, \
            table.name
        assert bool(is_bernstein(table)) is want, table.name
        seen.add(peirce)
    assert seen == {True, False, None, "none"}


_COEFFS = (-2, -1, 1, 2)


def _framed(rng, broken=False):
    """A random table on the Peirce frame (``catalog._frame``), U and V
    of dimension 1 to 3.  Each product of two basis vectors of N is,
    with probability 1/2, a combination with coefficients in {-2, -1, 1,
    2} of basis vectors of the kind the linear Peirce conditions allow:
    V for U x U, U for the rest.  ``broken`` then adds a basis vector of
    the other kind to one product, which breaks one linear condition."""
    us = [f"u{i + 1}" for i in range(rng.randint(1, 3))]
    vs = [f"v{i + 1}" for i in range(rng.randint(1, 3))]
    nil = us + vs
    pairs = [(x, y) for a, x in enumerate(nil) for y in nil[a:]]
    products = {}
    for x, y in pairs:
        if rng.random() < 0.5:
            targets = vs if x in us and y in us else us
            products[(x, y)] = {t: rng.choice(_COEFFS) for t in rng.sample(
                targets, rng.randint(1, len(targets)))}
    if broken:
        x, y = rng.choice(pairs)
        wrong = us if x in us and y in us else vs
        products[(x, y)] = {**products.get((x, y), {}),
                            rng.choice(wrong): rng.choice(_COEFFS)}
    return catalog._frame(nil, us, products)


def test_peirce_verdict_matches_the_identity_on_framed_tables():
    verdicts = {}
    for seed in range(600):
        table = _framed(random.Random(seed), broken=seed % 4 == 0)
        want = _identity_holds(table)
        peirce = structure._peirce_holds(table, structure._is_adapted(table))
        assert peirce in (want, None), seed
        assert bool(is_bernstein(table)) is want, seed
        verdicts[peirce, want] = verdicts.get((peirce, want), 0) + 1
    assert min(verdicts.values()) >= 15 and len(verdicts) == 4, verdicts


def test_find_idempotent():
    table = catalog.example_not_train()
    e = find_idempotent(table)
    assert e == table.element_from({"e": 1})
    assert e * e == e and e.weight() == 1


def test_peirce_refuses_what_is_not_an_idempotent_of_weight_one():
    table = catalog.free_single_truncated(5)
    e = find_idempotent(table)
    # n n = n with w(n) = 0: a nonzero idempotent of weight 0
    split = AlgebraTable.build(("e", "n"), {("e", "e"): {"e": 1},
                                            ("n", "n"): {"n": 1}},
                               weight={"e": 1})
    n = split.basis_element(1)
    assert n * n == n and n.weight() == 0
    for algebra, bad in ((table, e.scale(2)), (table, e.scale(HALF)),
                         (table, table.barideal_basis()[0]),
                         (table, table.zero()), (split, n)):
        with pytest.raises(AlgebraError,
                           match="^peirce needs an idempotent of weight 1$"):
            peirce(algebra, bad)
    assert peirce(table, e).type_pair == peirce(table).type_pair


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


def test_idempotent_family_blames_a_non_bernstein_input(monkeypatch):
    # e·u = u/2, so u lies in U; but (e + u + v)² = e + u + 3v.
    table = AlgebraTable.build(
        ("e", "u", "v"),
        {("e", "e"): {"e": 1}, ("e", "u"): {"u": HALF}, ("u", "u"): {"v": 1},
         ("u", "v"): {"v": 1}}, weight={"e": 1})
    e, u = table.basis_element(0), table.basis_element(1)
    assert not is_bernstein(table)
    with pytest.raises(AlgebraError, match="not Bernstein"):
        idempotent_family(table, e, u)
    # On a Bernstein table the same failure is an internal fault.
    monkeypatch.setattr(structure, "is_bernstein", lambda table: True)
    with pytest.raises(structure.InternalCheckError):
        idempotent_family(table, e, u)


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


def _jordan_reference(table):
    """x (x^2 y) = x^2 (x y) checked with two generic elements."""
    return bool(check_identity(
        table, lambda x, y: x * (x * x * y) - (x * x) * (x * y), arity=2))


def _peirce_reference(base, u, v):
    """V^2 = 0 and (UV)V = 0 with generic s in U and t in V."""
    if structure._products(base, v):
        return False
    restrict = [[base.basis_element(i) for i in pos] for pos in (u, v)]
    return not u or not v or bool(check_identity(
        base, lambda s, t: (s * t) * t, arity=2, restrict=restrict,
        prefixes=("s", "t")))


def _one_witness_bases(table, defect, positions):
    """The size of a complement of the rational vectors on which the
    linear map ``defect`` vanishes identically, in the span of the basis
    vectors at ``positions``, and two bases of that span, as coordinate
    lists: those vectors with the complement put first, then last.  With
    a one-vector complement a route that skips the first or the last
    basis vector misses the only witness."""
    images = [defect(table.basis_element(i)) for i in positions]
    keys = sorted({(k, m) for y in images for k, p in y.num.items()
                   for m in p.terms})
    matrix = [[F(y.num[k].terms.get(m, 0), y.num[k].den) if k in y.num
               else 0 for y in images] for k, m in keys]
    kernel = linalg.kernel(matrix, ncols=len(positions))
    space = linalg.Subspace(kernel)
    witnesses = [c for c in linalg.identity_matrix(len(positions))
                 if space.add(c)]

    def full(c):
        v = [0] * table.dim
        for i, x in zip(positions, c):
            v[i] = x
        return v

    rest = [full(c) for c in kernel]
    lead = [full(c) for c in witnesses]
    return len(lead), (lead + rest, rest + lead)


def test_jordan_routes_by_linearity_match_two_generic_elements():
    """The basis-vector routes of classify against the two-generic-element
    identities on the pool builders, their rebased twins and Bernstein
    tables with V^2 = 0 but (UV)V != 0, which only the linear part of
    the Peirce route refutes.  Each non-Jordan table is then rebuilt on
    bases that put the basis vectors on which the defect is nonzero
    first, then last (``_one_witness_bases``)."""
    rng = random.Random(19)
    natives = [build() for build in pool_builders(rng)]
    natives += [zero_v_squared(catalog.free_single_truncated(n))
                for n in (4, 5)]
    natives.append(zero_v_squared(catalog.free_single_truncated(
        5, [F(1, 2), -1, 3])))
    tables = list(natives)
    for seed, native in enumerate(natives):
        if native.dim > 1:
            tables.append(_twin(native, seed)[0])
    verdicts = {"identity": set(), "peirce": set(), "linear part": set()}
    for table in tables:
        jid = structure._jordan_by_identity(table)
        assert jid is _jordan_reference(table), table.name
        base, u, v = structure._components(table)
        jpe = structure._jordan_by_peirce(base, u, v)
        assert jpe is _peirce_reference(base, u, v), table.name
        assert jid is jpe is structure._jordan_by_identity(base)
        verdicts["identity"].add(jid)
        verdicts["peirce"].add(jpe)
        if not structure._products(base, v):
            verdicts["linear part"].add(jpe)
    assert all(found == {True, False} for found in verdicts.values())

    # a^2 = b, b^2 = b: weightless, and the defect vanishes on b alone
    square_idempotent = AlgebraTable(("a", "b"), {(0, 0): {1: 1},
                                                  (1, 1): {1: 1}})
    single = set()
    for table in natives + [square_idempotent]:
        if structure._jordan_by_identity(table):
            continue
        x = generic_element(table)
        square = x * x
        size, bases = _one_witness_bases(
            table, lambda y: x * (square * y) - square * (x * y),
            range(table.dim))
        if size == 1:
            single.add("identity")
        for basis in bases:
            moved = table.change_basis(basis, table.labels)
            assert not structure._jordan_by_identity(moved)
            assert not _jordan_reference(moved)
        if not table.has_weight:
            continue
        base, u, v = structure._components(table)
        if not u or not v or structure._products(base, v):
            continue
        e = next(i for i in range(base.dim) if i not in u and i not in v)
        t = generic_element(base, "t", [base.basis_element(j) for j in v])
        size, bases = _one_witness_bases(base, lambda s: (s * t) * t, u)
        if size == 1:
            single.add("peirce")
        unit = linalg.identity_matrix(base.dim)
        for ubasis in bases:
            moved = base.change_basis(
                [unit[e]] + ubasis + [unit[j] for j in v], base.labels)
            mbase, mu, mv = structure._components(moved)
            assert mbase is moved and not structure._products(moved, mv)
            assert not structure._jordan_by_peirce(moved, mu, mv)
            assert not _peirce_reference(moved, mu, mv)
    assert single == {"identity", "peirce"}


def _operator_peirce(table, e=None):
    """Peirce decomposition from the kernels of the matrix M of L_e on
    the weight kernel and of M - I/2, as coordinate tuples (e, U, V)."""
    if e is None:
        e = find_idempotent(table)
    nbasis = table.barideal_basis()
    parts = [[], []]
    if nbasis:
        m = left_mult_operator(e, nbasis)
        n = len(nbasis)
        mu = [[m[i][j] - HALF if i == j else m[i][j] for j in range(n)]
              for i in range(n)]
        parts = [[sum((b.scale(c) for c, b in zip(cs, nbasis) if c),
                      table.zero()) for cs in echelon_kernel(matrix)]
                 for matrix in (mu, m)]
        if len(parts[0]) + len(parts[1]) != n:
            raise AlgebraError("not a Bernstein Peirce decomposition")
    return (e.coords, [u.coords for u in parts[0]],
            [v.coords for v in parts[1]])


def _coordinates(dec):
    return (dec.idempotent.coords, [u.coords for u in dec.u_basis],
            [v.coords for v in dec.v_basis])


def _outcome(decompose):
    try:
        return decompose()
    except AlgebraError as exc:
        return str(exc)


def test_peirce_matches_the_operator_kernels():
    # every native of the golden CLI tables and its twins at two seeds,
    # Bernstein or not; peirce from relations among the images of e must
    # give the coordinates the operator kernels give, or the same error
    from test_cli_golden import TWINS, _native
    natives = [(_native(build, redirect), seed)
               for build, redirect, seed in TWINS]
    # L_e with eigenvalue 1/3, and L_e not diagonalisable (e n1 = n1/2 + n2)
    natives += [
        (AlgebraTable(("e", "n"), {(0, 0): {0: 1}, (0, 1): {1: F(1, 3)}},
                      weight=[1, 0], name="third"), 20),
        (AlgebraTable(("e", "n1", "n2", "v"), {
            (0, 0): {0: 1}, (0, 1): {1: HALF, 2: 1}, (0, 2): {2: HALF}},
            weight=[1, 0, 0, 0], name="jordan_block"), 21)]
    tables = []
    for native, seed in natives:
        tables += [native, _twin(native, seed)[0], _twin(native, seed + 1)[0]]
    raised = 0
    for table in tables:
        want = _outcome(lambda: _operator_peirce(table))
        for _ in range(2):      # computed, then from the cache
            got = _outcome(lambda: _coordinates(peirce(table)))
            assert got == want, table.name
        if isinstance(want, str):
            raised += 1
            continue
        # another idempotent, e + u + u^2, on a Bernstein table with U
        dec = peirce(table)
        if dec.u_basis and is_bernstein(table):
            f = idempotent_family(table, dec.idempotent, dec.u_basis[0])
            assert _coordinates(peirce(table, f)) == _operator_peirce(table, f)
    assert 0 < raised < len(tables)
    # on the twins of the last two the search finds no idempotent; given
    # the image of e, both routes reject the decomposition
    for native, seed in natives[-2:]:
        twin, p = _twin(native, seed)
        e = twin.element(linalg.Subspace(p).coords(native.basis()[0].coords))
        for table, idem in ((native, None), (twin, e)):
            assert _outcome(lambda: peirce(table, idem)) == \
                _outcome(lambda: _operator_peirce(table, idem)) == \
                "not a Bernstein Peirce decomposition"


def _jordan_symbolic(table):
    """x (x^2 y) = x^2 (x y) on a generic x and each basis vector y, as
    a pure symbolic loop."""
    x = generic_element(table)
    square = x * x
    return not any(x * (square * b) - square * (x * b)
                   for b in table.basis())


def test_jordan_identity_at_the_point_matches_the_symbolic_loop(monkeypatch):
    # _jordan_by_identity with and without the point, and classify,
    # which tries the point only when the Peirce criterion fails, against
    # the pure symbolic loop; then at the zero point, where every defect
    # vanishes and each check falls back to the symbolic loop
    tables = point_route_tables()
    built = []
    real = symbolic._point
    monkeypatch.setattr(symbolic, "_point", lambda table, vectors:
                        built.append(table) or real(table, vectors))
    want, seen = [], set()
    for table in tables:
        base = adapted_table(table) or table
        jordan = _jordan_symbolic(base)
        assert structure._jordan_by_identity(base) is jordan, table.name
        assert structure._jordan_by_identity(base, True) is jordan
        if table.dim <= 5:
            assert structure._jordan_by_identity(table, True) is jordan
        built.clear()
        assert classify(table).is_jordan is jordan, table.name
        assert bool(built) is not jordan, table.name
        want.append(jordan)
        seen.add(jordan)
    assert seen == {True, False}
    monkeypatch.setattr(symbolic, "_point",
                        lambda table, vectors: table.zero())
    for table, jordan in zip(tables, want):
        base = adapted_table(table) or table
        assert structure._jordan_by_identity(base, True) is jordan
        assert classify(table).is_jordan is jordan, table.name
