"""Symbolic verdicts on the Peirce-adapted table (``structure.adapted_table``).

A twin is a table rebuilt on a seeded unimodular basis; it is isomorphic
to its native table, so every verdict must agree, and its basis is not
adapted to a Peirce decomposition, so the verdicts run on its adapted
table.
"""

import random
import time
from fractions import Fraction

import pytest

from bernstein import catalog, cli, linalg, structure
from bernstein.core import AlgebraError, InternalCheckError
from bernstein.fileformat import save_algebra, table_to_json
from bernstein.elements import analyze_element
from bernstein.structure import adapted_table, classify, is_bernstein
from bernstein.symbolic import IdentityCheck, check_identity
from bernstein.train import (engel_yagzhev_report, operator_nilpotency_check,
                             train_analysis)

from conftest import mixed_table, nuclear_table, pool_builders
from test_cli_golden import TWINS, _native, _twin


def _verdicts(table, coords):
    report = classify(table)
    train = train_analysis(table)
    engel = engel_yagzhev_report(table)
    element = analyze_element(table.element(coords))
    return (bool(is_bernstein(table)), report.is_nuclear,
            report.is_exceptional, report.is_jordan, report.type_pair,
            len(report.lyubich_basis), train.is_train, train.rank,
            train.train_coeffs, train.train_poly, train.nil_index_N,
            train.is_locally_train, train.bounds,
            engel.satisfies_sq_sq_zero, engel.nil_bounded_index,
            engel.engel_index, engel.yagzhev_verified_upto, engel.bounds,
            element.degree, element.minimal_poly,
            operator_nilpotency_check(table, carrier="U"),
            operator_nilpotency_check(table, carrier="L(A)"))


def _single_entry_weight(table):
    return sum(1 for w in table.weight if w) == 1


def test_verdicts_do_not_depend_on_the_basis():
    for seed in (3, 4):
        for build in pool_builders(random.Random(seed)):
            native = build()
            coords = [Fraction(1)] + [Fraction(k % 3 - 1, 1 + k % 2)
                                      for k in range(1, native.dim)]
            twin, p = _twin(native, seed)
            want = _verdicts(native, coords)
            mapped = linalg.Subspace(p).coords(coords)
            assert _verdicts(twin, mapped) == want, native.name
            assert native._cache["adapted"] is None
            adapted = twin._cache["adapted"]
            assert _single_entry_weight(adapted)
            assert adapted._cache["adapted"] is None


def test_native_tables_skip_the_peirce_decomposition():
    # the engel and element routes never need peirce on a native table
    for table in (catalog.free_single_truncated(6),
                  catalog.elementary_algebra(2)):
        assert engel_yagzhev_report(table).satisfies_sq_sq_zero
        assert analyze_element(table.basis_element(0)).degree == 1
        assert table._cache["adapted"] is None
        assert "peirce" not in table._cache


def test_adapted_tables_are_never_decomposed_again(monkeypatch):
    # U and V are basis vectors of the adapted table, read off its
    # structure constants, so it needs no Peirce decomposition of its own
    twin, _ = _twin(catalog.free_single_truncated(6), 2)
    classify(twin)
    train_analysis(twin)
    assert "peirce" not in adapted_table(twin)._cache

    calls = []
    real = structure.find_idempotent
    monkeypatch.setattr(structure, "find_idempotent",
                        lambda table: calls.append(1) or real(table))
    for carrier in ("U", "L(A)"):
        table = catalog.free_single_truncated(6)
        assert operator_nilpotency_check(table, carrier=carrier) == 4
    assert calls == []


def test_dense_free_single_ten():
    twin, _ = _twin(catalog.free_single_truncated(10), 1)
    assert not _single_entry_weight(twin)
    assert adapted_table(twin).labels == \
        ("e",) + tuple(f"u{i}" for i in range(1, 9)) + ("v1",)
    assert train_analysis(twin).rank == 11
    assert classify(twin).type_pair == (9, 1)


def _kernel_twin(native, seed):
    """The native table on a seeded dense unimodular basis change of the
    weight kernel, the first basis vector kept, and the matrix of that
    basis: one nonzero weight entry, but kernel vectors that mix U and V."""
    rng = random.Random(seed)
    m = native.dim - 1
    lower = [[1 if i == j else rng.choice((-2, -1, 1, 2)) if j < i else 0
              for j in range(m)] for i in range(m)]
    upper = [[1 if i == j else rng.choice((-2, -1, 1, 2)) if j > i else 0
              for j in range(m)] for i in range(m)]
    p = [[1] + [0] * m] + [
        [0] + [sum(lower[i][t] * upper[t][j] for t in range(m))
               for j in range(m)] for i in range(m)]
    return native.change_basis(p, native.labels, name="twin"), p


def _formed_on_the_peirce_basis(table):
    """``table`` rebuilt by ``change_basis`` on e, U, V with every product
    formed, the e products too; None without a Peirce decomposition."""
    try:
        dec = structure.peirce(table)
    except AlgebraError:
        return None
    us, vs = dec.u_basis, dec.v_basis
    labels = (["e"] + [f"u{i + 1}" for i in range(len(us))]
              + [f"v{i + 1}" for i in range(len(vs))])
    return table.change_basis([dec.idempotent, *us, *vs], labels,
                              name=table.name)


def test_written_frame_matches_the_formed_e_products():
    natives = [build() for seed in (3, 4)
               for build in pool_builders(random.Random(seed))]
    natives += [_native(build, redirect) for build, redirect, _ in TWINS]
    natives += [nuclear_table(), mixed_table(), catalog.constant_algebra(),
                catalog.elementary_algebra(3)]
    kinds = set()
    for n, native in enumerate(natives):
        twins = [_twin(native, seed + n)[0] for seed in (1, 2)]
        for twin in [native, *twins, _kernel_twin(native, n)[0]]:
            got = adapted_table(twin)
            want = (None if structure._is_adapted(twin)
                    else _formed_on_the_peirce_basis(twin))
            if want is None:
                assert got is None
                continue
            assert got == want and got.name == want.name == twin.name
            assert table_to_json(got) == table_to_json(want)
            kinds.add(tuple(sorted({lab[0] for lab in got.labels})))
    # U empty (constant), V empty (elementary) and both present
    assert kinds == {("e", "v"), ("e", "u"), ("e", "u", "v")}


@pytest.mark.parametrize("n", [6, 7, 8])
def test_weight_kernel_twins_use_the_adapted_table(n):
    native = catalog.free_single_truncated(n)
    twin, p = _kernel_twin(native, n)
    assert _single_entry_weight(twin)
    start = time.perf_counter()
    train_analysis(twin)
    elapsed = time.perf_counter() - start
    assert twin._cache["adapted"] is not None
    if n == 8:
        assert elapsed < 1    # about 2 s on the input basis
    coords = [Fraction(1)] + [Fraction(k % 3 - 1, 1 + k % 2)
                              for k in range(1, n)]
    mapped = linalg.Subspace(p).coords(coords)
    assert _verdicts(twin, mapped) == _verdicts(native, coords)
    assert native._cache["adapted"] is None


def test_refuted_identity_gets_the_input_basis_witness():
    # u1 u1 = u2 breaks the identity but keeps a Peirce decomposition,
    # and on this basis the idempotent search succeeds
    native = _native(lambda: catalog.free_single_truncated(4),
                     ("u1", "u1", "u2"))
    twin, _ = _twin(native, 15)
    assert adapted_table(twin) is not None
    result = is_bernstein(twin)
    assert not result
    assert result == check_identity(
        twin, lambda x: (x ** 2) ** 2 - (x ** 2).scale(x.weight() ** 2))
    assert result.witness_value.algebra is twin
    assert not classify(twin).is_bernstein


def test_only_bases_that_are_not_adapted_try_integer_points(monkeypatch):
    calls = []
    real = structure.symbolic._refute_on_line
    monkeypatch.setattr(structure.symbolic, "_refute_on_line",
                        lambda table, expr: calls.append(table)
                        or real(table, expr))
    native = _native(lambda: catalog.free_single_truncated(4),
                     ("u1", "u1", "u2"))
    assert not is_bernstein(native)
    assert is_bernstein(_twin(catalog.free_single_truncated(5), 5)[0])
    assert calls == []
    twin, _ = _twin(native, 15)
    assert not is_bernstein(twin)
    assert calls == [twin]


def test_bases_that_disagree_raise(monkeypatch):
    # a Peirce "no" on the adapted table that its identity check refutes
    twin, _ = _twin(catalog.free_single_truncated(5), 5)
    adapted = adapted_table(twin)
    assert adapted is not None
    monkeypatch.setattr(structure, "_peirce_holds", lambda table, kinds: False)
    with pytest.raises(InternalCheckError, match="adapted"):
        is_bernstein(twin)

    # a "no" on the adapted table that the input basis refutes
    real = structure.check_identity

    def adapted_fails(table, expr, **kwargs):
        if table is adapted:
            return IdentityCheck(False)
        return real(table, expr, **kwargs)

    monkeypatch.setattr(structure, "check_identity", adapted_fails)
    with pytest.raises(InternalCheckError,
                       match="input and adapted bases disagree"):
        is_bernstein(twin)


def test_peirce_no_on_an_adapted_input_where_the_identity_holds_raises(
        monkeypatch, tmp_path, capsys):
    native = catalog.free_single_truncated(5)
    assert adapted_table(native) is None and structure._is_adapted(native)
    path = str(tmp_path / "free5.json")
    save_algebra(native, path)
    monkeypatch.setattr(structure, "_peirce_holds", lambda table, kinds: False)
    with pytest.raises(InternalCheckError, match="Bernstein check: Peirce "
                       "conditions disagree on an adapted basis"):
        is_bernstein(native)
    assert cli.main(["check", path]) == 2
    assert capsys.readouterr().err.startswith(
        "internal check failed: Bernstein check: Peirce conditions")


def test_identity_without_a_peirce_decomposition_raises(monkeypatch,
                                                        tmp_path, capsys):
    # a Bernstein algebra always has a Peirce decomposition
    twin, _ = _twin(catalog.free_single_truncated(5), 5)

    def no_decomposition(table, e=None):
        raise AlgebraError("no idempotent found; algebra is not Bernstein")

    monkeypatch.setattr(structure, "peirce", no_decomposition)
    with pytest.raises(InternalCheckError, match="Bernstein check: .*peirce"):
        is_bernstein(twin)
    path = str(tmp_path / "twin.json")
    save_algebra(twin, path)
    assert cli.main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: Bernstein check: ")
