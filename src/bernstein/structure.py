"""Bernstein structure theory: idempotents, Peirce decomposition,
classification flags and the annihilator ideal of the U component.

A baric algebra (A, w) is Bernstein when (x^2)^2 = w(x)^2 x^2 holds
identically.  Relative to an idempotent e of weight 1 the weight
kernel N splits as U + V with U the 1/2-eigenspace and V the kernel
of left multiplication by e.  The symbolic checks run on ``adapted_table``,
the table rebuilt on the adapted basis e, U, V by ``change_basis``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .core import (AlgebraError, AlgebraTable, Element, InternalCheckError,
                   left_mult_operator, ZERO, ONE, HALF)
from .symbolic import IdentityCheck, check_identity


def is_bernstein(table):
    """Symbolic check of (x^2)^2 = w(x)^2 x^2; cached on the table.

    Run on ``adapted_table(table)`` when there is one; a failure there
    is redone on the input basis for an input witness."""
    if table.weight is None:
        raise AlgebraError("Bernstein check needs a weighted algebra")
    cached = table._cache.get("bernstein")
    if cached is not None:
        return cached
    adapted = adapted_table(table)
    if adapted is not None and is_bernstein(adapted):
        result = IdentityCheck(True)
    else:
        result = check_identity(
            table, lambda x: (x ** 2) ** 2 - (x ** 2).scale(x.weight() ** 2))
        if result and adapted is not None:
            raise InternalCheckError(
                "Bernstein check: input and adapted bases disagree")
    table._cache["bernstein"] = result
    return result


def adapted_table(table):
    """``table`` rebuilt on the basis e, u1.., v1.. of ``peirce(table)``,
    or None; cached.  None when there is no Peirce decomposition, and
    when the basis is adapted already, so that a rebuild would only
    relabel it: the weight row is w_i at one position i, b_i b_i = w_i b_i
    and each other b_i b_j is 0 or (w_i/2) b_j, so e = b_i/w_i and every
    other basis vector lies in U or V.  That test reads dim products."""
    if "adapted" not in table._cache:
        table._cache["adapted"] = None
        if table.weight is not None and not _is_adapted(table):
            try:
                dec = peirce(table)
            except AlgebraError:
                pass
            else:
                table._cache["adapted"] = _on_adapted_basis(table, dec)
    return table._cache["adapted"]


def _is_adapted(table):
    """Each basis vector's kind, "e" (one of them), "u" or "v", when the
    basis is adapted; else None."""
    support = [i for i, w in enumerate(table.weight) if w]
    if len(support) != 1:
        return None
    i = support[0]
    w = table.weight[i]
    if table.product_vector(i, i) != {i: w}:
        return None
    kinds = []
    for j in range(table.dim):
        p = table.product_vector(i, j)
        kinds.append("e" if j == i else "v" if not p
                     else "u" if p == {j: w * HALF} else None)
    return None if None in kinds else kinds


def _on_adapted_basis(table, dec):
    labels = ["e"] + [f"u{i + 1}" for i in range(len(dec.u_basis))]
    labels += [f"v{i + 1}" for i in range(len(dec.v_basis))]
    return table.change_basis(
        [b.coords for b in [dec.idempotent, *dec.u_basis, *dec.v_basis]],
        labels, name=table.name)


def find_idempotent(table):
    """Nonzero idempotent of weight 1, from the first basis vector of
    nonzero weight (deterministic)."""
    if table.weight is None:
        raise AlgebraError("idempotent search needs a weighted algebra")
    i = next((i for i, w in enumerate(table.weight) if w), None)
    if i is None:
        raise AlgebraError("weight vanishes on the whole basis")
    x = table.basis_element(i).scale(ONE / table.weight[i])
    e = x * x
    if e * e != e or e.weight() != 1:
        raise AlgebraError("no idempotent found; algebra is not Bernstein")
    return e


@dataclass
class PeirceDecomposition:
    """Splitting A = Ke + U + V for an idempotent e of weight 1."""
    table: AlgebraTable
    idempotent: Element
    u_basis: list
    v_basis: list

    @property
    def type_pair(self):
        return (1 + len(self.u_basis), len(self.v_basis))

    @cached_property
    def _adapted_space(self):
        return linalg.Subspace(
            b.coords for b in [self.idempotent, *self.u_basis, *self.v_basis])

    def adapted_coords(self, element):
        """(e-coordinate, U-coordinates, V-coordinates) of an element;
        works for polynomial coordinates as well."""
        coords = self._adapted_space.coords(
            element.coords, zero=element.ring_zero())
        r = len(self.u_basis)
        return coords[0], coords[1:1 + r], coords[1 + r:]

    def in_u(self, element):
        alpha, _, vc = self.adapted_coords(element)
        return not alpha and not any(vc)

    def in_v(self, element):
        alpha, uc, _ = self.adapted_coords(element)
        return not alpha and not any(uc)


def _combination(table, coeffs, elements):
    """sum of c * b over the pairs, accumulated on nonzero entries."""
    coords = [ZERO] * table.dim
    for c, b in zip(coeffs, elements):
        if c:
            for k, x in enumerate(b.coords):
                if x:
                    coords[k] += c * x
    return Element(table, tuple(coords))


def peirce(table, e=None):
    """Peirce decomposition for the idempotent e (found if omitted).

    Without e the decomposition is cached on the table as coordinate
    tuples: elements refer to their table, so caching them would make a
    reference cycle through the table's cache."""
    if e is None:
        cached = table._cache.get("peirce")
        if cached is not None:
            e, us, vs = cached
            return PeirceDecomposition(
                table, Element(table, e),
                [Element(table, u) for u in us],
                [Element(table, v) for v in vs])
        dec = peirce(table, find_idempotent(table))
        table._cache["peirce"] = (
            dec.idempotent.coords,
            tuple(u.coords for u in dec.u_basis),
            tuple(v.coords for v in dec.v_basis))
        return dec
    if e * e != e or e.weight() != 1:
        raise AlgebraError("peirce needs an idempotent of weight 1")
    nbasis = table.barideal_basis()
    if not nbasis:
        return PeirceDecomposition(table, e, [], [])
    m = left_mult_operator(e, nbasis)
    n = len(nbasis)
    mu = [[m[i][j] - (HALF if i == j else ZERO) for j in range(n)]
          for i in range(n)]
    ucoords = linalg.kernel(mu, ncols=n)
    vcoords = linalg.kernel(m, ncols=n)
    if len(ucoords) + len(vcoords) != n:
        raise AlgebraError("not a Bernstein Peirce decomposition")
    return PeirceDecomposition(
        table, e,
        [_combination(table, c, nbasis) for c in ucoords],
        [_combination(table, c, nbasis) for c in vcoords])


def idempotent_family(table, e, u):
    """The idempotent e + u + u^2 attached to u in U (checked)."""
    dec = peirce(table, e)
    if not dec.in_u(u):
        raise AlgebraError("element is not in the U component")
    f = e + u + u * u
    if f * f != f:
        raise InternalCheckError("e + u + u^2 failed to be idempotent")
    return f


def lyubich_ideal(table, dec=None):
    """Basis of {u in U : uU = 0}, the annihilator of U inside U."""
    if dec is None:
        dec = peirce(table)
    ub = dec.u_basis
    if not ub:
        return []
    rows = []
    for j, uj in enumerate(ub):
        prods = [ui * uj for ui in ub]
        for k in range(table.dim):
            rows.append([p.coords[k] for p in prods])
    coords = linalg.kernel(rows, ncols=len(ub))
    return [_combination(table, cs, ub) for cs in coords]


@dataclass
class StructureReport:
    """Classification flags for a weighted table.  When the algebra is
    not Bernstein only ``is_bernstein`` and its witness are filled."""
    is_bernstein: bool
    bernstein_witness: IdentityCheck | None = None
    is_nuclear: bool | None = None
    is_exceptional: bool | None = None
    is_jordan: bool | None = None
    lyubich_basis: list | None = None
    type_pair: tuple | None = None
    idempotent: Element | None = None


def _jordan_by_identity(table):
    return check_identity(
        table, lambda x, y: x * (x * x * y) - (x * x) * (x * y), arity=2)


def _jordan_by_peirce(table, dec):
    vsq_zero = all(not (vi * vj)
                   for i, vi in enumerate(dec.v_basis)
                   for vj in dec.v_basis[i:])
    if not vsq_zero:
        return False
    if not dec.u_basis or not dec.v_basis:
        return True
    uv_v = check_identity(table, lambda u, v: (u * v) * v, arity=2,
                          restrict=[dec.u_basis, dec.v_basis],
                          prefixes=("s", "t"))
    return bool(uv_v)


def classify(table):
    """Structure report: Bernstein, nuclear (U^2 = V), exceptional
    (U^2 = 0), Jordan, the annihilator ideal of U and the type.

    The Bernstein and Jordan checks run on ``adapted_table(table)`` if
    any; coordinates and witnesses are on the input basis."""
    bern = is_bernstein(table)
    if not bern:
        return StructureReport(False, bernstein_witness=bern)
    dec = peirce(table)
    jtable = adapted_table(table) or table
    jdec = dec if jtable is table else peirce(jtable)
    usq = [ui * uj
           for i, ui in enumerate(dec.u_basis) for uj in dec.u_basis[i:]]
    usq_vectors = [list(p.coords) for p in usq if p]
    v_vectors = [list(v.coords) for v in dec.v_basis]
    nuclear = linalg.Subspace(usq_vectors).rows() == \
        linalg.Subspace(v_vectors).rows()
    exceptional = not usq_vectors

    jid = bool(_jordan_by_identity(jtable))
    jpe = _jordan_by_peirce(jtable, jdec)
    if jid != jpe:
        raise InternalCheckError(
            "Jordan identity and Peirce criterion disagree")

    return StructureReport(
        is_bernstein=True,
        is_nuclear=nuclear,
        is_exceptional=exceptional,
        is_jordan=jid,
        lyubich_basis=lyubich_ideal(table, dec),
        type_pair=dec.type_pair,
        idempotent=dec.idempotent,
    )


def zero_v_squared(table):
    """The same multiplication with every V x V product replaced by
    zero, on ``adapted_table(table)`` or, when the basis is adapted
    already, on the input basis; the result is verified to be
    Bernstein."""
    base = adapted_table(table) or table
    kinds = _is_adapted(base) if base.weight is not None else None
    if kinds is None:
        peirce(table)  # raises when there is no Peirce decomposition
        raise InternalCheckError("adapted table fails the adaptedness test")
    vset = {i for i, kind in enumerate(kinds) if kind == "v"}
    products = {(i, j): vec for (i, j), vec in base.product_items()
                if i not in vset or j not in vset}
    out = AlgebraTable(base.labels, products, weight=base.weight,
                       name=table.name + "/V2=0" if table.name else "")
    verdict = is_bernstein(out)
    if not verdict:
        raise AlgebraError(
            "zeroing V x V products did not leave a Bernstein algebra")
    return out

