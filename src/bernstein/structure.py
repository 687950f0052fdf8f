"""Bernstein structure theory: idempotents, Peirce decomposition,
classification flags and the annihilator ideal of the U component.

A baric algebra (A, w) is Bernstein when (x^2)^2 = w(x)^2 x^2 holds
identically.  Relative to an idempotent e of weight 1 the weight
kernel N splits as U + V with U the 1/2-eigenspace and V the kernel
of left multiplication by e.  ``peirce`` reads U and V off the
linear relations among the images e n of a basis of N.  The checks run
on ``adapted_table``, the table rebuilt on the adapted basis e, U, V by
``change_basis``, where U and V are basis vectors and their products
are structure constants.  ``is_bernstein`` decides an adapted table
from its rows by the Peirce conditions when U^2 = 0 or a linear one
fails (``_peirce_holds``), and by the expanded identity otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, symbolic
from .core import (AlgebraError, AlgebraTable, Element, InternalCheckError,
                   _combination, _new, ZERO, HALF)
from .symbolic import IdentityCheck, check_identity, generic_element


def is_bernstein(table):
    """Whether (x^2)^2 = w(x)^2 x^2 holds; cached on the table, the
    witness as integer (num, den) pairs to make no reference cycle.

    An adapted basis is decided by ``_peirce_holds`` when its rows settle
    it, any other on ``adapted_table(table)`` if any.  The expanded
    identity decides the rest and gives the witness of a failure, on the
    input basis, at one basis vector first if it is not adapted; it must
    agree with a verdict already made."""
    if not table.has_weight:
        raise AlgebraError("Bernstein check needs a weighted algebra")
    cached = table._cache.get("bernstein")
    if cached is not None:
        holds, assignment, xs, value = cached
        return IdentityCheck(
            holds, assignment,
            None if xs is None else [_new(table, dict(n), d) for n, d in xs],
            None if value is None else _new(table, dict(value[0]), value[1]))
    adapted = adapted_table(table)
    kinds = adapted is None and _is_adapted(table)
    verdict = (_peirce_holds(table, kinds) if kinds
               else adapted is not None and bool(is_bernstein(adapted)))
    if verdict:
        result = IdentityCheck(True)
    else:
        # An adapted basis skips the probe: with e first, x = ae + n for n
        # in the ideal N, and the e-coordinate of (x^2)^2 and of
        # w(x)^2 x^2 is a^4 alike, so coordinate 0 of the defect vanishes
        # identically and the probe cannot refute.
        result = (None if kinds
                  else symbolic._refute_on_line(table, _bernstein_identity))
        if result is None:
            result = check_identity(table, _bernstein_identity)
        if result and verdict is False:
            raise InternalCheckError("Bernstein check: " + (
                "Peirce conditions disagree on an adapted basis" if kinds
                else "input and adapted bases disagree" if adapted is not None
                else "the identity holds but peirce found no decomposition"))
    xs, value = result.witness_elements, result.witness_value
    table._cache["bernstein"] = (
        result.holds, result.witness_assignment,
        None if xs is None else [(dict(x.num), x.den) for x in xs],
        None if value is None else (dict(value.num), value.den))
    return result


def _peirce_holds(table, kinds):
    """Whether an adapted table, ``kinds`` from ``_is_adapted``, is
    Bernstein, or None when its rows do not settle it (Holgate 1975;
    Lyubich 1992).  For x = ae + n, n = u + v, n^2 has weight 0 and
    (x^2)^2 - a^2 x^2 = a^2 (u^2 - (n^2)_V) + 2a u n^2 + (n^2)^2.  The a^2
    part vanishes iff U^2 is in V, UV in U and V^2 in U, read off the
    rows.  Then n^2 = u^2 + m with m = 2uv + v^2 in U, so every term of
    u n^2 and (n^2)^2 = (u^2)^2 + 2u^2 m + m^2 has a factor in U^2, and
    U^2 = 0 proves the identity."""
    rows, _ = table._integer_rows()
    found = {(kinds[i] + kinds[j], kinds[k]) for i, row in enumerate(rows)
             for j, vec in row.items() if "e" not in kinds[i] + kinds[j]
             for k, _ in vec}
    if not found <= {("uu", "v"), ("uv", "u"), ("vu", "u"), ("vv", "u")}:
        return False
    return True if ("uu", "v") not in found else None


def _bernstein_identity(x):
    square = x * x
    return square * square - square.scale(x.weight() ** 2)


def adapted_table(table):
    """``table`` rebuilt on the basis e, u1.., v1.. of ``peirce(table)``,
    or None; cached.  None when there is no Peirce decomposition, and
    when the basis is adapted already, so that a rebuild would only
    relabel it: the weight row is w_i at one position i, b_i b_i = w_i b_i
    and each other b_i b_j is 0 or (w_i/2) b_j, so e = b_i/w_i and every
    other basis vector lies in U or V.  That test reads dim products."""
    if "adapted" not in table._cache:
        table._cache["adapted"] = None
        if table.has_weight and not _is_adapted(table):
            try:
                dec = peirce(table)
            except AlgebraError:
                pass
            else:
                us, vs = dec.u_basis, dec.v_basis
                table._cache["adapted"] = table.change_basis(
                    [dec.idempotent, *us, *vs],
                    ["e"] + [f"u{i + 1}" for i in range(len(us))]
                    + [f"v{i + 1}" for i in range(len(vs))],
                    name=table.name)
    return table._cache["adapted"]


def _is_adapted(table):
    """Each basis vector's kind, "e" (one of them), "u" or "v", when the
    basis is adapted; else None.  Reads the integer rows and weight."""
    ws, dw = table._weight
    support = [i for i, w in enumerate(ws) if w]
    if len(support) != 1:
        return None
    i = support[0]
    rows, den = table._integer_rows()
    row, s = rows[i], Fraction(ws[i] * den, dw)   # s = den w_i
    if row.get(i) != ((i, s),):
        return None
    half = s / 2
    kinds = ["e" if j == i else "v" if j not in row
             else "u" if row[j] == ((j, half),) else None
             for j in range(table.dim)]
    return None if None in kinds else kinds


def _components(table):
    """(base, u, v): ``adapted_table(table) or table`` and the positions
    of its U and V basis vectors.  Position k of u is
    ``peirce(table).u_basis[k]`` on the input basis, and likewise for v.
    Raises peirce's AlgebraError when there is no Peirce decomposition."""
    base = adapted_table(table) or table
    kinds = _is_adapted(base) if base.has_weight else None
    if kinds is None:
        peirce(table)  # raises when there is no Peirce decomposition
        raise InternalCheckError("adapted table fails the adaptedness test")
    return (base, [i for i, kind in enumerate(kinds) if kind == "u"],
            [i for i, kind in enumerate(kinds) if kind == "v"])


def find_idempotent(table):
    """Nonzero idempotent of weight 1, from the first basis vector of
    nonzero weight (deterministic)."""
    if not table.has_weight:
        raise AlgebraError("idempotent search needs a weighted algebra")
    ws, dw = table._weight
    i = next(i for i, w in enumerate(ws) if w)
    x = table.basis_element(i).scale(Fraction(dw, ws[i]))
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


def peirce(table, e=None):
    """Peirce decomposition for the idempotent e (found if omitted): U
    and V are read off the relations among the images e n - n/2 and e n
    of a basis of N.  Without e it is cached on the table as integer
    (num, den) pairs, as elements there would make a reference cycle."""
    if e is None:
        cached = table._cache.get("peirce")
        if cached is None:
            dec = _peirce(table, find_idempotent(table))
            cached = table._cache["peirce"] = [
                [(x.num, x.den) for x in part] for part in
                ([dec.idempotent], dec.u_basis, dec.v_basis)]
        (e,), us, vs = [[_new(table, dict(num), den) for num, den in part]
                        for part in cached]
        return PeirceDecomposition(table, e, us, vs)
    if e * e != e or e.weight() != 1:
        raise AlgebraError("peirce needs an idempotent of weight 1")
    return _peirce(table, e)


def _peirce(table, e):
    """``peirce(table, e)`` for an idempotent e of weight 1, unchecked."""
    nbasis = table.barideal_basis()
    images = [e * b for b in nbasis]
    shifted = [a - b.scale(HALF) for a, b in zip(images, nbasis)]
    us, vs = ([_combination(table, cs, nbasis) for cs in linalg.relations(f)]
              for f in (shifted, images))
    if len(us) + len(vs) != len(nbasis):
        raise AlgebraError("not a Bernstein Peirce decomposition")
    return PeirceDecomposition(table, e, us, vs)


def idempotent_family(table, e, u):
    """The idempotent e + u + u^2 attached to u in U (checked: a table
    that is not Bernstein can fail, a Bernstein table cannot)."""
    if e * e != e or e.weight() != 1:
        raise AlgebraError("idempotent_family needs an idempotent of weight 1")
    if u.weight() or e * u != u.scale(HALF):
        raise AlgebraError("element is not in the U component")
    f = e + u + u * u
    if f * f != f:
        if not is_bernstein(table):
            raise AlgebraError("e + u + u^2 is not idempotent: not Bernstein")
        raise InternalCheckError("e + u + u^2 failed to be idempotent")
    return f


def _lyubich_kernel(base, u):
    """Reduced kernel basis, as coefficients over the U positions u of
    ``base``, of c -> (sum of c_i u_i) U: structure constants only."""
    rows = []
    for j in u:
        prods = [base.product_vector(i, j) for i in u]
        for k in sorted(set().union(*prods)):
            rows.append([p.get(k, ZERO) for p in prods])
    return linalg.kernel(rows, ncols=len(u))


def lyubich_ideal(table):
    """Basis of {u in U : uU = 0}, the annihilator of U inside U, as
    combinations of ``peirce(table).u_basis``."""
    base, u, _ = _components(table)
    ub = peirce(table).u_basis
    return [_combination(table, cs, ub) for cs in _lyubich_kernel(base, u)]


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


def _jordan_by_identity(table, at_point=False):
    """Whether x (x^2 y) = x^2 (x y) holds.  The identity is linear in
    y, so it holds when it does for a generic x and each basis vector y;
    ``at_point`` tries ``symbolic._point`` first (``symbolic._vanishing``)."""
    def defects(x):
        square = x * x
        return (x * (square * b) - square * (x * b) for b in table.basis())
    return all(symbolic._vanishing(
        defects, [generic_element(table)],
        at_point and [symbolic._point(table, table.basis())]))


def _products(base, positions):
    """The nonzero products of basis vectors at ``positions``, one per
    unordered pair, as dense coordinate lists."""
    out = []
    for a, i in enumerate(positions):
        for j in positions[a:]:
            p = base.product_vector(i, j)
            if p:
                out.append([p.get(k, ZERO) for k in range(base.dim)])
    return out


def _jordan_by_peirce(base, u, v):
    """V^2 = 0 and (UV)V = 0 on an adapted table; (s t) t is linear in
    s, so (UV)V = 0 when (s t) t = 0 for a generic t in V and each U
    basis vector s."""
    if _products(base, v):
        return False
    t = generic_element(base, "t", [base.basis_element(j) for j in v])
    return not any((base.basis_element(i) * t) * t for i in u)


def classify(table):
    """Structure report: Bernstein, nuclear (U^2 = V), exceptional
    (U^2 = 0), Jordan, the annihilator ideal of U and the type.

    Every check runs on ``adapted_table(table)`` if any, where U and V
    are basis vectors; coordinates and witnesses are on the input basis.
    When the Peirce criterion fails, Jordan's identity is tried at a
    fixed point first."""
    bern = is_bernstein(table)
    if not bern:
        return StructureReport(False, bernstein_witness=bern)
    dec = peirce(table)
    base, u, v = _components(table)
    usq = _products(base, u)
    nuclear = linalg.Subspace(usq).rows() == \
        [list(base.basis_element(i).coords) for i in v]
    exceptional = not usq

    jpe = _jordan_by_peirce(base, u, v)
    jid = _jordan_by_identity(base, at_point=not jpe)
    if jid != jpe:
        raise InternalCheckError(
            "Jordan identity and Peirce criterion disagree")

    return StructureReport(
        is_bernstein=True,
        is_nuclear=nuclear,
        is_exceptional=exceptional,
        is_jordan=jid,
        lyubich_basis=lyubich_ideal(table),
        type_pair=dec.type_pair,
        idempotent=dec.idempotent,
    )


def zero_v_squared(table):
    """The same multiplication with every V x V product replaced by
    zero, on ``adapted_table(table)`` or, when the basis is adapted
    already, on the input basis; the result is verified to be
    Bernstein."""
    base, _, v = _components(table)
    vset = set(v)
    products = {(i, j): vec for (i, j), vec in base.product_items()
                if i not in vset or j not in vset}
    out = AlgebraTable(base.labels, products, weight=base.weight,
                       name=table.name + "/V2=0" if table.name else "")
    verdict = is_bernstein(out)
    if not verdict:
        raise AlgebraError(
            "zeroing V x V products did not leave a Bernstein algebra")
    return out

