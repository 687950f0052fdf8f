"""Train equations, nilpotency of the barideal, Engel operators and
sums over fully parenthesised powers.

The central verdicts here are symbolic: a generic element of the
carrier gets one indeterminate per carrier basis vector, so "x^k = 0
for all x in N" and "L_v is nilpotent for all v in V" are decided
exactly, not by sampling.  Independent routes to the same verdict are
always cross-checked against each other.

Tree sums S_q (the sum of all full binary trees with q leaves evaluated
at x) come from the bilinear recursion S_1 = x, S_q = sum of
S_i S_(q-i) over i = 1..q-1, which takes q(q-1)/2 products in all
instead of Catalan-many tree evaluations.  Explicit enumeration
(full_trees, parenthesized_powers) is capped at MAX_ENUMERATED_LEAVES.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
import random

from . import linalg
from .core import (AlgebraError, InternalCheckError, UnivariatePoly,
                   ideal_rows, left_mult_operator, ZERO, ONE, HALF)
from .elements import train_polynomial
from .multipoly import MultiPoly
from .structure import adapted_table, is_bernstein, lyubich_ideal, peirce
from .symbolic import IdentityCheck, check_identity, generic_element

LEAF = "x"

# Largest leaf count full_trees enumerates (Catalan(9) = 4862 trees).
# Its cache of enumerations is never freed, so the cap also bounds that.
MAX_ENUMERATED_LEAVES = 10


def full_trees(m):
    """All full binary trees with m leaves (ordered; Catalan count),
    for 1 <= m <= MAX_ENUMERATED_LEAVES."""
    if m < 1:
        raise AlgebraError("trees need at least one leaf")
    if m > MAX_ENUMERATED_LEAVES:
        raise AlgebraError(f"tree enumeration is capped at "
                           f"{MAX_ENUMERATED_LEAVES} leaves")
    cache = full_trees.__dict__.setdefault("_cache", {1: (LEAF,)})
    if m in cache:
        return cache[m]
    out = []
    for left_size in range(1, m):
        for left in full_trees(left_size):
            for right in full_trees(m - left_size):
                out.append((left, right))
    cache[m] = tuple(out)
    return cache[m]


def tree_label(tree):
    if tree == LEAF:
        return "x"
    left, right = tree
    return f"({tree_label(left)}{tree_label(right)})"


def is_principal_shape(tree):
    """True when the tree computes a principal power: at every internal
    node one child is a leaf."""
    if tree == LEAF:
        return True
    left, right = tree
    if left == LEAF:
        return is_principal_shape(right)
    if right == LEAF:
        return is_principal_shape(left)
    return False


def eval_tree(tree, a, cache=None):
    if cache is None:
        cache = {}
    if tree == LEAF:
        return a
    if tree in cache:
        return cache[tree]
    left, right = tree
    value = eval_tree(left, a, cache) * eval_tree(right, a, cache)
    cache[tree] = value
    return value


def _default_carrier(table, carrier):
    if carrier is not None:
        return list(carrier)
    if table.weight is not None:
        return table.barideal_basis()
    return table.basis()


def _sq_sq_zero(table, carrier):
    """Cached symbolic check of (x^2)^2 = 0 on the span of carrier."""
    key = ("sqsq", tuple(tuple(c.coords) for c in carrier))
    cached = table._cache.get(key)
    if cached is None:
        x = generic_element(table, "q", restrict_to=carrier)
        cached = ((x ** 2) ** 2).is_zero()
        table._cache[key] = cached
    return cached


def _in_span(carrier, element):
    return linalg.Subspace(c.coords for c in carrier).contains(element.coords)


def parenthesized_powers(a, m, carrier=None):
    """Evaluate every full binary tree with m leaves at a.

    Returns a dict keyed by the tree rendering.  The carrier (default:
    the barideal) must satisfy (x^2)^2 = 0 and contain a; for m >= 4
    every tree that is not a principal-power shape is asserted to
    evaluate to zero.  m is capped at MAX_ENUMERATED_LEAVES.
    """
    trees = full_trees(m)
    table = a.algebra
    carrier = _default_carrier(table, carrier)
    if not _sq_sq_zero(table, carrier):
        raise AlgebraError("carrier does not satisfy (x^2)^2 = 0")
    if not _in_span(carrier, a):
        raise AlgebraError("element is not in the carrier span")
    cache = {}
    out = {}
    for tree in trees:
        value = eval_tree(tree, a, cache)
        if m >= 4 and not is_principal_shape(tree) and value:
            raise InternalCheckError(
                f"non principal tree {tree_label(tree)} evaluated nonzero")
        out[tree_label(tree)] = value
    return out


def _tree_sums(a, q_max):
    """[S_1, ..., S_q_max], S_q the sum of all q-leaf tree evaluations
    at a.  Splitting each tree at its root and using bilinearity gives
    S_1 = a and S_q = sum of S_i S_(q-i) over i = 1..q-1."""
    sums = [a]
    for q in range(2, q_max + 1):
        products = [sums[j] * sums[q - 2 - j] for j in range(q - 1)]
        sums.append(sum(products[1:], products[0]))
    return sums


def _check_tree_sum(total, power, q):
    """Cross-check a tree sum against 2^(q-2) times the principal power."""
    if total - power.scale(Fraction(2 ** (q - 2))):
        raise InternalCheckError("tree power sum differs from 2^(q-2) a^q")


def tree_power_sum(a, q, carrier=None):
    """Sum of all q-leaf tree evaluations at a, asserted equal to
    2^(q-2) a^q (q >= 2) on a carrier with (x^2)^2 = 0.

    The sum comes from the bilinear recursion S_q = sum of S_i S_(q-i),
    not from enumerating the trees, so q is not capped; the principal
    power a^q is the independent route it is checked against."""
    if not isinstance(q, int) or q < 2:
        raise AlgebraError("tree power sums start at q = 2")
    table = a.algebra
    carrier = _default_carrier(table, carrier)
    if not _sq_sq_zero(table, carrier):
        raise AlgebraError("carrier does not satisfy (x^2)^2 = 0")
    if not _in_span(carrier, a):
        raise AlgebraError("element is not in the carrier span")
    total = _tree_sums(a, q)[-1]
    _check_tree_sum(total, a ** q, q)
    return total


def _matrix_is_zero(m):
    return not any(any(row) for row in m)


def _nilpotency_index_of_matrix(m, bound):
    """Least p <= bound with m^p = 0, else None; exact for Fraction or
    polynomial entries."""
    n = len(m)
    if n == 0:
        return 0
    power = m
    for p in range(1, bound + 1):
        if _matrix_is_zero(power):
            return p
        if p < bound:
            power = linalg.mat_mul(power, m)
    return None


def _char_coeffs(m):
    """Faddeev-LeVerrier characteristic coefficients c_1..c_n; all zero
    iff the matrix is nilpotent (Cayley-Hamilton)."""
    n = len(m)
    coeffs = []
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        trace = mk[0][0]
        for i in range(1, n):
            trace = trace + mk[i][i]
        ck = trace / k if isinstance(trace, MultiPoly) else Fraction(trace, k)
        coeffs.append(ck)
        if k < n:
            shifted = [[mk[i][j] - ck if i == j else mk[i][j]
                        for j in range(n)] for i in range(n)]
            mk = linalg.mat_mul(m, shifted)
    return coeffs


def _generic_operator_nilpotent(table, matrix, var_names):
    """Decide nilpotency of a symbolic matrix exactly.

    Small matrices use characteristic coefficients; larger ones probe
    rational points first (a non-nilpotent point is a sound refutation)
    and then take symbolic powers, which terminate quickly in the
    nilpotent case.
    """
    n = len(matrix)
    if n == 0:
        return True
    if n <= 12:
        return all(not c for c in _char_coeffs(matrix))
    rng = random.Random(11)
    for _ in range(3):
        assignment = {name: Fraction(rng.randint(-9, 9)) for name in var_names}
        concrete = [[c.evaluate(assignment) if isinstance(c, MultiPoly) else c
                     for c in row] for row in matrix]
        if _nilpotency_index_of_matrix(concrete, n) is None:
            return False
    return _nilpotency_index_of_matrix(matrix, n) is not None


def operator_nilpotency_check(table, dec=None, carrier="U"):
    """Least p with L_v^p = 0 on the chosen carrier ("U" or "L(A)")
    for a generic element v of V, or None within the dimension bound."""
    if dec is None:
        dec = peirce(table)
    if carrier == "U":
        basis = dec.u_basis
    elif carrier == "L(A)":
        basis = lyubich_ideal(table, dec)
    else:
        raise AlgebraError(f"unknown carrier {carrier!r}")
    if not basis:
        return 0
    if not dec.v_basis:
        return 1
    v = generic_element(table, "v", restrict_to=dec.v_basis)
    matrix = left_mult_operator(v, basis).matrix
    return _nilpotency_index_of_matrix(matrix, len(basis))


def engel_check(table, carrier=None):
    """Least p with L_x^p = 0 on the carrier for a generic carrier
    element x, or None; the carrier must be closed under products."""
    carrier = _default_carrier(table, carrier)
    if not carrier:
        return 0
    space = linalg.Subspace(c.coords for c in carrier)
    if space.rank != len(carrier):
        raise AlgebraError("carrier basis is linearly dependent")
    for i, ci in enumerate(carrier):
        for cj in carrier[i:]:
            if not space.contains((ci * cj).coords):
                raise AlgebraError("carrier is not closed under multiplication")
    x = generic_element(table, "g", restrict_to=carrier)
    matrix = left_mult_operator(x, carrier).matrix
    return _nilpotency_index_of_matrix(matrix, len(carrier))


def generic_nil_index(table, carrier, bound=None):
    """Least k >= 2 with x^k = 0 for the generic carrier element, or
    None within the bound (default dim carrier + 2)."""
    carrier = list(carrier)
    if not carrier:
        return 2
    if bound is None:
        bound = len(carrier) + 2
    x = generic_element(table, "n", restrict_to=carrier)
    power = x
    for k in range(2, bound + 1):
        power = power * x
        if power.is_zero():
            return k
    return None


@dataclass
class TrainReport:
    is_train: bool
    rank: int | None
    train_coeffs: tuple | None
    train_poly: UnivariatePoly | None
    nil_index_N: int | None
    is_locally_train: bool
    bounds: dict


def _train_gamma_formula(rank):
    """Coefficients (1, gamma_1, ..., gamma_(rank-1)) of the expanded
    train form, from the binomial closed form."""
    out = [ONE]
    for k in range(1, rank):
        out.append(Fraction((-1) ** k, 2 ** k)
                   * (comb(rank - 3, k) + 2 * comb(rank - 3, k - 1)))
    return tuple(out)


def train_analysis(table):
    """Train verdict by three routes that must agree: nilpotency of the
    generic barideal element, the f_r identity sweep on a fully generic
    element, and nilpotency of generic multiplication operators V -> U.

    All three run on ``adapted_table(table)`` if any (weight row with
    several nonzero entries, a Peirce decomposition, not a relabelling);
    the report holds no coordinates."""
    if not is_bernstein(table):
        raise AlgebraError("train analysis needs a Bernstein algebra")
    if (adapted := adapted_table(table)) is not None:
        return train_analysis(adapted)
    nbasis = table.barideal_basis()
    nil_bound = len(nbasis) + 2
    nil_index = generic_nil_index(table, nbasis, bound=nil_bound)

    rank_bound = table.dim + 2
    y = generic_element(table, "t")
    w = y.weight()
    rank = None
    if (y * y - y.scale(w)).is_zero():
        rank = 2
    else:
        cur = y ** 3 - (y ** 2).scale(w)
        for r in range(3, rank_bound + 1):
            if cur.is_zero():
                rank = r
                break
            cur = y * cur - cur.scale(HALF * w)

    dec = peirce(table)
    if dec.u_basis and dec.v_basis:
        v = generic_element(table, "v", restrict_to=dec.v_basis)
        matrix = left_mult_operator(v, dec.u_basis).matrix
        names = [f"v{i + 1}" for i in range(len(dec.v_basis))]
        lv_nilpotent = _generic_operator_nilpotent(table, matrix, names)
    else:
        lv_nilpotent = True

    verdicts = {nil_index is not None, rank is not None, lv_nilpotent}
    if len(verdicts) != 1:
        raise InternalCheckError(
            "train analysis routes disagree: "
            f"nil={nil_index is not None} rank={rank is not None} "
            f"operators={lv_nilpotent}")
    is_train = nil_index is not None

    train_coeffs = None
    train_poly = None
    if rank is not None:
        if rank == 2:
            train_poly = UnivariatePoly((ZERO, -ONE, ONE))
            train_coeffs = (ONE, -ONE)
        else:
            train_poly = train_polynomial(rank)
            train_coeffs = tuple(train_poly.coeff(rank - k)
                                 for k in range(rank))
            if train_coeffs != _train_gamma_formula(rank):
                raise InternalCheckError(
                    "expanded train coefficients disagree with the "
                    "binomial closed form")

    return TrainReport(
        is_train=is_train,
        rank=rank,
        train_coeffs=train_coeffs,
        train_poly=train_poly,
        nil_index_N=nil_index,
        is_locally_train=is_train,
        bounds={"nil_search_bound": nil_bound,
                "rank_search_bound": rank_bound},
    )


def locally_train_analysis(table):
    """Local train verdict; in finite dimension this coincides with the
    train verdict."""
    return train_analysis(table).is_locally_train


def check_lx_power_splitting(table, k_max=4):
    """Check L_x^(k+3) = L_v^k L_x^3 on the weight kernel for generic
    x = u + v, for k = 0..k_max.  Returns the first failing check or a
    passing one."""
    dec = peirce(table)
    nbasis = table.barideal_basis()
    if not nbasis:
        return IdentityCheck(True)
    restrict = [dec.u_basis or None, dec.v_basis or None, nbasis]

    for k in range(k_max + 1):
        def expr(u, v, y, _k=k):
            x = u + v
            lhs = y
            for _ in range(_k + 3):
                lhs = x * lhs
            rhs = y
            for _ in range(3):
                rhs = x * rhs
            for _ in range(_k):
                rhs = v * rhs
            return lhs - rhs

        if dec.u_basis and dec.v_basis:
            res = check_identity(table, expr, arity=3,
                                 restrict=restrict, prefixes=("p", "q", "r"))
        else:
            res = _one_sided_splitting(table, dec, nbasis, k)
        if not res:
            return res
    return IdentityCheck(True)


def _one_sided_splitting(table, dec, nbasis, k):
    """Splitting check when one Peirce summand is zero: with V = 0 the
    right side collapses to zero for k >= 1, with U = 0 the identity is
    L_v^(k+3) = L_v^k L_v^3."""
    if dec.u_basis:
        def expr(u, y, _k=k):
            lhs = y
            for _ in range(_k + 3):
                lhs = u * lhs
            if _k == 0:
                rhs = y
                for _ in range(3):
                    rhs = u * rhs
                return lhs - rhs
            return lhs
        return check_identity(table, expr, arity=2,
                              restrict=[dec.u_basis, nbasis],
                              prefixes=("p", "r"))

    def expr(v, y, _k=k):
        lhs = y
        for _ in range(_k + 3):
            lhs = v * lhs
        rhs = y
        for _ in range(_k + 3):
            rhs = v * rhs
        return lhs - rhs
    return check_identity(table, expr, arity=2,
                          restrict=[dec.v_basis, nbasis],
                          prefixes=("q", "r"))


@dataclass
class EngelYagzhevReport:
    satisfies_sq_sq_zero: bool
    nil_bounded_index: int | None
    engel_index: int | None
    yagzhev_verified_upto: int | None
    bounds: dict


def engel_yagzhev_report(table, carrier=None):
    """Bounded nil index, Engel index and tree-sum verification on a
    carrier with (x^2)^2 = 0; the three verdicts must agree.

    With the default carrier it runs on ``adapted_table(table)`` if any
    (weight row with several nonzero entries, a Peirce decomposition, not a
    relabelling); the report holds no coordinates."""
    if carrier is None and (adapted := adapted_table(table)) is not None:
        return engel_yagzhev_report(adapted)
    carrier = _default_carrier(table, carrier)
    bounds = {"nil_search_bound": len(carrier) + 2,
              "engel_search_bound": len(carrier),
              "yagzhev_max_leaves": 6}
    if not _sq_sq_zero(table, carrier):
        return EngelYagzhevReport(False, None, None, None, bounds)

    nil_index = generic_nil_index(table, carrier)
    engel_index = engel_check(table, carrier)

    x = generic_element(table, "n", restrict_to=carrier)
    q_max = max(6, nil_index or 0)
    bounds["yagzhev_max_leaves"] = q_max
    sums = _tree_sums(x, q_max)
    yagzhev = None
    if nil_index is not None:
        power = x
        for q in range(2, q_max + 1):
            power = power * x
            _check_tree_sum(sums[q - 1], power, q)
            if q >= nil_index and power:
                raise InternalCheckError("x^q nonzero at and beyond the nil index")
        yagzhev = q_max
    elif any(total.is_zero() for total in sums[1:]):
        raise InternalCheckError(
            "tree sums vanish although the carrier is not nil bounded")

    flags = {nil_index is not None, engel_index is not None, yagzhev is not None}
    if len(flags) != 1:
        raise InternalCheckError("Engel, nil and tree-sum verdicts disagree")
    if nil_index is not None and engel_index is not None:
        if nil_index > engel_index + 1:
            raise InternalCheckError("nil index exceeds Engel index + 1")
    return EngelYagzhevReport(True, nil_index, engel_index, yagzhev, bounds)


@dataclass
class PowerChainReport:
    dims: list
    plenary_dims: list
    nilpotency_index: int | None
    solvability_index: int | None


def _span_product(table, abasis, bbasis):
    out = []
    for x in abasis:
        for y in bbasis:
            p = x * y
            if p:
                out.append(list(p.coords))
    return out


def ideal_power_chain(table, ideal_basis):
    """Dimensions of the ideal powers I^n = sum of I^i I^j (i+j = n)
    and of the plenary powers I^(1) = I^2, I^(n+1) = (I^(n))^2, with
    the first vanishing indexes when reached."""
    rows = ideal_rows(table, ideal_basis)
    if rows is None:
        raise AlgebraError("basis does not span an ideal")
    span = [table.element(v) for v in rows]

    limit = 2 * table.dim + 4
    chains = [span]
    dims = [len(span)]
    nilpotency = 1 if not span else None
    while nilpotency is None and len(chains) < limit:
        n = len(chains) + 1
        vecs = []
        for i in range(len(chains)):
            j = n - 2 - i
            if 0 <= j < len(chains):
                vecs.extend(_span_product(table, chains[i], chains[j]))
        basis = [table.element(v) for v in linalg.Subspace(vecs).rows()]
        chains.append(basis)
        dims.append(len(basis))
        if not basis:
            nilpotency = n
            break

    plenary = []
    plenary_dims = []
    current = span
    solvability = 1 if not span else None
    while solvability is None and len(plenary) < limit:
        nxt = [table.element(v) for v in
               linalg.Subspace(_span_product(table, current, current)).rows()]
        plenary.append(nxt)
        plenary_dims.append(len(nxt))
        if not nxt:
            solvability = len(plenary)
            break
        if len(plenary) >= 2 and plenary_dims[-1] == plenary_dims[-2]:
            break
        current = nxt

    return PowerChainReport(dims, plenary_dims, nilpotency, solvability)
