"""Train equations, nilpotency of the barideal, Engel operators and
sums over fully parenthesised powers.

The central verdicts here are symbolic: a generic element of the
carrier gets one indeterminate per carrier basis vector, so "x^k = 0
for all x in N" and "L_v is nilpotent for all v in V" are decided
exactly, not by sampling.  Independent routes to the same verdict are
always cross-checked against each other.  Operator nilpotency has one
route, a product chain x y, x (x y), ... on a generic carrier element y
up to the carrier dimension: exact, since a nilpotent operator on an
n-dimensional space has index at most n.  After a negative verdict the
other routes run at a fixed point first (``symbolic._vanishing``), which
can only confirm that a value is nonzero.

Tree sums S_q (the sum of all full binary trees with q leaves evaluated
at x) come from the bilinear recursion S_1 = x, S_q = sum of
S_i S_(q-i) over i = 1..q-1, each unordered pair formed once: floor(q^2/4)
products up to q, not Catalan-many tree evaluations.  Explicit enumeration
(full_trees, parenthesized_powers) is capped at MAX_ENUMERATED_LEAVES.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import (accumulate, chain, combinations_with_replacement,
                       islice, repeat)
from itertools import product as iter_product

from . import linalg, symbolic
from .core import (AlgebraError, InternalCheckError, _combination,
                   _power_chain, ideal_rows, ZERO, ONE)
from .elements import _train_forms, train_polynomial
from .multipoly import MultiPoly
from .structure import (_components, _lyubich_kernel,
                        adapted_table, is_bernstein, peirce)
from .symbolic import IdentityCheck, check_identity, generic_element

LEAF = "x"
_NOT_CLOSED = "carrier is not closed under multiplication"

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
    if table.has_weight:
        return table.barideal_basis()
    return table.basis()


def _sq_sq_zero(table, carrier):
    """Symbolic check of (x^2)^2 = 0 on the span of carrier."""
    x = generic_element(table, "q", restrict_to=carrier)
    square = x * x
    return (square * square).is_zero()


def _check_carrier(a, carrier):
    """Check that the carrier (default: the barideal) satisfies
    (x^2)^2 = 0 and that its span contains a."""
    table = a.algebra
    carrier = _default_carrier(table, carrier)
    if not _sq_sq_zero(table, carrier):
        raise AlgebraError("carrier does not satisfy (x^2)^2 = 0")
    if not linalg.Subspace(carrier).contains(a):
        raise AlgebraError("element is not in the carrier span")


def parenthesized_powers(a, m, carrier=None):
    """Evaluate every full binary tree with m leaves at a.

    Returns a dict keyed by the tree rendering.  The carrier (default:
    the barideal) must satisfy (x^2)^2 = 0 and contain a; for m >= 4
    every tree that is not a principal-power shape is asserted to
    evaluate to zero.  m is capped at MAX_ENUMERATED_LEAVES.
    """
    trees = full_trees(m)
    _check_carrier(a, carrier)
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
    S_1 = a and S_q = sum of S_i S_(q-i) over i = 1..q-1, formed once per
    unordered pair: 2 sum over i < q - i, plus S_(q/2)^2 for even q."""
    sums = [a]
    for q in range(2, q_max + 1):
        total = sum((sums[i] * sums[q - 2 - i] for i in range((q - 1) // 2)),
                    a.scale(0)).scale(2)
        half = sums[q // 2 - 1]
        sums.append(total + half * half if q % 2 == 0 else total)
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
    _check_carrier(a, carrier)
    total = _tree_sums(a, q)[-1]
    _check_tree_sum(total, a ** q, q)
    return total


def _operator_index(x, carrier, outside, point=None):
    """Least p <= n = len(carrier) with L_x^p = 0 on the span of the
    independent carrier, else None; AlgebraError(outside) when L_x
    does not leave that span invariant.  With y generic over the
    carrier, in variables of its own, L_x^p vanishes there exactly when
    L_x^p y = 0, so each step is one product; as y's variables appear
    linearly, x y lies in the span exactly when every x c does.  A
    concrete ``point`` for x runs first, with y at ``symbolic._point``."""
    space = linalg.Subspace(carrier)
    if space.rank != len(carrier):
        raise AlgebraError("carrier basis is linearly dependent")
    if not carrier:
        return 0
    image = x * generic_element(x.algebra, "y", restrict_to=carrier)
    if not space.contains(image):
        raise AlgebraError(outside)
    if point is not None:
        point = (point, point * symbolic._point(x.algebra, carrier))
    zeros = symbolic._vanishing(    # image, x image, ...: n values
        lambda a, first: accumulate(repeat(a, len(carrier) - 1),
                                    lambda y, a: a * y, initial=first),
        (x, image), point)
    return next((p for p, zero in enumerate(zeros, 1) if zero), None)


def operator_nilpotency_check(table, carrier="U"):
    """Least p with L_v^p = 0 on the chosen carrier ("U" or "L(A)")
    for a generic element v of V, or None within the dimension bound;
    on ``adapted_table(table)`` if any, where U and V are basis vectors."""
    base, u, v = _components(table)
    u_basis = [base.basis_element(i) for i in u]
    if carrier == "U":
        basis = u_basis
    elif carrier == "L(A)":
        basis = [_combination(base, cs, u_basis)
                 for cs in _lyubich_kernel(base, u)]
    else:
        raise AlgebraError(f"unknown carrier {carrier!r}")
    v = generic_element(base, "v",
                        restrict_to=[base.basis_element(i) for i in v])
    return _operator_index(v, basis,
                           "carrier is not invariant under the operator")


def engel_check(table, carrier=None):
    """Least p with L_x^p = 0 on the carrier for a generic carrier
    element x, or None; with the default carrier on
    ``adapted_table(table)`` if any.  The carrier must be independent
    and closed under products: for generic x = sum t_i c_i, invariance
    under L_x is closure, as x c_j lies in the span for all t exactly
    when every c_i c_j does."""
    if carrier is None and (adapted := adapted_table(table)) is not None:
        return engel_check(adapted)
    carrier = _default_carrier(table, carrier)
    x = generic_element(table, "g", restrict_to=carrier)
    return _operator_index(x, carrier, _NOT_CLOSED)


def generic_nil_index(table, carrier):
    """Least k in 2..dim carrier + 2 with x^k = 0 for the generic
    carrier element, or None."""
    return _nil_index(table, list(carrier))


def _nil_index(table, carrier, at_point=False):
    """``generic_nil_index``, at ``symbolic._point`` first if ``at_point``."""
    zeros = symbolic._vanishing(
        lambda x: islice(_power_chain(x), 1, len(carrier) + 2),
        [generic_element(table, "n", restrict_to=carrier)],
        at_point and [symbolic._point(table, carrier)])
    return next((k for k, zero in enumerate(zeros, 2) if zero), None)


@dataclass
class TrainReport:
    is_train: bool
    rank: int | None
    train_coeffs: tuple | None
    train_poly: MultiPoly | None
    nil_index_N: int | None
    is_locally_train: bool
    bounds: dict
    operator_index: int | None = None


def train_analysis(table):
    """Train verdict by three routes that must agree: nilpotency of
    generic multiplication operators V -> U, the cheapest, symbolic and
    first; then nilpotency of the generic barideal element and the f_r
    sweep on a fully generic element, at a fixed point first when the
    operators have no index.  All three run on ``adapted_table(table)``
    if any; the report holds no coordinates."""
    if not is_bernstein(table):
        raise AlgebraError("train analysis needs a Bernstein algebra")
    if (adapted := adapted_table(table)) is not None:
        return train_analysis(adapted)
    op_index = operator_nilpotency_check(table)

    nbasis = table.barideal_basis()
    nil_bound = len(nbasis) + 2
    nil_index = _nil_index(table, nbasis, op_index is None)

    rank_bound = table.dim + 2
    zeros = symbolic._vanishing(
        lambda a: islice(_train_forms(a), rank_bound - 1),
        [generic_element(table, "t")],
        op_index is None and [symbolic._point(table, table.basis())])
    rank = next((r for r, zero in enumerate(zeros, 2) if zero), None)

    verdicts = {nil_index is not None, rank is not None, op_index is not None}
    if len(verdicts) != 1:
        raise InternalCheckError(
            "train analysis routes disagree: "
            f"nil={nil_index is not None} rank={rank is not None} "
            f"operators={op_index is not None}")
    is_train = nil_index is not None

    train_coeffs = train_poly = None
    if rank is not None:
        train_poly = (MultiPoly.univariate((ZERO, -ONE, ONE)) if rank == 2
                      else train_polynomial(rank))
        train_coeffs = tuple(train_poly.coefficients()[:0:-1])

    return TrainReport(
        is_train=is_train,
        rank=rank,
        train_coeffs=train_coeffs,
        train_poly=train_poly,
        nil_index_N=nil_index,
        is_locally_train=is_train,
        bounds={"nil_search_bound": nil_bound,
                "rank_search_bound": rank_bound},
        operator_index=op_index,
    )


def locally_train_analysis(table):
    """Local train verdict; in finite dimension this coincides with the
    train verdict."""
    return train_analysis(table).is_locally_train


def check_lx_power_splitting(table, k_max=4):
    """Check L_x^(k+3) = L_v^k L_x^3 on the weight kernel for generic
    x = u + v, for k = 0..k_max; an empty Peirce summand gives the zero
    element.  Returns the first failing check or a passing one."""
    dec = peirce(table)
    nbasis = table.barideal_basis()
    if not nbasis:
        return IdentityCheck(True)
    restrict = [dec.u_basis, dec.v_basis, nbasis]

    for k in range(k_max + 1):
        def expr(u, v, y, _k=k):
            x = u + v
            lhs = rhs = x * (x * (x * y))
            for _ in range(_k):
                lhs, rhs = x * lhs, v * rhs
            return lhs - rhs

        res = check_identity(table, expr, arity=3,
                             restrict=restrict, prefixes=("p", "q", "r"))
        if not res:
            return res
    return IdentityCheck(True)


@dataclass
class EngelYagzhevReport:
    satisfies_sq_sq_zero: bool
    nil_bounded_index: int | None
    engel_index: int | None
    yagzhev_verified_upto: int | None
    bounds: dict


def engel_yagzhev_report(table, carrier=None):
    """Bounded nil index, Engel index and tree-sum verification on a
    carrier with (x^2)^2 = 0; the three verdicts must agree.  The nil
    chain is symbolic and first; when it finds no index, the Engel chain
    and the tree sums run at a fixed point first.

    With the default carrier it runs on ``adapted_table(table)`` if any;
    the report holds no coordinates."""
    if carrier is None and (adapted := adapted_table(table)) is not None:
        return engel_yagzhev_report(adapted)
    carrier = _default_carrier(table, carrier)
    bounds = {"nil_search_bound": len(carrier) + 2,
              "engel_search_bound": len(carrier),
              "yagzhev_max_leaves": 6}
    if not _sq_sq_zero(table, carrier):
        return EngelYagzhevReport(False, None, None, None, bounds)

    x = generic_element(table, "n", restrict_to=carrier)
    powers, nil_index = [], None
    for k, power in enumerate(islice(_power_chain(x), len(carrier) + 2), 1):
        powers.append(power)
        if k > 1 and power.is_zero():
            nil_index = k
            break
    point = None if nil_index else symbolic._point(table, carrier)
    engel_index = _operator_index(x, carrier, _NOT_CLOSED, point)

    q_max = max(6, nil_index or 0)
    bounds["yagzhev_max_leaves"] = q_max
    yagzhev = None
    if nil_index is not None:
        sums = _tree_sums(x, q_max)
        # x^q = 0 for every q from the nil index on
        for q in range(2, q_max + 1):
            _check_tree_sum(sums[q - 1], powers[min(q, nil_index) - 1], q)
        yagzhev = q_max
    elif any(symbolic._vanishing(lambda a: _tree_sums(a, q_max)[1:],
                                 [x], [point])):
        raise InternalCheckError(
            "tree sums vanish although the carrier is not nil bounded")

    flags = {nil_index is not None, engel_index is not None, yagzhev is not None}
    if len(flags) != 1:
        raise InternalCheckError("Engel, nil and tree-sum verdicts disagree")
    # nil counts from k = 2: an empty carrier reads nil 2 and Engel 0
    if nil_index is not None and engel_index is not None:
        if nil_index > max(engel_index + 1, 2):
            raise InternalCheckError("nil index exceeds Engel index + 1")
    return EngelYagzhevReport(True, nil_index, engel_index, yagzhev, bounds)


@dataclass
class PowerChainReport:
    dims: list
    plenary_dims: list
    nilpotency_index: int | None
    solvability_index: int | None


def _product_basis(factors):
    """An independent family spanning the sum of the products L R over
    the (L, R) family pairs in ``factors``: each product x y that
    enlarges the span, formed once per unordered pair when L is R."""
    space = linalg.Subspace()
    pairs = chain.from_iterable(
        combinations_with_replacement(left, 2) if left is right
        else iter_product(left, right) for left, right in factors)
    return [p for p in (x * y for x, y in pairs) if space.add(p)]


def ideal_power_chain(table, ideal_basis):
    """Dimensions of the ideal powers I^n = sum of I^i I^j (i+j = n)
    and of the plenary powers I^(1) = I^2, I^(n+1) = (I^(n))^2, with
    the first vanishing indexes when reached.  As the table is
    commutative, I^i I^j is formed for i <= j only."""
    rows = ideal_rows(table, ideal_basis)
    if rows is None:
        raise AlgebraError("basis does not span an ideal")
    span = [table.element(v) for v in rows]

    limit = 2 * table.dim + 4
    chains = [span]     # chains[i] spans I^(i + 1)
    nilpotency = 1 if not span else None
    while nilpotency is None and len(chains) < limit:
        chains.append(_product_basis((chains[i], chains[-1 - i])
                                     for i in range((len(chains) + 1) // 2)))
        if not chains[-1]:
            nilpotency = len(chains)
    dims = [len(basis) for basis in chains]

    plenary_dims = []
    current = span
    solvability = 1 if not span else None
    while solvability is None and len(plenary_dims) < limit:
        current = _product_basis([(current, current)])
        plenary_dims.append(len(current))
        if not current:
            solvability = len(plenary_dims)
        elif len(plenary_dims) >= 2 and plenary_dims[-1] == plenary_dims[-2]:
            break

    return PowerChainReport(dims, plenary_dims, nilpotency, solvability)
