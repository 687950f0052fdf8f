"""Exact linear algebra: echelon forms, kernels, coordinates, spans."""

import random
from fractions import Fraction
from math import gcd

from bernstein import linalg
from bernstein.multipoly import MultiPoly

F = Fraction


def frac_matrix(rows):
    return [[F(c) for c in row] for row in rows]


def rand_matrix(rng, nrows, ncols, span=5):
    return [[F(rng.randint(-span, span), rng.choice((1, 2, 3)))
             for _ in range(ncols)] for _ in range(nrows)]


def column(m, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in m]


def test_rref_hand_example():
    space = linalg.Subspace(frac_matrix([[2, 4, -2], [1, 3, 0], [3, 7, -2]]))
    assert space.rows() == [[F(1), F(0), F(-3)], [F(0), F(1), F(1)]]
    assert space.rank == 2


def test_rref_idempotent_and_rank():
    rng = random.Random(1)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        space = linalg.Subspace(m)
        rows = space.rows()
        assert linalg.Subspace(rows).rows() == rows
        assert space.rank == len(rows)


def test_kernel_annihilates_and_is_complete():
    rng = random.Random(2)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, nrows, ncols)
        basis = linalg.kernel(m, ncols)
        for v in basis:
            assert all(c == 0 for c in column(m, v))
        assert linalg.Subspace(basis).rank == len(basis)
        assert len(basis) == ncols - linalg.Subspace(m).rank


def test_kernel_of_single_row():
    basis = linalg.kernel(frac_matrix([[1, 1, 1]]))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


# --------------------------------------------------------------- Subspace

def ref_rref(vectors):
    """Nonzero rows of the reduced row echelon form by plain dense
    Gauss-Jordan elimination, the reference for ``Subspace``."""
    rows = [list(v) for v in vectors]
    out = []
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[c] for x in pivot]
        rows = [[x - r[c] * y for x, y in zip(r, pivot)] for r in rows]
        out = [[x - o[c] * y for x, y in zip(o, pivot)] for o in out]
        out.append(pivot)
    return out


def echelon_kernel(m):
    """Right nullspace of m read off its reduced echelon form, the
    reference for ``kernel``: for each free column f, 1 at f and -row[f]
    at the pivot of each row."""
    n = len(m[0])
    rows = {next(i for i, c in enumerate(row) if c): row for row in ref_rref(m)}
    basis = []
    for f in range(n):
        if f not in rows:
            v = [F(int(i == f)) for i in range(n)]
            for p, row in rows.items():
                v[p] = -row[f]
            basis.append(v)
    return basis


def test_kernel_and_relations_match_the_echelon_kernel():
    rng = random.Random(39)
    for _ in range(60):
        width, family = rand_family(rng)
        if not family:
            continue
        # the family's relations are the kernel of the matrix whose
        # columns are its vectors
        m = [list(row) for row in zip(*family)]
        want = echelon_kernel(m)
        assert linalg.relations(family) == want
        assert linalg.kernel(m) == want
        m = rand_matrix(rng, rng.randint(1, 5), width)
        assert linalg.kernel(m) == echelon_kernel(m)


def rand_family(rng):
    """Sparse vectors mixed with zero vectors and combinations of
    earlier members."""
    width = rng.randint(1, 7)
    family = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if kind < 0.15:
            family.append([F(0)] * width)
        elif kind < 0.4 and family:
            v = [F(0)] * width
            for w in rng.sample(family, rng.randint(1, len(family))):
                f = F(rng.randint(-3, 3), rng.choice((1, 2)))
                v = [x + f * y for x, y in zip(v, w)]
            family.append(v)
        else:
            family.append([F(rng.randint(-4, 4), rng.choice((1, 3)))
                           if rng.random() < 0.5 else F(0)
                           for _ in range(width)])
    return width, family


def independent_positions(family):
    """Positions of the vectors that enlarge the span of those before."""
    return [i for i in range(len(family))
            if len(ref_rref(family[:i + 1])) > len(ref_rref(family[:i]))]


def test_subspace_rows_rank_contains_match_reference():
    rng = random.Random(31)
    for _ in range(80):
        width, family = rand_family(rng)
        space = linalg.Subspace(family)
        ref = ref_rref(family)
        assert space.rows() == ref
        assert space.rank == len(ref)
        for _ in range(4):
            probe = [F(rng.randint(-2, 2)) for _ in range(width)]
            if family and rng.random() < 0.5:
                probe = [F(0)] * width
                for w in family:
                    f = F(rng.randint(-2, 2))
                    probe = [x + f * y for x, y in zip(probe, w)]
            assert space.contains(probe) == \
                (len(ref_rref(family + [probe])) == len(ref))


def test_subspace_add_reports_growth():
    rng = random.Random(32)
    for _ in range(60):
        _, family = rand_family(rng)
        space = linalg.Subspace()
        grown = [i for i, v in enumerate(family) if space.add(v)]
        assert grown == independent_positions(family)
        assert space.size == len(family)
        assert space.rows() == ref_rref(family)


def test_subspace_coords_on_dependent_families():
    rng = random.Random(33)
    for _ in range(80):
        width, family = rand_family(rng)
        space = linalg.Subspace(family)
        free = set(range(len(family))) - set(independent_positions(family))
        for _ in range(4):
            target = [F(rng.randint(-3, 3)) for _ in range(width)]
            coords = space.coords(target)
            if len(ref_rref(family + [target])) > space.rank:
                assert coords is None
                continue
            assert len(coords) == len(family)
            assert all(coords[i] == 0 for i in free)
            total = [F(0)] * width
            for c, v in zip(coords, family):
                total = [x + c * y for x, y in zip(total, v)]
            assert total == target
    empty = linalg.Subspace([])
    assert empty.rank == 0 and empty.rows() == []
    assert empty.coords([F(0), F(0)]) == []
    assert empty.coords([F(0), F(1)]) is None
    assert not empty.contains([F(1)])


def test_subspace_coords_with_polynomial_targets():
    rng = random.Random(34)
    s, t = MultiPoly.var("s"), MultiPoly.var("t")
    zero = MultiPoly.zero()
    for _ in range(60):
        width, family = rand_family(rng)
        space = linalg.Subspace(family)
        wanted = [zero] * len(family)
        for i in independent_positions(family):
            wanted[i] = (s * F(rng.randint(-3, 3))
                         + t * t * F(rng.randint(-2, 2), 3)
                         + MultiPoly.const(F(rng.randint(-1, 1))))
        target = [zero] * width
        for p, v in zip(wanted, family):
            target = [x + p * y for x, y in zip(target, v)]
        assert space.coords(target, zero=zero) == wanted
        assert space.contains(target)
        outside = next((e for e in linalg.identity_matrix(width)
                        if not space.contains(e)), None)
        if outside is not None:
            moved = [x + s * y for x, y in zip(target, outside)]
            assert space.coords(moved, zero=zero) is None
            assert not space.contains(moved)


def test_contains_agrees_with_coords():
    # contains reduces without the coefficient keys, coords with them;
    # targets inside the span, off it, and on the pivot columns alone,
    # as rational lists, MultiPoly lists and concrete or symbolic
    # elements, against families given as lists and as elements.
    from bernstein.core import AlgebraTable, Element
    rng = random.Random(39)
    s, t = MultiPoly.var("s"), MultiPoly.var("t")
    zero = MultiPoly.zero()
    seen = set()
    for _ in range(80):
        width, family = rand_family(rng)
        table = AlgebraTable([f"b{i}" for i in range(width)], {})
        pivots = [row.index(1) for row in ref_rref(family)]
        scalars = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in family]
        polys = [s * F(rng.randint(-3, 3)) + t * t * F(rng.randint(-2, 2), 3)
                 for _ in family]
        inside = [sum((c * v[k] for c, v in zip(scalars, family)), F(0))
                  for k in range(width)]
        ring_inside = [sum((p * v[k] for p, v in zip(polys, family)), zero)
                       for k in range(width)]
        off = [F(rng.randint(-2, 2)) for _ in range(width)]
        on_pivots = [F(rng.randint(-2, 2)) if k in pivots else F(0)
                     for k in range(width)]
        targets = {
            "rational": [inside, off, on_pivots],
            "polynomial": [ring_inside,
                           [x + s * y for x, y in zip(ring_inside, off)],
                           [x + t * y for x, y in zip(ring_inside, on_pivots)]],
        }
        for given in (family, [Element(table, v) for v in family]):
            space = linalg.Subspace(given)
            for ring, vectors in targets.items():
                for kind, v in zip(("inside", "off", "on pivots"), vectors):
                    for target in (v, Element(table, v)):
                        found = space.contains(target)
                        assert found == (space.coords(target) is not None)
                        seen.add((ring, kind, found))
    assert len(seen) == 10      # every target kind but "inside" both ways


def big_family(rng):
    """Vectors with large denominators, mixed with small integer
    vectors, zero vectors, exact repeats and combinations of earlier
    members."""
    width = rng.randint(1, 6)
    family = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if kind < 0.1:
            family.append([F(0)] * width)
        elif kind < 0.25 and family:
            family.append(list(rng.choice(family)))
        elif kind < 0.45 and family:
            v = [F(0)] * width
            for w in rng.sample(family, rng.randint(1, len(family))):
                f = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                v = [x + f * y for x, y in zip(v, w)]
            family.append(v)
        elif kind < 0.6:
            family.append([F(rng.randint(-2, 2)) for _ in range(width)])
        else:
            family.append([F(rng.randint(-10 ** 9, 10 ** 9),
                             rng.randint(1, 10 ** 9))
                           if rng.random() < 0.7 else F(0)
                           for _ in range(width)])
    return width, family


def assert_canonical_rows(space):
    """Each stored row is ints over a positive denominator, reduced."""
    for row, den in space._rows.values():
        assert type(den) is int and den > 0
        assert all(type(x) is int and x for x in row.values())
        assert gcd(den, *row.values()) == 1


def test_subspace_with_large_denominators_matches_reference():
    rng = random.Random(36)
    for _ in range(60):
        width, family = big_family(rng)
        space = linalg.Subspace()
        grown = [i for i, v in enumerate(family) if space.add(v)]
        assert grown == independent_positions(family)
        assert_canonical_rows(space)
        ref = ref_rref(family)
        rows = space.rows()
        assert rows == ref and space.rank == len(ref)
        assert all(type(c) is Fraction for row in rows for c in row)
        free = set(range(len(family))) - set(grown)
        for _ in range(3):
            inside = [F(0)] * width
            for w in family:
                f = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                inside = [x + f * y for x, y in zip(inside, w)]
            outside = [F(rng.randint(-9, 9), rng.randint(1, 10 ** 6))
                       for _ in range(width)]
            members = [family[i] for i in grown[-1:]]
            for target in [inside, outside] + members:
                expected = len(ref_rref(family + [target])) == len(ref)
                assert space.contains(target) == expected
                coords = space.coords(target)
                if not expected:
                    assert coords is None
                    continue
                assert all(type(c) is Fraction for c in coords)
                assert all(coords[i] == 0 for i in free)
                total = [F(0)] * width
                for c, v in zip(coords, family):
                    total = [x + c * y for x, y in zip(total, v)]
                assert total == target


def test_subspace_polynomial_targets_with_large_denominators():
    rng = random.Random(37)
    s, t = MultiPoly.var("s"), MultiPoly.var("t")
    zero = MultiPoly.zero()
    for _ in range(40):
        width, family = big_family(rng)
        space = linalg.Subspace(family)
        wanted = [zero] * len(family)
        for i in independent_positions(family):
            wanted[i] = (s * F(rng.randint(-10 ** 6, 10 ** 6),
                               rng.randint(1, 10 ** 6))
                         + t * F(rng.randint(-3, 3), 7)
                         + MultiPoly.const(F(rng.randint(-2, 2), 5)))
        target = [zero] * width
        for p, v in zip(wanted, family):
            target = [x + p * y for x, y in zip(target, v)]
        assert space.coords(target, zero=zero) == wanted
        assert space.contains(target)
        mixed = [c.constant_value() if not c.variables() else c
                 for c in target]
        assert space.coords(mixed, zero=zero) == wanted


def test_wrappers_return_fractions():
    rng = random.Random(38)
    for _ in range(20):
        m = [[F(rng.randint(-9, 9), rng.randint(1, 10 ** 5))
              for _ in range(3)] for _ in range(3)]
        for v in linalg.kernel(m):
            assert all(type(c) is Fraction for c in v)
            assert not any(column(m, v))
