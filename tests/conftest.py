"""Shared helpers: seeded random scalars and elements, hand-built
tables, and a pool of parameterized catalog algebras used by the
property suites."""

from fractions import Fraction

from bernstein.core import AlgebraTable, HALF
from bernstein import catalog


def rand_scalar(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3)))


def rand_nonzero_scalar(rng, span=4):
    while True:
        q = rand_scalar(rng, span)
        if q:
            return q


def rand_coords(rng, dim, span=4):
    coords = [rand_scalar(rng, span) for _ in range(dim)]
    if not any(coords):
        coords[rng.randrange(dim)] = Fraction(1)
    return coords


def rand_element(table, rng, span=4):
    """A random nonzero element."""
    return table.element(rand_coords(rng, table.dim, span))


def rand_unit_element(table, rng, span=3):
    """A random element of weight 1."""
    coords = [rand_scalar(rng, span) for _ in range(table.dim)]
    w = table.weight_of(coords)
    if not w:
        i = next(k for k, wk in enumerate(table.weight) if wk)
        coords[i] += 1 / Fraction(table.weight[i])
        w = table.weight_of(coords)
    return table.element([c / w for c in coords])


def rand_combination(elements, rng, span=3):
    """A random linear combination of the given elements."""
    if not elements:
        raise ValueError("cannot combine an empty family")
    out = elements[0].algebra.zero()
    for x in elements:
        out = out + x.scale(rand_scalar(rng, span))
    return out


def nuclear_table():
    """Hand-built nuclear Bernstein algebra: U^2 = V via u^2 = v."""
    return AlgebraTable.build(
        ("e", "u", "v"),
        {("e", "e"): {"e": 1}, ("e", "u"): {"u": HALF}, ("u", "u"): {"v": 1}},
        weight={"e": 1}, name="nuclear")


def mixed_table():
    """Bernstein algebra that is neither nuclear nor exceptional:
    U^2 = span(v1) sits strictly between 0 and V = span(v1, v2)."""
    return AlgebraTable.build(
        ("e", "u", "v1", "v2"),
        {("e", "e"): {"e": 1}, ("e", "u"): {"u": HALF},
         ("u", "u"): {"v1": 1}},
        weight={"e": 1}, name="mixed")


def non_bernstein_table():
    """Weighted commutative table that fails the Bernstein identity:
    e acts as the identity on n instead of by 1/2."""
    return AlgebraTable.build(
        ("e", "n"), {("e", "e"): {"e": 1}, ("e", "n"): {"n": 1}},
        weight={"e": 1}, name="non_bernstein")


def pool_builders(rng):
    """The builders ``bernstein_pool`` draws from; each draws its
    parameters from rng when called."""
    def free_with_betas():
        n = rng.randint(4, 6)
        return catalog.free_single_truncated(
            n, [rand_scalar(rng, 2) for _ in range(n - 2)])

    return [
        lambda: catalog.elementary_algebra(rng.randint(0, 3)),
        catalog.constant_algebra,
        lambda: catalog.three_dim_alpha(rand_scalar(rng)),
        catalog.example_not_train,
        lambda: catalog.shift_up_truncated(rng.randint(1, 5)),
        lambda: catalog.shift_down_truncated(rng.randint(1, 5)),
        lambda: catalog.free_single_truncated(rng.randint(4, 7)),
        free_with_betas,
        lambda: catalog.zhevlakov_bernstein(rng.randint(2, 4), 2),
        lambda: catalog.zhevlakov_bernstein(3, 3),
        nuclear_table,
        mixed_table,
    ]


def bernstein_pool(rng, max_dim=None):
    """A random parameterized Bernstein algebra from the catalog."""
    choices = pool_builders(rng)
    while True:
        table = rng.choice(choices)()
        if max_dim is None or table.dim <= max_dim:
            return table
