"""Core algebra tests: SNF oracle, canonical forms, homomorphism decomposition.

The SNF checks never trust the implementation: they multiply the
transforms back out, check unimodularity through exact determinants,
and check the divisibility chain entry by entry.
"""
import itertools
import random
import sys
import time
from collections import Counter
from math import gcd, lcm, prod

import pytest

from ghg.fgab import (
    FgAbGroup,
    Homomorphism,
    _diagonal_relations,
    _is_chain,
    _presented,
    _reduced,
    _smith,
    cokernel,
    direct_sum,
    kernel,
)
from ghg.verify import (
    apply,
    canonicalize,
    det,
    enumerate_elements,
    image,
    is_diagonal,
    matmul,
    random_group,
    random_hom,
    random_matrix,
    snf,
)


def diagonal(m, ncols):
    return tuple(m[k][k] for k in range(min(len(m), ncols)))


def assert_snf_contract(a):
    u, d, v = snf(a, len(a[0]))
    assert matmul(matmul(u, a), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    assert is_diagonal(d)
    diag = diagonal(d, len(a[0]))
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return diag


def test_snf_diagonal_example():
    diag = assert_snf_contract([[2, 0], [0, 3]])
    assert diag == (1, 6)


def test_snf_identity_fixed():
    a = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    u, d, v = snf(a, 3)
    assert d == a


def test_snf_single_negative():
    diag = assert_snf_contract([[-5]])
    assert diag == (5,)


def test_snf_empty_shapes():
    for a, ncols in (([], 0), ([], 3), ([[], [], []], 0)):
        u, d, v = snf(a, ncols)
        assert (len(u), len(d), len(v)) == (len(a), len(a), ncols)
        assert all(len(row) == ncols for row in d + v)
        assert matmul(matmul(u, a), v) == d


def test_snf_known_awkward_matrix():
    # row-reduced by hand: invariant factors of [[2,4,4],[-6,6,12],[10,4,16]]
    diag = assert_snf_contract([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert diag == (2, 2, 156)


def test_snf_transforms_are_pinned():
    """U, D and V as the full pivot scan left them, so a faster scan must
    pick the same pivots. In the first two matrices the first unit comes
    after larger entries, off (0, 0), and a later row holds another unit
    or smaller entries; the third has no unit until the reduction makes
    one."""
    pinned = [
        ([[4, 6, 3], [5, 1, 2], [1, 7, 8]],
         [[0, 1, 0], [-1, -85, 13], [76, 6467, -989]],
         [[1, 0, 0], [0, 1, 0], [0, 0, 150]],
         [[0, -35, -69], [1, -247, -487], [0, 211, 416]]),
        ([[6, 4], [9, -1], [3, 5]],
         [[0, -1, 0], [-1, 1, 1], [8, -3, -7]],
         [[1, 0], [0, 6], [0, 0]],
         [[0, 1], [1, 9]]),
        ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
         [[1, 0, 0], [22, -1, -5], [-831, 38, 189]],
         [[2, 0, 0], [0, 2, 0], [0, 0, 156]],
         [[1, -32, -66], [0, 1, 2], [0, 15, 31]]),
    ]
    for a, u, d, v in pinned:
        assert snf(a, len(a[0])) == (u, d, v)
        assert matmul(matmul(u, a), v) == d


def test_snf_random_suite_small():
    rng = random.Random(11)
    for _ in range(250):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert_snf_contract(a)


@pytest.mark.parametrize("n", [32, 40])
def test_snf_coefficient_growth(n):
    # dense with small entries: extended-gcd steps reach 69,501-bit
    # transform entries at n = 32, division with remainder about 1,600
    rng = random.Random(1)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    start = time.perf_counter()
    u, d, v = snf(a, n)
    assert matmul(matmul(u, a), v) == d
    assert prod(diagonal(d, n)) == abs(det(a))
    # every entry below 2^8192
    assert max(x.bit_length() for m in (u, v) for row in m for x in row) <= 8192
    assert time.perf_counter() - start < 5.0


def test_det_bareiss():
    assert det([]) == 1
    assert det([[7]]) == 7
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 1], [0, 0, 3], [1, 1, 1]]) == -6
    with pytest.raises(ValueError):
        det([[1, 2]])


def test_matrix_arithmetic_and_immutability():
    """The algebra leaves the rows it is given as they are, although
    _smith and _presented reduce theirs in place."""
    a, b = [[1, 2], [3, 4]], [[0, 1], [1, 0]]
    assert matmul(a, b) == [[2, 1], [4, 3]]
    assert matmul([[], []], []) == [[], []]
    assert det(a) == -2 and snf(a, 2)[1] == [[1, 0], [0, 2]]
    assert canonicalize(a, 2) == FgAbGroup.cyclic(2)
    assert a == [[1, 2], [3, 4]] and b == [[0, 1], [1, 0]]


def test_group_canonical_form_validation():
    with pytest.raises(ValueError):
        FgAbGroup(0, (3, 2))  # not a chain
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(-1)
    assert FgAbGroup.cyclic(1).is_trivial
    assert FgAbGroup.cyclic(0) == FgAbGroup(1)
    assert FgAbGroup.of(1, (4, 6, 0)) == FgAbGroup(2, (2, 12))


def is_chain_loop(facs):
    """_is_chain in its generator form, the reference for its C-level scan."""
    return not any(d < 2 or d % p for p, d in zip((1,) + facs, facs))


def reduced_loop(group, coords):
    """_reduced in its generator form, the reference for its C-level scan."""
    rank = group.rank
    return coords[:rank] + tuple(c % d for c, d in zip(coords[rank:], group.invariant_factors))


# sub's chain of TEST over surface:64 at degree 1, class 0: the longest on the genus ladder
GENUS_64_CHAIN = (2,) + (4,) * 128


def chain_inputs():
    """Every tuple of length <= 4 over a pool with a negative entry, 0, 1,
    chains and non-chains, then the genus-64 chain and that chain with its
    last entry changed."""
    short = [f for n in range(5) for f in itertools.product((-1, 0, 1, 2, 3, 4, 6, 12), repeat=n)]
    return short + [GENUS_64_CHAIN[:-1] + (d,) for d in (4, 8, 6, 2, 1, 0, -4)]


def reduced_inputs():
    """Drawn coordinates, negative and large entries included, in groups
    with free coordinates only, torsion only, both, and in the trivial group."""
    rng = random.Random(39)
    groups = [FgAbGroup(0), FgAbGroup(2), FgAbGroup(0, (2, 4)), FgAbGroup(1, (3, 6, 12)),
              FgAbGroup(3, (2,)), FgAbGroup(0, GENUS_64_CHAIN)]
    return [(g, tuple(rng.randint(-10**20, 10**20) if rng.random() < 0.2 else rng.randint(-30, 30)
                      for _ in range(g.ngens)))
            for g in groups for _ in range(60)]


def homomorphism_scan(domain, codomain, images):
    """Homomorphism's reduced images, or None where it rejects them."""
    try:
        return Homomorphism(domain, codomain, images).images
    except ValueError:
        return None


def homomorphism_loop(domain, codomain, images):
    """Homomorphism's reduction and order test in their loop form, the
    reference for their route through _reduced: None where it rejects."""
    orders = codomain.generator_orders()
    images = tuple(tuple([c % e if e else c for c, e in zip(y, orders)]) for y in images)
    for j, d in enumerate(domain.invariant_factors, domain.rank):
        if any(images[j]) and any([d * c % e if e else d * c for c, e in zip(images[j], orders)]):
            return None
    return images


def homomorphism_inputs():
    """Drawn maps between groups with free coordinates only, torsion
    only, both, and the trivial group, negative and 20-digit entries
    included. Half the images of a finite-order generator are drawn
    well-defined, as multiples of e / gcd(d, e) plus any multiple of e,
    and the rest at random, so both accepted and ill-defined maps occur."""
    rng = random.Random(40)
    groups = [FgAbGroup(0), FgAbGroup(2), FgAbGroup(0, (2, 4)), FgAbGroup(1, (3, 6, 12)),
              FgAbGroup(3, (2,)), FgAbGroup(0, (6, 6 * 10**19))]

    def entry():
        return rng.randint(-10**20, 10**20) if rng.random() < 0.2 else rng.randint(-30, 30)

    def image(d, codomain):
        if not d or rng.random() < 0.5:
            return tuple(entry() for _ in range(codomain.ngens))
        return tuple(0 if not e else e // gcd(d, e) * entry() + e * entry()
                     for e in codomain.generator_orders())

    return [(dom, cod, [image(d, cod) for d in dom.generator_orders()])
            for dom in groups for cod in groups for _ in range(12)]


@pytest.mark.parametrize("scan, loop, inputs", [
    (_is_chain, is_chain_loop, [(f,) for f in chain_inputs()]),
    (_reduced, reduced_loop, reduced_inputs()),
    (homomorphism_scan, homomorphism_loop, homomorphism_inputs()),
], ids=["_is_chain", "_reduced", "Homomorphism"])
def test_scans_match_their_loop_forms(scan, loop, inputs):
    """Each per-query scan rewritten as C-level iteration gives what its
    loop form gave, on every input listed."""
    for args in inputs:
        assert scan(*args) == loop(*args), args


MERSENNE_61, MERSENNE_89 = 2**61 - 1, 2**89 - 1


def smith_route(rank, orders):
    """Z^rank + sum of Z/order, read off the Smith form of the diagonal
    relations, without FgAbGroup.of."""
    n = len(orders)
    g = canonicalize([[d if k == i else 0 for k in range(n)] for i, d in enumerate(orders) if d], n)
    return FgAbGroup(g.rank + rank, g.invariant_factors)


def random_orders(rng, length):
    pool = (0, 1, -1, 2, -4, 6, 9, 12, -36, 60, MERSENNE_61, -2 * MERSENNE_61,
            MERSENNE_89, 6 * MERSENNE_61 * MERSENNE_89)
    return [rng.choice(pool) if rng.random() < 0.5 else rng.randint(-100, 100)
            for _ in range(length)]


def random_chain(rng, length):
    """A divisibility chain with every entry >= 2, repeats included."""
    chain, d = [], 1
    for _ in range(length):
        if d == 1 or rng.random() < 0.6:
            d *= rng.choice((2, 3, 4, 5, 6, MERSENNE_61))
        chain.append(d)
    return chain


def test_of_matches_the_smith_route():
    """Random orders, and the edge of the chain that FgAbGroup.of returns
    as given: valid chains, the same with one adjacent pair made
    non-dividing, with a 1, a 0 or a negative entry added, or reversed,
    each also as a one-shot iterator."""

    def check(rank, orders):
        want = smith_route(rank, orders)
        assert FgAbGroup.of(rank, orders) == want, orders
        assert FgAbGroup.of(rank, iter(orders)) == want, orders

    rng = random.Random(11)
    for _ in range(300):
        check(rng.randint(0, 2), random_orders(rng, rng.randint(0, 12)))
    for _ in range(300):
        rank, chain = rng.randint(0, 2), random_chain(rng, rng.randint(1, 8))
        assert FgAbGroup.of(rank, chain) == FgAbGroup(rank, tuple(chain))
        check(rank, chain)
        check(rank, chain[::-1])
        negated = list(chain)
        negated[rng.randrange(len(chain))] *= -1
        check(rank, negated)
        if len(chain) > 1:
            # chain[i] times a prime no entry has stops dividing chain[i + 1]
            i = rng.randrange(len(chain) - 1)
            check(rank, chain[:i] + [chain[i] * MERSENNE_89] + chain[i + 1:])
        for extra in (1, 0, -rng.choice(chain), -rng.randint(1, 100)):
            at = rng.randint(0, len(chain))
            check(rank, chain[:at] + [extra] + chain[at:])


def test_of_matches_the_smith_route_on_long_runs():
    """A run of n copies of d among fewer than k other orders leaves a
    chain slot equal to |d| at every prime, and each further copy of d
    repeats that slot: so the Smith route needs only k copies, and the
    other n - k are added to its answer by hand."""
    rng = random.Random(12)
    for _ in range(40):
        rank, rest = rng.randint(0, 2), random_orders(rng, rng.randint(0, 8))
        d, n = random_orders(rng, 1)[0], rng.randint(1000, 1500)
        k = len(rest) + 1
        small = smith_route(rank, rest + [d] * k)
        if d == 0:
            want = FgAbGroup(small.rank + n - k, small.invariant_factors)
        elif abs(d) == 1:
            want = small
        else:
            want = FgAbGroup(small.rank, tuple(sorted(small.invariant_factors + (abs(d),) * (n - k))))
        orders = rest + [d] * n
        rng.shuffle(orders)
        assert FgAbGroup.of(rank, orders) == want, (rest, d, n)


def test_of_never_factors():
    """Merging takes gcds and lcms only, so orders built from the Mersenne
    primes 2^61 - 1 and 2^89 - 1, which trial division could not split
    in any reasonable time, merge in well under a second."""
    p, q = MERSENNE_61, MERSENNE_89
    orders = [p, q, p * q, p**2, 6 * q, -p * q**2, 0, 1, 2 * p]
    start = time.perf_counter()
    got = FgAbGroup.of(1, orders)
    assert time.perf_counter() - start < 1.0
    assert got == smith_route(1, orders)


def test_of_rejects_negative_rank():
    """Zero orders add to the rank, but cannot make up a negative one:
    on the chain path and on the merge path alike."""
    for orders in ((), (2,), (0,), (0, 2, 3), (0, 0, 4)):
        with pytest.raises(ValueError, match="negative rank"):
            FgAbGroup.of(-1, orders)
    assert FgAbGroup.of(0, (0, 2, 3)) == FgAbGroup(1, (6,))


def test_canonical_names():
    assert str(FgAbGroup(0)) == "0"
    assert str(FgAbGroup(1)) == "Z^1"
    assert str(FgAbGroup.cyclic(12)) == "Z/12"
    assert str(FgAbGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


def test_canonicalize_examples():
    one = canonicalize([[2]], 1)
    assert one == FgAbGroup.cyclic(2)
    two = canonicalize([[2, 0], [0, 3]], 2)
    assert two == FgAbGroup.cyclic(6)
    coprime = canonicalize([[2], [3]], 1)
    assert coprime.is_trivial
    free = canonicalize([], 3)
    assert free == FgAbGroup(3)


def test_canonicalize_idempotent_on_random_groups():
    rng = random.Random(5)
    for _ in range(100):
        g = random_group(rng, 200)
        again = canonicalize(_diagonal_relations(g.generator_orders()), g.ngens)
        assert again == g


def test_direct_sum_examples():
    assert direct_sum(FgAbGroup(1), FgAbGroup.cyclic(2)) == FgAbGroup(1, (2,))
    assert direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)) == FgAbGroup.cyclic(6)
    assert direct_sum(FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)) == FgAbGroup(0, (2, 12))


def test_direct_sum_commutes_and_adds_rank():
    rng = random.Random(7)
    for _ in range(60):
        a, b = random_group(rng, 200), random_group(rng, 200)
        s = direct_sum(a, b)
        assert s == direct_sum(b, a)
        assert s.rank == a.rank + b.rank
        assert s.torsion_order == a.torsion_order * b.torsion_order


def test_hom_well_definedness_rejected():
    """Ill-defined images raise. A zero image needs no check, so zero
    images are also built on ends that reject any nonzero entry and on
    ends with no generators, and images zero but for one ill-defined
    entry in the last image or the last coordinate must still raise."""
    # Z/2 -> Z must be zero; the unit image violates 2*f(g) = 0
    with pytest.raises(ValueError):
        Homomorphism(FgAbGroup.cyclic(2), FgAbGroup(1), [(1,)])
    # Z/4 -> Z/8 by 1 is ill-defined (4*1 != 0 mod 8), by 2 is fine
    with pytest.raises(ValueError):
        Homomorphism(FgAbGroup.cyclic(4), FgAbGroup.cyclic(8), [(1,)])
    Homomorphism(FgAbGroup.cyclic(4), FgAbGroup.cyclic(8), [(2,)])
    ends = [(FgAbGroup.cyclic(2), FgAbGroup(1)), (FgAbGroup.cyclic(4), FgAbGroup.cyclic(8)),
            (FgAbGroup(0), FgAbGroup(2, (2, 4))), (FgAbGroup(1, (3,)), FgAbGroup(0)),
            (FgAbGroup(0), FgAbGroup(0)), (FgAbGroup(1, (2, 4)), FgAbGroup(2, (3, 9))),
            (FgAbGroup(0, (2, 6, 12)), FgAbGroup(1, (5,)))]
    for dom, cod in ends:
        zero = ((0,) * cod.ngens,) * dom.ngens
        assert Homomorphism(dom, cod, zero).images == zero
        assert Homomorphism(dom, cod, zero) == Homomorphism.zero(dom, cod)
        with pytest.raises(ValueError):
            Homomorphism(dom, cod, zero + ((0,) * cod.ngens,))
    # entry 1 at a torsion domain generator is ill-defined on each of these
    # ends: into Z, or into Z/e with e not dividing the order d
    for dom, cod in ends[:2] + ends[5:]:
        last_col = dom.ngens - 1
        for i, j in ((cod.ngens - 1, last_col), (0, last_col), (cod.ngens - 1, dom.rank)):
            entry = [[int((r, c) == (i, j)) for r in range(cod.ngens)] for c in range(dom.ngens)]
            with pytest.raises(ValueError, match="ill-defined"):
                Homomorphism(dom, cod, entry)


def test_equal_maps_compare_equal():
    """Images are reduced on construction, as element coordinates are, so
    two presentations of one map are equal and hash alike; free entries
    stay as given."""
    z4 = FgAbGroup.cyclic(4)
    f = Homomorphism(FgAbGroup(1), z4, [(5,)])
    assert f == Homomorphism(FgAbGroup(1), z4, [(1,)])
    assert f.images == ((1,),) and hash(f) == hash(Homomorphism(FgAbGroup(1), z4, [(-3,)]))
    g = Homomorphism(FgAbGroup(1), FgAbGroup(1, (4,)), [(-2, 6)])
    assert g.images == ((-2, 2),)


def test_zero_map_equals_the_checked_zero_map():
    """Homomorphism.zero skips the checks of __init__, so it must build
    the value __init__ builds from zero images: equal, hashing alike and
    printing alike, between trivial, free, torsion and mixed groups,
    with no generators on either side."""
    groups = [FgAbGroup(0), FgAbGroup(1), FgAbGroup(3), FgAbGroup(0, (2,)),
              FgAbGroup(0, (2, 6, 12)), FgAbGroup(1, (4,)), FgAbGroup(2, (3, 9))]
    for dom in groups:
        for cod in groups:
            zero = Homomorphism.zero(dom, cod)
            checked = Homomorphism(dom, cod, [[0] * cod.ngens] * dom.ngens)
            assert zero == checked and hash(zero) == hash(checked)
            assert zero.images == checked.images and repr(zero) == repr(checked)
            with pytest.raises(AttributeError):
                zero.images = checked.images


def test_hom_apply_and_neg():
    """verify.apply reduces in the codomain, so a negated argument gives
    the reduced negation, and an unreduced argument its residue."""
    f = Homomorphism(FgAbGroup(1), FgAbGroup.cyclic(12), [(5,)])
    assert apply(f, (3,)) == (3,)
    assert apply(f, (-1,)) == (7,)
    assert image(Homomorphism.zero(f.domain, f.codomain)).is_trivial
    assert apply(Homomorphism(f.codomain, f.codomain, [(1,)]), (19,)) == (7,)
    assert apply(Homomorphism(FgAbGroup(0), f.codomain, []), ()) == (0,)


def decompose(f):
    return kernel(f), image(f), cokernel(f)


def test_kernel_image_cokernel_examples():
    times5 = Homomorphism(FgAbGroup(1), FgAbGroup.cyclic(12), [(5,)])
    assert decompose(times5) == (
        FgAbGroup(1),
        FgAbGroup.cyclic(12),
        FgAbGroup(0),
    )
    zero = Homomorphism.zero(FgAbGroup.cyclic(4), FgAbGroup.cyclic(8))
    assert decompose(zero) == (
        FgAbGroup.cyclic(4),
        FgAbGroup(0),
        FgAbGroup.cyclic(8),
    )
    doubling = Homomorphism(FgAbGroup(1), FgAbGroup(1), [(2,)])
    assert decompose(doubling) == (
        FgAbGroup(0),
        FgAbGroup(1),
        FgAbGroup.cyclic(2),
    )
    g = FgAbGroup(1, (2, 4))
    ident = Homomorphism(g, g, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert decompose(ident) == (
        FgAbGroup(0),
        FgAbGroup(1, (2, 4)),
        FgAbGroup(0),
    )


def test_kernel_image_cokernel_against_enumeration():
    rng = random.Random(13)
    for _ in range(80):
        dom = random_group(rng, 64, max_rank=0)
        cod = random_group(rng, 64, max_rank=0)
        f = random_hom(rng, dom, cod)
        ker, im, coker = decompose(f)
        elements = enumerate_elements(dom)
        ker_count = sum(1 for x in elements if not any(apply(f, x)))
        image_set = {apply(f, x) for x in elements}
        assert ker.order == ker_count
        assert im.order == len(image_set)
        assert coker.order * len(image_set) == cod.order
        assert ker.order * im.order == dom.order


def presentation_cokernel(f):
    """Reference: coker f as Z^h modulo the codomain relations and the
    images of f, canonicalized."""
    cod, h = f.codomain, f.codomain.ngens
    relations = [
        [d if k == cod.rank + i else 0 for k in range(h)]
        for i, d in enumerate(cod.invariant_factors)
    ] + [list(y) for y in f.images]
    return canonicalize(relations, h)


def test_cokernel_matches_presentation_route():
    rng = random.Random(17)
    kinds = set()
    for trial in range(400):
        dom = FgAbGroup(0) if trial % 25 == 0 else random_group(rng, 200)
        cod = FgAbGroup(0) if trial % 25 == 1 else random_group(rng, 200)
        f = random_hom(rng, dom, cod)
        if trial % 5 == 0:
            f = Homomorphism.zero(dom, cod)
        expected = presentation_cokernel(f)
        assert cokernel(f) == expected
        kinds.update(
            (side, kind)
            for side, group in (("dom", dom), ("cod", cod))
            for kind, present in (
                ("free", group.rank > 0),
                ("torsion", bool(group.invariant_factors)),
                ("empty", group.ngens == 0),
                ("mixed", group.rank > 0 and bool(group.invariant_factors)),
            )
            if present
        )
        kinds.add(("map", "zero" if image(f).is_trivial else "nonzero"))
        kinds.add(("coker", "free" if expected.rank else "finite"))
    assert len(kinds) == 12


def torsion_order(x, factors):
    """The additive order of the element x of the finite group with the
    given invariant factors."""
    return lcm(1, *(d // gcd(c, d) for c, d in zip(x, factors)))


def test_kernel_with_free_parts():
    """The kernel's rank is forced by rank-nullity over Q, with the
    cokernel taken by the presentation route. Its torsion is the set of
    torsion elements of the domain that f kills, and finite abelian
    groups with the same count of elements of each order are isomorphic."""
    rng = random.Random(19)
    mixed_domain = mixed_kernel = rank_drop = False
    for _ in range(600):
        dom = random_group(rng, 64, max_rank=2)
        cod = random_group(rng, 64, max_rank=2)
        f = random_hom(rng, dom, cod)
        ker = kernel(f)
        assert ker.rank == dom.rank - (cod.rank - presentation_cokernel(f).rank)
        free = (0,) * dom.rank
        torsion = enumerate_elements(FgAbGroup(0, dom.invariant_factors))
        killed = Counter(torsion_order(x, dom.invariant_factors) for x in torsion
                         if not any(apply(f, free + x)))
        ker_torsion = enumerate_elements(FgAbGroup(0, ker.invariant_factors))
        assert Counter(torsion_order(x, ker.invariant_factors) for x in ker_torsion) == killed
        mixed_domain = mixed_domain or (dom.rank > 0 and dom.torsion_order > 1)
        mixed_kernel = mixed_kernel or (ker.rank > 0 and ker.torsion_order > 1)
        # a nonzero free x free block: the kernel loses rank
        rank_drop = rank_drop or (0 < ker.rank < dom.rank and ker.torsion_order > 1)
    assert mixed_domain and mixed_kernel and rank_drop
    # free blocks of full and partial rank, torsion lifted through the codomain
    for dom, cod, images, expected in (
        (FgAbGroup(2), FgAbGroup(1), [(1,), (2,)], FgAbGroup(1)),
        (FgAbGroup(2), FgAbGroup(2), [(1, 2), (2, 4)], FgAbGroup(1)),
        (FgAbGroup(1), FgAbGroup(1), [(3,)], FgAbGroup(0)),
        (FgAbGroup(1), FgAbGroup.cyclic(2), [(1,)], FgAbGroup(1)),
        (FgAbGroup.cyclic(4), FgAbGroup.cyclic(2), [(1,)], FgAbGroup.cyclic(2)),
        (FgAbGroup(1, (4,)), FgAbGroup(1, (2,)), [(1, 0), (0, 1)], FgAbGroup.cyclic(2)),
        (FgAbGroup(2, (4,)), FgAbGroup(1, (2,)), [(1, 0), (1, 0), (0, 1)], FgAbGroup(1, (2,))),
        (FgAbGroup(1, (4,)), FgAbGroup.cyclic(2), [(1,), (1,)], FgAbGroup(1, (2,))),
    ):
        assert kernel(Homomorphism(dom, cod, images)) == expected


def test_engine_modules_hold_no_transform_algebra():
    """The transform-bearing algebra lives in ghg.verify alone, on row
    lists: no engine module that ghg.cli loads has it, and the
    oracle-only methods are gone. An element is its coordinate tuple, so
    no ghg module, ghg.verify included, binds an element type, and a map
    is applied by verify.apply alone."""
    import ghg.cli
    import ghg.verify

    for module in ("fgab", "gaugecalc", "exactseq", "catalog", "cli"):
        for name in ("snf", "canonicalize", "matmul", "det"):
            assert not hasattr(getattr(ghg, module), name), (module, name)
    modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "ghg"]
    assert ghg.verify in modules
    assert not [m.__name__ for m in modules if hasattr(m, "GroupElement")]
    for cls, names in ((Homomorphism, ("__neg__", "apply")), (FgAbGroup, ("torsion_part",))):
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)


def test_smith_diagonal_matches_snf():
    rng = random.Random(29)
    shapes = [([], 0), ([], 3), ([[], [], []], 0)]
    for a, ncols in shapes + [(a, len(a[0])) for a in (random_matrix(rng) for _ in range(300))]:
        got = _smith([list(row) for row in a], len(a), ncols)
        assert tuple(got) == diagonal(snf(a, ncols)[1], ncols)


def test_cokernel_and_kernel_at_the_trivial_group():
    trivial = FgAbGroup(0)
    for group in (trivial, FgAbGroup(2, (2, 4)), FgAbGroup.cyclic(6)):
        into = Homomorphism.zero(group, trivial)  # h = 0: f^T has no columns
        assert cokernel(into) == trivial and kernel(into) == group
        assert image(into).is_trivial
        out_of = Homomorphism.zero(trivial, group)
        assert cokernel(out_of) == group and kernel(out_of) == trivial
        assert image(out_of).is_trivial


def test_zero_map_theorem_matches_the_smith_route():
    """coker(0: A -> B) = B and ker(0: A -> B) = A, as the reductions
    cokernel and kernel skip for a zero map would find them; maps zero
    but for one entry in the last coordinate or the last image take the
    reduction route."""

    def smith_cokernel(f):
        rows = [list(y) for y in f.images]
        return _presented(rows + _diagonal_relations(f.codomain.generator_orders()),
                          f.codomain.ngens)

    def smith_kernel(f):
        # the free block is read off the transposed images, as rows of f
        dom, cod = f.domain, f.codomain
        rows = [[y[i] for y in f.images] for i in range(cod.ngens)]
        free = [list(row[:dom.rank]) for row in rows[:cod.rank]]
        torsion = list(zip(rows[cod.rank:], cod.invariant_factors))
        lifted = [[d * (k == j) for k in range(dom.ngens)] + [-d * row[j] // e for row, e in torsion]
                  for j, d in enumerate(dom.invariant_factors, dom.rank)]
        quotient = _presented(lifted, dom.ngens + len(torsion))
        return FgAbGroup(_presented(free, dom.rank).rank, quotient.invariant_factors)

    def draw(rank):
        return FgAbGroup(rank, random_group(rng, 200, max_rank=0).invariant_factors)

    rng = random.Random(41)
    pairs = [(draw(k % 3), draw(k // 3 % 3)) for k in range(504)]
    assert {(a.rank, b.rank) for a, b in pairs} == {(r, s) for r in range(3) for s in range(3)}
    # one or both ends with no generators at all
    assert {(a.ngens == 0, b.ngens == 0) for a, b in pairs} == {(x, y) for x in (0, 1) for y in (0, 1)}
    for a, b in pairs:
        zero = Homomorphism.zero(a, b)
        assert cokernel(zero) == b == smith_cokernel(zero)
        assert kernel(zero) == a == smith_kernel(zero)
        if a.is_trivial or b.is_trivial:
            continue
        full = random_hom(rng, a, b).images
        for i, j in ((b.ngens - 1, rng.randrange(a.ngens)), (rng.randrange(b.ngens), a.ngens - 1)):
            entry = [[full[j][i] if (r, c) == (i, j) else 0 for r in range(b.ngens)]
                     for c in range(a.ngens)]
            f = Homomorphism(a, b, entry)
            assert cokernel(f) == smith_cokernel(f)
            assert kernel(f) == smith_kernel(f)


def test_lattice_helpers():
    # the image from the Smith form of the preimage lattice
    f = Homomorphism(FgAbGroup(1, (4,)), FgAbGroup.cyclic(8), [(2,), (2,)])
    assert decompose(f) == (FgAbGroup(1), FgAbGroup.cyclic(4), FgAbGroup.cyclic(2))


def test_tensor_q():
    assert FgAbGroup(2, (5,)).rank == 2
    assert FgAbGroup.cyclic(9).rank == 0


def test_is_isomorphic():
    assert FgAbGroup.of(0, (2, 3)) == FgAbGroup.cyclic(6)
    assert FgAbGroup.cyclic(4) != FgAbGroup(0, (2, 2))


def test_enumerate_elements():
    g = FgAbGroup(0, (2, 4))
    elems = enumerate_elements(g)
    assert len(elems) == 8
    assert len(set(elems)) == 8 and elems[1] == (0, 1)
    assert enumerate_elements(FgAbGroup(0)) == [()]
    with pytest.raises(ValueError):
        enumerate_elements(FgAbGroup(1))


def test_group_order_matches_enumeration_on_random_presentations():
    rng = random.Random(3)
    for _ in range(60):
        g = random_group(rng, 200, max_rank=0)
        assert len(enumerate_elements(g)) == prod(g.invariant_factors)


def test_module_doctests():
    import doctest

    import ghg.catalog
    import ghg.exactseq
    import ghg.fgab
    import ghg.gaugecalc
    import ghg.verify

    for module in (ghg.fgab, ghg.catalog, ghg.exactseq, ghg.gaugecalc, ghg.verify):
        result = doctest.testmod(module)
        assert result.attempted > 0
        assert result.failed == 0


Z2 = FgAbGroup.cyclic(2)
Z4 = FgAbGroup.cyclic(4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Homomorphism(Z2, Z4, [(2, 0)]), id="column-height"),
    pytest.param(lambda: Homomorphism(Z2, FgAbGroup(1), [(0, 5)]), id="column-height-free"),
    pytest.param(lambda: matmul([[1, 2]], [[1, 2]]), id="product-shape"),
    pytest.param(lambda: matmul([[1, 2]], [[1], [2, 3]]), id="product-ragged"),
    pytest.param(lambda: det([[1, 2], [3]]), id="det-ragged"),
    pytest.param(lambda: Homomorphism(Z2, Z4, [(2,), (0,)]), id="hom-shape"),
    # an element is a coordinate tuple, so one outside the domain has the wrong length
    pytest.param(lambda: apply(Homomorphism(Z2, Z4, [(2,)]), (1, 0)), id="apply-outside-domain"),
])
def test_shape_rejections(call):
    with pytest.raises(ValueError):
        call()
