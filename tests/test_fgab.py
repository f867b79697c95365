"""Core algebra tests: SNF oracle, canonical forms, homomorphism decomposition.

The SNF checks never trust the implementation: they multiply the
transforms back out, check unimodularity through exact determinants,
and check the divisibility chain entry by entry.
"""
import random
import time
from collections import Counter
from math import prod

import pytest

from ghg.catalog import default_catalog
from ghg.fgab import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    IntMatrix,
    _diagonal_relations,
    _presented,
    _smith,
    cokernel,
    direct_sum,
    kernel,
)
from ghg.gaugecalc import Sphere, Surface, gauge_homotopy, make_bundle
from ghg.verify import (
    canonicalize,
    det,
    enumerate_elements,
    image,
    is_diagonal,
    matmul,
    random_group,
    random_hom,
    random_matrix,
    relation_matrix,
    snf,
)
from test_golden import answered_queries


def diagonal(m):
    return tuple(m.data[k][k] for k in range(min(m.rows, m.cols)))


def assert_snf_contract(a):
    u, d, v = snf(a)
    assert matmul(matmul(u, a), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    assert is_diagonal(d)
    diag = diagonal(d)
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return diag


def test_snf_diagonal_example():
    diag = assert_snf_contract(IntMatrix([[2, 0], [0, 3]]))
    assert diag == (1, 6)


def test_snf_identity_fixed():
    a = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    u, d, v = snf(a)
    assert d == a


def test_snf_single_negative():
    diag = assert_snf_contract(IntMatrix([[-5]]))
    assert diag == (5,)


def test_snf_empty_shapes():
    for a in (IntMatrix([], 0), IntMatrix([], 3), IntMatrix([[], [], []], 0)):
        u, d, v = snf(a)
        assert (d.rows, d.cols) == (a.rows, a.cols)
        assert matmul(matmul(u, a), v) == d


def test_snf_known_awkward_matrix():
    # row-reduced by hand: invariant factors of [[2,4,4],[-6,6,12],[10,4,16]]
    diag = assert_snf_contract(IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert diag == (2, 2, 156)


def test_snf_random_suite_small():
    rng = random.Random(11)
    for _ in range(250):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        assert_snf_contract(a)


@pytest.mark.parametrize("n", [32, 40])
def test_snf_coefficient_growth(n):
    # dense with small entries: extended-gcd steps reach 69,501-bit
    # transform entries at n = 32, division with remainder about 1,600
    rng = random.Random(1)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    start = time.perf_counter()
    u, d, v = snf(a)
    assert matmul(matmul(u, a), v) == d
    assert prod(diagonal(d)) == abs(det(a))
    # every entry below 2^8192
    assert max(x.bit_length() for m in (u, v) for row in m.data for x in row) <= 8192
    assert time.perf_counter() - start < 5.0


def test_det_bareiss():
    assert det(IntMatrix([], 0)) == 1
    assert det(IntMatrix([[7]])) == 7
    assert det(IntMatrix([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix([[2, 0, 1], [0, 0, 3], [1, 1, 1]])) == -6
    with pytest.raises(ValueError):
        det(IntMatrix([[1, 2]]))


def test_matrix_arithmetic_and_immutability():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert matmul(a, b) == IntMatrix([[2, 1], [4, 3]])
    assert matmul(IntMatrix([[], []], 0), IntMatrix([], 3)) == IntMatrix([[0] * 3] * 2)
    with pytest.raises(AttributeError):
        a.cols = 5
    with pytest.raises(ValueError):
        IntMatrix([[1], [2, 3]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


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


MERSENNE_61, MERSENNE_89 = 2**61 - 1, 2**89 - 1


def smith_route(rank, orders):
    """Z^rank + sum of Z/order, read off the Smith form of the diagonal
    relations, without FgAbGroup.of."""
    n = len(orders)
    g = canonicalize(IntMatrix([[d if k == i else 0 for k in range(n)]
                                for i, d in enumerate(orders) if d], n))
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


def test_canonical_names():
    assert str(FgAbGroup(0)) == "0"
    assert str(FgAbGroup(1)) == "Z^1"
    assert str(FgAbGroup.cyclic(12)) == "Z/12"
    assert str(FgAbGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


def test_canonicalize_examples():
    one = canonicalize(IntMatrix([[2]]))
    assert one == FgAbGroup.cyclic(2)
    two = canonicalize(IntMatrix([[2, 0], [0, 3]]))
    assert two == FgAbGroup.cyclic(6)
    coprime = canonicalize(IntMatrix([[2], [3]]))
    assert coprime.is_trivial
    free = canonicalize(IntMatrix([], 3))
    assert free == FgAbGroup(3)


def test_canonicalize_idempotent_on_random_groups():
    rng = random.Random(5)
    for _ in range(100):
        g = random_group(rng, 200)
        again = canonicalize(relation_matrix(g))
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


def test_element_arithmetic():
    g = FgAbGroup(1, (4,))
    a = GroupElement(g, (2, 3))
    b = GroupElement(g, (-1, 2))
    assert (a + b).coords == (1, 1)
    assert (3 * b).coords == (-3, 2)
    assert (-a).coords == (-2, 1)
    assert GroupElement(g, (0, 9)).coords == (0, 1)
    assert GroupElement.zero(g).is_zero
    with pytest.raises(ValueError):
        GroupElement(g, (1,))
    with pytest.raises(ValueError):
        a + GroupElement.zero(FgAbGroup.cyclic(4))


def test_element_order():
    g = FgAbGroup(1, (2, 12))
    assert GroupElement(g, (1, 0, 0)).order() == 0
    assert GroupElement(g, (0, 1, 0)).order() == 2
    assert GroupElement(g, (0, 0, 3)).order() == 4
    assert GroupElement(g, (0, 1, 2)).order() == 6
    assert GroupElement.zero(g).order() == 1


def test_hom_well_definedness_rejected():
    """Ill-defined matrices raise. A zero matrix skips the scan, so it is
    also built on ends that reject any nonzero entry and on ends with no
    generators, and a matrix zero but for one ill-defined entry in its
    last row or last column must still raise."""
    # Z/2 -> Z must be zero; the unit matrix violates 2*f(g) = 0
    with pytest.raises(ValueError):
        Homomorphism(FgAbGroup.cyclic(2), FgAbGroup(1), IntMatrix([[1]]))
    # Z/4 -> Z/8 by 1 is ill-defined (4*1 != 0 mod 8), by 2 is fine
    with pytest.raises(ValueError):
        Homomorphism(FgAbGroup.cyclic(4), FgAbGroup.cyclic(8), IntMatrix([[1]]))
    Homomorphism(FgAbGroup.cyclic(4), FgAbGroup.cyclic(8), IntMatrix([[2]]))
    ends = [(FgAbGroup.cyclic(2), FgAbGroup(1)), (FgAbGroup.cyclic(4), FgAbGroup.cyclic(8)),
            (FgAbGroup(0), FgAbGroup(2, (2, 4))), (FgAbGroup(1, (3,)), FgAbGroup(0)),
            (FgAbGroup(0), FgAbGroup(0)), (FgAbGroup(1, (2, 4)), FgAbGroup(2, (3, 9))),
            (FgAbGroup(0, (2, 6, 12)), FgAbGroup(1, (5,)))]
    for dom, cod in ends:
        zero = IntMatrix([[0] * dom.ngens for _ in range(cod.ngens)], dom.ngens)
        assert Homomorphism(dom, cod, zero).matrix == zero
        assert Homomorphism(dom, cod, zero) == Homomorphism.zero(dom, cod)
        with pytest.raises(ValueError):
            Homomorphism(dom, cod, IntMatrix([[0] * (dom.ngens + 1)] * cod.ngens, dom.ngens + 1))
    # entry 1 at a torsion domain generator is ill-defined on each of these
    # ends: into Z, or into Z/e with e not dividing the order d
    for dom, cod in ends[:2] + ends[5:]:
        last_col = dom.ngens - 1
        for i, j in ((cod.ngens - 1, last_col), (0, last_col), (cod.ngens - 1, dom.rank)):
            entry = [[int((r, c) == (i, j)) for c in range(dom.ngens)] for r in range(cod.ngens)]
            with pytest.raises(ValueError, match="ill-defined"):
                Homomorphism(dom, cod, IntMatrix(entry, dom.ngens))


def test_hom_apply_and_neg():
    f = Homomorphism(FgAbGroup(1), FgAbGroup.cyclic(12), IntMatrix([[5]]))
    assert f.apply(GroupElement(f.domain, (3,))).coords == (3,)
    assert (-f.apply(GroupElement(f.domain, (1,)))).coords == (7,)
    assert image(Homomorphism.zero(f.domain, f.codomain)).is_trivial
    assert Homomorphism(f.codomain, f.codomain, IntMatrix([[1]])).apply(
        GroupElement(f.codomain, (7,))
    ).coords == (7,)


def decompose(f):
    return kernel(f), image(f), cokernel(f)


def test_kernel_image_cokernel_examples():
    times5 = Homomorphism(FgAbGroup(1), FgAbGroup.cyclic(12), IntMatrix([[5]]))
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
    doubling = Homomorphism(FgAbGroup(1), FgAbGroup(1), IntMatrix([[2]]))
    assert decompose(doubling) == (
        FgAbGroup(0),
        FgAbGroup(1),
        FgAbGroup.cyclic(2),
    )
    g = FgAbGroup(1, (2, 4))
    ident = Homomorphism(g, g, IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
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
        ker_count = sum(1 for x in elements if f.apply(x).is_zero)
        image_set = {f.apply(x).coords for x in elements}
        assert ker.order == ker_count
        assert im.order == len(image_set)
        assert coker.order * len(image_set) == cod.order
        assert ker.order * im.order == dom.order


def presentation_cokernel(f):
    """Reference: coker f as Z^h modulo the codomain relations and the
    image columns of f, canonicalized."""
    cod, h = f.codomain, f.codomain.ngens
    relations = [
        [d if k == cod.rank + i else 0 for k in range(h)]
        for i, d in enumerate(cod.invariant_factors)
    ] + [[row[j] for row in f.matrix.data] for j in range(f.domain.ngens)]
    return canonicalize(IntMatrix(relations, h))


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
        killed = Counter(x.order() for x in enumerate_elements(FgAbGroup(0, dom.invariant_factors))
                         if f.apply(GroupElement(dom, free + x.coords)).is_zero)
        assert Counter(x.order() for x in enumerate_elements(FgAbGroup(0, ker.invariant_factors))) == killed
        mixed_domain = mixed_domain or (dom.rank > 0 and dom.torsion_order > 1)
        mixed_kernel = mixed_kernel or (ker.rank > 0 and ker.torsion_order > 1)
        # a nonzero free x free block: the kernel loses rank
        rank_drop = rank_drop or (0 < ker.rank < dom.rank and ker.torsion_order > 1)
    assert mixed_domain and mixed_kernel and rank_drop
    # free blocks of full and partial rank, torsion lifted through the codomain
    for dom, cod, rows, expected in (
        (FgAbGroup(2), FgAbGroup(1), [[1, 2]], FgAbGroup(1)),
        (FgAbGroup(2), FgAbGroup(2), [[1, 2], [2, 4]], FgAbGroup(1)),
        (FgAbGroup(1), FgAbGroup(1), [[3]], FgAbGroup(0)),
        (FgAbGroup(1), FgAbGroup.cyclic(2), [[1]], FgAbGroup(1)),
        (FgAbGroup.cyclic(4), FgAbGroup.cyclic(2), [[1]], FgAbGroup.cyclic(2)),
        (FgAbGroup(1, (4,)), FgAbGroup(1, (2,)), [[1, 0], [0, 1]], FgAbGroup.cyclic(2)),
        (FgAbGroup(2, (4,)), FgAbGroup(1, (2,)), [[1, 1, 0], [0, 0, 1]], FgAbGroup(1, (2,))),
        (FgAbGroup(1, (4,)), FgAbGroup.cyclic(2), [[1, 1]], FgAbGroup(1, (2,))),
    ):
        assert kernel(Homomorphism(dom, cod, IntMatrix(rows))) == expected


def test_snf_calls_per_query(monkeypatch):
    """An engine query runs at most three diagonal reductions. A zero
    connecting map costs none, since coker(0: A -> B) = B and
    ker(0: A -> B) = A, so each query pins its exact count."""
    calls = []

    def counting(m, nrows, ncols):
        calls.append((nrows, ncols))
        return _smith(m, nrows, ncols)

    cat = default_catalog()
    # (group, base, class, degree, reductions): SU2's delta_2 over S^4 has
    # the trivial domain pi_2 = 0; both TEST surface maps are nonzero;
    # TEST's stored pairing pi_2 x pi_1 vanishes against -b = 2, so only
    # delta_1 is reduced; class 0 makes both maps zero
    queries = [(group, make_bundle(cat, group, base, clazz), n, count)
               for group, base, clazz, n, count in (("SU2", Sphere(4), (3,), 2, 1),
                                                     ("TEST", Surface(1), (1,), 2, 3),
                                                     ("TEST", Sphere(2), (-2,), 1, 2),
                                                     ("SU2", Sphere(4), (0,), 2, 0))]
    wants = [gauge_homotopy(cat, group, bundle, n) for group, bundle, n, _ in queries]
    f = Homomorphism(FgAbGroup(1, (4,)), FgAbGroup.cyclic(8), IntMatrix([[2, 2]]))
    zero = Homomorphism.zero(f.domain, f.codomain)
    # verify binds _smith by name for its snf
    monkeypatch.setattr("ghg.fgab._smith", counting)
    monkeypatch.setattr("ghg.verify._smith", counting)
    # verify's image reads U and D off one snf and the preimage lattice
    # off one more reduction
    assert image(f) == FgAbGroup.cyclic(4)
    assert len(calls) == 2
    for (group, bundle, n, count), want in zip(queries, wants):
        calls.clear()
        assert gauge_homotopy(cat, group, bundle, n) == want
        assert len(calls) == count
    for function, arg, count, want in (
        (cokernel, f, 1, FgAbGroup.cyclic(2)),
        (kernel, f, 2, FgAbGroup(1)),
        (canonicalize, IntMatrix([[2, 0], [0, 3]]), 1, FgAbGroup.cyclic(6)),
        (cokernel, zero, 0, f.codomain),
        (kernel, zero, 0, f.domain),
    ):
        calls.clear()
        assert function(arg) == want
        assert len(calls) == count


def test_objects_built_per_query(monkeypatch):
    """A structural zero connecting map (class 0, an end trivial, K
    abelian) builds no Homomorphism and no IntMatrix, and a sphere sub
    is the cokernel itself, so the work is pinned and not only the time:
    exact totals over the answered queries of tests/golden_compute.jsonl.
    Only the stored pairing's map of a nonzero class is built."""
    cat = default_catalog()
    queries = answered_queries(cat)
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Homomorphism, "__init__", counting("Homomorphism", Homomorphism.__init__))
    monkeypatch.setattr(IntMatrix, "__init__", counting("IntMatrix", IntMatrix.__init__))
    monkeypatch.setattr(FgAbGroup, "of", classmethod(counting("of", FgAbGroup.of.__func__)))
    # (group, base, class, degree, maps built): class 0 and SU2's
    # delta_2, delta_1 over S^4 (pi_2 = pi_1 = 0) are structural zeros;
    # at degree 2 with class 3, delta_3 is the stored pairing's map
    for group, base, clazz, n, built in (("SU2", Sphere(4), (0,), 2, 0),
                                         ("SU2", Sphere(4), (3,), 1, 0),
                                         ("TEST", Surface(1), (0,), 2, 0),
                                         ("SU2", Sphere(4), (3,), 2, 1)):
        bundle = make_bundle(cat, group, base, clazz)
        counts.clear()
        gauge_homotopy(cat, group, bundle, n)
        assert counts["Homomorphism"] == counts["IntMatrix"] == built
    counts.clear()
    for group, bundle, n in queries:
        gauge_homotopy(cat, group, bundle, n)
    # 46 stored pairings' maps; every other connecting map is a structural zero
    assert len(queries) == 538
    assert counts == {"Homomorphism": 92, "IntMatrix": 92, "of": 284}


def test_engine_modules_hold_no_transform_algebra():
    """The transform-bearing algebra lives in ghg.verify alone: no engine
    module that ghg.cli loads has it, and the oracle-only methods are gone."""
    import ghg.cli

    for module in ("fgab", "gaugecalc", "exactseq", "catalog", "cli"):
        for name in ("snf", "canonicalize", "relation_matrix"):
            assert not hasattr(getattr(ghg, module), name), (module, name)
    for cls, names in ((IntMatrix, ("transpose", "column", "diagonal_entries", "__matmul__",
                                    "__neg__")),
                       (Homomorphism, ("__neg__",)), (FgAbGroup, ("torsion_part",)),
                       (GroupElement, ("generator",))):
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)


def test_smith_diagonal_matches_snf():
    rng = random.Random(29)
    shapes = [IntMatrix([], 0), IntMatrix([], 3), IntMatrix([[], [], []], 0)]
    for a in shapes + [random_matrix(rng) for _ in range(300)]:
        got = _smith([list(row) for row in a.data], a.rows, a.cols)
        assert tuple(got) == diagonal(snf(a)[1])


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
    but for one entry in the last row or the last column take the
    reduction route."""

    def smith_cokernel(f):
        rows = [list(col) for col in zip(*f.matrix.data)]
        return _presented(rows + _diagonal_relations(f.codomain.generator_orders()),
                          f.codomain.ngens)

    def smith_kernel(f):
        dom, cod, rows = f.domain, f.codomain, f.matrix.data
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
        full = random_hom(rng, a, b).matrix.data
        for i, j in ((b.ngens - 1, rng.randrange(a.ngens)), (rng.randrange(b.ngens), a.ngens - 1)):
            entry = [[full[i][j] if (r, c) == (i, j) else 0 for c in range(a.ngens)]
                     for r in range(b.ngens)]
            f = Homomorphism(a, b, IntMatrix(entry, a.ngens))
            assert cokernel(f) == smith_cokernel(f)
            assert kernel(f) == smith_kernel(f)


def test_lattice_helpers():
    # the image from the Smith form of the preimage lattice
    f = Homomorphism(FgAbGroup(1, (4,)), FgAbGroup.cyclic(8), IntMatrix([[2, 2]]))
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
    assert len({e.coords for e in elems}) == 8
    assert enumerate_elements(FgAbGroup(0)) == [GroupElement(FgAbGroup(0), ())]
    with pytest.raises(ValueError):
        enumerate_elements(FgAbGroup(1))


def test_group_order_matches_enumeration_on_random_presentations():
    rng = random.Random(3)
    for _ in range(60):
        g = random_group(rng, 200, max_rank=0)
        assert len(enumerate_elements(g)) == prod(g.invariant_factors)


def test_module_doctests():
    import doctest

    import ghg.exactseq
    import ghg.fgab
    import ghg.gaugecalc
    import ghg.verify

    for module in (ghg.fgab, ghg.exactseq, ghg.gaugecalc, ghg.verify):
        result = doctest.testmod(module)
        assert result.attempted > 0
        assert result.failed == 0


Z2 = FgAbGroup.cyclic(2)
Z4 = FgAbGroup.cyclic(4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: IntMatrix([[1, 2]], 3), id="cols-mismatch"),
    pytest.param(lambda: IntMatrix.from_columns([(1, 2)], 3), id="column-height"),
    pytest.param(lambda: matmul(IntMatrix([[1, 2]]), IntMatrix([[1, 2]])), id="product-shape"),
    pytest.param(lambda: Homomorphism(Z2, Z4, IntMatrix([[2, 0]])), id="hom-shape"),
    pytest.param(lambda: Homomorphism(Z2, Z4, IntMatrix([[2]])).apply(GroupElement(Z4, (1,))),
                 id="apply-outside-domain"),
])
def test_shape_rejections(call):
    with pytest.raises(ValueError):
        call()
