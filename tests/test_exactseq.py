"""Middle-group extraction and extension resolution."""
import random
import time

import pytest

from ghg.exactseq import (
    SequenceResult,
    _assemble,
    _primary_type,
    _primes,
    lr_support,
    resolve_extension,
)
from ghg.fgab import CapacityError, FgAbGroup, Homomorphism, IntMatrix, cokernel
from ghg.verify import image, middle_group, subgroup_generators, subgroup_quotient_pairs


def _partitions(n: int) -> list[tuple[int, ...]]:
    """Descending partitions of n."""
    if n == 0:
        return [()]
    out = []

    def walk(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, cap), 0, -1):
            walk(remaining - part, part, prefix + [part])

    walk(n, n, [])
    return out


def torsion_types_of_order(order: int) -> list[tuple[int, ...]]:
    """Invariant-factor chains of every abelian group of a given order."""
    if order < 1:
        raise ValueError("order must be positive")
    return _assemble({p: _partitions(*_primary_type(FgAbGroup.cyclic(order), p))
                      for p in _primes(order)})


def scalar(dom, cod, k):
    return Homomorphism(dom, cod, IntMatrix([[k]]))


Z = FgAbGroup(1)


def test_result_shape():
    r = SequenceResult(FgAbGroup(0), Z, [Z])
    assert r.candidates == (Z,) and r.is_resolved and r.resolved == Z
    r = SequenceResult(Z, FgAbGroup.cyclic(2), (Z, FgAbGroup.of(1, (2,))))
    assert not r.is_resolved and r.resolved is None
    with pytest.raises(ValueError):
        SequenceResult(Z, Z, ())


def test_middle_free_quotient():
    # coker(x2) = Z/2 on the left, kernel 0 on the right
    r = middle_group(scalar(Z, Z, 2), scalar(Z, Z, 3))
    assert r.is_resolved and str(r.resolved) == "Z/2"
    assert str(r.sub) == "Z/2" and r.quot.is_trivial


def test_middle_trivial_sub():
    z12 = FgAbGroup.cyclic(12)
    z4 = FgAbGroup.cyclic(4)
    z2 = FgAbGroup.cyclic(2)
    # x5 is invertible mod 12 so the left cokernel dies
    r = middle_group(scalar(Z, z12, 5), scalar(z4, z2, 1))
    assert r.is_resolved and str(r.resolved) == "Z/2"


def test_middle_two_zero_maps():
    r = middle_group(Homomorphism.zero(Z, Z), Homomorphism.zero(Z, Z))
    assert r.is_resolved and r.resolved == FgAbGroup(2)


def test_middle_ambiguous():
    z2 = FgAbGroup.cyclic(2)
    z3 = FgAbGroup.cyclic(3)
    r = middle_group(scalar(Z, Z, 2), Homomorphism.zero(z2, z3))
    assert not r.is_resolved
    assert [str(c) for c in r.candidates] == ["Z/2 + Z/2", "Z/4"]
    assert str(r.sub) == "Z/2" and str(r.quot) == "Z/2"


def test_resolve_free_quotient_splits():
    r = resolve_extension(FgAbGroup.cyclic(2), Z)
    assert r.is_resolved and str(r.resolved) == "Z^1 + Z/2"


def test_resolve_trivial_sub():
    r = resolve_extension(FgAbGroup(0), FgAbGroup.cyclic(12))
    assert r.is_resolved and str(r.resolved) == "Z/12"


def test_resolve_unique_order():
    # only one abelian group of order 6
    r = resolve_extension(FgAbGroup.cyclic(3), FgAbGroup.cyclic(2))
    assert r.is_resolved and str(r.resolved) == "Z/6"


def test_resolve_filters_by_realizability():
    # order 8 with sub Z/2, quot Z/4: Z/2^3 cannot appear
    r = resolve_extension(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4))
    assert not r.is_resolved
    assert [str(c) for c in r.candidates] == ["Z/2 + Z/4", "Z/8"]


def test_resolve_respects_rank():
    r = resolve_extension(FgAbGroup(1), FgAbGroup.cyclic(2))
    # free sub, finite quot: candidates all have rank 1 and torsion of order dividing 2
    for c in r.candidates:
        assert c.rank == 1 and 2 % c.torsion_order == 0


def test_free_sub_absorbs_torsion():
    # 0 -> Z -> Z -> Z/2 -> 0 by the doubling map, beside the split Z + Z/2
    r = resolve_extension(Z, FgAbGroup.cyclic(2))
    assert not r.is_resolved
    assert [str(c) for c in r.candidates] == ["Z^1", "Z^1 + Z/2"]
    # a quotient needing two generators cannot be absorbed by one free summand
    r = resolve_extension(Z, FgAbGroup.of(0, (2, 2)))
    assert [str(c) for c in r.candidates] == ["Z^1 + Z/2", "Z^1 + Z/2 + Z/2"]


def test_capacity_bound():
    with pytest.raises(CapacityError, match="exceeds the bound 10"):
        resolve_extension(FgAbGroup.cyclic(200), FgAbGroup.cyclic(100), torsion_bound=10)


def test_large_prime_order_factors_fast():
    # the torsion orders M^2 and M*N have primes M = 2^31 - 1 and
    # N = 2^31 - 19 that trial division of the order would only reach
    # after ~2^30 steps
    zm = FgAbGroup.cyclic(2**31 - 1)
    for sub, want in ((zm, ["Z/2147483647 + Z/2147483647", "Z/4611686014132420609"]),
                      (FgAbGroup.cyclic(2**31 - 19), ["Z/4611685975477714963"]),
                      (FgAbGroup(1), ["Z^1", "Z^1 + Z/2147483647"])):
        start = time.perf_counter()
        r = resolve_extension(sub, zm, 10**40)
        assert time.perf_counter() - start < 1.0
        assert [str(c) for c in r.candidates] == want


def test_unfactorable_exponent_fails_fast():
    """M*N has no prime factor up to 10^6 and is past 10^12, so trial
    division stops there; below 10^12 such a cofactor is prime."""
    m, n = 2**31 - 1, 2**31 - 19
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="too large to factor"):
        resolve_extension(FgAbGroup.cyclic(m * n), FgAbGroup.cyclic(2), 10**40)
    assert time.perf_counter() - start < 1.0
    assert _primes(12 * 999983 * 999979) == {2, 3, 999979, 999983}
    assert _primes(2 * (10**6 + 3)) == {2, 10**6 + 3}
    assert _primes(999999999989) == {999999999989}  # the largest prime below 10^12


def test_torsion_types():
    assert torsion_types_of_order(1) == [()]
    assert torsion_types_of_order(12) == [(2, 6), (12,)]
    assert torsion_types_of_order(8) == [(2, 2, 2), (2, 4), (8,)]
    assert torsion_types_of_order(36) == [(2, 18), (3, 12), (6, 6), (36,)]
    for t in torsion_types_of_order(72):
        assert all(b % a == 0 for a, b in zip(t, t[1:]))


def test_subgroup_quotient_pairs_z4():
    pairs = subgroup_quotient_pairs(FgAbGroup.cyclic(4))
    as_names = {(str(s), str(q)) for s, q in pairs}
    assert as_names == {("0", "Z/4"), ("Z/2", "Z/2"), ("Z/4", "0")}


def test_realizes_extension():
    z2_z4 = (FgAbGroup.cyclic(2), FgAbGroup.cyclic(4))
    assert z2_z4 in subgroup_quotient_pairs(FgAbGroup.cyclic(8))
    assert z2_z4 in subgroup_quotient_pairs(FgAbGroup.of(0, (2, 4)))
    assert z2_z4 not in subgroup_quotient_pairs(FgAbGroup.of(0, (2, 2, 2)))


def test_candidate_invariants_random():
    rng = random.Random(7)
    for _ in range(40):
        sub = FgAbGroup.of(rng.randint(0, 1), [rng.choice((2, 3, 4))] if rng.random() < 0.7 else [])
        quot = FgAbGroup.of(rng.randint(0, 1), [rng.choice((2, 3, 6))] if rng.random() < 0.7 else [])
        r = resolve_extension(sub, quot)
        for g in r.candidates:
            assert g.rank == sub.rank + quot.rank
            # a free sub can absorb part of tors quot, a finite one cannot
            full = sub.torsion_order * quot.torsion_order
            assert full % g.torsion_order == 0 and g.torsion_order % sub.torsion_order == 0
            assert g.torsion_order == full or sub.rank > 0
        # the list is duplicate free and sorted
        keys = [(g.rank, g.invariant_factors) for g in r.candidates]
        assert keys == sorted(set(keys))


def test_direct_sum_always_candidate():
    """sub + quot realizes the extension, so it is never filtered out."""
    rng = random.Random(19)
    from ghg.fgab import direct_sum

    for _ in range(30):
        sub = FgAbGroup.of(0, [rng.choice((2, 3, 4, 5))])
        quot = FgAbGroup.of(0, [rng.choice((2, 3, 4))])
        r = resolve_extension(sub, quot)
        assert direct_sum(sub, quot) in r.candidates


def test_lr_support_known_products():
    # s_1 s_1 = s_2 + s_11
    assert lr_support((1,), (1,), 0) == ((1, 1), (2,))
    # s_21 s_21 = s_42 + s_411 + s_33 + 2 s_321 + s_3111 + s_222 + s_2211
    assert set(lr_support((2, 1), (2, 1), 0)) == {
        (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1), (2, 2, 2), (2, 2, 1, 1)
    }
    # columns: e_2 e_2 = s_22 + s_211 + s_1111, and e_3 e_2 adds a vertical 2-strip
    assert lr_support((1, 1), (1, 1), 0) == ((1, 1, 1, 1), (2, 1, 1), (2, 2))
    assert lr_support((1, 1, 1), (1, 1), 0) == ((1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1))
    # an empty side contributes nothing
    assert lr_support((3, 1), (), 0) == ((3, 1),)
    assert lr_support((), (2, 2), 0) == ((2, 2),)


def test_resolve_multi_prime():
    # Z/30 by Z/12: (1) by (2) at 2, (1) by (1) at 3, (1) alone at 5
    r = resolve_extension(FgAbGroup.cyclic(30), FgAbGroup.cyclic(12))
    assert [c.invariant_factors for c in r.candidates] == [(2, 180), (3, 120), (6, 60), (360,)]


def test_candidates_match_brute_force():
    """For every pair of nontrivial finite groups with |sub| * |quot| <= 64,
    the candidates are exactly the groups of that order in which
    subgroup enumeration finds a subgroup of type sub with quotient quot."""
    groups = [FgAbGroup(0, t) for n in range(2, 33) for t in torsion_types_of_order(n)]
    pairs = 0
    for sub in groups:
        for quot in groups:
            order = sub.order * quot.order
            if order > 64:
                continue
            r = resolve_extension(sub, quot)
            want = tuple(
                FgAbGroup(0, t)
                for t in torsion_types_of_order(order)
                if (sub, quot) in subgroup_quotient_pairs(FgAbGroup(0, t))
            )
            assert r.candidates == want, (sub, quot)
            pairs += 1
    assert pairs == 308


def test_subgroup_counts():
    """subgroup_generators finds each subgroup exactly once: the known
    counts, (2,)*6 being the 2825 subspaces of F_2^6, with every
    returned tuple closed by a plain loop and no subgroup repeated."""
    known = {
        (12,): 6, (2, 2): 5, (2, 2, 2): 16, (2, 2, 2, 2): 67, (3, 3): 6,
        (2, 4): 8, (4, 4): 15, (2, 8): 11, (2, 2, 4): 27, (6, 6): 30,
        (2,) * 6: 2825,
    }
    for moduli, count in known.items():
        found = subgroup_generators(moduli)
        assert len(found) == count, moduli
        closed = set()
        for gens in found:
            subgroup = {(0,) * len(moduli)}
            while True:
                bigger = subgroup | {
                    tuple((a + b) % m for a, b, m in zip(h, g, moduli))
                    for h in subgroup for g in gens
                }
                if bigger == subgroup:
                    break
                subgroup = bigger
            closed.add(frozenset(subgroup))
        assert len(closed) == count, moduli


def test_lr_walk_takes_a_thousand_rows():
    """lr_support walks with an explicit stack, one level per row of lam,
    so sub = (Z/2)^1200 under a raised bound answers rather than
    overflowing the interpreter stack."""
    result = resolve_extension(FgAbGroup(0, (2,) * 1200), FgAbGroup.cyclic(2), 10**1000)
    assert result.candidates == (FgAbGroup(0, (2,) * 1201), FgAbGroup(0, (2,) * 1199 + (4,)))


def test_lr_support_free_rank_matches_definition():
    """lr_support(mu, nu, r) is the union of lr_support(mu, sigma, 0) over
    every sigma such that nu lies in lr_support(sigma, rho, 0) for some
    rho with at most r parts, over |mu| <= 3 and |nu| <= 6."""
    for n in range(7):
        allowed = {}  # (nu, r) -> the sigma the definition admits
        for k in range(n + 1):
            for sigma in _partitions(k):
                for rho in _partitions(n - k):
                    for nu in lr_support(sigma, rho, 0):
                        for r in range(len(rho), len(nu) + 2):
                            allowed.setdefault((nu, r), set()).add(sigma)
        for nu in _partitions(n):
            for r in range(len(nu) + 2):
                for mu in (m for a in range(4) for m in _partitions(a)):
                    want = {lam for sigma in allowed[nu, r] for lam in lr_support(mu, sigma, 0)}
                    assert lr_support(mu, nu, r) == tuple(sorted(want)), (mu, nu, r)


def test_free_rank_candidate_counts():
    """The candidate counts of two free-rank cases whose sigma range is
    wide: the Z/16 ladder above the default bound, and the slowest pair
    the default bound admits."""
    ladder = (2, 4, 8, 16)
    r = resolve_extension(FgAbGroup.of(1, ladder), FgAbGroup.of(0, ladder), torsion_bound=2**20)
    assert len(r.candidates) == 748
    r = resolve_extension(FgAbGroup.of(2, (2,)), FgAbGroup.of(0, (2, 2, 4, 8, 32)))
    assert len(r.candidates) == 121


def test_free_rank_exhaustive():
    """X = Z + T with |T| <= 6 and Z^2 + T with |T| <= 2. Every subgroup S
    containing nX, n = 2 * exponent(T), is generated by nX and lifts of
    a subgroup of X/nX. resolve_extension(S, X/S) must list X, and every
    swept group it lists for a finite X/S of exponent dividing its n must
    realize (S, X/S) in the sweep, so the candidates are exact."""
    family = [FgAbGroup(r, t) for r, top in ((1, 6), (2, 2))
              for order in range(1, top + 1) for t in torsion_types_of_order(order)]
    modulus = {x: 2 * max(x.invariant_factors, default=1) for x in family}
    realized = {}
    for x, n in modulus.items():
        lattice = [tuple(n * (i == j) for i in range(x.ngens)) for j in range(x.rank)]
        for gens in subgroup_generators((n,) * x.rank + x.invariant_factors):
            cols = lattice + list(gens)
            phi = Homomorphism(FgAbGroup(len(cols)), x, IntMatrix.from_columns(cols, x.ngens))
            sub, quot = image(phi), cokernel(phi)
            realized.setdefault((sub, quot), set()).add(x)
    absorbed = 0
    for (sub, quot), xs in realized.items():
        r = resolve_extension(sub, quot)
        assert xs <= set(r.candidates), (sub, quot)
        exponent = max(quot.invariant_factors, default=1)
        for c in r.candidates:
            if quot.rank == 0 and c in modulus and modulus[c] % exponent == 0:
                assert c in xs, (c, sub, quot)
        absorbed += any(c.torsion_order < sub.torsion_order * quot.torsion_order for c in r.candidates)
    assert len(realized) == 80 and absorbed > 0
