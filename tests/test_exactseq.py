"""Middle-group extraction and extension resolution."""
import itertools
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
from ghg.fgab import CapacityError, FgAbGroup, Homomorphism, cokernel
from ghg.verify import extension_types, middle_group


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
    return Homomorphism(dom, cod, [(k,)])


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
    """Z/4 has the subgroup/quotient pairs (0, Z/4), (Z/2, Z/2) and
    (Z/4, 0), so each of them has Z/4 among its extensions."""
    z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    assert extension_types(FgAbGroup(0), z4) == (z4,)
    assert extension_types(z2, z2) == (FgAbGroup.of(0, (2, 2)), z4)
    assert extension_types(z4, FgAbGroup(0)) == (z4,)


def test_realizes_extension():
    """Z/8 and Z/2 + Z/4 have a subgroup Z/2 with quotient Z/4, and
    (Z/2)^3 has none."""
    z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    assert extension_types(z2, z4) == (FgAbGroup.of(0, (2, 4)), FgAbGroup.cyclic(8))
    assert FgAbGroup.of(0, (2, 2, 2)) not in extension_types(z2, z4)


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


def test_candidates_match_ext():
    """For every pair of nontrivial finite groups with |sub| * |quot| <= 64,
    the candidates are exactly the Ext^1 types of the extensions of quot
    by sub. (Z/2)^3 by (Z/2)^3 has 2^9 classes, past the cap, and its
    candidates are the four types of order 64 with a (Z/2)^3 subgroup
    of quotient (Z/2)^3."""
    groups = [FgAbGroup(0, t) for n in range(2, 33) for t in torsion_types_of_order(n)]
    cube = FgAbGroup(0, (2, 2, 2))
    pairs = 0
    for sub in groups:
        for quot in groups:
            if sub.order * quot.order > 64:
                continue
            r = resolve_extension(sub, quot)
            if sub == quot == cube:
                assert extension_types(sub, quot) is None
                assert [c.invariant_factors for c in r.candidates] == [
                    (2,) * 6, (2, 2, 2, 2, 4), (2, 2, 4, 4), (4, 4, 4)]
            else:
                assert r.candidates == extension_types(sub, quot), (sub, quot)
            pairs += 1
    assert pairs == 308


def test_lr_walk_takes_a_thousand_rows():
    """lr_support loops over the parts of nu and its strip helper over
    the rows of lam, neither recursing, so sub = (Z/2)^1200 under a
    raised bound answers rather than overflowing the interpreter stack."""
    result = resolve_extension(FgAbGroup(0, (2,) * 1200), FgAbGroup.cyclic(2), 10**1000)
    assert result.candidates == (FgAbGroup(0, (2,) * 1201), FgAbGroup(0, (2,) * 1199 + (4,)))


def _row_fills(nu, used, caps) -> list[tuple[int, ...]]:
    """Every filling of one row of an LR tableau: a[k] entries k+1, in
    increasing order, such that the content stays within nu
    (used[k] + a[k] <= nu[k]), the reading word stays a lattice word
    (used[k] + a[k] <= used[k-1], as a row is read right to left and so
    its k+1's come before its k's) and columns stay strict
    (a[0] + ... + a[k] <= caps[k])."""
    fills = [()]
    for k, want in enumerate(nu):
        room = want - used[k] if k == 0 else min(want - used[k], used[k - 1] - used[k])
        fills = [f + (a,) for f in fills for a in range(min(room, caps[k] - sum(f)) + 1)]
    return fills


def _lr_walk(mu, nu, r):
    """The reference for lr_support: one walk over the LR tableaux of
    shape lam/mu and content inside nu, a node per tableau, each row of
    lam a level of an explicit stack. It fills a row of lam at a time,
    where lr_support adds a strip per part of nu, and shares no code
    with it."""
    rows = mu + (0,) * len(nu)
    floor = nu[r:] + (0,) * min(r, len(nu))
    found = set()
    stack = [(0, (0,) * len(nu), (), ())]
    while stack:
        i, used, above, lam = stack.pop()
        if all(u >= f for u, f in zip(used, floor)):
            found.add(tuple(x for x in lam + rows[i:] if x))
            if used == nu:
                continue
        if i == len(rows) or (i > 0 and rows[i - 1] == 0 and not any(above)):
            continue
        if i == 0:
            caps = (sum(nu),) * len(nu)
        else:
            caps = tuple(rows[i - 1] - rows[i] + sum(above[:k]) for k in range(len(nu)))
        stack.extend(
            (i + 1, tuple(u + a for u, a in zip(used, fill)), fill, lam + (rows[i] + sum(fill),))
            for fill in _row_fills(nu, used, caps)
        )
    return tuple(sorted(found))


def test_lr_support_matches_tableau_walk():
    """Keeping only the shapes before and after the last strip loses no
    lam: lr_support equals the per-tableau walk on every (mu, nu, r) with
    |mu| + |nu| <= 10 and r <= 2."""
    triples = 0
    for n in range(11):
        for a in range(n + 1):
            for mu in _partitions(a):
                for nu in _partitions(n - a):
                    for r in range(3):
                        assert lr_support(mu, nu, r) == _lr_walk(mu, nu, r), (mu, nu, r)
                        triples += 1
    assert triples == 3645


def test_pieri_matches_tableau_walk():
    """For a nu of at most one part, lr_support adds at most one
    horizontal strip, which is Pieri's rule; past the walk-reference
    test's sizes it still equals the per-tableau walk, on every mu with
    |mu| <= 14, nu = () or (k) with k <= 6, and r <= 2."""
    triples = 0
    for mu in (m for a in range(15) for m in _partitions(a)):
        for nu in [()] + [(k,) for k in range(1, 7)]:
            for r in range(3):
                assert lr_support(mu, nu, r) == _lr_walk(mu, nu, r), (mu, nu, r)
                triples += 1
    assert triples == 10668


def test_assemble_matches_merge():
    """The closed form of _assemble, each prime's parts lined up from the
    largest, gives the chains that FgAbGroup.of merges from the prime
    powers, on random partitions at one to three primes."""
    rng = random.Random(11)
    for _ in range(300):
        primes = rng.sample((2, 3, 5, 7), rng.randint(1, 3))
        per_prime = {p: [rng.choice(_partitions(rng.randint(0, 5))) for _ in range(rng.randint(1, 3))]
                     for p in primes}
        merged = [FgAbGroup.of(0, [p ** e for p, part in zip(primes, combo) for e in part])
                  .invariant_factors for combo in itertools.product(*per_prime.values())]
        assert _assemble(per_prime) == sorted(merged), per_prime


def test_wide_ladder_extension_fast():
    """Z + Z/2 + ... + Z/32 by Z/2 + ... + Z/32 has torsion order 2^30 and
    6,249 candidates; keeping one state per pair of shapes around the
    last strip answers it in well under the time a per-tableau walk
    takes."""
    ladder = (2, 4, 8, 16, 32)
    start = time.perf_counter()
    r = resolve_extension(FgAbGroup.of(1, ladder), FgAbGroup.of(0, ladder), 2**30)
    assert time.perf_counter() - start < 2.0
    assert len(r.candidates) == 6249


def test_six_part_ladder_extension():
    """Z/2 + ... + Z/64 by itself has torsion order 2^42 and 10,873
    candidates, all from one lr_support call with nu = (6, 5, 4, 3, 2, 1):
    six strips answer it in a few seconds."""
    ladder = FgAbGroup.of(0, (2, 4, 8, 16, 32, 64))
    start = time.perf_counter()
    r = resolve_extension(ladder, ladder, 2**42)
    assert time.perf_counter() - start < 4.0
    assert len(r.candidates) == 10873


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
    """Every (sub, quot) with free ranks at most 2 summing to at most 3,
    torsion orders at most 16 and their product at most 32: the
    candidates equal the Ext^1 types wherever there are at most
    EXT_CLASSES classes, and a free sub absorbs torsion somewhere."""
    groups = [FgAbGroup(r, t) for r in range(3) for n in range(1, 17)
              for t in torsion_types_of_order(n)]
    pairs = compared = absorbed = 0
    for sub in groups:
        for quot in groups:
            if sub.rank + quot.rank > 3 or sub.torsion_order * quot.torsion_order > 32:
                continue
            r = resolve_extension(sub, quot)
            types = extension_types(sub, quot)
            if types is not None:
                assert r.candidates == types, (sub, quot)
                compared += 1
            pairs += 1
            absorbed += any(c.torsion_order < sub.torsion_order * quot.torsion_order
                            for c in r.candidates)
    assert (pairs, compared) == (1200, 1167) and absorbed > 0
