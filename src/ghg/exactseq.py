"""Middle terms of five-term exact fragments A -> B -> X -> C -> D.

Exactness pins X between sub = coker(A -> B) and quot = ker(C -> D),
0 -> sub -> X -> quot -> 0. The rules are deliberately small: a free
quotient splits, a trivial side collapses, and anything else is answered
one prime at a time. X has rank rank(sub) + rank(quot) and its torsion
is an extension of tors sub by a subgroup T of tors quot, where
(tors quot)/T needs at most rank(sub) generators (so T = tors quot when
sub is finite); it splits into p-primary parts. A finite abelian p-group
of type lam has a subgroup of type mu with quotient of type nu exactly
when the Littlewood-Richardson coefficient c^lam_{mu nu} is positive
(T. Klein, "The Hall polynomial", J. Algebra 12 (1969); Macdonald,
Symmetric Functions and Hall Polynomials, Ch. II 4), so the candidates
are every choice of one such lam per prime, found by merging LR tableaux
of equal content and last row. Several candidates mean the answer is
genuinely ambiguous and all of them are reported. ``verify`` checks them
against the middle groups of the classes of Ext^1(quot, sub).
"""
from __future__ import annotations

import itertools

from .fgab import CapacityError, FgAbGroup, Value, direct_sum

DEFAULT_TORSION_BOUND = 10000
_TRIAL_LIMIT = 10**6  # the largest trial divisor in factoring an exponent


class TorsionBoundError(CapacityError):
    def __init__(self, torsion_bound: int):
        super().__init__(f"extension torsion order exceeds the bound {torsion_bound}")


class SequenceResult(Value):
    """Outcome of pinning the middle group of an exact fragment.

    ``candidates`` is a nonempty, duplicate-free tuple of every group
    compatible with the fragment, sorted by rank then factor list; the
    result is resolved when it holds exactly one group.
    """

    __slots__ = ("sub", "quot", "candidates")

    def __init__(self, sub: FgAbGroup, quot: FgAbGroup, candidates):
        candidates = tuple(candidates)
        if not candidates:
            raise ValueError("a sequence result needs at least one candidate")
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "quot", quot)
        object.__setattr__(self, "candidates", candidates)

    @property
    def is_resolved(self) -> bool:
        return len(self.candidates) == 1

    @property
    def resolved(self) -> FgAbGroup | None:
        """The unique answer, or None when several groups fit."""
        return self.candidates[0] if len(self.candidates) == 1 else None


def resolve_extension(
    sub: FgAbGroup, quot: FgAbGroup, torsion_bound: int = DEFAULT_TORSION_BOUND
) -> SequenceResult:
    """All abelian groups X fitting 0 -> sub -> X -> quot -> 0, by the
    rule chain:

    1. a free quot splits: X = sub + quot (this covers a trivial quot);
    2. a trivial sub collapses: X = quot;
    3. otherwise the torsion order |tors sub| * |tors quot| must not
       exceed torsion_bound and the two exponents must factor by trial
       division up to 10^6 (CapacityError), and X has rank
       r + rank(quot), r = rank(sub), and at each prime p a p-primary
       part of every type in lr_support(mu, nu, r), mu and nu the types
       of the p-parts of sub and quot (merged LR tableau states).

    The free part of quot splits off. The torsion of X meets sub in
    tors sub and maps onto a subgroup T of tors quot, and (tors quot)/T
    is a quotient of X/(sub + tors X), a finite quotient of Z^r, so it
    needs at most r generators; conversely every such T and every
    extension of T by tors sub occur. With r > 0 the free part of X can
    absorb torsion of quot: 0 -> Z -> X -> Z/2 -> 0 has X = Z (the
    doubling map) as well as X = Z + Z/2.
    """
    if not quot.invariant_factors:
        # free quotients split (this also covers trivial quot and trivial sub)
        return SequenceResult(sub, quot, (direct_sum(sub, quot),))
    if sub.is_trivial:
        return SequenceResult(sub, quot, (quot,))
    order = 1
    for d in sub.invariant_factors + quot.invariant_factors:
        # stop at the first partial product past the bound: the full
        # order of a high-genus sub can run to millions of digits
        order *= d
        if order > torsion_bound:
            raise TorsionBoundError(torsion_bound)
    rank = sub.rank + quot.rank
    # the primes of the order are those of the two exponents, each far cheaper to factor
    exponents = sub.invariant_factors[-1:] + quot.invariant_factors[-1:]
    per_prime = {
        p: lr_support(_primary_type(sub, p), _primary_type(quot, p), sub.rank)
        for p in set().union(*map(_primes, exponents))
    }
    return SequenceResult(sub, quot, (FgAbGroup(rank, factors) for factors in _assemble(per_prime)))


def _primary_type(group: FgAbGroup, p: int) -> tuple[int, ...]:
    """The partition of exponents of the p-primary part of tors group."""
    exponents = []
    for d in reversed(group.invariant_factors):
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e == 0:
            break  # a divisibility chain: every earlier factor is prime to p too
        exponents.append(e)
    return tuple(exponents)


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


def lr_support(mu: tuple[int, ...], nu: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """Every partition lam, sorted, with c^lam_{mu sigma} > 0 for the type
    sigma of a subgroup of the p-group of type nu whose quotient needs at
    most r generators. By Klein's theorem such a quotient has a type rho
    with at most r parts and c^nu_{sigma rho} > 0, so sigma lies inside nu
    with nu_(i+r) <= sigma_i (sigma = nu for r = 0): an LR tableau of
    content rho is column-strict with entries at most len(rho), and
    numbering each column of nu/sigma from the top gives one conversely.

    The LR tableaux of shape lam/mu and content inside nu grow a row of
    lam at a time: row i is mu_i plus its entries, each entry k+1 below a
    cell of row i-1 in mu or holding at most k, which caps the entries
    <= k+1 that row i can take. What a tableau can become depends only on
    its content and last row fill, so tableaux agreeing on both share one
    state holding their rows of lam so far. A state is a tableau with its
    remaining rows empty, so lam is recorded at every state whose content
    meets the column floor.

    >>> lr_support((1,), (1,), 0)
    ((1, 1), (2,))
    """
    rows = mu + (0,) * len(nu)
    floor = nu[r:] + (0,) * min(r, len(nu))
    found = set()
    states = {((0,) * len(nu), ()): {()}}  # (content, last row fill) -> rows of lam so far
    for i in range(len(rows) + 1):
        merged = {}
        for (used, above), prefixes in states.items():
            if all(u >= f for u, f in zip(used, floor)):
                found.update(tuple(x for x in lam + rows[i:] if x) for lam in prefixes)
                if used == nu:
                    continue
            if i == len(rows) or (i > 0 and rows[i - 1] == 0 and not any(above)):
                continue  # below mu, an empty row leaves no room for the rest
            caps = [sum(nu)] * len(nu) if i == 0 else [
                rows[i - 1] - rows[i] + sum(above[:k]) for k in range(len(nu))]
            for fill in _row_fills(nu, used, caps):
                key = (tuple(u + a for u, a in zip(used, fill)), fill)
                merged.setdefault(key, set()).update(lam + (rows[i] + sum(fill),) for lam in prefixes)
        states = merged
    return tuple(sorted(found))


def _primes(n: int) -> set[int]:
    """The primes of n, by trial division up to _TRIAL_LIMIT; a cofactor
    left below _TRIAL_LIMIT**2 is then prime, and a larger one refused."""
    primes, p = set(), 2
    while p * p <= n and p <= _TRIAL_LIMIT:
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if p * p <= n:
        raise CapacityError(f"extension exponent too large to factor past {_TRIAL_LIMIT}")
    if n > 1:
        primes.add(n)
    return primes


def _assemble(per_prime: dict[int, list]) -> list[tuple[int, ...]]:
    """Sorted invariant-factor chains of the groups whose p-primary part
    has, at each prime p, a type in per_prime[p] (exponent partitions)."""
    combos = itertools.product(*([[p ** e for e in part] for part in parts]
                                 for p, parts in per_prime.items()))
    return sorted(FgAbGroup.of(0, itertools.chain(*combo)).invariant_factors for combo in combos)
