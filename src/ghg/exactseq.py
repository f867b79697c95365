"""Middle terms of five-term exact fragments A -> B -> X -> C -> D.

Exactness pins X between sub = coker(A -> B) and quot = ker(C -> D):
0 -> sub -> X -> quot -> 0. The resolution rules are deliberately
small: a free quotient splits, a trivial side collapses, and anything
else is answered one prime at a time. X has rank rank(sub) + rank(quot)
and its torsion is an extension of tors sub by a subgroup T of
tors quot, where (tors quot)/T needs at most rank(sub) generators (so
T = tors quot when sub is finite). It splits into p-primary parts,
each an extension of the p-part of sub by the p-part of T. A finite
abelian p-group of type lam has a subgroup of
type mu with quotient of type nu exactly when the Littlewood-Richardson
coefficient c^lam_{mu nu} is positive (T. Klein, "The Hall polynomial",
J. Algebra 12 (1969); Macdonald, Symmetric Functions and Hall
Polynomials, Ch. II 4), so the candidates are every choice of one such
lam per prime. Several candidates mean the answer is genuinely
ambiguous and all of them are reported. ``verify`` checks the
candidates against the middle groups of the classes of Ext^1(quot, sub).
"""
from __future__ import annotations

import functools
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
       r + rank(quot), r = rank(sub), with, at each prime p, a p-primary
       part of every type lam in lr_support(mu, nu, r), where mu and nu
       are the types of the p-parts of sub and quot: one LR walk of
       shape lam/mu that keeps every tableau whose content sigma lies
       inside nu and above the floor sigma_i >= nu_(i+r) (sigma = nu
       when sub is finite).

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


@functools.lru_cache(maxsize=None)
def lr_support(mu: tuple[int, ...], nu: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """Every partition lam, sorted, with c^lam_{mu sigma} > 0 for the type
    sigma of a subgroup of the p-group of type nu whose quotient needs at
    most r generators (for r = 0 only sigma = nu): the types of the
    p-groups with a subgroup of type mu and quotient of such a type sigma.

    By Klein's theorem sigma is allowed exactly when c^nu_{sigma rho} > 0
    for some rho with at most r parts. Such a rho exists exactly when
    sigma fits inside nu and no column of nu/sigma holds more than r
    cells, i.e. nu_(i+r) <= sigma_i: an LR tableau is column-strict with
    entries at most len(rho), and conversely numbering the cells of each
    column of nu/sigma 1, 2, ... from the top gives an LR tableau.

    One walk searches the LR tableaux of shape lam/mu and content inside
    nu row by row. Row i of lam is mu_i plus the entries placed in it; an
    entry k+1 in row i must sit below a cell of row i-1 that lies in mu or
    holds at most k, which caps how many entries <= k+1 row i can take.
    Every node is an LR tableau whose remaining rows are empty, and the
    lattice-word rule keeps its content a partition inside nu, so the
    walk records lam at every node whose content meets that column floor.

    >>> lr_support((1,), (1,), 0)
    ((1, 1), (2,))
    """
    rows = mu + (0,) * len(nu)
    floor = nu[r:] + (0,) * min(r, len(nu))
    found = set()
    stack = [(0, (0,) * len(nu), (), ())]  # an explicit stack: one level per row of lam
    while stack:
        i, used, above, lam = stack.pop()
        if all(u >= f for u, f in zip(used, floor)):
            found.add(tuple(x for x in lam + rows[i:] if x))
            if used == nu:
                continue
        if i == len(rows) or (i > 0 and rows[i - 1] == 0 and not any(above)):
            continue  # below mu, an empty row leaves no room for the rest
        if i == 0:
            caps = (sum(nu),) * len(nu)
        else:
            caps = tuple(rows[i - 1] - rows[i] + sum(above[:k]) for k in range(len(nu)))
        stack.extend(
            (i + 1, tuple(u + a for u, a in zip(used, fill)), fill, lam + (rows[i] + sum(fill),))
            for fill in _row_fills(nu, used, caps)
        )
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
