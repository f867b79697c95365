"""Middle terms of five-term exact fragments A -> B -> X -> C -> D.

Exactness pins X between sub = coker(A -> B) and quot = ker(C -> D),
0 -> sub -> X -> quot -> 0. The rules are deliberately small: a free
quotient or a trivial sub splits, and anything else is answered one
prime at a time. X has rank rank(sub) + rank(quot) and its torsion
is an extension of tors sub by a subgroup T of tors quot, where
(tors quot)/T needs at most rank(sub) generators (so T = tors quot when
sub is finite); it splits into p-primary parts. A finite abelian p-group
of type lam has a subgroup of type mu with quotient of type nu exactly
when the Littlewood-Richardson coefficient c^lam_{mu nu} is positive
(T. Klein, "The Hall polynomial", J. Algebra 12 (1969); Macdonald,
Symmetric Functions and Hall Polynomials, Ch. II 4), so the candidates
are every choice of one such lam per prime, each found by adding one
horizontal strip per part of nu under the lattice-word condition (ibid.
Ch. I 9). Several candidates mean the answer is genuinely ambiguous and
all of them are reported. ``verify`` checks them against the middle
groups of the classes of Ext^1(quot, sub).
"""
from __future__ import annotations

import itertools
from math import prod

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
    """All abelian groups X fitting 0 -> sub -> X -> quot -> 0, by two
    rules with one refusal between them:

    1. a free quot or a trivial sub splits, X = sub + quot, at any bound;
    2. otherwise a torsion order |tors sub| * |tors quot| past
       torsion_bound is refused (TorsionBoundError; t factors, each at
       least 2, pass any bound below 2^t unmultiplied);
    3. otherwise, once the two exponents factor by trial division up
       to 10^6 (CapacityError), X has rank r + rank(quot), r = rank(sub),
       and at each prime p a p-primary part of every type in
       lr_support(mu, nu, r), mu and nu the types of the p-parts of sub
       and quot (one horizontal strip per part of nu, a lattice-word cap
       between consecutive strips).

    The free part of quot splits off. The torsion of X meets sub in
    tors sub and maps onto a subgroup T of tors quot, and (tors quot)/T
    is a quotient of X/(sub + tors X), a finite quotient of Z^r, so it
    needs at most r generators; conversely every such T and every
    extension of T by tors sub occur. With r > 0 the free part of X can
    absorb torsion of quot: 0 -> Z -> X -> Z/2 -> 0 has X = Z (the
    doubling map) as well as X = Z + Z/2.
    """
    if not quot.invariant_factors or sub.is_trivial:
        return SequenceResult(sub, quot, (direct_sum(sub, quot),))
    facs = sub.invariant_factors + quot.invariant_factors
    if len(facs) >= max(1, torsion_bound.bit_length()) or prod(facs) > torsion_bound:
        raise TorsionBoundError(torsion_bound)
    rank = sub.rank + quot.rank
    # the primes of the order are those of the two exponents, each far cheaper to factor
    exponents = sub.invariant_factors[-1:] + quot.invariant_factors[-1:]
    per_prime = {
        p: lr_support(_primary_type(sub, p), _primary_type(quot, p), sub.rank)
        for p in set().union(*map(_primes, exponents))
    }
    # the constructor checks each closed-form chain of _assemble
    return SequenceResult(sub, quot, (FgAbGroup(rank, c) for c in _assemble(per_prime)))


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


def lr_support(mu: tuple[int, ...], nu: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """Every partition lam, sorted, with c^lam_{mu sigma} > 0 for the type
    sigma of a subgroup of the p-group of type nu whose quotient needs at
    most r generators. By Klein's theorem such a quotient has a type rho
    with at most r parts and c^nu_{sigma rho} > 0, so sigma lies inside nu
    with nu_(i+r) <= sigma_i (sigma = nu for r = 0): an LR tableau of
    content rho is column-strict with entries at most len(rho), and
    numbering each column of nu/sigma from the top gives one conversely.

    An LR tableau of shape lam/mu and content sigma is a chain of
    horizontal strips, its entries k+1 one strip outside its entries
    <= k, whose reading word (each row right to left, top to bottom) is
    a lattice word: rows 0..i hold no more entries k+1 than rows 0..i-1
    hold entries k (Macdonald, Ch. I 9). So part k of nu adds a strip of
    nu_(k+r) to nu_k cells, capped by the strip of part k-1, and what a
    tableau can become depends only on its shapes before and after its
    last strip. A nu of one part is Pieri's rule (ibid. Ch. I (5.16)):
    lam/mu is a horizontal strip.

    >>> lr_support((1,), (1,), 0)
    ((1, 1), (2,))
    """
    # row 0 is a virtual row above mu that a virtual strip has filled, as
    # long as mu and nu together, so that neither cap binds the first part
    lam = (sum(mu + nu),) + mu + (0,) * len(nu)
    states = {((0,) * len(lam), lam)}  # (shape before the last strip, shape after it)
    for low, high in zip(nu[r:] + (0,) * r, nu):
        states = {(lam, new) for before, lam in states
                  for new, cells in _strips(before, lam, high) if cells >= low}
    # the real rows less their zeros, which trail (row 0 is 0 only for empty mu and nu)
    return tuple(sorted({lam[1:len(lam) - lam.count(0)] for _, lam in states}))


def _strips(before: tuple[int, ...], lam: tuple[int, ...],
            high: int) -> list[tuple[tuple[int, ...], int]]:
    """Every shape lam + a, with its number of cells |a| <= high, such
    that a is a horizontal strip (a_i <= lam_(i-1) - lam_i, so row 0 stays
    and only the rows below a drop can grow) and rows 1..i take at most
    the cells that lam/before has in rows 0..i-1."""
    strips = [(lam, 0)]  # (shape so far, cells added)
    cap = 0  # the cells of lam/before above row i
    for i in range(1, len(lam)):
        cap += lam[i - 1] - before[i - 1]
        room = lam[i - 1] - lam[i]
        if room and cap:
            limit = min(high, cap)
            strips = [(s[:i] + (s[i] + a,) + s[i + 1:], n + a)
                      for s, n in strips for a in range(min(room, limit - n) + 1)]
    return strips


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
    has, at each prime p, a type in per_prime[p] (exponent partitions,
    largest part first). Lining the primes' parts up from the largest,
    the k-th largest invariant factor is prod_p p**lam_p[k], a missing
    part counting as 0."""
    primes = tuple(per_prime)
    return sorted(tuple(prod(map(pow, primes, exps))
                        for exps in itertools.zip_longest(*combo, fillvalue=0))[::-1]
                  for combo in itertools.product(*per_prime.values()))
