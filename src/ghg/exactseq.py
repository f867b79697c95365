"""Middle terms of five-term exact fragments A -> B -> X -> C -> D.

Exactness pins X between sub = coker(A -> B) and quot = ker(C -> D):
0 -> sub -> X -> quot -> 0. The resolution rules are deliberately
small: a free quotient splits, a trivial side collapses, and anything
else is answered by enumerating every abelian group with the forced
rank and torsion order and testing, element by element, whether it
admits a subgroup of type sub with quotient of type quot. Several
survivors mean the answer is genuinely ambiguous and all candidates
are reported.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod

from .fgab import (
    CapacityError,
    FgAbGroup,
    Homomorphism,
    IntMatrix,
    direct_sum,
    enumerate_elements,
    hom_decompose,
)

DEFAULT_TORSION_BOUND = 10000


@dataclass(frozen=True)
class SequenceResult:
    """Outcome of pinning the middle group of an exact fragment.

    Either ``resolved`` holds the unique answer, or ``candidates`` is a
    duplicate-free tuple of every group compatible with the fragment,
    sorted by rank then factor list.
    """

    sub: FgAbGroup
    quot: FgAbGroup
    resolved: FgAbGroup | None = None
    candidates: tuple[FgAbGroup, ...] = ()

    def __post_init__(self):
        if (self.resolved is None) == (not self.candidates):
            raise ValueError("exactly one of resolved/candidates must be set")

    @property
    def is_resolved(self) -> bool:
        return self.resolved is not None


def middle_group(
    left: Homomorphism, right: Homomorphism, torsion_bound: int = DEFAULT_TORSION_BOUND
) -> SequenceResult:
    """Resolve X in ... -> A --left--> B -> X -> C --right--> D -> ..."""
    sub = hom_decompose(left)[2]
    quot = hom_decompose(right)[0]
    return resolve_extension(sub, quot, torsion_bound)


def resolve_extension(
    sub: FgAbGroup, quot: FgAbGroup, torsion_bound: int = DEFAULT_TORSION_BOUND
) -> SequenceResult:
    """All abelian groups X fitting 0 -> sub -> X -> quot -> 0, by the
    rule chain: free quot splits; trivial sub collapses; otherwise
    enumerate by rank and torsion order and brute-force the
    subgroup-with-quotient test on torsion parts."""
    if not quot.invariant_factors:
        # free quotients split (this also covers trivial quot and trivial sub)
        return SequenceResult(sub, quot, resolved=direct_sum(sub, quot))
    if sub.is_trivial:
        return SequenceResult(sub, quot, resolved=quot)
    order = sub.torsion_order * quot.torsion_order
    if order > torsion_bound:
        raise CapacityError(
            f"extension torsion order {order} exceeds the bound {torsion_bound}"
        )
    rank = sub.rank + quot.rank
    want = (sub.torsion_part(), quot.torsion_part())
    candidates = []
    for factors in torsion_types_of_order(order):
        if want in subgroup_quotient_pairs(FgAbGroup(0, factors)):
            candidates.append(FgAbGroup(rank, factors))
    candidates.sort(key=lambda g: (g.rank, g.invariant_factors))
    if len(candidates) == 1:
        return SequenceResult(sub, quot, resolved=candidates[0])
    return SequenceResult(sub, quot, candidates=tuple(candidates))


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
    """Invariant-factor chains of every abelian group of a given order.

    >>> torsion_types_of_order(12)
    [(2, 6), (12,)]
    """
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        return [()]
    per_prime = []
    for p, e in sorted(_factorint(order).items()):
        per_prime.append([(p, part) for part in _partitions(e)])
    types = []
    for combo in itertools.product(*per_prime):
        depth = max(len(part) for _, part in combo)
        factors = []
        for k in range(depth):
            # align largest prime powers with the last invariant factor
            d = prod(p ** part[k] for p, part in combo if k < len(part))
            factors.append(d)
        factors.reverse()
        types.append(tuple(factors))
    types.sort()
    return types


@functools.lru_cache(maxsize=None)
def subgroup_quotient_pairs(group: FgAbGroup) -> frozenset:
    """All pairs (type of H, type of group/H) over subgroups H of a
    finite group, found by closing element sets under addition."""
    if group.rank != 0:
        raise ValueError("subgroup enumeration needs a finite group")
    factors = group.invariant_factors
    elements = [e.coords for e in enumerate_elements(group, bound=group.torsion_order)]
    zero = (0,) * len(factors)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, factors))

    def close(subgroup, extra):
        new = set(subgroup)
        shift = extra
        while shift not in subgroup:
            new.update(add(h, shift) for h in subgroup)
            shift = add(shift, extra)
        return frozenset(new)

    start = frozenset({zero})
    generators = {start: ()}
    queue = [start]
    while queue:
        subgroup = queue.pop()
        gens = generators[subgroup]
        for x in elements:
            if x in subgroup:
                continue
            bigger = close(subgroup, x)
            if bigger not in generators:
                generators[bigger] = gens + (x,)
                queue.append(bigger)

    pairs = set()
    for gens in generators.values():
        phi = Homomorphism(
            FgAbGroup.free(len(gens)),
            group,
            IntMatrix.from_columns(gens, group.ngens),
        )
        _, image, cokernel = hom_decompose(phi)
        pairs.add((image, cokernel))
    return frozenset(pairs)

