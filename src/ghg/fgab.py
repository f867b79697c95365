"""Exact algebra of finitely generated abelian groups.

Everything in this module is arbitrary-precision integer arithmetic:
one in-place Smith reduction, canonical forms of groups, and the exact
kernel and cokernel of a homomorphism between groups in canonical form,
one function each, read off Smith diagonals alone, so the engine builds
no unimodular transform: the cokernel from one reduction of the images
stacked over the codomain relations, the kernel by rank-nullity on the
free block and the torsion of the domain relations lifted through f.
A zero map takes no reduction: coker(0: A -> B) = B, ker(0: A -> B) = A.
A Homomorphism reduces its images, and tests each generator's order,
through _reduced, the one rule for torsion coordinates, unless built by
_from_images from proved images; a group without torsion leaves the
coordinates as given. FgAbGroup.of merges any orders into their chain,
and a chain merges back to itself, so it takes the same route; any other
chain is a Smith diagonal. direct_sum joins two chains, unscanned, where the
last factor of one divides the first of the other, as when one is empty.
Every value type fills its fields through its slots' own setters, bound
once per class as Value._setters, since assignment raises.

Conventions used throughout:

* a group in canonical form is Z^rank + Z/d1 + ... + Z/dt with
  d1 | d2 | ... | dt and every di >= 2;
* element coordinates list the free generators first, then the torsion
  generators in factor order, torsion entries reduced to [0, di);
* a cyclic order of 0 means infinite, i.e. Z = Z/0;
* a map is the images of its generators: images[j] is the codomain
  coordinates of f(e_j);
* a presentation is its relation rows: g-entry rows present Z^g modulo
  their span, so coker f is presented by the images of f stacked over
  the codomain relations.
"""
from __future__ import annotations

import operator
from collections import Counter
from math import gcd, lcm, prod


class CapacityError(Exception):
    """A computation would exceed its configured bound."""


class Value:
    """Base of the immutable value types.

    A subclass lists its fields, in order, as ``__slots__`` and fills
    them in ``__init__`` through ``_setters``: each slot descriptor's own
    ``__set__``, bound once per class in ``__slots__`` order, so no
    generic attribute lookup runs per field. Equality is same class and
    equal field tuples, the hash is the hash of the field tuple, the
    repr is ``Name(field=value, ...)`` without the fields in
    ``_repr_hidden``, and assigning or deleting any attribute raises
    AttributeError.
    """

    __slots__ = ()
    _repr_hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            get = operator.attrgetter(names[0])
            cls._astuple = staticmethod(lambda obj: (get(obj),))
        else:
            # one C-level getter per class keeps == and hash off a Python loop
            cls._astuple = operator.attrgetter(*names)
        cls._repr_fields = tuple(n for n in names if n not in cls._repr_hidden)
        cls._setters = tuple(cls.__dict__[n].__set__ for n in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._repr_fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _smith(m: list[list[int]], nrows: int, ncols: int) -> list[int]:
    """Reduce the top-left nrows x ncols block of m in place to Smith
    normal form and return its diagonal. Row operations span the first
    nrows rows and column operations the first ncols columns of m, to
    its full width and height, so the rest of m records the transforms.

    One loop of division with remainder (Newman, Integral Matrices, II):
    the pivot is the entry of smallest nonzero absolute value in the
    remaining block, ties broken by lowest (row, col), moved to (t, t)
    and made positive. The scan stops after the first row holding a
    unit: no entry is smaller and the first minimum is kept, so a full
    scan picks the same pivot. Each entry below and right of the pivot
    p is cut to its nearest-integer remainder, at most p/2 in absolute
    value. A nonzero remainder repeats the step with a pivot no larger.
    A row of the block with an entry that p does not divide is added to
    the pivot row, and the repeat picks p at (t, t) again or a smaller
    pivot, and leaves a remainder. So the positive pivot strictly
    decreases at least every second pass, and the loop terminates.
    """
    t = 0
    while t < min(nrows, ncols):
        best = None
        best_abs = 0
        for i in range(t, nrows):
            row = m[i]
            for j in range(t, ncols):
                val = row[j]
                if val != 0 and (best is None or abs(val) < best_abs):
                    best = (i, j)
                    best_abs = abs(val)
            if best_abs == 1:
                break
        if best is None:
            break
        bi, bj = best
        if bi != t:
            m[t], m[bi] = m[bi], m[t]
        if bj != t:
            for row in m:
                row[t], row[bj] = row[bj], row[t]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        mt, p = m[t], m[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            x = m[i][t]
            if x != 0:
                q = (2 * x + p) // (2 * p)  # nearest integer to x / p
                if q != 0:
                    m[i] = [y - q * z for y, z in zip(m[i], mt)]
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, ncols):
            x = mt[j]
            if x != 0:
                q = (2 * x + p) // (2 * p)
                if q != 0:
                    for row in m:
                        row[j] -= q * row[t]
                dirty = dirty or mt[j] != 0
        if dirty:
            continue
        if p != 1:
            bad = next((i for i in range(t + 1, nrows)
                        if any(x % p != 0 for x in m[i][t + 1:ncols])), None)
            if bad is not None:
                m[t] = [x + y for x, y in zip(mt, m[bad])]
                continue
        t += 1
    return [m[k][k] for k in range(min(nrows, ncols))]


def _is_chain(facs: tuple[int, ...]) -> bool:
    """Whether facs is a divisibility chain with every entry >= 2; the
    minimum is tested first, so a 0 never reaches %."""
    return not facs or (min(facs) >= 2 and not any(map(operator.mod, facs[1:], facs)))


class FgAbGroup(Value):
    """A finitely generated abelian group in canonical form.

    ``rank`` free summands followed by cyclic summands whose orders form
    a divisibility chain; the constructor rejects anything else, so two
    groups are isomorphic exactly when they are equal. Each chain is
    validated once, where it is formed: this constructor checks ``of``'s
    merges and ``_smith``'s pivots, and ``_from_chain`` skips the scan, for
    a chain such as an existing group's.

    >>> str(FgAbGroup(2, (2, 6)))
    'Z^2 + Z/2 + Z/6'
    """

    __slots__ = ("rank", "invariant_factors")

    def __init__(self, rank: int, invariant_factors: tuple[int, ...] = ()):
        rank, facs = operator.index(rank), tuple(map(operator.index, invariant_factors))
        if rank < 0:
            raise ValueError("negative rank")
        # one scan accepts a valid chain; a failure is then told apart
        if not _is_chain(facs):
            if any(d < 2 for d in facs):
                raise ValueError("invariant factors must be >= 2")
            raise ValueError(f"factors {facs} do not form a divisibility chain")
        set_rank, set_facs = self._setters
        set_rank(self, rank)
        set_facs(self, facs)

    @classmethod
    def _from_chain(cls, rank: int, chain: tuple[int, ...]) -> FgAbGroup:
        """Z^rank + chain, with rank and chain already validated."""
        group = object.__new__(cls)
        set_rank, set_facs = cls._setters
        set_rank(group, rank)
        set_facs(group, chain)
        return group

    @classmethod
    def cyclic(cls, d: int) -> FgAbGroup:
        """Z/d, with Z/0 = Z and Z/1 trivial."""
        return cls.of(0, (d,))

    @classmethod
    def of(cls, rank: int, orders=()) -> FgAbGroup:
        """Canonical form of Z^rank + sum of Z/order, any orders allowed.

        At each prime a direct sum's type is the union of the summands'
        partitions (Macdonald, Symmetric Functions and Hall Polynomials,
        II 1), so adding m copies of Z/d to a chain c is one sorted merge:
        slot i becomes lcm(c_(i-m), gcd(c_i, d)), padding c with 1 below
        and d above. One merge per distinct order; it never factors. A chain
        merges back to itself, so it takes the same route; the merged chain
        is validated by the constructor, as a check of the merge.
        """
        rank, orders = operator.index(rank), tuple(map(abs, map(operator.index, orders)))
        if rank < 0:
            raise ValueError("negative rank")
        counts = Counter(orders)
        chain = []
        for d, m in counts.items():
            if d > 1:
                merged = map(lcm, [1] * m + chain, [gcd(c, d) for c in chain] + [d] * m)
                chain = [c for c in merged if c > 1]
        return cls(rank + counts[0], tuple(chain))

    @property
    def ngens(self) -> int:
        return self.rank + len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

    @property
    def torsion_order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return self.torsion_order if self.rank == 0 else None

    def generator_orders(self) -> tuple[int, ...]:
        return (0,) * self.rank + self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts)


def _diagonal_relations(orders) -> list[list[int]]:
    # one relation d * e_i for each generator i of finite order d
    return [[d * (k == i) for k in range(len(orders))] for i, d in enumerate(orders) if d]


def _presented(rows: list[list[int]], n: int) -> FgAbGroup:
    """Z^n modulo the row span of rows, row lists reduced in place: rank n
    minus the number of nonzero pivots, the pivots above 1 as its chain."""
    pivots = [x for x in _smith(rows, len(rows), n) if x != 0]
    return FgAbGroup(n - len(pivots), tuple(x for x in pivots if x > 1))


def _reduced(group: FgAbGroup, coords: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates in group with each torsion entry reduced to [0, di),
    given as they are when the group has no torsion."""
    if not group.invariant_factors:
        return coords
    rank = group.rank
    return coords[:rank] + tuple(map(operator.mod, coords[rank:], group.invariant_factors))


class Homomorphism(Value):
    """A homomorphism as the tuple of its generators' images: images[j]
    is the codomain coordinate tuple of f(e_j), torsion entries reduced
    to [0, di) on construction, so structural equality is equality of
    maps. Construction rejects a wrong count or length of images, and
    the image y of a generator of order d unless d * y is 0 in the
    codomain. Both the reduction and the check go through _reduced, which
    leaves a free coordinate as given.
    """

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup, images):
        images = tuple(tuple(map(operator.index, y)) for y in images)
        if len(images) != domain.ngens or any(len(y) != codomain.ngens for y in images):
            raise ValueError(f"need {domain.ngens} images of {codomain.ngens} coordinates")
        images = tuple(_reduced(codomain, y) for y in images)
        for j, d in enumerate(domain.invariant_factors, domain.rank):
            if any(_reduced(codomain, tuple(d * c for c in images[j]))):
                raise ValueError(f"ill-defined homomorphism: generator {j} has order {d} "
                                 f"but {d} times its image {images[j]} is nonzero")
        set_domain, set_codomain, set_images = self._setters
        set_domain(self, domain)
        set_codomain(self, codomain)
        set_images(self, images)

    @classmethod
    def _from_images(cls, domain: FgAbGroup, codomain: FgAbGroup, images) -> Homomorphism:
        """The map with these images, which the caller has shown pass __init__'s checks."""
        f = object.__new__(cls)
        set_domain, set_codomain, set_images = cls._setters
        set_domain(f, domain)
        set_codomain(f, codomain)
        set_images(f, images)
        return f

    @classmethod
    def zero(cls, domain: FgAbGroup, codomain: FgAbGroup) -> Homomorphism:
        """The zero map: a zero image is already reduced and well defined."""
        return cls._from_images(domain, codomain, ((0,) * codomain.ngens,) * domain.ngens)


def cokernel(f: Homomorphism) -> FgAbGroup:
    """Cokernel of a homomorphism: Z^h modulo the images of f stacked
    over the codomain relations, from one Smith diagonal, or from none
    when f is zero, since coker(0: A -> B) = B.

    >>> f = Homomorphism(FgAbGroup(1), FgAbGroup(1, (4,)), [(0, 2)])
    >>> str(cokernel(f))
    'Z^1 + Z/2'
    """
    cod = f.codomain
    if not any(map(any, f.images)):
        return cod
    rows = [list(y) for y in f.images] + _diagonal_relations(cod.generator_orders())
    return _presented(rows, cod.ngens)


def kernel(f: Homomorphism) -> FgAbGroup:
    """Kernel of a homomorphism, from at most two Smith diagonals, and from
    none when f is zero, since ker(0: A -> B) = A, or a block is empty.

    Write dom = Z^r + sum Z/d_j on g generators and cod = Z^q + sum Z/e_i
    on h generators, s of them torsion, and f_ij for coordinate i of the
    image of generator j. The rank of ker f is its rank over Q: by
    rank-nullity it is r minus the rank of the free block, the first q
    coordinates of the images of the first r generators.

    The torsion of ker f is the kernel of f on tors(dom). Lift the
    relation d_j e_j of each finite-order generator j to the row
    (d_j e_j, y) of Z^(g+s), with y_i = -d_j f_ij / e_i at each torsion
    coordinate i of cod (exact, since f is well defined). The lifted
    rows lie in L = {(x, y) : f(x) + y rel_cod = 0}, which projects
    injectively onto the preimage lattice {x : f(x) is a codomain
    relation}, and L modulo them is ker f. Z^(g+s) / L embeds in Z^h, so
    it is free and L is a direct summand: Z^(g+s) modulo the lifted rows
    is ker f plus a free group, whose torsion is the torsion of ker f.

    >>> f = Homomorphism(FgAbGroup(1, (4,)), FgAbGroup.cyclic(2), [(1,), (1,)])
    >>> str(kernel(f))
    'Z^1 + Z/2'
    """
    dom, cod, images = f.domain, f.codomain, f.images
    if not any(map(any, images)):
        return dom
    free = [list(y[:cod.rank]) for y in images[:dom.rank]] if cod.rank else []
    nullity = dom.rank - (sum(1 for x in _smith(free, dom.rank, cod.rank) if x) if free else 0)
    lifted = [[d * (k == j) for k in range(dom.ngens)]
              + [-d * c // e for c, e in zip(images[j][cod.rank:], cod.invariant_factors)]
              for j, d in enumerate(dom.invariant_factors, dom.rank)]
    # a torsion-free dom lifts no row, and its chain () is the torsion of ker f
    torsion = _presented(lifted, dom.ngens + len(cod.invariant_factors)) if lifted else dom
    return FgAbGroup._from_chain(nullity, torsion.invariant_factors)


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Canonical form of a + b: two chains join unscanned where the last factor
    of one divides the first of the other, and any other pair merges in of.

    >>> str(direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(6)))
    'Z/2 + Z/6'
    >>> str(direct_sum(FgAbGroup.cyclic(4), FgAbGroup.cyclic(2)))
    'Z/2 + Z/4'
    >>> str(direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)))
    'Z/6'
    """
    if a.is_trivial or b.is_trivial:
        return b if a.is_trivial else a
    fa, fb = a.invariant_factors, b.invariant_factors
    if fa and fb and fb[0] % fa[-1]:  # b's chain does not continue a's
        if fa[0] % fb[-1]:
            return FgAbGroup.of(a.rank + b.rank, fa + fb)
        fa, fb = fb, fa
    return FgAbGroup._from_chain(a.rank + b.rank, fa + fb)
