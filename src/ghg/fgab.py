"""Exact algebra of finitely generated abelian groups.

Everything in this module is arbitrary-precision integer arithmetic on
small dense matrices: one in-place Smith reduction, canonical forms of
groups, and the exact kernel and cokernel of a homomorphism between
groups in canonical form, one function each, read off Smith diagonals
alone, so the engine builds no unimodular transform: the cokernel
from one reduction of [f^T ; rel_cod], the kernel by rank-nullity on the
free block and the torsion of the domain relations lifted through f.
A zero map takes no reduction: coker(0: A -> B) = B, ker(0: A -> B) = A,
nor a well-definedness scan: a zero matrix is a homomorphism between any
two groups. A chain is its own canonical form, so FgAbGroup.of returns it
as given and merges other orders; any other chain is a Smith diagonal.
A sum with a trivial summand is the other summand, with no merge.

Conventions used throughout:

* a group in canonical form is Z^rank + Z/d1 + ... + Z/dt with
  d1 | d2 | ... | dt and every di >= 2;
* element coordinates list the free generators first, then the torsion
  generators in factor order, torsion entries reduced to [0, di);
* a cyclic order (or element order) of 0 means infinite, i.e. Z = Z/0;
* a presentation is its relation matrix: a g-column matrix presents
  Z^g modulo its row span, so relations are rows and elements are
  coordinate rows over the generators. The cokernel of f is presented so
  too: [f^T ; rel_cod] stacks the generator images over the relations.
"""
from __future__ import annotations

import operator
from collections import Counter
from math import gcd, lcm, prod


class CapacityError(Exception):
    """A computation would exceed its configured bound."""


class Value:
    """Base of the immutable value types.

    A subclass lists its fields, in order, as ``__slots__`` and sets
    them in ``__init__`` through ``object.__setattr__``. Equality is
    same class and equal field tuples, the hash is the hash of the field
    tuple, the repr is ``Name(field=value, ...)`` without the fields in
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


class IntMatrix(Value):
    """Immutable dense matrix over Z.

    Entries are Python ints, so no intermediate result can overflow.
    Rows of the constructor argument must all have the same length; the
    column count must be passed explicitly only when there are no rows.
    """

    __slots__ = ("data", "cols")

    def __init__(self, data, cols: int | None = None):
        table = tuple(tuple(map(operator.index, row)) for row in data)
        if table:
            width = len(table[0])
            if any(len(row) != width for row in table):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        object.__setattr__(self, "data", table)
        object.__setattr__(self, "cols", cols)

    @property
    def rows(self) -> int:
        return len(self.data)

    @classmethod
    def from_columns(cls, columns, rows: int) -> IntMatrix:
        columns = [tuple(c) for c in columns]
        if any(len(c) != rows for c in columns):
            raise ValueError("column of wrong height")
        return cls([[c[i] for c in columns] for i in range(rows)], len(columns))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r}, cols={self.cols})"


def _smith(m: list[list[int]], nrows: int, ncols: int) -> list[int]:
    """Reduce the top-left nrows x ncols block of m in place to Smith
    normal form and return its diagonal. Row operations span the first
    nrows rows and column operations the first ncols columns of m, to
    its full width and height, so the rest of m records the transforms.

    One loop of division with remainder (Newman, Integral Matrices, II):
    the pivot is the entry of smallest nonzero absolute value in the
    remaining block, ties broken by lowest (row, col), moved to (t, t)
    and made positive. Each entry below and right of the pivot p is cut
    to its nearest-integer remainder, at most p/2 in absolute value. A
    nonzero remainder repeats the step with a pivot no larger than it.
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
    """Whether facs is a divisibility chain with every entry >= 2."""
    return not any(d < 2 or d % p for p, d in zip((1,) + facs, facs))


class FgAbGroup(Value):
    """A finitely generated abelian group in canonical form.

    ``rank`` free summands followed by cyclic summands whose orders form
    a divisibility chain; the constructor rejects anything else, so two
    groups are isomorphic exactly when they are equal.

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
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "invariant_factors", facs)

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
        and d above. One merge per distinct order; it never factors.
        """
        orders = tuple(map(abs, map(operator.index, orders)))
        if _is_chain(orders):  # invariant factors are unique
            return cls(rank, orders)
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


class GroupElement(Value):
    """An element of a group in canonical form, as a coordinate row.

    Torsion coordinates are reduced to [0, di) on construction, so
    structural equality is element equality.
    """

    __slots__ = ("group", "coords")

    def __init__(self, group: FgAbGroup, coords: tuple[int, ...]):
        coords = tuple(map(operator.index, coords))
        if len(coords) != group.ngens:
            raise ValueError(
                f"need {group.ngens} coordinates for {group}, got {len(coords)}"
            )
        rank = group.rank
        reduced = coords[:rank] + tuple(
            c % d for c, d in zip(coords[rank:], group.invariant_factors)
        )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", reduced)

    @classmethod
    def zero(cls, group: FgAbGroup) -> GroupElement:
        return cls(group, (0,) * group.ngens)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: GroupElement) -> GroupElement:
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> GroupElement:
        return GroupElement(self.group, tuple(-c for c in self.coords))

    def __mul__(self, k: int) -> GroupElement:
        k = operator.index(k)
        return GroupElement(self.group, tuple(k * c for c in self.coords))

    __rmul__ = __mul__

    def order(self) -> int:
        """Additive order; 0 means infinite order."""
        rank = self.group.rank
        if any(c != 0 for c in self.coords[:rank]):
            return 0
        return lcm(
            *(d // gcd(c, d) for c, d in zip(self.coords[rank:], self.group.invariant_factors)),
            1,
        )


class Homomorphism(Value):
    """Integer matrix acting on canonical coordinates.

    Columns are indexed by domain generators and rows by codomain
    generators; torsion rows are read modulo their invariant factor.
    Construction rejects matrices that do not kill the domain relations,
    i.e. every column must be annihilated by its generator's order.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != codomain.ngens or matrix.cols != domain.ngens:
            raise ValueError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{codomain.ngens}x{domain.ngens}"
            )
        if any(map(any, matrix.data)):  # a zero matrix kills every relation
            cod_orders = codomain.generator_orders()
            for j, d in enumerate(domain.generator_orders()):
                if d == 0:
                    continue
                for i, e in enumerate(cod_orders):
                    val = d * matrix.data[i][j]
                    if (val != 0) if e == 0 else (val % e != 0):
                        raise ValueError(f"ill-defined homomorphism: generator {j} has order {d} "
                                         f"but d*column is nonzero in coordinate {i}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def zero(cls, domain: FgAbGroup, codomain: FgAbGroup) -> Homomorphism:
        return cls(domain, codomain, IntMatrix([[0] * domain.ngens] * codomain.ngens, domain.ngens))

    def apply(self, element: GroupElement) -> GroupElement:
        if element.group != self.domain:
            raise ValueError("element not in the domain")
        out = tuple(
            sum(v * c for v, c in zip(row, element.coords)) for row in self.matrix.data
        )
        return GroupElement(self.codomain, out)


def cokernel(f: Homomorphism) -> FgAbGroup:
    """Cokernel of a homomorphism: Z^h modulo the rows of [f^T ; rel_cod],
    from one Smith diagonal (with h = 0 the zip yields no rows at all),
    or from none when f is zero, since coker(0: A -> B) = B.

    >>> f = Homomorphism(FgAbGroup(1), FgAbGroup(1, (4,)), IntMatrix([[0], [2]]))
    >>> str(cokernel(f))
    'Z^1 + Z/2'
    """
    cod = f.codomain
    if not any(map(any, f.matrix.data)):
        return cod
    rows = [list(col) for col in zip(*f.matrix.data)] + _diagonal_relations(cod.generator_orders())
    return _presented(rows, cod.ngens)


def kernel(f: Homomorphism) -> FgAbGroup:
    """Kernel of a homomorphism, from two Smith diagonals, or from none
    when f is zero, since ker(0: A -> B) = A.

    Write dom = Z^r + sum Z/d_j on g generators and cod = Z^q + sum Z/e_i
    on h generators, s of them torsion. The rank of ker f is its rank
    over Q: by rank-nullity it is the nullity of the free block M, the
    first q rows of f cut to the first r columns, which is the rank of
    Z^r modulo the rows of M.

    The torsion of ker f is the kernel of f on tors(dom). Lift the
    relation d_j e_j of each finite-order generator j to the row
    (d_j e_j, y) of Z^(g+s), with y_i = -d_j f_ij / e_i at each torsion
    coordinate i of cod (exact, as Homomorphism checks). The lifted
    rows lie in L = {(x, y) : x f^T + y rel_cod = 0}, which projects
    injectively onto the preimage lattice {x : f(x) is a codomain
    relation}, and L modulo them is ker f. Z^(g+s) / L embeds in Z^h, so
    it is free and L is a direct summand: Z^(g+s) modulo the lifted rows
    is ker f plus a free group, whose torsion is the torsion of ker f.

    >>> f = Homomorphism(FgAbGroup(1, (4,)), FgAbGroup.cyclic(2), IntMatrix([[1, 1]]))
    >>> str(kernel(f))
    'Z^1 + Z/2'
    """
    dom, cod, rows = f.domain, f.codomain, f.matrix.data
    if not any(map(any, rows)):
        return dom
    free = [list(row[:dom.rank]) for row in rows[:cod.rank]]
    torsion = list(zip(rows[cod.rank:], cod.invariant_factors))
    lifted = [[d * (k == j) for k in range(dom.ngens)] + [-d * row[j] // e for row, e in torsion]
              for j, d in enumerate(dom.invariant_factors, dom.rank)]
    quotient = _presented(lifted, dom.ngens + len(torsion))
    return FgAbGroup(_presented(free, dom.rank).rank, quotient.invariant_factors)


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Canonical form of a + b.

    >>> str(direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(6)))
    'Z/2 + Z/6'
    >>> str(direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)))
    'Z/6'
    """
    if a.is_trivial or b.is_trivial:
        return b if a.is_trivial else a
    return FgAbGroup.of(a.rank + b.rank, a.invariant_factors + b.invariant_factors)
