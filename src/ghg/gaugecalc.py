"""Homotopy groups of gauge groups over spheres and surfaces.

Every base is S^dim plus 2*genus split H^1 summands: a sphere S^m has
dim m and genus 0, a closed orientable surface of genus g has dim 2.
For a principal K-bundle classified by b in pi_(dim-1)(K), the
evaluation fibration gives a long exact sequence through pi_n(Gau(P))
whose connecting map is a negated Samelson product with b behind
2*genus zero blocks:

    delta_n : pi_n(K) -> pi_n(K)^2g + pi_(n+dim-1)(K),
              a |-> (0, ..., 0, -<a, b>)

The last block is the stored pairing's homomorphism against -b, read
off the catalog entry (entry.samelson[(n, dim - 1)].against(-b)), or
a structural zero (b = 0, an end trivial, K abelian) that builds no map.
pi_n(Gau(P)) is then the middle term between coker(delta_(n+1)) and
ker(delta_n). The zero blocks make coker(delta_(n+1)) the S^dim
cokernel plus pi_(n+1)(K)^2g, and ker(delta_n) the S^dim kernel. A
trivial bundle splits, since the constant maps are a section of
evaluation Gau(P) = Map(B, K) -> K. Rationally every Samelson product
of a connected Lie group vanishes, so both maps die and the answer has
a closed form in the exponents of K (entry.rational_exponents).
"""
from __future__ import annotations

import operator

from .catalog import Catalog, CatalogError, GroupCatalogEntry
from .exactseq import DEFAULT_TORSION_BOUND, SequenceResult, TorsionBoundError, resolve_extension
from .fgab import (
    CapacityError,
    FgAbGroup,
    Homomorphism,
    Value,
    _diagonal_relations,
    _reduced,
    _smith,
    cokernel,
    direct_sum,
    kernel,
)


class PairingUnavailable(CatalogError):
    """A needed Samelson pairing is not catalogued (recoverable; this is
    'unknown', which is different from zero)."""

    def __init__(self, group: str, n: int, m: int):
        self.group = group
        self.n = n
        self.m = m
        super().__init__(
            f"Samelson pairing pi_{n} x pi_{m} -> pi_{n + m} for {group} "
            "is not catalogued"
        )


class Sphere(Value):
    """The sphere S^dim: genus 0, so no split H^1 summands."""

    __slots__ = ("dim",)
    genus = 0

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("sphere dimension must be at least 1")
        self._setters[0](self, dim)

    def __str__(self):
        return f"sphere:{self.dim}"


class Surface(Value):
    """Closed orientable surface of the given genus; genus 0 is S^2."""

    __slots__ = ("genus",)
    dim = 2

    def __init__(self, genus: int):
        if genus < 0:
            raise ValueError("surface genus must be nonnegative")
        self._setters[0](self, genus)

    def __str__(self):
        return f"surface:{self.genus}"


class BundleSpec(Value):
    """A principal K-bundle: base plus classifying element, the coordinate
    tuple of an element of pi_(dim-1)(K): clutching over S^dim, and
    pi_1(K) = H^2 of a surface. The engine counts and reduces it.
    """

    __slots__ = ("base", "clazz")

    def __init__(self, base: Sphere | Surface, clazz: tuple[int, ...]):
        set_base, set_clazz = self._setters
        set_base(self, base)
        set_clazz(self, clazz)


def class_group(catalog: Catalog, group: str, base: Sphere | Surface) -> FgAbGroup:
    """The group the classifying element must live in."""
    return catalog.entry(group).homotopy(base.dim - 1)


def make_bundle(catalog: Catalog, group: str, base: Sphere | Surface, coords) -> BundleSpec:
    return BundleSpec(base, _ends(catalog, group, base.dim, coords)[1])


def _ends(catalog: Catalog, group: str, m: int, b, *degrees: int):
    """The entry of group, the class b counted and reduced in pi_(m-1), then
    each pi_d, all read off the one entry's table; the class is checked
    before any pi_d, which fail in the order given."""
    entry = catalog.entry(group)
    class_gp = entry.homotopy(m - 1)
    b = tuple(map(operator.index, b))
    if len(b) != class_gp.ngens:
        raise ValueError(f"bundle class must lie in pi_{m - 1}({group}) = {class_gp}")
    b = _reduced(class_gp, b)
    try:
        return (entry, b, *map(entry.pi.__getitem__, degrees))
    except KeyError:  # a degree past the table: homotopy raises for the first one
        return (entry, b, *map(entry.homotopy, degrees))


def _pairing_map(entry: GroupCatalogEntry, b: tuple[int, ...], n: int, m: int,
                 domain: FgAbGroup, codomain: FgAbGroup) -> Homomorphism | None:
    """delta_n : domain = pi_n(K) -> codomain = pi_(n+m-1)(K) over S^m, or
    None for a structural zero (an end trivial, b = 0, K abelian), decided
    before pairing data is read; a missing pairing raises PairingUnavailable."""
    if domain.is_trivial or codomain.is_trivial or not any(b) or entry.abelian:
        return None
    pairing = entry.samelson.get((n, m - 1))
    if pairing is None:
        raise PairingUnavailable(entry.name, n, m - 1)
    return pairing.against(tuple(-c for c in b))


def connecting_hom_sphere(
    catalog: Catalog, group: str, m: int, b: tuple[int, ...], n: int
) -> Homomorphism:
    """delta_n = -<., b> = <., -b> : pi_n(K) -> pi_(n+m-1)(K) over S^m,
    the stored pairing's homomorphism against -b (it is biadditive), or
    zero where _pairing_map, the one place the rules live, finds a
    structural zero. A degree past the pi table raises TableDepthError.
    """
    if n < 1:
        raise ValueError("connecting map degree must be >= 1")
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    entry, b, domain, codomain = _ends(catalog, group, m, b, n, n + m - 1)
    f = _pairing_map(entry, b, n, m, domain, codomain)
    return Homomorphism.zero(domain, codomain) if f is None else f


def connecting_hom_surface(
    catalog: Catalog, group: str, genus: int, b: tuple[int, ...], n: int
) -> Homomorphism:
    """delta_n : pi_n(K) -> pi_n(K)^2g + pi_(n+1)(K) over a genus-g
    surface: the first 2g blocks vanish and the last is the S^2 map
    -<., b>. Row k of V in one Smith form U R V = D of the block
    relations R is block generator k in the canonical codomain, read at
    the pivots that are 0 (free), then above 1 (torsion), which are its
    rank and chain. _smith reduces R over an identity border recording V."""
    if genus < 0:
        raise ValueError("genus must be >= 0")
    last = connecting_hom_sphere(catalog, group, 2, b, n)
    orders = last.domain.generator_orders() * (2 * genus) + last.codomain.generator_orders()
    k, relations = len(orders), _diagonal_relations(orders)
    m = relations + [[int(i == j) for j in range(k)] for i in range(k)]
    pivots = _smith(m, len(relations), k) + [0] * (k - len(relations))
    canon = [j for j, x in enumerate(pivots) if x == 0] + [j for j, x in enumerate(pivots) if x > 1]
    rows = m[len(m) - last.codomain.ngens:]
    codomain = FgAbGroup(pivots.count(0), tuple(x for x in pivots if x > 1))
    images = [[sum(r[j] * c for r, c in zip(rows, y)) for j in canon] for y in last.images]
    return Homomorphism(last.domain, codomain, images)


def _genus_sub(coker: FgAbGroup, h1: FgAbGroup, k: int) -> FgAbGroup:
    """sub = coker + h1^k over k = 2*genus zero blocks, h1's chain taking each factor k times."""
    if not k or h1.is_trivial:
        return coker
    try:
        copies = sum(((d,) * k for d in h1.invariant_factors), ())
        return direct_sum(coker, FgAbGroup._from_chain(k * h1.rank, copies))
    except (OverflowError, MemoryError):
        count = len(coker.invariant_factors) + k * len(h1.invariant_factors)
        raise CapacityError(f"sub would have {count} torsion summands, more than can be built")


def gauge_homotopy(
    catalog: Catalog,
    group: str,
    bundle: BundleSpec,
    n: int,
    torsion_bound: int = DEFAULT_TORSION_BOUND,
) -> SequenceResult:
    """pi_n of the gauge group, resolved or with explicit candidates.

    Runs the exact fragment

        pi_(n+1)(K) --delta--> (target) -> pi_n(Gau P) -> pi_n(K) --delta--> (target)

    with both connecting maps read off one catalog entry. A trivial bundle
    (class 0) splits, by the constant-map section, so the answer sub + quot
    is settled first, before any pairing is read or the torsion bound
    applies. Otherwise a structural zero builds no map (coker(0: A -> B) =
    B, ker(0: A -> B) = A), and coker takes one Smith diagonal and ker at
    most two, with no transforms. When the genus summand alone forces the
    torsion order past the bound, the query is refused before that summand
    is built. Errors come in connecting_hom_sphere's order, delta_(n+1) first.
    """
    if n < 1:
        raise ValueError("gauge homotopy degrees start at 1 (degree 0 is out of scope)")
    dim, k = bundle.base.dim, 2 * bundle.base.genus
    entry, b, h1, top, pin, bottom = _ends(catalog, group, dim, bundle.clazz,
                                           n + 1, n + dim, n, n + dim - 1)
    if not any(b):  # the class-0 rule: the evaluation fibration splits
        sub = _genus_sub(top, h1, k)
        return SequenceResult(sub, pin, (direct_sum(sub, pin),))
    left = _pairing_map(entry, b, n + 1, dim, h1, top)
    right = _pairing_map(entry, b, n, dim, pin, bottom)
    coker = top if left is None else cokernel(left)
    quot = pin if right is None else kernel(right)
    if k >= max(1, torsion_bound.bit_length()) and h1.invariant_factors and quot.invariant_factors:
        raise TorsionBoundError(torsion_bound)  # |tors sub| >= 2^k > bound, tors quot != 0
    return resolve_extension(_genus_sub(coker, h1, k), quot, torsion_bound)


def gauge_homotopy_rational(
    catalog: Catalog, group: str, bundle: BundleSpec, n: int
) -> int:
    """dim_Q pi_n(Gau P) tensor Q = dim pi_(n+dim) + 2*genus dim pi_(n+1)
    + dim pi_n of K, a closed form that does not read the class.

    >>> from ghg.catalog import default_catalog
    >>> cat = default_catalog()
    >>> gauge_homotopy_rational(cat, "SU2", make_bundle(cat, "SU2", Sphere(4), (0,)), 3)
    1
    >>> gauge_homotopy_rational(cat, "SU2", make_bundle(cat, "SU2", Surface(2), ()), 2)
    4
    """
    if n < 1:
        raise ValueError("gauge homotopy degrees start at 1 (degree 0 is out of scope)")
    base, exponents = bundle.base, catalog.entry(group).rational_exponents
    return (
        exponents.count(n + base.dim)
        + 2 * base.genus * exponents.count(n + 1)
        + exponents.count(n)
    )
