"""Homotopy groups of gauge groups over spheres and surfaces.

For a principal K-bundle classified by b (an element of pi_(m-1)(K)
over S^m, of pi_1(K) over a genus-g surface), the evaluation fibration
gives a long exact sequence through pi_n(Gau(P)) whose connecting map
is a negated Samelson product with b:

    spheres:   delta_n : pi_n(K) -> pi_(n+m-1)(K),  a |-> -<a, b>
    surfaces:  delta_n : pi_n(K) -> pi_n(K)^2g + pi_(n+1)(K),
               a |-> (0, ..., 0, -<a, b>)

pi_n(Gau(P)) is then the middle term between coker(delta_(n+1)) and
ker(delta_n). A surface is computed as S^2 plus split H^1 summands:
the zero blocks make coker(delta_(n+1)) the S^2 cokernel plus
pi_(n+1)(K)^2g, and ker(delta_n) the S^2 kernel. A trivial bundle
splits, since the constant maps are a section of evaluation
Gau(P) = Map(B, K) -> K. Rationally every Samelson product of a
connected Lie group vanishes, so both maps die and the answer has a
closed form in the exponents of K.
"""
from __future__ import annotations

from .catalog import Catalog
from .exactseq import DEFAULT_TORSION_BOUND, SequenceResult, resolve_extension
from .fgab import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    IntMatrix,
    Value,
    cokernel,
    direct_sum,
    direct_sum_with_injections,
    hom_decompose,
)


class PairingUnavailable(Exception):
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
    __slots__ = ("dim",)

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("sphere dimension must be >= 1")
        object.__setattr__(self, "dim", dim)

    def __str__(self):
        return f"sphere:{self.dim}"


class Surface(Value):
    """Closed orientable surface of the given genus; genus 0 is S^2."""

    __slots__ = ("genus",)

    def __init__(self, genus: int):
        if genus < 0:
            raise ValueError("genus must be >= 0")
        object.__setattr__(self, "genus", genus)

    def __str__(self):
        return f"surface:{self.genus}"


class BundleSpec(Value):
    """A principal K-bundle: base plus classifying element.

    The class lives in pi_(m-1)(K) for sphere bases (clutching) and in
    pi_1(K) = H^2 of the surface for surface bases.
    """

    __slots__ = ("base", "clazz")

    def __init__(self, base: Sphere | Surface, clazz: GroupElement):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "clazz", clazz)


def class_group(catalog: Catalog, group: str, base: Sphere | Surface) -> FgAbGroup:
    """The group the classifying element must live in."""
    if isinstance(base, Sphere):
        return catalog.pi(group, base.dim - 1)
    return catalog.pi(group, 1)


def make_bundle(catalog: Catalog, group: str, base: Sphere | Surface, coords) -> BundleSpec:
    return BundleSpec(base, GroupElement(class_group(catalog, group, base), tuple(coords)))


def connecting_hom_sphere(
    catalog: Catalog, group: str, m: int, b: GroupElement, n: int
) -> Homomorphism:
    """delta_n = -<., b> : pi_n(K) -> pi_(n+m-1)(K) over S^m.

    Zero without consulting pairing data when either end or pi_(m-1) is
    trivial, when b = 0, or when K is abelian; these structural zeros
    are decided here only, as the catalog reports stored pairings.
    Raises PairingUnavailable when a genuinely needed pairing is missing.
    """
    if n < 1:
        raise ValueError("connecting map degree must be >= 1")
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    entry = catalog.entry(group)
    class_gp = catalog.pi(group, m - 1)
    if b.group != class_gp:
        raise ValueError(f"bundle class must lie in pi_{m - 1}({group}) = {class_gp}")
    domain = catalog.pi(group, n)
    codomain = catalog.pi(group, n + m - 1)
    if (
        domain.is_trivial
        or class_gp.is_trivial
        or codomain.is_trivial
        or b.is_zero
        or entry.abelian
    ):
        return Homomorphism.zero(domain, codomain)
    pairing = catalog.samelson(group, n, m - 1)
    if pairing is None:
        raise PairingUnavailable(group, n, m - 1)
    cols = [
        (-pairing.apply(GroupElement.generator(domain, i), b)).coords
        for i in range(domain.ngens)
    ]
    return Homomorphism(domain, codomain, IntMatrix.from_columns(cols, codomain.ngens))


def connecting_hom_surface(
    catalog: Catalog, group: str, genus: int, b: GroupElement, n: int
) -> Homomorphism:
    """delta_n : pi_n(K) -> pi_n(K)^2g + pi_(n+1)(K) over a genus-g
    surface: the first 2g blocks vanish and the last is the S^2 map
    -<., b>."""
    if genus < 0:
        raise ValueError("genus must be >= 0")
    last = connecting_hom_sphere(catalog, group, 2, b, n)
    domain = last.domain
    codomain, injections = direct_sum_with_injections([domain] * (2 * genus) + [last.codomain])
    cols = [
        injections[-1].apply(last.apply(GroupElement.generator(domain, i))).coords
        for i in range(domain.ngens)
    ]
    return Homomorphism(domain, codomain, IntMatrix.from_columns(cols, codomain.ngens))


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

    with both connecting maps built from catalogued Samelson data.
    sub = coker delta_(n+1) takes one Smith normal form (cokernel) and
    quot = ker delta_n three (hom_decompose). A genus-g surface runs as
    S^2: its maps are the S^2 maps with 2g zero blocks added, so the
    cokernel of delta_(n+1) gains pi_(n+1)(K)^2g as a direct summand
    and the kernel of delta_n is the S^2 kernel. A trivial bundle
    (class 0) splits: evaluation Gau(P) = Map(B, K) -> K has the
    constant-map section, so the answer is sub + quot, settled before
    the torsion bound like the split rules of resolve_extension.
    """
    if n < 1:
        raise ValueError("gauge homotopy degrees start at 1 (degree 0 is out of scope)")
    base = bundle.base
    m = base.dim if isinstance(base, Sphere) else 2
    left = connecting_hom_sphere(catalog, group, m, bundle.clazz, n + 1)
    right = connecting_hom_sphere(catalog, group, m, bundle.clazz, n)
    sub = cokernel(left)
    if isinstance(base, Surface):
        # pi_(n+1)(K)^2g is each factor repeated 2g times, a chain already
        k = 2 * base.genus
        h1 = left.domain
        sub = direct_sum(sub, FgAbGroup(k * h1.rank, tuple(sorted(k * h1.invariant_factors))))
    quot = hom_decompose(right)[0]
    if bundle.clazz.is_zero:
        return SequenceResult(sub, quot, resolved=direct_sum(sub, quot))
    return resolve_extension(sub, quot, torsion_bound)


def gauge_homotopy_rational(
    catalog: Catalog, group: str, bundle: BundleSpec, n: int
) -> int:
    """dim_Q pi_n(Gau P) tensor Q, closed form (class-independent).

    Sphere S^m: dim pi_(n+m) + dim pi_n of K; surface of genus g:
    dim pi_(n+2) + 2g dim pi_(n+1) + dim pi_n. The class is not read.
    """
    if n < 1:
        raise ValueError("gauge homotopy degrees start at 1 (degree 0 is out of scope)")
    base = bundle.base
    if isinstance(base, Sphere):
        return catalog.rational_pi(group, n + base.dim) + catalog.rational_pi(group, n)
    return (
        catalog.rational_pi(group, n + 2)
        + 2 * base.genus * catalog.rational_pi(group, n + 1)
        + catalog.rational_pi(group, n)
    )
